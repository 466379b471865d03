"""Span recorder that traces ``bivquant`` from outside the package.

:func:`install` wraps the public functions of each module, and the kernel
methods of the marginal and copula classes, at every attribute a caller
resolves them through: the defining module, any module that imported the
function by name, and the CLI's dispatch tables.  Each wrapped call is a
span.  A span's self time is its duration minus the time covered by its
child spans; calls, points and errors are counted only where a call enters
a layer from a different one, so a layer calling itself is not counted
twice.  Totals are aggregated in memory while the traced loop runs.
"""

from __future__ import annotations

import functools
import inspect
import os
import time
from collections import defaultdict

import numpy as np

#: Kernel methods of the model classes that the other layers call per point.
MODEL_METHODS = (
    "quantile",
    "cdf",
    "quantile_deriv",
    "quantile_integral",
    "weighted_quantile_integral",
    "quantile_gap_integral",
    "weighted_quantile_gap_integral",
    "cond_linear_coeff",
    "cond_cdf",
    "cond_quantile",
    "cond_cdf_deriv",
)


def _size(value) -> int:
    if isinstance(value, bool):
        return 0
    if isinstance(value, (int, float, np.number)):
        return 1
    if isinstance(value, np.ndarray):
        return int(value.size)
    return 0


def default_points(args, kwargs) -> int:
    """Probability points of a call: the largest numeric argument."""
    return max([_size(a) for a in args] + [_size(v) for v in kwargs.values()] + [1])


def _sample_pairs(args, kwargs) -> int:
    sample_set = args[0] if args else kwargs.get("sample_set")
    return int(getattr(sample_set, "n", 0))


def _curve_rows(args, kwargs) -> int:
    curve = args[1] if len(args) > 1 else kwargs.get("curve")
    return int(np.shape(getattr(curve, "points", ()))[0] or 0)


def _n_points(args, kwargs) -> int:
    return int(args[3] if len(args) > 3 else kwargs.get("n_points", 0))


def _sample_n(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs.get("n", 0))


#: Points of functions whose work is not sized by a probability argument.
POINTS = {
    ("curves", "curve_points"): _n_points,
    ("curves", "level_residuals"): _curve_rows,
    ("estimation", "sample"): _sample_n,
    ("estimation", "empirical_curve"): _sample_pairs,
    ("estimation", "empirical_mrl_first"): _sample_pairs,
}


class Recorder:
    """In-memory span stack plus per-layer and per-function totals."""

    def __init__(self):
        self.stack = []  # frames: [layer, start, child_time]
        self.calls = defaultdict(int)
        self.points = defaultdict(int)
        self.errors = defaultdict(int)
        self.self_time = defaultdict(float)
        self.func_time = defaultdict(float)  # inclusive time of top-level calls, by qualified name
        self.integrand_points = 0
        self.bytes_in = 0

    def call(self, layer: str, name: str, fn, args, kwargs, points=default_points, counted=True):
        parent = self.stack[-1][0] if self.stack else None
        entry = counted and parent != layer
        if entry:
            self.calls[layer] += 1
            self.points[layer] += points(args, kwargs)
        frame = [layer, time.perf_counter(), 0.0]
        self.stack.append(frame)
        try:
            return fn(*args, **kwargs)
        except Exception:
            if entry:
                self.errors[layer] += 1
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            duration = end - frame[1]
            self.self_time[layer] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration
            if entry:
                self.func_time[name] += duration


def _wrap(rec: Recorder, layer: str, name: str, fn, points=default_points):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(layer, name, fn, args, kwargs, points)

    return wrapper


def _wrap_integrate(rec: Recorder, fn):
    """Wrap ``integrate`` and the integrand it receives, to count evaluations.

    The integrand is a closure of the caller (``reconstruction``), so its
    own arithmetic is charged to that layer; it is not counted as a call.
    """

    def counting(f):
        def integrand(z):
            rec.integrand_points += int(np.size(z))
            return rec.call("reconstruction", "integrand", f, (z,), {}, counted=False)

        return integrand

    @functools.wraps(fn)
    def wrapper(f, *args, **kwargs):
        return rec.call("numerics", "numerics.integrate", fn, (counting(f), *args), kwargs)

    return wrapper


def _wrap_loader(rec: Recorder, fn):
    """Wrap a CLI loader; its first argument is the path it reads."""

    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        if isinstance(path, str) and os.path.isfile(path):
            rec.bytes_in += os.path.getsize(path)
        return rec.call("cli.load", f"cli.{fn.__name__}", fn, (path, *args), kwargs)

    return wrapper


def _public_functions(module):
    return {
        name: fn
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_")
    }


def install() -> tuple[Recorder, callable]:
    """Wrap the package in place; returns the recorder and an undo callable.

    Layers are named after modules, except ``cli.load``: the CLI's input
    loaders, so that ``cli`` self time excludes parsing input files.
    """
    import bivquant
    import bivquant.cli as cli
    import bivquant.curves as curves
    import bivquant.estimation as estimation
    import bivquant.models as models
    import bivquant.numerics as numerics
    import bivquant.reconstruction as reconstruction
    import bivquant.reliability as reliability

    rec = Recorder()
    wrappers = {}  # original function -> its wrapper
    for layer, module in (
        ("reliability", reliability),
        ("reconstruction", reconstruction),
        ("models", models),
        ("curves", curves),
        ("estimation", estimation),
    ):
        for name, fn in _public_functions(module).items():
            wrappers[fn] = _wrap(rec, layer, f"{layer}.{name}", fn, POINTS.get((layer, name), default_points))
    wrappers[numerics.integrate] = _wrap_integrate(rec, numerics.integrate)
    wrappers[cli.main] = _wrap(rec, "cli", "cli.main", cli.main)
    for name in ("load_model", "load_numeric_config", "load_sample_csv"):
        fn = getattr(cli, name, None)
        if fn is not None:
            wrappers[fn] = _wrap_loader(rec, fn)

    def swap(value):
        if inspect.isfunction(value):
            return wrappers.get(value, value)
        if isinstance(value, tuple):
            items = tuple(swap(v) for v in value)
            return items if any(a is not b for a, b in zip(items, value)) else value
        return value

    undo = []
    for module in (bivquant, cli, curves, estimation, models, numerics, reconstruction, reliability):
        for name, value in list(vars(module).items()):
            if name.startswith("__"):
                continue
            # dispatch tables such as cli._FIELD_KINDS hold the functions themselves
            targets = list(value.items()) if isinstance(value, dict) else [(name, value)]
            container = value if isinstance(value, dict) else module
            setter = dict.__setitem__ if isinstance(value, dict) else setattr
            for key, entry in targets:
                new = swap(entry)
                if new is not entry:
                    setter(container, key, new)
                    undo.append((setter, container, key, entry))

    for cls in _model_classes(models):
        for name in MODEL_METHODS:
            fn = cls.__dict__.get(name)
            if inspect.isfunction(fn) and not getattr(fn, "__isabstractmethod__", False):
                setattr(cls, name, _wrap(rec, "models", f"models.{cls.__name__}.{name}", fn))
                undo.append((setattr, cls, name, fn))

    def uninstall():
        for setter, target, key, original in reversed(undo):
            setter(target, key, original)

    return rec, uninstall


def _model_classes(models):
    bases = tuple(getattr(models, n) for n in ("Marginal", "Copula") if hasattr(models, n))
    return [
        value
        for value in vars(models).values()
        if inspect.isclass(value) and value.__module__ == models.__name__ and issubclass(value, bases)
    ]
