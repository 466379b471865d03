"""Smoke test of the benchmark tracer against the package it wraps.

``benchmarks/spans.py`` wraps functions by name (``numerics.integrate``
among them), so a rename in the package would otherwise only show up as a
failing ``--trace 1`` benchmark run.
"""

import collections
import contextlib
import importlib.util
import io
import json
import os
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import bivquant
from bivquant import (
    BivariateModel,
    Exponential,
    FGMCopula,
    Pareto,
    Uniform01,
    Weibull,
    cli,
    curves,
    estimation,
    models,
    numerics,
    reconstruction,
    reliability,
)
from bivquant.numerics import DEFAULT_CONFIG

from conftest import bench_inputs

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    """The functions the tracer swaps, at the attributes callers resolve them through."""
    return {
        "numerics.integrate": numerics.integrate,
        "reconstruction.integrate": reconstruction.integrate,
        "bivquant.integrate": bivquant.integrate,
        "reconstruction.round_trip": reconstruction.round_trip,
        "reliability.QUANTITIES": dict(reliability.QUANTITIES),
    }


def test_traced_round_trip_counts_one_quadrature_and_is_undone():
    originals = _traced_names()
    model = BivariateModel(Exponential(1.3), Weibull(1.1, 1.7), FGMCopula(-0.6))
    rec, undo = _load_spans().install()
    ts = np.linspace(0.05, 0.99, 9)
    try:
        assert reconstruction.integrate is not originals["reconstruction.integrate"]
        reconstruction.round_trip(model, "rev-hazard", "second", 0.4, ts)
    finally:
        undo()
    assert rec.calls["numerics"] == 1
    assert rec.integrand_points > 0
    # every read goes through reliability: the integrand's nodes, the level check that reads the offset at one
    # point, and the reference quantile on ts
    assert rec.points["reliability"] == rec.integrand_points + 1 + ts.size
    assert _traced_names() == originals


def test_traced_cli_loads_count_each_input_file_once(tmp_path):
    # cli.load_ms and cli.bytes_in of the benchmark come from these spans; main loads model and config
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"marginal_x": {"kind": "Uniform01"},
                                 "marginal_y": {"kind": "Exponential", "rate": 2.0},
                                 "copula": {"kind": "FGM", "theta": 0.5}}))
    draws = tmp_path / "draws.csv"
    runs = [
        (["sample", "--model", str(model), "--n", "200", "--seed", "3", "--out", str(draws)], 2, [model]),
        (["curve", "--model", str(model), "-p", "0.25", "--dir", "mm", "-n", "5", "--sample", str(draws),
          "--out", str(tmp_path / "curve.csv")], 3, [model, draws]),
    ]
    for argv, loads, read in runs:
        rec, undo = _load_spans().install()
        try:
            assert cli.main(argv) == 0
        finally:
            undo()
        assert (rec.calls["cli"], rec.calls["cli.load"], rec.errors["cli.load"]) == (1, loads, 0)
        assert rec.bytes_in == sum(path.stat().st_size for path in read)


def test_every_kernel_of_every_family_is_one_traced_call():
    # each family holds its own copy of every kernel, so the tracer names and counts each one
    grid = np.linspace(0.1, 0.9, 5)
    families = [Uniform01(), Exponential(1.3), Pareto(1.1, 2.4), Weibull(0.8, 1.7)]
    originals = {(type(fam), name): vars(type(fam))[name] for fam in families for name in models.KERNELS}
    for fam in families:
        for name in models.KERNELS:
            rec, undo = _load_spans().install()
            try:
                getattr(fam, name)(grid)
            finally:
                undo()
            assert rec.calls["models"] == 1, (fam, name)
            assert f"models.{type(fam).__name__}.{name}" in rec.func_time
    assert {key: vars(key[0])[key[1]] for key in originals} == originals


def test_every_reliability_component_is_one_traced_call():
    # the components are built by one factory; each must still be a public function the tracer wraps and names
    model = BivariateModel(Exponential(1.3), Weibull(1.1, 1.7), FGMCopula(-0.6))
    grid = np.linspace(0.1, 0.9, 5)
    originals = dict(reliability.QUANTITIES)
    for quantity, pair in originals.items():
        for index, component in enumerate(pair):
            assert getattr(reliability, component.__name__) is component
            args = (model, grid) if index == 0 else (model, 0.4, grid)
            rec, undo = _load_spans().install()
            try:
                reliability.QUANTITIES[quantity][index](*args)
            finally:
                undo()
            assert rec.calls["reliability"] == 1, (quantity, index)
            assert [name for name in rec.func_time if name.startswith("reliability.")] == [
                f"reliability.{component.__name__}"
            ]
    assert reliability.QUANTITIES == originals


def test_traced_verify_charges_each_component_to_reliability_once():
    # verify evaluates each component once on its node table, and each check integrates once
    model = BivariateModel(Weibull(1.3, 0.9), Pareto(1.1, 2.4), FGMCopula(0.4))
    reconstruction.verify(model)  # the node table is built outside the traced call
    rec, undo = _load_spans().install()
    try:
        records = reconstruction.verify(model)
    finally:
        undo()
    assert rec.calls["reliability"] == 2 and rec.errors["reliability"] == 0
    assert [name for name in rec.func_time if name.startswith("reliability.")] == ["reliability.all_quantities"]
    assert rec.calls["numerics"] == len(records) == len(reconstruction.CHECKS)
    assert rec.integrand_points > 0
    # the kernel work of this model, exactly: a change in it shows here, not only in a traced benchmark run
    assert rec.calls["models"] == 11
    assert rec.points["models"] == 42_784


def _traced(run):
    rec, undo = _load_spans().install()
    try:
        run()
    finally:
        undo()
    return rec


def _work(rec, ops):
    """The per-op work figures of a traced benchmark run (``benchmarks/worker.py``'s ``layer_metrics``)."""
    return {
        "numerics.integrate_calls": rec.calls["numerics"] / ops,
        "numerics.integrand_points": rec.integrand_points / ops,
        "reliability.calls": rec.calls["reliability"] / ops,
        "reliability.points": rec.points["reliability"] / ops,
        "models.calls": rec.calls["models"] / ops,
        "models.points": rec.points["models"] / ops,
        "curves.points": rec.points["curves"] / ops,
    }


#: The traced work of one op of each in-process workload, exactly. A change that moves one on purpose updates it
#: here and states old -> new.
VERIFY_SWEEP_WORK = {
    "numerics.integrate_calls": 9.875,
    "numerics.integrand_points": 29_344.5,
    "reliability.calls": 2.125,
    "reliability.points": 8_558.125,
    "models.calls": 10.65625,
    "models.points": 37_035.84375,
    "curves.points": 0.0,
}
MONTE_CARLO_WORK = {"models.points": 700_200.0, "curves.points": 200_601.0}


def test_verify_sweep_work_per_op(tmp_path):
    # the ops of the seed-1 verify-sweep pool: ``verify --model M --out F`` in-process, the node table built before
    inputs = bench_inputs()
    argvs = []
    for i, spec in enumerate(inputs.draw_pool(inputs.VERIFY_LAYOUT, 1, "verify-sweep")):
        path = tmp_path / f"model-{i:02d}.json"
        path.write_text(json.dumps(spec))
        argvs.append(["verify", "--model", str(path), "--out", str(tmp_path / "verify.csv")])
    reconstruction._node_table(DEFAULT_CONFIG)

    def run():
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in argvs]
        assert set(codes) <= {0, 1}  # the infinite-mean models fail their MRL round trip and identity by name

    assert _work(_traced(run), len(argvs)) == VERIFY_SWEEP_WORK


def _monte_carlo_op(model, direction):
    draws = estimation.sample(model, 100_000, 1000)
    lo, hi = curves.admissible_interval(0.25, direction)
    curves.level_residuals(model, estimation.empirical_curve(draws, 0.25, direction, np.linspace(lo, hi, 200)))
    for u in (0.25, 0.5, 0.75):
        estimation.empirical_mrl_first(draws, u)
    curves.level_residuals(model, curves.curve_points(model, 0.25, direction, 100_000))


def test_monte_carlo_work_per_op():
    # the first op of the seed-1 monte-carlo pool: 1e5 pairs, a 200-point empirical curve, three empirical MRLs,
    # and a 1e5-point analytic curve, each curve with its level residuals
    inputs = bench_inputs()
    model = models.model_from_dict(inputs.draw_pool(inputs.MC_LAYOUT, 1, "monte-carlo")[0])
    direction = models.Direction.from_string("mm")
    work = _work(_traced(lambda: _monte_carlo_op(model, direction)), 1)
    assert {name: work[name] for name in MONTE_CARLO_WORK} == MONTE_CARLO_WORK


#: Where the call pins were counted: a numpy function the package calls counts as one Python call, so another
#: numpy (or interpreter) may count differently.
CALLS_COUNTED_ON = {"python": "3.11.7", "numpy": "2.4.6"}
PACKAGE = str(Path(bivquant.__file__).resolve().parent) + os.sep


def _calls(run):
    """The calls of ``run()`` after one warm pass (the first fills the caches): ``(package, out, c)``, and where.

    ``package`` counts Python calls into a frame under ``src/bivquant``, ``out`` Python calls from such a frame into
    one outside it, and ``c`` C calls made from a package frame.  Calls numpy makes on its own do not count.  The
    second value counts each counted call by (callee, caller); a caller outside the package reads ``outside``.
    """
    here = {"python": platform.python_version(), "numpy": np.__version__}
    drift = "; ".join(f"{key} {CALLS_COUNTED_ON[key]} here {here[key]}" for key in here
                      if here[key] != CALLS_COUNTED_ON[key])
    if drift:
        pytest.skip(f"call pins were counted on another platform: {drift}")
    run()
    counts, where = [0, 0, 0], collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            if _in_package(frame):
                counts[0] += 1
                where[_name(frame), _name(frame.f_back) if _in_package(frame.f_back) else "outside"] += 1
            elif _in_package(frame.f_back):
                counts[1] += 1
                where[_name(frame), _name(frame.f_back)] += 1
        elif event == "c_call" and _in_package(frame):
            counts[2] += 1
            where[f"{getattr(arg, '__module__', None) or 'builtins'}.{arg.__qualname__}", _name(frame)] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return tuple(counts), where


def _in_package(frame) -> bool:
    return frame is not None and frame.f_code.co_filename.startswith(PACKAGE)


def _name(frame) -> str:
    return f"{Path(frame.f_code.co_filename).stem}.{frame.f_code.co_qualname}"


def _largest(where, n=15) -> str:
    """The ``n`` largest (callee <- caller) counts of :func:`_calls`, one a line, for a failing pin's message."""
    return "calls by (callee <- caller):\n" + "\n".join(
        f"{count:6d}  {callee} <- {caller}" for (callee, caller), count in where.most_common(n))


#: The calls of each in-process workload, exactly, as :func:`_calls` counts them: ``verify`` over the seed-1
#: verify-sweep pool, and one monte-carlo op.  A change that moves one updates it here and states old -> new.
VERIFY_SWEEP_CALLS = (7_650, 9_379, 7_012)
MONTE_CARLO_CALLS = (619, 2_017, 575)


def test_verify_sweep_calls():
    inputs = bench_inputs()
    pool = [models.model_from_dict(spec) for spec in inputs.draw_pool(inputs.VERIFY_LAYOUT, 1, "verify-sweep")]
    counts, where = _calls(lambda: [reconstruction.verify(model) for model in pool])
    assert counts == VERIFY_SWEEP_CALLS, _largest(where)


def test_monte_carlo_calls():
    inputs = bench_inputs()
    model = models.model_from_dict(inputs.draw_pool(inputs.MC_LAYOUT, 1, "monte-carlo")[0])
    direction = models.Direction.from_string("mm")
    counts, where = _calls(lambda: _monte_carlo_op(model, direction))
    assert counts == MONTE_CARLO_CALLS, _largest(where)
