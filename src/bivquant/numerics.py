"""Shared numerical kernels with explicit tolerance contracts.

Two primitives back everything else in the package: probability clipping,
and one quadrature, :func:`integrate`, which gives ``int_0^t`` or
``int_t^1`` for a whole t-grid as cumulative Boole sums on one fixed
graded mesh of [0, 1].  Both are pure and deterministic for a fixed
:class:`NumericConfig`.  The plan of a grid (its mesh nodes, weights and
gather indices, see :func:`_plan`) is built once per (config, end, t-grid),
read-only, and at most 4 are kept: two arrays of up to
``4 * quad_points + 2`` nodes plus two per t, so about 66 KB per plan at
the default and 4.2 MB at ``MAX_QUAD_POINTS``; ``verify`` evaluates each
component once on the union of its three plans' nodes.
:func:`require_real` is the one check of real parameters (of families, the
copula, the config, mean hints), each kept as the finite float it returns;
:func:`require_integer` the one integer check of counts (up to
:data:`MAX_COUNT`) and seeds, :func:`require_numbers` the one check of
numeric arrays, and on it :func:`require_probs` the one probability check
of levels, component arguments and t-grids (:func:`require_prob` for one
number); none takes a bool for a number.  :func:`require_choice` checks
string choices (axis, sense, component, kind), :func:`require_keys` the
keys of a model spec or config object, and :func:`require_finite`
is the one overflow check of quantiles, raising :func:`overflow_error`.
:func:`blocks` cuts a long elementwise fill into cache-sized row blocks.
"""

from __future__ import annotations

import functools
import math
import numbers
import operator
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, IntegrandError

#: Exponent of the power grading of the quadrature mesh toward 0 and 1.
#: With distance rho**GRADE from the endpoint, the transformed integrand of
#: an integrable power singularity z**(-s), s < 5/6, is smoother than cubic,
#: so the composite rule converges at full rate.
GRADE = 6.0

#: Rows per block of the elementwise kernels that fill a large output: each
#: float temporary of a block is 64 KB, so it stays in cache and the
#: allocator reuses it instead of mapping fresh pages for every call.
BLOCK = 8192

#: Largest accepted count (sample size, grid points): each integer up to it is a float, no such array fits in memory.
MAX_COUNT = 2**53

#: Largest accepted ``quad_points``: :func:`integrate` evaluates up to
#: ``4 * quad_points + 2`` mesh nodes, plus two points per t, per call.
MAX_QUAD_POINTS = 2**16


def require_real(name: str, value, error: type[Exception], positive: bool = False) -> float:
    """``value`` as a finite float, above 0 if ``positive``; ``error`` if it is a bool, not a real number, too large
    for a float, not finite, or (with ``positive``) not above 0."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name} must be a real number, got {value!r}")
    try:
        real = float(value)
    except OverflowError as exc:
        raise error(f"{name} is too large for a float") from exc
    if not math.isfinite(real) or (positive and real <= 0.0):
        raise error(f"{name} must be a finite{', strictly positive' if positive else ''} real, got {real!r}")
    return real


def require_integer(name: str, value, least: int, most: int | None = MAX_COUNT) -> int:
    """``value`` as an int; :class:`DomainError` unless it is an integer, not a bool, in [``least``, ``most``]."""
    try:
        valid = not isinstance(value, (bool, np.bool_)) and int(value) == value and value >= least
    except (TypeError, ValueError, OverflowError):  # None, a list; NaN and the infinities have no integer value
        valid = False
    if not valid:
        raise DomainError(f"{name} must be an integer >= {least}, got {value!r}")
    if most is not None and value > most:
        raise DomainError(f"{name} must be at most {most}, got {value!r}")
    return int(value)


def require_numbers(name: str, value) -> np.ndarray:
    """``value`` as a float array; :class:`DomainError` unless it is a number or an array of numbers, not bools."""
    try:
        arr = np.asarray(value)
        if arr.dtype.kind not in "iuf":  # numpy would read None as NaN, a string as the number it spells, True as 1
            raise TypeError
        return arr.astype(float, copy=False)
    except (TypeError, ValueError, OverflowError) as exc:
        # an array is named by its dtype and shape: its repr spans lines and may list thousands of values
        got = (f"an array of dtype {value.dtype} and shape {value.shape}" if isinstance(value, np.ndarray)
               else repr(value))
        raise DomainError(f"{name} must be a number or an array of numbers, got {got}") from exc


def require_probs(name: str, value, closed: bool = False, grid: bool = False) -> np.ndarray:
    """``value`` as a float array; :class:`DomainError` if it is not numeric, or naming its first value outside (0,1).

    With ``closed``, the interval is [0, 1].  With ``grid``, only a scalar or 1-D grid passes, before the range, as 1-D.
    """
    arr = require_numbers(name, value)
    if grid:
        arr = np.atleast_1d(arr)
        if arr.ndim > 1:
            raise DomainError(f"{name} must be a scalar or a 1-D grid, got shape {arr.shape}")
    below = operator.le if closed else operator.lt
    # one reduction each way; NaN propagates through both, and 0.5 lets an empty grid pass
    if below(0.0, arr.min(initial=0.5)) and below(arr.max(initial=0.5), 1.0):
        return arr
    outside = arr[~(below(0.0, arr) & below(arr, 1.0))]  # NaN fails both comparisons
    interval = "[0, 1]" if closed else "(0,1)"
    raise DomainError(f"{name} must lie in {interval}, got {float(outside[0])!r}")


def require_prob(name: str, value) -> float:
    """``value`` as one float: :func:`require_probs`, then :class:`DomainError` unless it is one number."""
    arr = require_probs(name, value)
    if arr.ndim:
        raise DomainError(f"{name} must be one number, got shape {arr.shape}")
    return float(arr)


def require_choice(name: str, value, choices: tuple) -> str:
    """``value``; :class:`DomainError` unless it is a ``str`` in ``choices`` (an array is never compared)."""
    if not (isinstance(value, str) and value in choices):
        raise DomainError(f"{name} must be one of {choices}, got {value!r}")
    return value


def require_keys(what: str, keys, allowed, required, error: type[Exception]) -> None:
    """``error`` naming the sorted ``keys`` outside ``allowed``; failing that, the sorted ``required`` keys absent."""
    # by text, then repr: keys of any type are named, never compared, and 2 and "2" keep one order in every process
    unknown, missing = set(keys) - set(allowed), set(required) - set(keys)
    if unknown:
        raise error(f"unknown {what}: {sorted(unknown, key=lambda k: (str(k), repr(k)))}")
    if missing:
        raise error(f"missing {what}: {sorted(missing, key=lambda k: (str(k), repr(k)))}")


def require_finite(fn: Callable, *args, what: str, family):
    """``fn(*args)``, or :class:`DomainError` naming ``what`` if a value is not finite.

    ``fn`` computes quantiles of ``family``, or values built on them, with
    numpy's floating-point warnings off: an overflow is this one error, not
    a warning followed by an ``inf`` in the output.
    """
    with np.errstate(all="ignore"):  # a non-finite value is reported below, as one error
        values = fn(*args)
    if not np.isfinite(values).all():
        raise overflow_error(what, family)
    return values


def overflow_error(what: str, family) -> DomainError:
    """The error of :func:`require_finite`: ``what`` is not finite, since the quantile of ``family`` overflows."""
    return DomainError(f"{what} is not finite: the quantile of {family.describe()} overflows")


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and resolutions shared across the package, kept as the floats :func:`require_real` returns.

    Attributes
    ----------
    eps_boundary:
        Probability arguments lie in ``[eps_boundary, 1 - eps_boundary]``: the
        model quantiles clip theirs, the components check theirs, each once,
        where it enters; phi's level is never clipped.  Below 0.5.
    quad_points:
        Resolution of the quadrature mesh, an int at most ``MAX_QUAD_POINTS``: each
        half of [0, 1] has ``2 * quad_points`` panels, summed by Boole's rule
        four at a time (a pair of Simpson pairs) and by Simpson's on a lone
        last pair.
    sing_clip:
        Distance from 0 and from 1 at which the quadrature mesh stops; at
        least ``eps_boundary`` and below 0.5.
        :func:`integrate` reports the integral over the clipped interval,
        not the (possibly divergent) full one; the inverse maps and the
        hazard/MRL identity add back the mass dropped at their singular
        endpoint (see :mod:`bivquant.reconstruction`).
    """

    eps_boundary: float = 1e-9
    quad_points: int = 1024
    sing_clip: float = 1e-7

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, require_real(f.name, getattr(self, f.name), ConfigError, positive=True))
        for name in ("eps_boundary", "sing_clip"):  # from 0.5 up, [x, 1 - x] holds one point or none
            if getattr(self, name) >= 0.5:
                raise ConfigError(f"{name} must be below 0.5, got {getattr(self, name)!r}")
        if self.sing_clip < self.eps_boundary:
            raise ConfigError(
                f"sing_clip ({self.sing_clip}) must be >= eps_boundary ({self.eps_boundary})"
            )
        if not self.quad_points.is_integer():
            raise ConfigError(f"quad_points must be an integer, got {self.quad_points!r}")
        if self.quad_points > MAX_QUAD_POINTS:
            raise ConfigError(f"quad_points must be at most {MAX_QUAD_POINTS}, got {self.quad_points!r}")
        object.__setattr__(self, "quad_points", int(self.quad_points))


DEFAULT_CONFIG = NumericConfig()


def config_or_default(cfg: NumericConfig | None) -> NumericConfig:
    return DEFAULT_CONFIG if cfg is None else cfg


def clip_prob(p, cfg: NumericConfig | None = None):
    """Clip probability value(s) into ``[eps_boundary, 1 - eps_boundary]``."""
    cfg = config_or_default(cfg)
    return np.clip(p, cfg.eps_boundary, 1.0 - cfg.eps_boundary)


def blocks(n: int):
    """Consecutive slices of at most :data:`BLOCK` rows that cover ``range(n)``."""
    return (slice(start, start + BLOCK) for start in range(0, n, BLOCK))


def t_grid(t) -> tuple[np.ndarray, bool]:
    """``t`` as a 1-D float grid on (0,1), and whether it was a scalar."""
    return require_probs("t", t, grid=True), np.ndim(t) == 0


def _graded(rho, far, end: float) -> tuple[np.ndarray, np.ndarray]:
    """z at distance ``rho**GRADE`` from ``end``, or from the other endpoint where ``far``, and dz/drho."""
    dist, sign = rho**GRADE, 1.0 - 2.0 * end
    return np.where(far, (1.0 - end) - sign * dist, end + sign * dist), GRADE * rho ** (GRADE - 1.0)


@functools.lru_cache(maxsize=4)  # the three t-grids of ``verify`` (its node table holds their nodes), and one more
def _plan(cfg: NumericConfig, end: float, shape: tuple, data: bytes):
    """What :func:`integrate` needs besides ``f`` on the grid ``data``, read-only; None if it is empty.

    That is the grid size ``n``, the last near-half node ``k_near``, the
    nodes ``z`` and their ``weight`` (dz/drho times the rule's coefficient,
    or, at each t's midpoint and t node, its partial pair's), the index of
    each t's quad end in ``z`` and in the prefix sum, and the factor of the
    quad end's weighted value in each t's result.
    """
    ts, _ = t_grid(np.frombuffer(data).reshape(shape))
    if not ts.size:
        return None
    rho = np.linspace(cfg.sing_clip ** (1.0 / GRADE), 0.5 ** (1.0 / GRADE), 2 * cfg.quad_points + 1)
    (z_near, w), (z_far, _) = _graded(rho, False, end), _graded(rho, True, end)
    m = rho.size - 1
    q = m - m % 4
    # in units of 2h/45: Boole on the quads of each half from its own endpoint, then Simpson's
    # h/3 (1, 4, 1) on its lone odd pair next to 1/2
    coeff = np.concatenate([np.tile([14.0, 32.0, 12.0, 32.0], q // 4), [7.0, 30.0, 7.5][: m - q + 1]])
    coeff[0] -= 7.0
    coeff[q] += 7.5 * (q < m)
    unit = 2.0 * (rho[1] - rho[0]) / 45.0
    # each half of [0, 1] is graded toward its own endpoint; the half at
    # ``end`` is the near one, and rho_t places t in its half
    near_dist, far_dist = (ts, 1.0 - ts) if end == 0.0 else (1.0 - ts, ts)
    far = near_dist > 0.5
    rho_t = np.clip(np.where(far, far_dist, near_dist) ** (1.0 / GRADE), rho[0], rho[-1])
    # the quad end nearest t: a partial pair from it to t, and its midpoint, cover the rest
    lo = np.searchsorted(rho, rho_t, "right") - 1
    lo -= lo % 4
    hi = np.minimum(lo + 4, m)
    k = np.where(rho[hi] - rho_t < rho_t - rho[lo], hi, lo)
    k_near, k_far = (m, int(k[far].min())) if far.any() else (int(k.max()), m + 1)
    # only each t's midpoint and t node are new, on the far half where t is
    z_t, w_t = _graded(np.concatenate([0.5 * (rho[k] + rho_t), rho_t]), np.concatenate([far, far]), end)
    span = np.where(far, rho[k] - rho_t, rho_t - rho[k]) / 6.0  # negative where t lies before its quad end
    z = np.concatenate([z_near[: k_near + 1], z_far[k_far:], z_t])
    w = unit * coeff * w
    weight = np.concatenate([w[: k_near + 1], w[k_far:], w_t * np.concatenate([4.0 * span, span])])
    idx_k = np.where(far, k_near + 1 + k - k_far, k)
    idx_c = np.where(far, 2 * m + 1 - k, k)
    # the quad end's coefficient on the side already summed: below it in the near half, above it in the far one
    lower = np.where(k > q, 7.5, 7.0 * (k > 0))
    factor = (np.where(far, coeff[k] - lower, lower) + span / unit) / coeff[k]
    for a in (z, weight, idx_k, idx_c, factor):
        a.flags.writeable = False
    return ts.size, k_near, z, weight, idx_k, idx_c, factor


def integrate(f: Callable, ts, end: float, cfg: NumericConfig | None = None) -> np.ndarray:
    """``int_0^t f`` (``end = 0``) or ``int_t^1 f`` (``end = 1``) for each t of ``ts`` in (0, 1).

    ``f`` must accept ndarray arguments.  Each half of [0, 1] has
    ``2 * quad_points`` panels, uniform in rho, at distance
    ``rho**GRADE`` from the half's own endpoint, with rho running from
    ``sing_clip**(1/GRADE)`` to ``(1/2)**(1/GRADE)``.  So the mesh crowds
    toward 0 and 1, stops ``sing_clip`` short of both (for divergent
    integrands the result is the clipped integral by contract) and depends
    on ``cfg`` only.  From each half's endpoint, every four panels (a pair
    of Simpson pairs, ``S_h``) take Boole's rule, ``S_h + (S_h - S_2h)/15``
    with ``S_2h`` Simpson's on every other node; where ``quad_points`` is
    odd, the half's lone last pair takes Simpson's.  The weighted values
    are summed cumulatively from ``end``, in a fixed sequential order, up
    to the quad end nearest t; one Simpson pair from there to t, with its
    own midpoint, covers the rest.  So every t of a grid comes from one
    call of ``f``, and each equals the value of a one-point grid bit for
    bit.  The nodes, weights and indices of a grid are built once per
    (config, end, grid) and kept (:func:`_plan`).  A non-finite value of
    ``f`` raises :class:`IntegrandError` naming its z, and so does a result
    that overflows, without a numpy warning.
    """
    if isinstance(end, bool) or not (isinstance(end, numbers.Real) and end in (0.0, 1.0)):  # an array is never compared
        raise DomainError(f"end must be 0 or 1, got {end!r}")
    grid = np.atleast_1d(require_numbers("t", ts))
    plan = _plan(config_or_default(cfg), end, grid.shape, grid.tobytes())
    if plan is None:
        return np.zeros(0)
    n, k_near, z, weight, idx_k, idx_c, factor = plan
    with np.errstate(all="ignore"):  # a non-finite value or result is reported as one error
        g = np.asarray(f(z), dtype=float)
        bad = ~np.isfinite(g)
        if bad.any():
            raise IntegrandError(f"integrand is not finite at z = {float(z[bad][0])!r}")
        g = g * weight
        # away from ``end``: the near half outward, then the far half toward its endpoint
        prefix = np.cumsum(np.concatenate([[0.0], g[: k_near + 1], g[k_near + 1 : -2 * n][::-1]]))
        values = prefix[idx_c] + factor * g[idx_k] + g[-2 * n : -n] + g[-n:]
    if not np.isfinite(values).all():
        raise IntegrandError("integral is not finite: the weighted sum of the integrand overflows")
    return values
