"""Shared numerical kernels with explicit tolerance contracts.

Three primitives back everything else in the package: probability
clipping, composite Simpson quadrature (with declared endpoint
singularities handled by a power-graded mesh), and cumulative Simpson sums
``int_0^t`` and ``int_t^1`` over a whole t-grid on one fixed graded mesh of
[0, 1].  All are pure and deterministic for a fixed :class:`NumericConfig`.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, IntegrandError

#: Exponent of the power-graded mesh used near declared singular endpoints.
#: With grading t = clip + rho**GRADE the transformed integrand of an
#: integrable power singularity t**(-s), s < 5/6, is smoother than cubic,
#: so composite Simpson converges at full rate.
GRADE = 6.0

#: Largest accepted ``quad_points``: the cumulative sums evaluate
#: ``4 * quad_points + 1`` mesh nodes per call.
MAX_QUAD_POINTS = 2**16


@dataclass(frozen=True)
class NumericConfig:
    """Tolerances and resolutions shared across the package.

    Attributes
    ----------
    eps_boundary:
        Probability arguments are clipped to ``[eps_boundary, 1 - eps_boundary]``
        before quantile-type evaluation, so unbounded supports never produce
        infinities.
    quad_points:
        Panel count of the composite Simpson rule (rounded up to even), at
        most ``MAX_QUAD_POINTS``; the cumulative sums use twice as many
        panels on each half of [0, 1].
    sing_clip:
        Distance from a declared singular endpoint at which integration stops.
        The reported value approximates the integral over the clipped
        interval, not the (possibly divergent) full one.
    """

    eps_boundary: float = 1e-9
    quad_points: int = 2048
    sing_clip: float = 1e-6

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigError(f"{f.name} must be a real number, got {value!r}")
            if not np.isfinite(value) or value <= 0:
                raise ConfigError(f"{f.name} must be strictly positive, got {value!r}")
        if self.sing_clip < self.eps_boundary:
            raise ConfigError(
                f"sing_clip ({self.sing_clip}) must be >= eps_boundary ({self.eps_boundary})"
            )
        if int(self.quad_points) != self.quad_points:
            raise ConfigError(f"quad_points must be an integer, got {self.quad_points!r}")
        if self.quad_points > MAX_QUAD_POINTS:
            raise ConfigError(f"quad_points must be at most {MAX_QUAD_POINTS}, got {self.quad_points!r}")


DEFAULT_CONFIG = NumericConfig()


def config_or_default(cfg: NumericConfig | None) -> NumericConfig:
    return DEFAULT_CONFIG if cfg is None else cfg


def clip_prob(p, cfg: NumericConfig | None = None):
    """Clip probability value(s) into ``[eps_boundary, 1 - eps_boundary]``."""
    cfg = config_or_default(cfg)
    return np.clip(p, cfg.eps_boundary, 1.0 - cfg.eps_boundary)


def t_grid(t) -> tuple[np.ndarray, bool]:
    """``t`` as a 1-D float grid on (0,1), and whether it was a scalar."""
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if ts.ndim > 1:
        raise DomainError(f"t must be a scalar or a 1-D grid, got shape {ts.shape}")
    outside = ts[~((ts > 0.0) & (ts < 1.0))]
    if outside.size:
        raise DomainError(f"t must lie in (0,1), got {outside[0]}")
    return ts, np.ndim(t) == 0


def _finite_samples(f: Callable, x: np.ndarray) -> np.ndarray:
    y = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(y)
    if bad.any():
        raise IntegrandError(f"integrand is not finite at z = {float(x[bad][0])!r}")
    return y


def _simpson(f: Callable, a: float, b: float, panels: int) -> float:
    """Composite Simpson on a uniform mesh; ``f`` must accept ndarray input."""
    n = int(panels)
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = _finite_samples(f, x)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / n
    return float(h / 3.0 * np.dot(w, y))


def _grading(rho):
    """Distance ``rho**GRADE`` from the graded endpoint, and its derivative in ``rho``."""
    return rho**GRADE, GRADE * rho ** (GRADE - 1.0)


def _graded(f: Callable, anchor: float, sign: float, length: float, clip: float, panels: int) -> float:
    """Integrate ``f`` from ``clip`` to ``length`` away from ``anchor``.

    ``sign = +1`` integrates over ``[anchor + clip, anchor + length]``,
    ``sign = -1`` over ``[anchor - length, anchor - clip]``, with mesh
    points crowded toward ``anchor`` via ``t = rho**GRADE``.
    """
    if clip >= length:
        return 0.0

    def transformed(rho):
        t, weight = _grading(rho)
        return f(anchor + sign * t) * weight

    return _simpson(transformed, clip ** (1.0 / GRADE), length ** (1.0 / GRADE), panels)


def integrate(
    f: Callable,
    a: float,
    b: float,
    cfg: NumericConfig | None = None,
    *,
    singular_lower: bool = False,
    singular_upper: bool = False,
) -> float:
    """Composite Simpson estimate of the integral of ``f`` over ``[a, b]``.

    ``f`` must accept ndarray arguments.  The caller declares which
    endpoints are singular; those sides are integrated on a power-graded
    mesh that stops ``sing_clip`` short of the endpoint, so for divergent
    integrands the result is the clipped integral by contract.  Non-finite
    integrand values inside the (clipped) interval raise
    :class:`IntegrandError` with the offending location.
    """
    cfg = config_or_default(cfg)
    if not (np.isfinite(a) and np.isfinite(b)):
        raise DomainError(f"integration bounds must be finite, got [{a}, {b}]")
    if a >= b:
        raise DomainError(f"integration requires a < b, got [{a}, {b}]")
    n = int(cfg.quad_points)
    clip = cfg.sing_clip
    mid = 0.5 * (a + b)
    if singular_lower and singular_upper:
        return _graded(f, a, +1.0, mid - a, clip, n) + _graded(f, b, -1.0, b - mid, clip, n)
    # One graded half absorbs the singularity; the smooth half keeps the
    # full uniform resolution (grading the whole range would starve the
    # far end of mesh points).
    if singular_upper:
        return _simpson(f, a, mid, n) + _graded(f, b, -1.0, b - mid, clip, n)
    if singular_lower:
        return _graded(f, a, +1.0, mid - a, clip, n) + _simpson(f, mid, b, n)
    return _simpson(f, a, b, n)


def cumulative_integral(f: Callable, ts, end: float, cfg: NumericConfig | None = None) -> np.ndarray:
    """``int_0^t f`` (``end = 0``) or ``int_t^1 f`` (``end = 1``) for each t of ``ts`` in (0, 1).

    The mesh is that of a both-ends-singular ``integrate`` over [0, 1]
    with ``2 * quad_points`` panels per half, clipped ``sing_clip`` short of
    0 and 1; it depends on ``cfg`` only.  Whole Simpson panel pairs are
    summed cumulatively from ``end``, in a fixed sequential order, up to
    the last even node before t; one more pair with its own midpoint covers
    the rest.  So every t of a grid comes from one call of ``f``, and each
    equals the value of a one-point grid bit for bit.
    """
    cfg = config_or_default(cfg)
    ts, _ = t_grid(ts)
    if not ts.size:
        return np.zeros(0)
    m = 2 * int(cfg.quad_points)
    rho = np.linspace(cfg.sing_clip ** (1.0 / GRADE), 0.5 ** (1.0 / GRADE), m + 1)
    # each half of [0, 1] is graded toward its own endpoint; the half at
    # ``end`` is the near one, and rho_t places t in its half
    near_dist, far_dist = (ts, 1.0 - ts) if end == 0.0 else (1.0 - ts, ts)
    far = near_dist > 0.5
    rho_t = np.clip(np.where(far, far_dist, near_dist) ** (1.0 / GRADE), rho[0], rho[-1])
    # the even node next to t on the ``end`` side: below rho_t in the near half, above it in the far one
    below, above = np.searchsorted(rho, rho_t, "right") - 1, np.searchsorted(rho, rho_t, "left")
    k = np.where(far, above + above % 2, below - below % 2)
    k_near, k_far = (m, int(k[far].min())) if far.any() else (int(k.max()), m + 1)
    nodes = np.concatenate([rho[: k_near + 1], rho[k_far:], 0.5 * (rho[k] + rho_t), rho_t])
    on_far = np.concatenate([np.zeros(k_near + 1, bool), np.ones(m + 1 - k_far, bool), far, far])
    dist, weight = _grading(nodes)
    sign = 1.0 - 2.0 * end
    g = _finite_samples(f, np.where(on_far, (1.0 - end) - sign * dist, end + sign * dist)) * weight
    n = ts.size
    g_near, g_far, g_mid, g_t = g[: k_near + 1], g[k_near + 1 : -2 * n], g[-2 * n : -n], g[-n:]

    def pairs(y):
        return (rho[1] - rho[0]) / 3.0 * (y[:-2:2] + 4.0 * y[1::2] + y[2::2])

    # away from ``end``: the near half outward, then the far half toward its endpoint
    cumulative = np.cumsum(np.concatenate([[0.0], pairs(g_near), pairs(g_far)[::-1]]))
    g_k = g[np.where(far, k_near + 1 + k - k_far, k)]
    last = np.abs(rho_t - rho[k]) / 6.0 * (g_k + 4.0 * g_mid + g_t)
    return cumulative[np.where(far, m - k // 2, k // 2)] + last
