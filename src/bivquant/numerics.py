"""Shared numerical kernels with explicit tolerance contracts.

Two primitives back everything else in the package: probability clipping
and composite Simpson quadrature (with declared endpoint singularities
handled by a power-graded mesh).  Both are pure and deterministic for a
fixed :class:`NumericConfig`.
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
        Panel count of the composite Simpson rule (rounded up to even).
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


DEFAULT_CONFIG = NumericConfig()


def config_or_default(cfg: NumericConfig | None) -> NumericConfig:
    return DEFAULT_CONFIG if cfg is None else cfg


def clip_prob(p, cfg: NumericConfig | None = None):
    """Clip probability value(s) into ``[eps_boundary, 1 - eps_boundary]``."""
    cfg = config_or_default(cfg)
    return np.clip(p, cfg.eps_boundary, 1.0 - cfg.eps_boundary)


def _simpson(f: Callable, a: float, b: float, panels: int) -> float:
    """Composite Simpson on a uniform mesh; ``f`` must accept ndarray input."""
    n = int(panels)
    if n % 2:
        n += 1
    x = np.linspace(a, b, n + 1)
    y = np.asarray(f(x), dtype=float)
    bad = ~np.isfinite(y)
    if bad.any():
        where = x[bad][0]
        raise IntegrandError(f"integrand is not finite at z = {where!r}")
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    h = (b - a) / n
    return float(h / 3.0 * np.dot(w, y))


def _graded(f: Callable, anchor: float, sign: float, length: float, clip: float, panels: int) -> float:
    """Integrate ``f`` from ``clip`` to ``length`` away from ``anchor``.

    ``sign = +1`` integrates over ``[anchor + clip, anchor + length]``,
    ``sign = -1`` over ``[anchor - length, anchor - clip]``, with mesh
    points crowded toward ``anchor`` via ``t = rho**GRADE``.
    """
    if clip >= length:
        return 0.0

    def transformed(rho):
        t = rho**GRADE
        return f(anchor + sign * t) * GRADE * rho ** (GRADE - 1.0)

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

