"""Level-p quantile curves in the four orthant directions.

A curve is the set of points (x, y) whose orthant probability equals p.
It is materialized by sweeping the marginal probability u of the first
component and inverting the matching conditional distribution of the
second:

    eps = (-,-):  y = Q_{Y | X <= Q_X(u)}(p / u),        u > p
    eps = (+,-):  y = Q_{Y | X >= Q_X(u)}(p / (1-u)),    u < 1 - p
    eps = (-,+):  y = Q_{Y | X <= Q_X(u)}(1 - p / u),    u > p
    eps = (+,+):  y = Q_{Y | X >= Q_X(u)}(1 - p / (1-u)), u < 1 - p

The test-suite checks every emitted point against the level-set property
|orthant_prob(eps, x, y) - p| <= CURVE_TOL; the CLI only writes the residual.

:func:`require_admissible` is the one check of a u-grid against the u
constraints above, for analytic and empirical curves; :func:`uniform_grid`
is the grid of :func:`curve_points` and of ``curve --sample``.  One
evaluator composes the kernels on the checked grid, for the bits of the
public Q_X and phi, whose endpoint branches no admissible u or q reaches.  It
fills the (u, x, y) rows :data:`~bivquant.numerics.BLOCK` at a time into a
column-major output, so x and y are contiguous, and reports a quantile that
overflows per block, naming the axis and its family.
:func:`curve_from_conditional` is its one-row call: the :func:`curve_points`
row at u, bit for bit.  :func:`level_residuals` is blocked the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import DegenerateLevelError, DomainError
from .numerics import (NumericConfig, blocks, clip_prob, require_finite, require_integer, require_numbers,
                       require_prob, require_probs)

#: Tolerance of the level-set invariant.  The points are closed-form inverses,
#: so their residuals are rounding error (1.1e-16 on the README tour's curve).
CURVE_TOL = 1e-6

#: Distance kept from the open ends of the admissible u-interval.
EDGE_MARGIN = 1e-4


@dataclass(frozen=True)
class QuantileCurve:
    """Ordered finite (u, x, y) triples of one level-p, direction-eps curve; ``p`` is kept as a float."""

    p: float
    direction: models.Direction
    points: np.ndarray  # shape (n, 3), u strictly increasing

    def __post_init__(self):
        object.__setattr__(self, "p", require_prob("p", self.p))
        pts = np.asfortranarray(require_numbers("points", self.points))  # x and y contiguous
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise DomainError(f"points must have shape (n, 3), got {pts.shape}")
        # one reduction each way, no temporary of the points' size: NaN propagates through both
        if not (np.isfinite(pts.min(initial=0.0)) and np.isfinite(pts.max(initial=0.0))):
            raise DomainError("points must be finite")
        if not np.all(pts[1:, 0] > pts[:-1, 0]):  # the order test with a bool temporary, not a float one
            raise DomainError("curve parameters u must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def x(self) -> np.ndarray:
        return self.points[:, 1]

    @property
    def y(self) -> np.ndarray:
        return self.points[:, 2]

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "direction": str(self.direction),
            "points": self.points.tolist(),
        }


def admissible_interval(p: float, direction: models.Direction):
    """Clipped u-interval on which the direction's parametrization is defined."""
    p = require_prob("p", p)
    if direction.eps1 < 0:
        lo, hi = p + EDGE_MARGIN, 1.0 - EDGE_MARGIN
    else:
        lo, hi = EDGE_MARGIN, 1.0 - p - EDGE_MARGIN
    if lo >= hi:
        raise DegenerateLevelError(
            f"admissible u-interval for p = {p}, direction {direction} is empty after "
            f"clipping by {EDGE_MARGIN}"
        )
    return lo, hi


def conditional_args(p: float, direction: models.Direction, u):
    """Map (p, direction, u) to the conditioning sense and probability argument."""
    u = np.asarray(u, dtype=float)
    if direction.eps1 < 0:
        sense, base = "le", p / u
    else:
        sense, base = "ge", p / (1.0 - u)
    q = base if direction.eps2 < 0 else 1.0 - base
    return sense, q


def require_admissible(p, direction: models.Direction, u_grid) -> tuple[float, np.ndarray]:
    """``p`` and ``u_grid`` as floats; :class:`DomainError` unless the direction admits the grid."""
    p = require_prob("p", p)
    us = require_numbers("u_grid", u_grid)
    if us.ndim != 1 or len(us) == 0 or not np.all(us[1:] > us[:-1]):
        raise DomainError("u_grid must be a nonempty strictly increasing 1-d sequence")
    require_probs("u_grid", us)
    if direction.eps1 < 0 and us[0] <= p:
        raise DomainError(f"direction {direction} requires u > p, got u = {us[0]}, p = {p}")
    if direction.eps1 > 0 and us[-1] >= 1.0 - p:
        raise DomainError(f"direction {direction} requires u < 1 - p, got u = {us[-1]}, p = {p}")
    return p, us


def uniform_grid(p, direction: models.Direction, n_points: int) -> np.ndarray:
    """``n_points`` >= 2 equally spaced u over :func:`admissible_interval`; ``p`` is checked first."""
    p, n = require_prob("p", p), require_integer("n_points", n_points, 2)
    return np.linspace(*admissible_interval(p, direction), n)


def _points_on_grid(model: models.BivariateModel, p: float, direction: models.Direction, us, cfg) -> np.ndarray:
    """The (u, x, y) rows on an admissible u-grid, column-major, filled block by block."""
    points = np.empty((len(us), 3), order="F")
    points[:, 0] = us
    del us  # a grid built for this call is freed here, before the quantiles allocate
    for part in blocks(len(points)):
        sense, qs = conditional_args(p, direction, points[part, 0])  # q from u itself: only quantile arguments clip
        u = clip_prob(points[part, 0], cfg)
        points[part, 1] = require_finite(model.marginal_x.quantile, u, what="curve x", family=model.marginal_x)
        v = model.copula.cond_quantile(sense, u, clip_prob(qs, cfg))
        points[part, 2] = require_finite(model.marginal_y.quantile, v, what="curve y", family=model.marginal_y)
    return points


def curve_from_conditional(
    model: models.BivariateModel,
    p,
    direction: models.Direction,
    u,
    cfg: NumericConfig | None = None,
) -> tuple[float, float]:
    """Single curve point at parameter u: the :func:`curve_points` row at u, bit for bit."""
    # p first, as require_admissible checks it; u is named by the range rule of every u-grid
    p, us = require_admissible(require_prob("p", p), direction, [require_prob("u_grid", u)])
    return tuple(_points_on_grid(model, p, direction, us, cfg)[0, 1:].tolist())


def curve_points(
    model: models.BivariateModel,
    p,
    direction: models.Direction,
    n_points: int,
    cfg: NumericConfig | None = None,
) -> QuantileCurve:
    """Materialize the curve on a uniform u-grid over the admissible interval."""
    p = require_prob("p", p)
    points = _points_on_grid(model, p, direction, uniform_grid(p, direction, n_points), cfg)
    return QuantileCurve(p=p, direction=direction, points=points)


def level_residuals(model: models.BivariateModel, curve: QuantileCurve) -> np.ndarray:
    """|orthant_prob(direction, x, y) - p| per curve point (the defining check)."""
    out = np.empty(len(curve.points))
    for part in blocks(len(out)):
        probs = models.orthant_prob(model, curve.direction, curve.x[part], curve.y[part])
        out[part] = np.abs(probs - curve.p)
    return out
