"""Quantile-curve based reliability functions for the lower-lower direction.

The curve point for direction (-,-) pairs the u-quantile of X with the
conditional quantile function phi of Y given {X <= Q_X(u)}.  Hazard,
mean residual life and their reversed-time analogues are formed from
those two quantile functions:

    first components  (argument u):    1 / ((1-u) Q_X'(u)),
                                       (1/(1-u)) int_u^1 Q_X - Q_X(u), ...
    second components (argument p):    1 / ((1-p) phi'(p)),
                                       (1/(1-p)) int_p^1 phi - phi(p), ...

phi genuinely depends on the conditioning level u, so every second
component takes ``conditioning_u`` explicitly; nothing is left implicit.

All integrals of phi reduce to closed-form partial moments of the Y
marginal through the substitution v = phi-probability, because the
built-in copula conditionals are quadratic in v.  That keeps quantities
exact to rounding, which the independence-reduction and exponential
invariance checks require at the 1e-9 level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models
from .errors import BoundaryError, DomainError, InfiniteMeanError, MonotonicityError
from .numerics import NumericConfig, clip_prob, config_or_default


@dataclass(frozen=True)
class ReliabilityVector:
    """Two-component reliability value.

    ``first`` is indexed by the marginal probability ``u`` of X,
    ``second`` by the conditional probability ``p_cond`` of Y given
    {X <= Q_X(conditioning_u)}.
    """

    first: float
    second: float
    u: float
    p_cond: float
    conditioning_u: float


def _require_interior(name: str, value, cfg: NumericConfig):
    arr = np.asarray(value, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in (0,1), got {value!r}")
    eps = cfg.eps_boundary
    if np.any(arr < eps) or np.any(arr > 1.0 - eps):
        raise BoundaryError(
            f"{name} = {value!r} lies outside the clipped interval "
            f"[eps_boundary, 1 - eps_boundary] with eps_boundary = {eps}"
        )
    return arr


def _require_finite_mean(fam: models.Marginal, role: str):
    if not fam.has_finite_mean:
        raise InfiniteMeanError(
            f"marginal {role} ({fam.describe()}) has infinite mean; "
            "mean residual life is undefined"
        )


def _checked_deriv(vals, what: str):
    arr = np.asarray(vals, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr <= 0.0):
        raise MonotonicityError(f"{what} produced a nonpositive derivative")
    return arr


def _phi_state(model: models.BivariateModel, conditioning_u, p, cfg: NumericConfig):
    """Shared pieces of phi at p: (coefficient c, v = copula-scale quantile)."""
    c = model.copula.cond_linear_coeff("le", conditioning_u)
    v = clip_prob(model.copula.cond_quantile("le", conditioning_u, p), cfg)
    return c, v


def _phi_deriv(model, conditioning_u, p, cfg):
    _, v = _phi_state(model, conditioning_u, p, cfg)
    qd = _checked_deriv(model.marginal_y.quantile_deriv(v), "marginal Y quantile")
    kd = _checked_deriv(
        model.copula.cond_cdf_deriv("le", conditioning_u, v), "conditional CDF of Y"
    )
    return qd / kd


def _phi_partial_integral(model, c, v_lo, v_hi):
    """int of phi over the p-interval mapping to [v_lo, v_hi] on the v scale."""
    fam = model.marginal_y
    j0 = fam.quantile_integral(v_hi) - fam.quantile_integral(v_lo)
    j1 = fam.weighted_quantile_integral(v_hi) - fam.weighted_quantile_integral(v_lo)
    return (1.0 + c) * j0 - 2.0 * c * j1


# --- component functions (vectorized over their probability argument) -----


def hazard_first(model, u, cfg: NumericConfig | None = None):
    cfg = config_or_default(cfg)
    u = _require_interior("u", u, cfg)
    qd = _checked_deriv(model.marginal_x.quantile_deriv(u), "marginal X quantile")
    return 1.0 / ((1.0 - u) * qd)


def hazard_second(model, conditioning_u, p, cfg: NumericConfig | None = None):
    cfg = config_or_default(cfg)
    cu = _require_interior("conditioning_u", conditioning_u, cfg)
    p = _require_interior("p_cond", p, cfg)
    return 1.0 / ((1.0 - p) * _phi_deriv(model, cu, p, cfg))


def mrl_first(model, u, cfg: NumericConfig | None = None):
    cfg = config_or_default(cfg)
    u = _require_interior("u", u, cfg)
    fam = model.marginal_x
    _require_finite_mean(fam, "X")
    tail = fam.mean - fam.quantile_integral(u)
    return tail / (1.0 - u) - fam.quantile(u)


def mrl_second(model, conditioning_u, p, cfg: NumericConfig | None = None):
    cfg = config_or_default(cfg)
    cu = _require_interior("conditioning_u", conditioning_u, cfg)
    p = _require_interior("p_cond", p, cfg)
    _require_finite_mean(model.marginal_y, "Y")
    c, v = _phi_state(model, cu, p, cfg)
    tail = _phi_partial_integral(model, c, v, np.ones_like(v))
    return tail / (1.0 - p) - model.marginal_y.quantile(v)


def reversed_hazard_first(model, u, cfg: NumericConfig | None = None):
    cfg = config_or_default(cfg)
    u = _require_interior("u", u, cfg)
    qd = _checked_deriv(model.marginal_x.quantile_deriv(u), "marginal X quantile")
    return 1.0 / (u * qd)


def reversed_hazard_second(model, conditioning_u, p, cfg: NumericConfig | None = None):
    cfg = config_or_default(cfg)
    cu = _require_interior("conditioning_u", conditioning_u, cfg)
    p = _require_interior("p_cond", p, cfg)
    return 1.0 / (p * _phi_deriv(model, cu, p, cfg))


def reversed_mrl_first(model, u, cfg: NumericConfig | None = None):
    cfg = config_or_default(cfg)
    u = _require_interior("u", u, cfg)
    return model.marginal_x.quantile_gap_integral(u) / u


def reversed_mrl_second(model, conditioning_u, p, cfg: NumericConfig | None = None):
    # p * eta2(p) = (1+c) int_0^v (Q_Y(v)-Q_Y) dz - c int_0^v 2z (Q_Y(v)-Q_Y) dz
    # via the v-substitution; the gap integrals are the cancellation-safe forms
    cfg = config_or_default(cfg)
    cu = _require_interior("conditioning_u", conditioning_u, cfg)
    p = _require_interior("p_cond", p, cfg)
    c, v = _phi_state(model, cu, p, cfg)
    fam = model.marginal_y
    gap = fam.quantile_gap_integral(v)
    weighted_gap = fam.weighted_quantile_gap_integral(v)
    return ((1.0 + c) * gap - c * weighted_gap) / p


def conditional_mean(model, conditioning_u, cfg: NumericConfig | None = None):
    """Mean of Y given {X <= Q_X(conditioning_u)}; finite iff E[Y] is."""
    cfg = config_or_default(cfg)
    cu = _require_interior("conditioning_u", conditioning_u, cfg)
    _require_finite_mean(model.marginal_y, "Y")
    c = model.copula.cond_linear_coeff("le", cu)
    return float(_phi_partial_integral(model, c, 0.0, 1.0))


# --- the component registry ----------------------------------------------

#: Every reliability quantity, keyed by its CLI spelling, as its pair of
#: component functions ``(first(model, u, cfg), second(model, conditioning_u, p, cfg))``.
#: Callers read it when called, never at import, so a span tracer that
#: swaps the entries (``benchmarks/spans.py``) sees every call.
QUANTITIES = {
    "hazard": (hazard_first, hazard_second),
    "mrl": (mrl_first, mrl_second),
    "rev-hazard": (reversed_hazard_first, reversed_hazard_second),
    "rev-mrl": (reversed_mrl_first, reversed_mrl_second),
}


def _vector(quantity: str, model, u, p_x, cfg: NumericConfig | None) -> ReliabilityVector:
    first_fn, second_fn = QUANTITIES[quantity]
    return ReliabilityVector(
        first=float(first_fn(model, u, cfg)),
        second=float(second_fn(model, u, p_x, cfg)),
        u=float(u),
        p_cond=float(p_x),
        conditioning_u=float(u),
    )


def hazard_vector(model, u, p_x, cfg: NumericConfig | None = None) -> ReliabilityVector:
    """Hazard pair (1/((1-u)Q_X'(u)), 1/((1-p_x)phi'(p_x))) with phi anchored at u."""
    return _vector("hazard", model, u, p_x, cfg)


def mrl_vector(model, u, p_x, cfg: NumericConfig | None = None) -> ReliabilityVector:
    """Mean residual life pair; raises :class:`InfiniteMeanError` for heavy tails."""
    return _vector("mrl", model, u, p_x, cfg)


def reversed_hazard_vector(model, u, p_x, cfg: NumericConfig | None = None) -> ReliabilityVector:
    """Reversed-time hazard pair (1/(u Q_X'(u)), 1/(p_x phi'(p_x)))."""
    return _vector("rev-hazard", model, u, p_x, cfg)


def reversed_mrl_vector(model, u, p_x, cfg: NumericConfig | None = None) -> ReliabilityVector:
    """Reversed-time mean residual pair; needs no finite mean."""
    return _vector("rev-mrl", model, u, p_x, cfg)


def interchanged(model, kind: str, v, p_y, cfg: NumericConfig | None = None) -> ReliabilityVector:
    """The X/Y-interchanged vector: the quantity ``kind`` on the swapped model."""
    if kind not in QUANTITIES:
        raise DomainError(f"kind must be one of {tuple(QUANTITIES)}, got {kind!r}")
    return _vector(kind, models.swap_axes(model), v, p_y, cfg)
