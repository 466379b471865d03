"""Quantile-curve based reliability functions for the lower-lower direction.

The curve point for direction (-,-) pairs the u-quantile of X with the
conditional quantile function phi of Y given {X <= Q_X(u)}.  Hazard,
mean residual life and their reversed-time analogues are one univariate
concept applied to each of those two quantile functions:

    first components  (argument u):    1 / ((1-u) Q_X'(u)),
                                       (1/(1-u)) int_u^1 Q_X - Q_X(u), ...
    second components (argument p):    1 / ((1-p) phi'(p)),
                                       (1/(1-p)) int_p^1 phi - phi(p), ...

:data:`QUANTITIES` maps each quantity's CLI spelling to its pair of
component functions, ``first(model, u)`` and
``second(model, conditioning_u, p)``, both vectorized over their
probability argument.  phi genuinely depends on the conditioning level,
so every second component takes ``conditioning_u`` explicitly.  The
X/Y-interchanged pair is the same functions applied to
``models.swap_axes(model)``.  Each component function checks its
probability arguments at its public boundary, and reports a value that is
not finite (a marginal quantile that overflows) as one :class:`DomainError`
through :func:`~bivquant.numerics.require_finite`.

All integrals of phi reduce to closed-form partial moments of the Y
marginal through the substitution v = phi-probability, because the
built-in copula conditionals are quadratic in v.  That keeps quantities
exact to rounding, which the independence-reduction and exponential
invariance checks require at the 1e-9 level.  A component evaluation calls
each partial-moment kernel at most once: both ends of an integral go into
one call, and the weighted moments, which enter with the copula's
coefficient c, only when c is not zero at every point (it is under
independence).
"""

from __future__ import annotations

import functools

import numpy as np

from . import models
from .errors import BoundaryError, InfiniteMeanError, MonotonicityError
from .numerics import NumericConfig, clip_prob, config_or_default, require_finite, require_probs


def _require_interior(name: str, value, cfg: NumericConfig):
    arr = np.asarray(value, dtype=float)
    eps = cfg.eps_boundary
    # one reduction each way, as require_probs: NaN fails both, and 0.5 lets an empty grid pass
    if not (eps <= arr.min(initial=0.5) and arr.max(initial=0.5) <= 1.0 - eps):
        require_probs(name, arr)  # outside (0,1) is a DomainError; inside, within eps of an end, a BoundaryError
        outside = arr[(arr < eps) | (arr > 1.0 - eps)]
        raise BoundaryError(  # the first offending value: a grid keeps the message on one line
            f"{name} = {float(outside[0])!r} lies outside the clipped interval "
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
    if not np.all(arr > 0.0):  # NaN fails too
        raise MonotonicityError(f"{what} produced a nonpositive derivative")
    return arr


def _quantile_deriv(fam: models.Marginal, role: str, u):
    """Q'(u) of the ``role`` marginal: DomainError if it overflows, MonotonicityError unless positive."""
    qd = require_finite(fam.quantile_deriv, u, what=f"marginal {role} quantile derivative", family=fam)
    return _checked_deriv(qd, f"marginal {role} quantile")


def _phi_state(model: models.BivariateModel, conditioning_u, p, cfg: NumericConfig):
    """Shared pieces of phi at p: (coefficient c, v = copula-scale quantile)."""
    c = model.copula.cond_linear_coeff("le", conditioning_u)
    v = clip_prob(model.copula.cond_quantile("le", conditioning_u, p), cfg)
    return c, v


def _phi_deriv(model, conditioning_u, p, cfg):
    _, v = _phi_state(model, conditioning_u, p, cfg)
    qd = _quantile_deriv(model.marginal_y, "Y", v)
    kd = _checked_deriv(model.copula.cond_cdf_deriv("le", conditioning_u, v), "conditional CDF of Y")
    return qd / kd


def _phi_partial_integral(model, c, v):
    """int of phi over the p-interval that maps to [v, 1] on the v scale.

    That is ``(1+c) J0 - 2c J1``, with ``J0`` and ``J1`` the increments of
    ``int_0^z Q_Y`` and ``int_0^z w Q_Y(w) dw`` from z = v to 1.  Each moment is
    one call on ``v`` with the end 1 appended (a value does not depend on the
    other points of its call), and ``J1`` is skipped where ``c`` is zero (or
    -0.0) at every point: ``2c J1`` then takes nothing off.
    """
    fam = model.marginal_y
    v = np.asarray(v, dtype=float)
    ends = np.append(v, 1.0)

    def increment(moment):
        at = moment(ends)
        return at[-1] - at[:-1].reshape(v.shape)

    out = (1.0 + c) * increment(fam.quantile_integral)
    if np.any(c):
        out = out - 2.0 * c * increment(fam.weighted_quantile_integral)
    return out


def _first(fn):
    """The first component ``fn(model, u, cfg)`` at its public boundary.

    ``u`` is checked here, and a value that is not finite, because a
    quantile of X overflows, is one :class:`DomainError`.
    """
    what = fn.__name__.replace("_", " ")

    @functools.wraps(fn)
    def first(model, u, cfg: NumericConfig | None = None):
        cfg = config_or_default(cfg)
        u = _require_interior("u", u, cfg)
        return require_finite(fn, model, u, cfg, what=what, family=model.marginal_x)

    return first


def _second(fn):
    """The second component ``fn(model, conditioning_u, p, cfg)`` at its public boundary, as :func:`_first`."""
    what = fn.__name__.replace("_", " ")

    @functools.wraps(fn)
    def second(model, conditioning_u, p, cfg: NumericConfig | None = None):
        cfg = config_or_default(cfg)
        cu = _require_interior("conditioning_u", conditioning_u, cfg)
        p = _require_interior("p_cond", p, cfg)
        return require_finite(fn, model, cu, p, cfg, what=what, family=model.marginal_y)

    return second


# --- component functions (vectorized over their probability argument) -----


@_first
def hazard_first(model, u, cfg):
    return 1.0 / ((1.0 - u) * _quantile_deriv(model.marginal_x, "X", u))


@_second
def hazard_second(model, conditioning_u, p, cfg):
    return 1.0 / ((1.0 - p) * _phi_deriv(model, conditioning_u, p, cfg))


@_first
def mrl_first(model, u, cfg):
    fam = model.marginal_x
    _require_finite_mean(fam, "X")
    tail = fam.mean - fam.quantile_integral(u)
    return tail / (1.0 - u) - fam.quantile(u)


@_second
def mrl_second(model, conditioning_u, p, cfg):
    _require_finite_mean(model.marginal_y, "Y")
    c, v = _phi_state(model, conditioning_u, p, cfg)
    tail = _phi_partial_integral(model, c, v)
    return tail / (1.0 - p) - model.marginal_y.quantile(v)


@_first
def reversed_hazard_first(model, u, cfg):
    return 1.0 / (u * _quantile_deriv(model.marginal_x, "X", u))


@_second
def reversed_hazard_second(model, conditioning_u, p, cfg):
    return 1.0 / (p * _phi_deriv(model, conditioning_u, p, cfg))


@_first
def reversed_mrl_first(model, u, cfg):
    return model.marginal_x.quantile_gap_integral(u) / u


@_second
def reversed_mrl_second(model, conditioning_u, p, cfg):
    # p * eta2(p) = (1+c) int_0^v (Q_Y(v)-Q_Y) dz - c int_0^v 2z (Q_Y(v)-Q_Y) dz
    # via the v-substitution; the gap integrals are the cancellation-safe forms
    c, v = _phi_state(model, conditioning_u, p, cfg)
    fam = model.marginal_y
    out = (1.0 + c) * fam.quantile_gap_integral(v)
    if np.any(c):  # as _phi_partial_integral: at c = 0 the weighted gap takes nothing off
        out = out - c * fam.weighted_quantile_gap_integral(v)
    return out / p


def conditional_mean(model, conditioning_u, cfg: NumericConfig | None = None):
    """Mean of Y given {X <= Q_X(conditioning_u)}; finite iff E[Y] is."""
    cfg = config_or_default(cfg)
    cu = _require_interior("conditioning_u", conditioning_u, cfg)
    _require_finite_mean(model.marginal_y, "Y")
    c = model.copula.cond_linear_coeff("le", cu)
    return float(_phi_partial_integral(model, c, 0.0))


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

