"""Quantile-curve based reliability functions for the lower-lower direction.

The curve point for direction (-,-) pairs the u-quantile of X with the
conditional quantile function phi of Y given {X <= Q_X(u)}.  Each quantity
is one formula of a quantile function q at p, written once:

    hazard  1 / ((1-p) q'(p))            reversed hazard  1 / (p q'(p))
    MRL     int_p^1 q / (1-p) - q(p)     reversed MRL     int_0^p (q(p) - q) / p

The first component, ``first(model, u)``, applies it to q = Q_X at p = u;
the second, ``second(model, conditioning_u, p)``, to q = phi at p, which
depends on the conditioning level.  :data:`QUANTITIES` maps each quantity's
CLI spelling to that pair, both vectorized over their probability argument;
the X/Y-interchanged pair is the same functions applied to
``models.swap_axes(model)``.  Each component checks its probability
arguments at its public boundary, and reports a value that is not finite (a
marginal quantile that overflows) as one :class:`DomainError` through
:func:`~bivquant.numerics.require_finite`.

All integrals of phi reduce to closed-form partial moments of the Y
marginal through the substitution v = phi-probability, because the
built-in copula conditionals are quadratic in v.  That keeps quantities
exact to rounding, as the independence-reduction and exponential
invariance checks require at 1e-9.  An evaluation calls each partial-moment
kernel at most once: both ends of an integral go into one call, and the
weighted moments, which enter with the copula's coefficient c, only when c
is not zero at every point.  Under independence (c = 0) phi is Q_Y, and each
second component equals the first one of the interchanged model bit for
bit, except the MRL: Q_X's ``int_u^1`` is ``mean - int_0^u``, phi's reads
``int_0^1`` from the kernel, and the two differ in the last bits.
"""

from __future__ import annotations

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


def _phi_partial_integral(fam: models.Marginal, c, v):
    """int of phi over the p-interval that maps to [v, 1] on the v scale.

    That is ``(1+c) J0 - 2c J1``, with ``J0`` and ``J1`` the increments of
    ``int_0^z Q_Y`` and ``int_0^z w Q_Y(w) dw`` of ``fam`` (the Y marginal)
    from z = v to 1.  Each moment is one call on ``v`` with the end 1
    appended (a value does not depend on the other points of its call), and
    ``J1`` is skipped where ``c`` is zero (or -0.0) at every point: ``2c J1``
    then takes nothing off.
    """
    v = np.asarray(v, dtype=float)
    ends = np.append(v, 1.0)

    def increment(moment):
        at = moment(ends)
        return at[-1] - at[:-1].reshape(v.shape)

    out = (1.0 + c) * increment(fam.quantile_integral)
    if np.any(c):
        out = out - 2.0 * c * increment(fam.weighted_quantile_integral)
    return out


class _Quantile:
    """A formula's q: the ``role`` marginal's Q at ``at``, with q', int_p^1 q and int_0^p (q(p) - q)."""

    __slots__ = ("fam", "role", "at")

    def __init__(self, fam: models.Marginal, role: str, at):
        self.fam, self.role, self.at = fam, role, at

    def value(self):
        return self.fam.quantile(self.at)

    def deriv(self):
        """q'; DomainError if it overflows, MonotonicityError unless positive."""
        what = f"marginal {self.role} quantile derivative"
        qd = require_finite(self.fam.quantile_deriv, self.at, what=what, family=self.fam)
        return _checked_deriv(qd, f"marginal {self.role} quantile")

    def upper(self):
        return self.fam.mean - self.fam.quantile_integral(self.at)

    def gap(self):
        return self.fam.quantile_gap_integral(self.at)


class _Phi(_Quantile):
    """phi at p: Q_Y at v, the root of the copula's ``v + c v (1-v) = p``.

    So ``phi' = Q_Y'(v) / (1 + c (1 - 2v))``, and an integral of phi is one
    of Q_Y weighted by ``1 + c - 2cw``.
    """

    __slots__ = ("copula", "conditioning_u", "c")

    def __init__(self, model: models.BivariateModel, conditioning_u, p, cfg: NumericConfig):
        self.copula, self.conditioning_u = model.copula, conditioning_u
        self.c = model.copula.cond_linear_coeff("le", conditioning_u)
        v = clip_prob(model.copula.cond_quantile("le", conditioning_u, p), cfg)
        super().__init__(model.marginal_y, "Y", v)

    def deriv(self):
        qd = super().deriv()
        kd = self.copula.cond_cdf_deriv("le", self.conditioning_u, self.at)
        return qd / _checked_deriv(kd, "conditional CDF of Y")

    def upper(self):
        return _phi_partial_integral(self.fam, self.c, self.at)

    def gap(self):
        # (1+c) int_0^v (Q_Y(v)-Q_Y) dw - c int_0^v 2w (Q_Y(v)-Q_Y) dw; the gap forms are cancellation-safe
        out = (1.0 + self.c) * self.fam.quantile_gap_integral(self.at)
        if np.any(self.c):  # as _phi_partial_integral: at c = 0 the weighted gap takes nothing off
            out = out - self.c * self.fam.weighted_quantile_gap_integral(self.at)
        return out


def _components(name: str, formula, finite_mean: bool = False):
    """The public pair ``(<name>_first, <name>_second)`` of ``formula(q, p)``.

    The first applies it to Q_X at u, the second to phi at p.  Each checks
    its probability arguments, then the finite mean if ``finite_mean``
    (before phi is built), and reports a value that is not finite as one
    :class:`DomainError`.
    """
    what_first, what_second = f"{name} first".replace("_", " "), f"{name} second".replace("_", " ")

    def first(model, u, cfg: NumericConfig | None = None):
        cfg = config_or_default(cfg)
        u = _require_interior("u", u, cfg)
        if finite_mean:
            _require_finite_mean(model.marginal_x, "X")
        q = _Quantile(model.marginal_x, "X", u)
        return require_finite(formula, q, u, what=what_first, family=model.marginal_x)

    def second(model, conditioning_u, p, cfg: NumericConfig | None = None):
        cfg = config_or_default(cfg)
        cu = _require_interior("conditioning_u", conditioning_u, cfg)
        p = _require_interior("p_cond", p, cfg)
        if finite_mean:
            _require_finite_mean(model.marginal_y, "Y")
        # phi is built inside require_finite, with numpy's warnings off, as the formula runs
        return require_finite(lambda: formula(_Phi(model, cu, p, cfg), p), what=what_second,
                              family=model.marginal_y)

    first.__name__ = first.__qualname__ = f"{name}_first"
    second.__name__ = second.__qualname__ = f"{name}_second"
    return first, second


# --- component functions (vectorized over their probability argument) -----

hazard_first, hazard_second = _components("hazard", lambda q, p: 1.0 / ((1.0 - p) * q.deriv()))
mrl_first, mrl_second = _components("mrl", lambda q, p: q.upper() / (1.0 - p) - q.value(), finite_mean=True)
reversed_hazard_first, reversed_hazard_second = _components("reversed_hazard", lambda q, p: 1.0 / (p * q.deriv()))
reversed_mrl_first, reversed_mrl_second = _components("reversed_mrl", lambda q, p: q.gap() / p)


def conditional_mean(model, conditioning_u, cfg: NumericConfig | None = None):
    """Mean of Y given {X <= Q_X(conditioning_u)}, finite iff E[Y] is: a float, or an array for a grid."""
    cfg = config_or_default(cfg)
    cu = _require_interior("conditioning_u", conditioning_u, cfg)
    _require_finite_mean(model.marginal_y, "Y")
    mean = _phi_partial_integral(model.marginal_y, model.copula.cond_linear_coeff("le", cu), 0.0)
    return float(mean) if cu.ndim == 0 else mean


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
