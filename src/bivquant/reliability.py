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
``models.swap_axes(model)``.  :func:`all_quantities` gives all four of a
component from one state of q, which runs each marginal kernel once, with
q itself and two numbers read at no point: its mean (the second's is that
of Y given {X <= Q_X(conditioning_u)}) and its offset q(0).  Each
component checks its probability arguments at its public boundary, and
reports a value that is not finite (a marginal quantile that overflows) as
one :class:`DomainError` (:func:`~bivquant.numerics.overflow_error`).

All integrals of phi reduce to closed-form partial moments of the Y
marginal through the substitution v = phi-probability, because the
built-in copula conditionals are quadratic in v, whose root is never
clipped.  Components are within 3e-12 relative of 30-digit mpmath for p
in [0.05, 0.99] (measured; open near 1).  A partial-moment kernel runs
once, on the points and the end 1: an integral to 1 ends at the kernel's
own ``int_0^1``, from which ``Marginal.mean`` is read too, and one from 0
is that end alone, since every kernel is 0 at 0.  c, the copula's
coefficient, is computed where q' or an integral reads it, and the slope
of q' and the weighted moments, which enter with c, only when c is not
zero at every point.  Q_X is phi at c = 0 with v = u, so one state
serves both components, and under independence each second component
equals the first one of the interchanged model bit for bit, all four
quantities.
"""

from __future__ import annotations

import functools

import numpy as np

from . import models
from .errors import BoundaryError, DomainError, InfiniteMeanError, MonotonicityError
from .numerics import NumericConfig, config_or_default, overflow_error, require_choice, require_finite, require_probs

COMPONENTS = ("first", "second")  #: of X, and of Y given {X <= Q_X(conditioning_u)}


def _require_interior(name: str, value, cfg: NumericConfig):
    arr = require_probs(name, value)  # not a number, or outside (0,1), is a DomainError
    eps = cfg.eps_boundary
    # one reduction each way, as require_probs: 0.5 lets an empty grid pass
    if not (eps <= arr.min(initial=0.5) and arr.max(initial=0.5) <= 1.0 - eps):
        outside = arr[(arr < eps) | (arr > 1.0 - eps)]
        raise BoundaryError(  # the first offending value: a grid keeps the message on one line
            f"{name} = {float(outside[0])!r} lies outside the clipped interval "
            f"[eps_boundary, 1 - eps_boundary] with eps_boundary = {eps}"
        )
    return arr


def _checked_deriv(vals, what: str):
    arr = np.asarray(vals, dtype=float)
    if not np.all(arr > 0.0):  # NaN fails too
        raise MonotonicityError(f"{what} produced a nonpositive derivative")
    return arr


class _Quantile:
    """A formula's q: the ``role`` marginal's Q at ``at``, the root v of the copula's ``v + c v (1-v) = p``, with c its
    coefficient at ``conditioning_u``.  That is phi; Q_X is the case c = 0, with v = p and no copula.  So
    ``q' = Q'(v) / (1 + c (1 - 2v))``, and an integral of q is one of Q weighted by ``1 + c - 2cw``.  Each kernel runs
    when a formula first reads it, and is kept; a partial moment runs on ``at`` and 1, since every kernel is 0 at 0."""

    def __init__(self, fam: models.Marginal, role: str, at, copula: models.Copula | None = None, conditioning_u=None):
        self.fam, self.role, self.at, self.copula, self.conditioning_u = fam, role, at, copula, conditioning_u

    def _moment(self, kernel):
        values = kernel(np.append(self.at, 1.0))
        return values[:-1].reshape(np.shape(self.at)), values[-1]

    value = functools.cached_property(lambda self: self.fam.quantile(self.at))
    integral = functools.cached_property(lambda self: self._moment(self.fam.quantile_integral))  # int_0^z Q
    weighted = functools.cached_property(lambda self: self._moment(self.fam.weighted_quantile_integral))  # of w Q
    c = functools.cached_property(  # where q' or an integral reads it
        lambda self: 0.0 if self.copula is None else self.copula.cond_linear_coeff("le", self.conditioning_u))

    @functools.cached_property
    def deriv(self):
        """q'; DomainError if Q' overflows, MonotonicityError unless Q' and the slope ``1 + c (1 - 2v)`` are positive.
        The slope is skipped where c is zero (or -0.0) at every point, as in :meth:`_to_one` and :attr:`gap`."""
        what = f"marginal {self.role} quantile derivative"
        qd = _checked_deriv(require_finite(self.fam.quantile_deriv, self.at, what=what, family=self.fam),
                            f"marginal {self.role} quantile")
        if not np.any(self.c):
            return qd
        return qd / _checked_deriv(1.0 + self.c * (1.0 - 2.0 * self.at), f"conditional CDF of {self.role}")

    def _to_one(self, increment):
        """int of q over the p-interval that maps to [w, 1] on the v scale, w = ``at`` or 0.

        That is ``(1+c) J0 - 2c J1``, with ``J0``, ``J1`` the ``increment`` of ``int_0^z Q`` and ``int_0^z w Q(w) dw``
        from w to the kernel's own end ``int_0^1``: from 0, that end alone, whose ``J0`` is the family's mean.  Where
        ``c`` is zero (or -0.0) at every point, ``J1`` is skipped; ``1 + c`` is then 1, and gives a grid its shape.
        """
        out = (1.0 + self.c) * increment(self.integral)
        if np.any(self.c):
            out = out - 2.0 * self.c * increment(self.weighted)
        return out

    upper = property(lambda self: self._to_one(lambda moment: moment[1] - moment[0]))
    mean = property(lambda self: self._to_one(lambda moment: moment[1]))

    @property
    def gap(self):
        # (1+c) int_0^v (Q(v)-Q) dw - c int_0^v 2w (Q(v)-Q) dw; the gap forms are cancellation-safe
        out = (1.0 + self.c) * self._gap(False)
        if np.any(self.c):  # as _to_one: at c = 0 the weighted gap takes nothing off
            out = out - self.c * self._gap(True)
        return out

    def _gap(self, weighted: bool):  # int_0^z (Q(z) - Q) dw at ``at``, with the weight 2w if ``weighted``
        if self.fam._plain_gaps:  # Marginal's forms, on the kept kernels
            return self.at * self.at * self.value - 2.0 * self.weighted[0] if weighted else \
                self.at * self.value - self.integral[0]
        return (self.fam.weighted_quantile_gap_integral if weighted else self.fam.quantile_gap_integral)(self.at)


#: Each quantity's formula on a quantile function q at p, keyed by its CLI spelling; then q and its mean.
_FORMULAS = {
    "hazard": lambda q, p: 1.0 / ((1.0 - p) * q.deriv),
    "mrl": lambda q, p: q.upper / (1.0 - p) - q.value,
    "rev-hazard": lambda q, p: 1.0 / (p * q.deriv),
    "rev-mrl": lambda q, p: q.gap / p,
    "quantile": lambda q, p: q.value,
    "mean": lambda q, p: q.mean,
    "offset": lambda q, p: q.fam.support[0],  # q(0): phi and Q_Y start where the Y support does
}
_NAMES = tuple(_FORMULAS)


def all_quantities(model, component: str, conditioning_u, p, cfg: NumericConfig | None = None, names=None) -> dict:
    """``names`` of ``component`` at ``p`` from one state of q, each its own function's bit for bit.

    Names are those of :data:`QUANTITIES`, ``"quantile"`` (q), and the numbers ``"mean"`` (of X, or of Y given
    {X <= Q_X(conditioning_u)}, an array for a grid of levels) and ``"offset"`` (q(0)), which any ``p``, ``()`` too,
    reads; by default all but, for an infinite mean, ``"mrl"`` and ``"mean"``, which raise there.  Any other name, or a
    ``str`` for ``names``, is a :class:`DomainError`.  A first component needs no ``conditioning_u``.
    """
    cfg, second = config_or_default(cfg), require_choice("component", component, COMPONENTS) == "second"
    cu = _require_interior("conditioning_u", conditioning_u, cfg) if second or conditioning_u is not None else None
    p = _require_interior("p_cond" if second else "u", p, cfg)
    if second:  # a grid of levels pairs with the grid of p by broadcasting
        try:
            np.broadcast_shapes(cu.shape, p.shape)
        except ValueError:
            raise DomainError(f"conditioning_u of shape {cu.shape} does not broadcast against p_cond of shape "
                              f"{p.shape}") from None
    fam, role = (model.marginal_y, "Y") if second else (model.marginal_x, "X")  # the marginal q is built on
    if names is None:
        names = [n for n in _FORMULAS if fam.has_finite_mean or n not in ("mrl", "mean")]
    elif isinstance(names, str) or not np.iterable(names):
        raise DomainError(f"names must be a sequence of names, got {names!r}")
    else:
        names = [require_choice("name", name, _NAMES) for name in names]
    if not fam.has_finite_mean and ("mrl" in names or "mean" in names):
        raise InfiniteMeanError(
            f"marginal {role} ({fam.describe()}) has infinite mean; mean residual life is undefined")
    values = {}
    with np.errstate(all="ignore"):  # a value that is not finite is reported as it is computed, as one error
        q = _Quantile(fam, role, model.copula.cond_quantile("le", cu, p), model.copula, cu) if second \
            else _Quantile(fam, role, p)
        for name in names:
            values[name] = _FORMULAS[name](q, p)
            if not np.isfinite(values[name]).all():
                raise overflow_error(f"{name.replace('rev-', 'reversed ')} {component}", fam)
    return values


def _components(quantity: str):
    """The public pair ``(<name>_first, <name>_second)`` of ``quantity``: its formula on Q_X at u, and on phi at p."""

    def first(model, u, cfg: NumericConfig | None = None):
        return all_quantities(model, "first", None, u, cfg, (quantity,))[quantity]

    def second(model, conditioning_u, p, cfg: NumericConfig | None = None):
        return all_quantities(model, "second", conditioning_u, p, cfg, (quantity,))[quantity]

    name = quantity.replace("rev-", "reversed_")
    first.__name__ = first.__qualname__ = f"{name}_first"
    second.__name__ = second.__qualname__ = f"{name}_second"
    return first, second


# --- component functions (vectorized over their probability argument) -----

hazard_first, hazard_second = _components("hazard")
mrl_first, mrl_second = _components("mrl")
reversed_hazard_first, reversed_hazard_second = _components("rev-hazard")
reversed_mrl_first, reversed_mrl_second = _components("rev-mrl")


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
