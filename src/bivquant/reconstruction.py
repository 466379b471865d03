"""Recover quantile curves from reliability components, and the hazard/MRL identity.

Each reliability component determines its quantile function through an
integral inverse map:

    from hazard h:            Q(t) = int_0^t dz / ((1-z) h(z))
    from MRL m (mean mu):     Q(t) = mu - m(t) + int_0^t m(z)/(1-z) dz
    from reversed hazard r:   Q(t) = int_0^t dz / (z r(z))
    from reversed MRL e:      Q(t) = e(t) + int_0^t e(z)/z dz

The hazard-type maps are insensitive to a support offset: they recover
Q(t) - Q(0), which equals Q(t) whenever the support starts at the lower
quantile 0 (all built-ins except the Pareto family, whose offset is its
scale).  The MRL map carries the offset through the mean and is exact in
all cases.  The identity check verifies (1-t) m(t) = int_t^1 dz/h(z).

Inputs are callables, not models: the maps are statements about
functions, so they accept model-derived components and standalone
analytic ones alike.  Reconstruction integrands are singular at one
endpoint for heavy-tailed or steep-origin quantiles, so this module
defaults to a dedicated tight-clip configuration; with the package-wide
default clip of 1e-6 the truncated singular mass alone would exceed the
1e-4 round-trip budget (e.g. sqrt-clip ~ 1e-3 for a square-root tail).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models, reliability
from .errors import DivergenceError, DomainError, MissingMeanError, SignError
from .numerics import NumericConfig, integrate

#: :class:`ComponentFunction` kind of each (quantity, component) pair: the
#: quantity spelled with ``_``, then ``1`` for the first component or ``2``
#: for the second (``("rev-hazard", "second")`` is ``"rev_hazard2"``).
KIND_OF = {
    (q, component): q.replace("-", "_") + index
    for q in reliability.QUANTITIES
    for component, index in (("first", "1"), ("second", "2"))
}
COMPONENT_KINDS = tuple(KIND_OF.values())

#: Tight-clip quadrature defaults for the reconstruction integrals.
RECON_CONFIG = NumericConfig(eps_boundary=1e-14, sing_clip=1e-14)


def _cfg(cfg: NumericConfig | None) -> NumericConfig:
    return RECON_CONFIG if cfg is None else cfg


@dataclass(frozen=True)
class ComponentFunction:
    """One reliability component as a standalone callable.

    ``eval`` must accept ndarray arguments on (0, 1).  ``mean_hint``
    carries the matching mean (of X for ``mrl1``, of the conditional
    variable for ``mrl2``); only the MRL maps consume it.
    """

    kind: str
    eval: Callable
    mean_hint: float | None = None

    def __post_init__(self):
        if self.kind not in COMPONENT_KINDS:
            raise DomainError(f"kind must be one of {COMPONENT_KINDS}, got {self.kind!r}")


def _require_t(t) -> float:
    t = float(t)
    if not 0.0 < t < 1.0:
        raise DomainError(f"t must lie in (0,1), got {t}")
    return t


def _require_kind(f: ComponentFunction, quantity: str):
    allowed = (KIND_OF[quantity, "first"], KIND_OF[quantity, "second"])
    if f.kind not in allowed:
        raise DomainError(f"expected a component of kind {allowed}, got {f.kind!r}")


def _positive_samples(f: ComponentFunction, z):
    vals = np.asarray(f.eval(z), dtype=float)
    bad = ~(np.isfinite(vals) & (vals > 0.0))
    if bad.any():
        where = np.asarray(z, dtype=float)[bad] if np.ndim(z) else z
        first = where[0] if np.ndim(where) else where
        raise SignError(f"{f.kind} sample is not strictly positive at z = {first!r}")
    return vals


def component_from_model(
    model: models.BivariateModel,
    kind: str,
    conditioning_u: float = 0.5,
    cfg: NumericConfig | None = None,
) -> ComponentFunction:
    """Package a model-derived reliability component for the inverse maps.

    Second components are anchored at ``conditioning_u``.  Mean hints are
    attached for the MRL kinds (marginal mean of X, conditional mean of Y
    given {X <= Q_X(conditioning_u)}); an infinite mean raises here, at
    construction, rather than deep inside a quadrature loop.
    """
    if kind not in COMPONENT_KINDS:
        raise DomainError(f"kind must be one of {COMPONENT_KINDS}, got {kind!r}")
    cfg = _cfg(cfg)
    u0 = float(conditioning_u)
    quantity = kind[:-1].replace("_", "-")
    first_fn, second_fn = reliability.QUANTITIES[quantity]
    mean_hint = None
    if kind.endswith("1"):
        evaluate = lambda z: first_fn(model, z, cfg)
        if quantity == "mrl":
            reliability._require_finite_mean(model.marginal_x, "X")
            mean_hint = model.marginal_x.mean
    else:
        evaluate = lambda z: second_fn(model, u0, z, cfg)
        if quantity == "mrl":
            mean_hint = reliability.conditional_mean(model, u0, cfg)
    return ComponentFunction(kind=kind, eval=evaluate, mean_hint=mean_hint)


def quantile_from_hazard(
    f: ComponentFunction, t, cfg: NumericConfig | None = None
) -> float:
    """Q(t) = int_0^t dz / ((1-z) f(z)); recovers Q relative to Q(0)."""
    _require_kind(f, "hazard")
    t = _require_t(t)
    cfg = _cfg(cfg)

    def integrand(z):
        return 1.0 / ((1.0 - z) * _positive_samples(f, z))

    return integrate(integrand, 0.0, t, cfg, singular_lower=True, singular_upper=True)


def quantile_from_mrl(
    f: ComponentFunction, t, cfg: NumericConfig | None = None
) -> float:
    """Q(t) = mu - f(t) + int_0^t f(z)/(1-z) dz, with mu from the hint or f(0+)."""
    _require_kind(f, "mrl")
    t = _require_t(t)
    cfg = _cfg(cfg)
    if f.mean_hint is not None:
        mu = float(f.mean_hint)
    else:
        # the MRL at probability 0 equals the mean; O(clip) bias documented
        try:
            mu = float(f.eval(cfg.sing_clip))
        except Exception as exc:
            raise MissingMeanError(
                f"no mean_hint and {f.kind} is not evaluable at the lower clip "
                f"{cfg.sing_clip}: {exc}"
            ) from exc
        if not np.isfinite(mu):
            raise MissingMeanError(
                f"no mean_hint and {f.kind} evaluates non-finite at the lower clip"
            )

    def integrand(z):
        return np.asarray(f.eval(z), dtype=float) / (1.0 - z)

    # the integrand is finite at 0 but model components reject z = 0 exactly;
    # the upper end is graded as well because heavy-tailed components steepen there
    return mu - float(f.eval(t)) + integrate(integrand, 0.0, t, cfg, singular_lower=True, singular_upper=True)


def reversed_hazard_clip_bias(f: ComponentFunction, cfg: NumericConfig | None = None) -> float:
    """First-order estimate of the mass lost below the lower clip.

    The reversed-hazard map only sees ``[clip, t]``; this bounds the
    truncated piece by ``clip * g(clip)`` with ``g(z) = 1/(z f(z))``.
    """
    _require_kind(f, "rev-hazard")
    cfg = _cfg(cfg)
    clip = cfg.sing_clip
    return float(clip / (clip * _positive_samples(f, np.asarray([clip]))[0]))


def quantile_from_reversed_hazard(
    f: ComponentFunction, t, cfg: NumericConfig | None = None
) -> float:
    """Q(t) = int_0^t dz / (z f(z)); recovers Q relative to Q(0).

    Raises :class:`DivergenceError` when the integrand mass keeps growing
    toward 0 faster than the integrable rate (support unbounded below).
    """
    _require_kind(f, "rev-hazard")
    t = _require_t(t)
    cfg = _cfg(cfg)

    def integrand(z):
        return 1.0 / (z * _positive_samples(f, z))

    clip = cfg.sing_clip
    if 64.0 * clip < t:
        inner = integrate(integrand, clip, 8.0 * clip, cfg)
        outer = integrate(integrand, 8.0 * clip, 64.0 * clip, cfg)
        if inner > 1.02 * outer and inner > 1e-12:
            raise DivergenceError(
                f"clipped reversed-hazard integral keeps growing toward 0 "
                f"(mass {inner:.3e} on [clip, 8*clip] vs {outer:.3e} on [8*clip, 64*clip]); "
                "the underlying support appears unbounded below"
            )
    return integrate(integrand, 0.0, t, cfg, singular_lower=True, singular_upper=True)


def quantile_from_reversed_mrl(
    f: ComponentFunction, t, cfg: NumericConfig | None = None
) -> float:
    """Q(t) = f(t) + int_0^t f(z)/z dz; consumes no mean."""
    _require_kind(f, "rev-mrl")
    t = _require_t(t)
    cfg = _cfg(cfg)

    def integrand(z):
        return np.asarray(f.eval(z), dtype=float) / z

    return float(f.eval(t)) + integrate(integrand, 0.0, t, cfg, singular_lower=True, singular_upper=True)


#: Each quantity's inverse map and the t-range its round trips are checked
#: on; keys match :data:`reliability.QUANTITIES`.
INVERSE_MAPS = {
    "hazard": (quantile_from_hazard, (0.01, 0.95)),
    "mrl": (quantile_from_mrl, (0.01, 0.95)),
    "rev-hazard": (quantile_from_reversed_hazard, (0.05, 0.99)),
    "rev-mrl": (quantile_from_reversed_mrl, (0.05, 0.99)),
}


def hazard_mrl_identity_residual(
    model: models.BivariateModel,
    component: str,
    conditioning_u: float,
    t,
    cfg: NumericConfig | None = None,
) -> float:
    """LHS - RHS of (1-t) m(t) = int_t^1 dz/h(z) for the chosen component."""
    if component not in ("first", "second"):
        raise DomainError(f"component must be 'first' or 'second', got {component!r}")
    t = _require_t(t)
    cfg = _cfg(cfg)
    u0 = float(conditioning_u)
    if component == "first":
        mrl = reliability.mrl_first(model, t, cfg)
        hazard = lambda z: reliability.hazard_first(model, z, cfg)
    else:
        mrl = reliability.mrl_second(model, u0, t, cfg)
        hazard = lambda z: reliability.hazard_second(model, u0, z, cfg)
    lhs = (1.0 - t) * float(mrl)
    rhs = integrate(lambda z: 1.0 / np.asarray(hazard(z), dtype=float), t, 1.0, cfg, singular_upper=True)
    return lhs - rhs
