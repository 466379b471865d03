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
from .numerics import NumericConfig, integrate, t_grid

COMPONENTS = ("first", "second")
#: :class:`ComponentFunction` kind of each (quantity, component) pair: the
#: quantity spelled with ``_``, then ``1`` for the first component or ``2``
#: for the second (``("rev-hazard", "second")`` is ``"rev_hazard2"``).
KIND_OF = {
    (q, component): q.replace("-", "_") + str(index)
    for q in reliability.QUANTITIES
    for index, component in enumerate(COMPONENTS, start=1)
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


def _shaped(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


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


def _of_probability(model, quantity: str, component: str, u0: float, cfg: NumericConfig) -> Callable:
    """The model's ``quantity`` component as a function of its probability argument alone."""
    first_fn, second_fn = reliability.QUANTITIES[quantity]
    if component == "first":
        return lambda z: first_fn(model, z, cfg)
    return lambda z: second_fn(model, u0, z, cfg)


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
    quantity, component = next(key for key, k in KIND_OF.items() if k == kind)
    mean_hint = None
    if quantity == "mrl" and component == "first":
        reliability._require_finite_mean(model.marginal_x, "X")
        mean_hint = model.marginal_x.mean
    elif quantity == "mrl":
        mean_hint = reliability.conditional_mean(model, u0, cfg)
    return ComponentFunction(kind, _of_probability(model, quantity, component, u0, cfg), mean_hint)


def quantile_from_hazard(f: ComponentFunction, t, cfg: NumericConfig | None = None):
    """Q(t) = int_0^t dz / ((1-z) f(z)); recovers Q relative to Q(0).

    ``t`` is a scalar (the result is a float) or a 1-D grid (an array);
    the same holds for every inverse map below.
    """
    _require_kind(f, "hazard")
    ts, scalar = t_grid(t)
    cfg = _cfg(cfg)

    def integrand(z):
        return 1.0 / ((1.0 - z) * _positive_samples(f, z))

    return _shaped(integrate(integrand, ts, 0.0, cfg), scalar)


def quantile_from_mrl(f: ComponentFunction, t, cfg: NumericConfig | None = None):
    """Q(t) = mu - f(t) + int_0^t f(z)/(1-z) dz, with mu from the hint or f(0+)."""
    _require_kind(f, "mrl")
    ts, scalar = t_grid(t)
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
    # the mesh is graded toward 1 as well because heavy-tailed components steepen there
    point = np.asarray(f.eval(ts), dtype=float)
    return _shaped(mu - point + integrate(integrand, ts, 0.0, cfg), scalar)


def reversed_hazard_clip_bias(f: ComponentFunction, cfg: NumericConfig | None = None) -> float:
    """First-order estimate of the mass lost below the lower clip.

    The reversed-hazard map only sees ``[clip, t]``; this bounds the
    truncated piece by ``clip * g(clip)`` with ``g(z) = 1/(z f(z))``.
    """
    _require_kind(f, "rev-hazard")
    cfg = _cfg(cfg)
    clip = cfg.sing_clip
    return float(clip / (clip * _positive_samples(f, np.asarray([clip]))[0]))


def quantile_from_reversed_hazard(f: ComponentFunction, t, cfg: NumericConfig | None = None):
    """Q(t) = int_0^t dz / (z f(z)); recovers Q relative to Q(0).

    Raises :class:`DivergenceError` when the integrand mass keeps growing
    toward 0 faster than the integrable rate (support unbounded below).
    The probe for that compares the masses on ``[clip, 8*clip]`` and
    ``[8*clip, 64*clip]``, read off the same integral at two extra grid
    points, and runs only if some t lies beyond ``64*clip``.
    """
    _require_kind(f, "rev-hazard")
    ts, scalar = t_grid(t)
    cfg = _cfg(cfg)

    def integrand(z):
        return 1.0 / (z * _positive_samples(f, z))

    clip = cfg.sing_clip
    probe = [8.0 * clip, 64.0 * clip] if (64.0 * clip < ts).any() else []
    values = integrate(integrand, np.append(ts, probe), 0.0, cfg)
    if probe:
        inner, outer = values[-2], values[-1] - values[-2]
        if inner > 1.02 * outer and inner > 1e-12:
            raise DivergenceError(
                f"clipped reversed-hazard integral keeps growing toward 0 "
                f"(mass {inner:.3e} on [clip, 8*clip] vs {outer:.3e} on [8*clip, 64*clip]); "
                "the underlying support appears unbounded below"
            )
    return _shaped(values[: ts.size], scalar)


def quantile_from_reversed_mrl(f: ComponentFunction, t, cfg: NumericConfig | None = None):
    """Q(t) = f(t) + int_0^t f(z)/z dz; consumes no mean."""
    _require_kind(f, "rev-mrl")
    ts, scalar = t_grid(t)
    cfg = _cfg(cfg)

    def integrand(z):
        return np.asarray(f.eval(z), dtype=float) / z

    return _shaped(np.asarray(f.eval(ts), dtype=float) + integrate(integrand, ts, 0.0, cfg), scalar)


#: Each quantity's inverse map and the t-range its round trips are checked
#: on; keys match :data:`reliability.QUANTITIES`.
INVERSE_MAPS = {
    "hazard": (quantile_from_hazard, (0.01, 0.95)),
    "mrl": (quantile_from_mrl, (0.01, 0.95)),
    "rev-hazard": (quantile_from_reversed_hazard, (0.05, 0.99)),
    "rev-mrl": (quantile_from_reversed_mrl, (0.05, 0.99)),
}


def round_trip(
    model: models.BivariateModel,
    quantity: str,
    component: str,
    conditioning_u: float,
    ts,
    cfg: NumericConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Reconstructed and reference quantiles of one model component on the grid ``ts``.

    The ``component`` (``first``: of X; ``second``: of Y given
    {X <= Q_X(conditioning_u)}) of ``quantity`` goes through its inverse
    map.  The reference is the model's own quantile function; every map but
    the MRL one sees no support offset, so for those the reference is taken
    relative to the lower end of the support.
    """
    if (quantity, component) not in KIND_OF:
        raise DomainError(f"no component {component!r} of quantity {quantity!r}")
    # checked for both components, though only the second one reads it
    reliability._require_interior("conditioning_u", float(conditioning_u), _cfg(cfg))
    ts = np.atleast_1d(ts)
    inverse_map, _ = INVERSE_MAPS[quantity]
    comp = component_from_model(model, KIND_OF[quantity, component], conditioning_u, cfg)
    reconstructed = inverse_map(comp, ts, cfg)
    if component == "first":
        reference = models.marginal_quantile(model, "x", ts, cfg)
        origin = model.marginal_x.support[0]
    else:
        reference = models.conditional_quantile(model, "le", conditioning_u, ts, cfg)
        origin = model.marginal_y.support[0]
    return reconstructed, reference if quantity == "mrl" else reference - origin


def hazard_mrl_identity_residual(
    model: models.BivariateModel,
    component: str,
    conditioning_u: float,
    t,
    cfg: NumericConfig | None = None,
):
    """LHS - RHS of (1-t) m(t) = int_t^1 dz/h(z) for the chosen component.

    ``t`` is a scalar (the result is a float) or a 1-D grid (an array).
    """
    if component not in COMPONENTS:
        raise DomainError(f"component must be 'first' or 'second', got {component!r}")
    ts, scalar = t_grid(t)
    cfg = _cfg(cfg)
    u0 = float(conditioning_u)
    mrl = _of_probability(model, "mrl", component, u0, cfg)
    hazard = _of_probability(model, "hazard", component, u0, cfg)

    def reciprocal_hazard(z):
        return 1.0 / np.asarray(hazard(z), dtype=float)

    lhs = (1.0 - ts) * np.asarray(mrl(ts), dtype=float)
    return _shaped(lhs - integrate(reciprocal_hazard, ts, 1.0, cfg), scalar)
