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

:data:`CHECKS` lists every ``verify`` check with its name, grid and
tolerance; :func:`verify` runs them and returns one record per check.  It
evaluates each component once, on a node table that holds every node the
checks integrate over, and the checks read it off there.

Inputs are callables, not models: the maps are statements about
functions, so they accept model-derived components and standalone
analytic ones alike.  Reconstruction integrands are singular at one
endpoint for heavy-tailed or steep-origin quantiles, where the
quadrature mesh stops ``sing_clip`` short; each map and the identity add
back the mass dropped there (:func:`_integrate_with_tail`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import models, reliability
from .errors import (BivquantError, ConfigError, DivergenceError, DomainError, InfiniteMeanError, IntegrandError,
                     SignError)
from .numerics import NumericConfig, config_or_default, integrate, t_grid

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


@dataclass(frozen=True)
class ComponentFunction:
    """One reliability component as a standalone callable.

    ``eval`` must accept ndarray arguments on (0, 1).  ``mean_hint``
    carries the matching mean (of X for ``mrl1``, of the conditional
    variable for ``mrl2``); the MRL kinds require it and only the MRL
    maps consume it.
    """

    kind: str
    eval: Callable
    mean_hint: float | None = None

    def __post_init__(self):
        if self.kind not in COMPONENT_KINDS:
            raise DomainError(f"kind must be one of {COMPONENT_KINDS}, got {self.kind!r}")
        if self.kind.startswith("mrl") and self.mean_hint is None:
            raise DomainError(f"a component of kind {self.kind!r} needs a mean_hint")


def _shaped(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _require_kind(f: ComponentFunction, quantity: str):
    allowed = (KIND_OF[quantity, "first"], KIND_OF[quantity, "second"])
    if f.kind not in allowed:
        raise DomainError(f"expected a component of kind {allowed}, got {f.kind!r}")


def _positive_samples(f: ComponentFunction, z):
    vals = np.asarray(f.eval(z), dtype=float)
    if not (vals.min() > 0.0 and vals.max() < np.inf):  # NaN fails too; z is the 1-d node array of ``integrate``
        bad = ~(np.isfinite(vals) & (vals > 0.0))
        raise SignError(f"{f.kind} sample is not strictly positive at z = {z[bad][0]!r}")
    return vals


def _of_probability(model, quantity: str, component: str, u0: float, cfg: NumericConfig) -> Callable:
    """The model's ``quantity`` component as a function of its probability argument alone."""
    first_fn, second_fn = reliability.QUANTITIES[quantity]
    if component == "first":
        return lambda z: first_fn(model, z, cfg)
    return lambda z: second_fn(model, u0, z, cfg)


def _integrate_with_tail(integrand: Callable, ts: np.ndarray, end: float, cfg: NumericConfig | None):
    """``integrate`` on ``ts`` plus the mass the clip drops at ``end``, and the two probe masses.

    The masses ``inner`` on [c, 8c] and ``outer`` on [8c, 64c] from
    ``end`` (c = ``sing_clip``) ride on the same call as two extra grid
    points.  The mass dropped within c of ``end`` is their geometric tail
    ``inner**2 / (outer - inner)`` (Aitken's delta-squared) when
    ``outer > inner``, and 0 otherwise: exact for a power law d**(-s), and
    c*g(end) at a smooth end.  A tail or a result that overflows raises
    :class:`IntegrandError`.  An outer probe not below 1/2 would leave the
    half of [0, 1] graded toward ``end``, or (0, 1) itself: that ``sing_clip``
    is a :class:`ConfigError`, raised before the integrand runs.
    """
    c = config_or_default(cfg).sing_clip
    probe = np.array([8.0 * c, 64.0 * c])
    if not probe[-1] < 0.5:
        raise ConfigError(f"sing_clip = {c!r} puts the outer tail probe at {float(probe[-1])!r}, not below 0.5")
    values = integrate(integrand, np.append(ts, probe if end == 0.0 else 1.0 - probe), end, cfg)
    inner, outer = values[-2], values[-1] - values[-2]
    with np.errstate(all="ignore"):  # an overflow is reported below, as one error
        tail = inner * inner / (outer - inner) if outer > inner else 0.0
        result = values[:-2] + tail
    if not (np.isfinite(tail) and np.isfinite(result).all()):
        raise IntegrandError(
            f"integral plus the mass dropped at the clipped endpoint is not finite "
            f"(mass {inner:.3e} on [clip, 8*clip] and {outer:.3e} on [8*clip, 64*clip])"
        )
    return result, inner, outer


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
    return _shaped(_integrate_with_tail(lambda z: 1.0 / ((1.0 - z) * _positive_samples(f, z)), ts, 0.0, cfg)[0], scalar)


def quantile_from_mrl(f: ComponentFunction, t, cfg: NumericConfig | None = None):
    """Q(t) = mu - f(t) + int_0^t f(z)/(1-z) dz, with mu the component's ``mean_hint``."""
    _require_kind(f, "mrl")
    ts, scalar = t_grid(t)
    # the integrand is finite at 0 but model components reject z = 0 exactly;
    # the mesh is graded toward 1 as well because heavy-tailed components steepen there
    point = np.asarray(f.eval(ts), dtype=float)
    integral = _integrate_with_tail(lambda z: np.asarray(f.eval(z), dtype=float) / (1.0 - z), ts, 0.0, cfg)[0]
    return _shaped(float(f.mean_hint) - point + integral, scalar)


def quantile_from_reversed_hazard(f: ComponentFunction, t, cfg: NumericConfig | None = None):
    """Q(t) = int_0^t dz / (z f(z)); recovers Q relative to Q(0).

    Raises :class:`DivergenceError` when the integrand mass keeps growing
    toward 0 faster than the integrable rate (support unbounded below):
    when the mass on ``[clip, 8*clip]`` exceeds 1.02 times that on
    ``[8*clip, 64*clip]``.
    """
    _require_kind(f, "rev-hazard")
    ts, scalar = t_grid(t)
    values, inner, outer = _integrate_with_tail(lambda z: 1.0 / (z * _positive_samples(f, z)), ts, 0.0, cfg)
    if inner > 1.02 * outer and inner > 1e-12:
        raise DivergenceError(
            f"clipped reversed-hazard integral keeps growing toward 0 "
            f"(mass {inner:.3e} on [clip, 8*clip] vs {outer:.3e} on [8*clip, 64*clip]); "
            "the underlying support appears unbounded below"
        )
    return _shaped(values, scalar)


def quantile_from_reversed_mrl(f: ComponentFunction, t, cfg: NumericConfig | None = None):
    """Q(t) = f(t) + int_0^t f(z)/z dz; consumes no mean."""
    _require_kind(f, "rev-mrl")
    ts, scalar = t_grid(t)
    integral = _integrate_with_tail(lambda z: np.asarray(f.eval(z), dtype=float) / z, ts, 0.0, cfg)[0]
    return _shaped(np.asarray(f.eval(ts), dtype=float) + integral, scalar)


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
    reliability._require_interior("conditioning_u", float(conditioning_u), config_or_default(cfg))
    ts = np.atleast_1d(ts)
    inverse_map, _ = INVERSE_MAPS[quantity]
    comp = component_from_model(model, KIND_OF[quantity, component], conditioning_u, cfg)
    reconstructed = inverse_map(comp, ts, cfg)
    if component == "first":
        reference = models.marginal_quantile(model, "x", ts, cfg)
    else:
        reference = models.conditional_quantile(model, "le", conditioning_u, ts, cfg)
    return reconstructed, _relative(reference, quantity, model.marginal_x if component == "first" else model.marginal_y)


def _relative(reference, quantity: str, fam: models.Marginal):
    """``reference`` as ``quantity``'s map recovers it: all maps but the MRL one see no support offset."""
    return reference if quantity == "mrl" else reference - fam.support[0]


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
    u0 = float(conditioning_u)
    reliability._require_interior("conditioning_u", u0, config_or_default(cfg))  # the check of round_trip
    mrl, hazard = (_of_probability(model, q, component, u0, cfg) for q in ("mrl", "hazard"))
    return _shaped(_identity_residual(mrl, hazard, ts, cfg), scalar)


def _identity_residual(mrl: Callable, hazard: Callable, ts: np.ndarray, cfg: NumericConfig | None):
    """(1-t) m(t) - int_t^1 dz/h(z) on ``ts``, for an MRL m and a hazard h of the probability."""
    lhs = (1.0 - ts) * np.asarray(mrl(ts), dtype=float)
    return lhs - _integrate_with_tail(lambda z: 1.0 / np.asarray(hazard(z), dtype=float), ts, 1.0, cfg)[0]


# --- the verify check table ------------------------------------------------

ROUND_TRIP_TOL = 1e-4
IDENTITY_TOL = 1e-6
VERIFY_CONDITIONING_U = 0.5  #: the level u0 every second component is anchored at


@dataclass(frozen=True)
class Check:
    """One ``verify`` check: the round trip of ``quantity`` (the identity if None) stays within ``tol`` on ``ts``."""

    name: str
    quantity: str | None
    component: str
    ts: np.ndarray
    tol: float

    def __post_init__(self):
        self.ts.flags.writeable = False  # shared by every verify call and every record

    def residual(self, model, conditioning_u: float, cfg: NumericConfig | None = None, table=None):
        """The residuals on ``model`` of :func:`round_trip` or :func:`hazard_mrl_identity_residual`, bit for bit
        also when the maps read the component off ``table``: its ``all_quantities`` and the check's positions."""
        if table is None and self.quantity is None:
            return hazard_mrl_identity_residual(model, self.component, conditioning_u, self.ts, cfg)
        if table is None:  # reconstructed minus reference
            return np.subtract(*round_trip(model, self.quantity, self.component, conditioning_u, self.ts, cfg))
        values, (at_plan, at_grid) = table
        fam, role = (model.marginal_x, "X") if self.component == "first" else (model.marginal_y, "Y")

        def read(quantity):  # ``integrate`` passes the plan's nodes, a point term the grid
            if quantity not in values:  # the MRL of an infinite mean
                reliability._require_finite_mean(fam, role)
            return lambda z, v=values[quantity]: v[at_plan if z.size > at_grid.size else at_grid]

        if self.quantity is None:
            return _identity_residual(read("mrl"), read("hazard"), self.ts, cfg)
        f = ComponentFunction(KIND_OF[self.quantity, self.component], read(self.quantity), values.get("mean"))
        reference = _relative(values["quantile"][at_grid], self.quantity, fam)
        return INVERSE_MAPS[self.quantity][0](f, self.ts, cfg) - reference


#: Every check in output order: each round trip on 17 points of its t-range, each identity on t = k/34.
CHECKS = tuple(Check(f"{q}-roundtrip-{c}", q, c, np.linspace(*t_range, 17), ROUND_TRIP_TOL)
               for q, (_, t_range) in INVERSE_MAPS.items() for c in COMPONENTS) + tuple(
    Check(f"identity-{c}", None, c, np.arange(1, 34) / 34.0, IDENTITY_TOL) for c in COMPONENTS)


@functools.lru_cache(maxsize=2)  # verify's config, and one more
def _node_table(cfg: NumericConfig):
    """verify's nodes (those ``integrate`` hands each check's integrand, and the check grids: about 8,400 at the
    default config), sorted and read-only, and per check the positions of its plan's nodes and of its grid."""
    arrays = []
    for check in CHECKS:  # the plans of equal grids are one kept array
        _integrate_with_tail(lambda z: arrays.append(z) or np.ones_like(z), check.ts, 1.0 - bool(check.quantity), cfg)
        arrays.append(check.ts)
    distinct = {id(a): a for a in arrays}
    nodes = np.sort(np.concatenate(list(distinct.values())))
    nodes = nodes[np.append(True, nodes[1:] != nodes[:-1])]  # np.unique would cost 1.6 MB of RSS
    where = {key: np.searchsorted(nodes, a) for key, a in distinct.items()}
    for a in (nodes, *where.values()):
        a.flags.writeable = False
    return nodes, tuple((where[id(z)], where[id(ts)]) for z, ts in zip(arrays[::2], arrays[1::2]))


@dataclass(frozen=True)
class CheckResult:
    """One check on one model: its residuals on ``ts``, or None and the reason in ``note``."""

    name: str
    tol: float
    ts: np.ndarray
    residuals: np.ndarray | None
    note: str = ""

    @functools.cached_property
    def max_residual(self) -> float | None:
        """The largest absolute residual, NaN if any residual is NaN."""
        return None if self.residuals is None else float(np.max(np.abs(self.residuals)))

    @property
    def passed(self) -> bool:
        return self.residuals is not None and self.max_residual <= self.tol


def verify(model: models.BivariateModel, cfg: NumericConfig | None = None) -> list[CheckResult]:
    """Every row of :data:`CHECKS` on ``model``, one record each: its ``residual`` bit for bit.

    A check whose component has an infinite mean fails with the error as
    its note; any other :class:`BivquantError` propagates.  Each component
    is evaluated once, on a node table that holds every check's nodes.  Where
    that raises, the checks make their own calls: the first error in check
    order is the one raised.
    """
    u0 = VERIFY_CONDITIONING_U
    try:
        nodes, positions = _node_table(config_or_default(cfg))
        sides = {c: reliability.all_quantities(model, c, u0, nodes, cfg) for c in COMPONENTS}
        tables = [(sides[check.component], at) for check, at in zip(CHECKS, positions)]
    except BivquantError:
        tables = [None] * len(CHECKS)
    records = []
    for check, table in zip(CHECKS, tables):
        try:
            residuals, note = check.residual(model, u0, cfg, table), ""
        except InfiniteMeanError as exc:
            residuals, note = None, str(exc)
        records.append(CheckResult(check.name, check.tol, check.ts, residuals, note))
    return records
