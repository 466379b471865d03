"""Recover quantile curves from reliability components, and the hazard/MRL identity.

Each reliability component determines its quantile function through an
integral inverse map:

    from hazard h:            Q(t) = int_0^t dz / ((1-z) h(z))
    from MRL m (mean mu):     Q(t) = mu - m(t) + int_0^t m(z)/(1-z) dz
    from reversed hazard r:   Q(t) = int_0^t dz / (z r(z))
    from reversed MRL e:      Q(t) = e(t) + int_0^t e(z)/z dz

Each map is one row of :data:`INVERSE_MAPS` run by one body.  The maps
that read no mean recover Q(t) - Q(0), which is Q(t) whenever the support
starts at 0 (all built-ins except the Pareto family, whose offset is its
scale); the MRL map carries the offset through the mean.  The identity
check verifies (1-t) m(t) = int_t^1 dz/h(z).

:data:`CHECKS` lists every ``verify`` check with its name, grid and
tolerance; :func:`verify` runs them and returns one record per check.
A value is checked once, where it enters: the public functions (the four
``quantile_from_*`` maps, :func:`round_trip`, :func:`verify`,
:func:`hazard_mrl_identity_residual` and :func:`component_from_model`)
check their arguments and resolve the config; the private bodies they run
take checked values, and read a component through one reader by the names
of ``reliability.all_quantities`` (Q(0) is ``offset``): off the node table
of ``verify``, or through ``all_quantities``, which evaluates and checks.

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
from typing import Callable, NamedTuple

import numpy as np

from . import models, reliability
from .errors import (BivquantError, ConfigError, DivergenceError, DomainError, InfiniteMeanError, IntegrandError,
                     SignError)
from .numerics import (DEFAULT_CONFIG, NumericConfig, config_or_default, integrate, require_choice, require_prob,
                       require_real, t_grid)
from .reliability import COMPONENTS

#: :class:`ComponentFunction` kind of each (quantity, component) pair: the
#: quantity spelled with ``_``, then ``1`` for the first component or ``2``
#: for the second (``("rev-hazard", "second")`` is ``"rev_hazard2"``).
KIND_OF = {
    (q, component): q.replace("-", "_") + str(index)
    for q in reliability.QUANTITIES
    for index, component in enumerate(COMPONENTS, start=1)
}
COMPONENT_KINDS = tuple(KIND_OF.values())
_PAIR_OF = {kind: pair for pair, kind in KIND_OF.items()}


@dataclass(frozen=True)
class ComponentFunction:
    """One reliability component as a standalone callable.

    ``eval`` must accept ndarray arguments on (0, 1).  ``mean_hint``
    carries the matching mean (of X for ``mrl1``, of the conditional
    variable for ``mrl2``), stored as a float and checked finite; the kinds
    whose map reads the mean require it, and only those maps consume it.
    """

    kind: str
    eval: Callable
    mean_hint: float | None = None

    def __post_init__(self):
        quantity, _ = _PAIR_OF[require_choice("kind", self.kind, COMPONENT_KINDS)]
        if self.mean_hint is not None:
            object.__setattr__(self, "mean_hint", require_real("mean_hint", self.mean_hint, DomainError))
        elif INVERSE_MAPS[quantity].reads_mean:
            raise DomainError(f"a component of kind {self.kind!r} needs a mean_hint")


def _shaped(values: np.ndarray, scalar: bool):
    return float(values[0]) if scalar else values


def _samples(g: Callable, z, kind: str | None = None):
    vals = np.asarray(g(z), dtype=float)
    if kind and not (vals.min() > 0.0 and vals.max() < np.inf):  # the hazard maps name a kind; NaN fails too
        bad = ~(np.isfinite(vals) & (vals > 0.0))
        raise SignError(f"{kind} sample is not a finite number above 0 at z = {z[bad][0]!r}")
    return vals


def _integrate_with_tail(integrand: Callable, ts: np.ndarray, end: float, cfg: NumericConfig):
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
    c = cfg.sing_clip
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


def _unbounded_below(inner: float, outer: float):
    """The reversed-hazard divergence probe: the mass on [clip, 8*clip] exceeds 1.02 times that on [8*clip, 64*clip]."""
    if inner > 1.02 * outer and inner > 1e-12:
        raise DivergenceError(
            f"clipped reversed-hazard integral keeps growing toward 0 "
            f"(mass {inner:.3e} on [clip, 8*clip] vs {outer:.3e} on [8*clip, 64*clip]); "
            "the underlying support appears unbounded below"
        )


class InverseMap(NamedTuple):
    """A quantity's map ``Q(t) = point(t) + int_0^t integrand(z, g, kind) dz`` from its component ``g`` of ``kind``."""

    integrand: Callable
    t_range: tuple  #: the t-range of its round trips
    point: bool = False  #: the map adds the point term f(t), read before the integral
    reads_mean: bool = False  #: the point term is mean - f(t), which carries the support offset
    probe: Callable | None = None  #: raises on the two tail masses of a divergent integral


#: Each quantity's inverse map; keys match :data:`reliability.QUANTITIES`.
INVERSE_MAPS = {
    "hazard": InverseMap(lambda z, g, kind: 1.0 / ((1.0 - z) * _samples(g, z, kind)), (0.01, 0.95)),
    "mrl": InverseMap(lambda z, g, kind: _samples(g, z) / (1.0 - z), (0.01, 0.95), point=True, reads_mean=True),
    "rev-hazard": InverseMap(lambda z, g, kind: 1.0 / (z * _samples(g, z, kind)), (0.05, 0.99), probe=_unbounded_below),
    "rev-mrl": InverseMap(lambda z, g, kind: _samples(g, z) / z, (0.05, 0.99), point=True),
}


def _quantile_from(kind: str, g: Callable, mean, ts: np.ndarray, cfg: NumericConfig):
    """The maps' body, on checked values: ``kind``'s map on ``g`` (``mean`` where it reads one) at the grid ``ts``."""
    inverse = INVERSE_MAPS[_PAIR_OF[kind][0]]
    point = _samples(g, ts) if inverse.point else None  # so the component checks the caller's t before any quadrature
    values, inner, outer = _integrate_with_tail(lambda z: inverse.integrand(z, g, kind), ts, 0.0, cfg)
    if inverse.probe:
        inverse.probe(inner, outer)
    if inverse.point:
        values = (mean - point if inverse.reads_mean else point) + values
    return values


def _public_map(quantity: str, doc: str):
    """``quantity``'s public map, named as its :data:`reliability.QUANTITIES` functions are; it checks kind, then t."""
    allowed = (KIND_OF[quantity, "first"], KIND_OF[quantity, "second"])

    def quantile_from(f: ComponentFunction, t, cfg: NumericConfig | None = None):
        if f.kind not in allowed:
            raise DomainError(f"expected a component of kind {allowed}, got {f.kind!r}")
        ts, scalar = t_grid(t)
        return _shaped(_quantile_from(f.kind, f.eval, f.mean_hint, ts, config_or_default(cfg)), scalar)

    quantile_from.__name__ = quantile_from.__qualname__ = f"quantile_from_{quantity.replace('rev-', 'reversed_')}"
    quantile_from.__doc__ = doc + "\n\n``t`` is a scalar (the result is a float) or a 1-D grid (an array)."
    return quantile_from


quantile_from_hazard = _public_map("hazard", "Q(t) = int_0^t dz / ((1-z) f(z)); recovers Q relative to Q(0).")
quantile_from_mrl = _public_map("mrl", "Q(t) = mu - f(t) + int_0^t f(z)/(1-z) dz, with mu = ``f.mean_hint``.")
quantile_from_reversed_hazard = _public_map("rev-hazard", """Q(t) = int_0^t dz / (z f(z)); recovers Q relative to Q(0).

Raises :class:`DivergenceError` when the integrand mass keeps growing toward 0 faster than the integrable rate
(support unbounded below).""")
quantile_from_reversed_mrl = _public_map("rev-mrl", "Q(t) = f(t) + int_0^t f(z)/z dz; consumes no mean.")


def _reader(model: models.BivariateModel, component: str, u0, cfg: NumericConfig, table=None, at_plan=None,
            at_grid=None) -> Callable:
    """``read(name, z=())``: the ``name`` of :func:`reliability.all_quantities` for ``component`` at the level ``u0``
    and the probabilities ``z`` (the numbers ``"mean"`` and ``"offset"`` at ``()``), off ``table`` (:func:`verify`'s
    values on its node table) at one check's plan nodes or grid, by the size of ``z``, or else from one
    ``all_quantities`` call.  Without a table, building it checks that ``u0`` is one level in the clipped interval (a
    first component never reads it) and reads Q(0); callers check ``component``."""
    if table is None:
        u0 = require_prob("conditioning_u", u0)  # all_quantities takes a grid of levels; a component has one
        table = reliability.all_quantities(model, component, u0, (), cfg, ("offset",))

    def read(name: str, z=()):
        if name not in table:
            return reliability.all_quantities(model, component, u0, z, cfg, (name,))[name]
        v = table[name]
        return v if name in ("mean", "offset") else v[at_plan if z.size > at_grid.size else at_grid]

    return read


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
    quantity, component = _PAIR_OF[require_choice("kind", kind, COMPONENT_KINDS)]
    read = _reader(model, component, conditioning_u, cfg)
    mean = float(read("mean")) if INVERSE_MAPS[quantity].reads_mean else None
    return ComponentFunction(kind, functools.partial(read, quantity), mean)


def _round_trip(quantity: str, component: str, read: Callable, ts: np.ndarray, cfg: NumericConfig):
    """:func:`round_trip` on the component that ``read`` gives, at the checked grid ``ts``."""
    mean, offset = (read("mean"), 0.0) if INVERSE_MAPS[quantity].reads_mean else (None, read("offset"))
    reconstructed = _quantile_from(KIND_OF[quantity, component], functools.partial(read, quantity), mean, ts, cfg)
    return reconstructed, read("quantile", ts) - offset


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
    map.  The reference is the model's own quantile function; a map that
    reads no mean sees no support offset, so for those the reference is
    taken relative to the lower end of the support.
    """
    require_choice("quantity", quantity, tuple(INVERSE_MAPS))
    require_choice("component", component, COMPONENTS)
    ts, cfg = t_grid(ts)[0], config_or_default(cfg)  # quantity, component, t, then the level, which the reader checks
    return _round_trip(quantity, component, _reader(model, component, conditioning_u, cfg), ts, cfg)


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
    require_choice("component", component, COMPONENTS)  # component, t, then the level, which the reader checks
    (ts, scalar), cfg = t_grid(t), config_or_default(cfg)
    return _shaped(_identity_residual(_reader(model, component, conditioning_u, cfg), ts, cfg), scalar)


def _identity_residual(read: Callable, ts: np.ndarray, cfg: NumericConfig):
    """(1-t) m(t) - int_t^1 dz/h(z) on ``ts``, for the MRL m and the hazard h that ``read`` gives."""
    return (1.0 - ts) * read("mrl", ts) - _integrate_with_tail(lambda z: 1.0 / read("hazard", z), ts, 1.0, cfg)[0]


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
    end: float  #: where its integral starts: 0 for an inverse map, 1 for the identity

    def __post_init__(self):
        self.ts.flags.writeable = False  # shared by every verify call and every record

    def residual(self, read: Callable, cfg: NumericConfig = DEFAULT_CONFIG):
        """:func:`round_trip`'s reconstructed minus reference, or :func:`hazard_mrl_identity_residual`, off ``read``."""
        if self.quantity is None:
            return _identity_residual(read, self.ts, cfg)
        return np.subtract(*_round_trip(self.quantity, self.component, read, self.ts, cfg))


#: Every check in output order: each round trip on 17 points of its t-range, each identity on t = k/34.
CHECKS = tuple(Check(f"{q}-roundtrip-{c}", q, c, np.linspace(*inverse.t_range, 17), ROUND_TRIP_TOL, 0.0)
               for q, inverse in INVERSE_MAPS.items() for c in COMPONENTS) + tuple(
    Check(f"identity-{c}", None, c, np.arange(1, 34) / 34.0, IDENTITY_TOL, 1.0) for c in COMPONENTS)


@functools.lru_cache(maxsize=2)  # verify's config, and one more
def _node_table(cfg: NumericConfig):
    """verify's nodes (those ``integrate`` hands each check's integrand, and the check grids: about 4,300 at the
    default config), sorted and read-only, and per check the positions of its plan's nodes and of its grid."""
    arrays = []
    for check in CHECKS:  # the plans of equal grids are one kept array
        _integrate_with_tail(lambda z: arrays.append(z) or np.ones_like(z), check.ts, check.end, cfg)
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
    """One row of :data:`CHECKS` on one model: its residuals on ``check.ts``, or None and the reason in ``note``."""

    check: Check
    residuals: np.ndarray | None
    note: str = ""

    @functools.cached_property
    def max_residual(self) -> float | None:
        """The largest absolute residual, NaN if any residual is NaN."""
        return None if self.residuals is None else float(np.max(np.abs(self.residuals)))

    @property
    def passed(self) -> bool:
        return self.residuals is not None and self.max_residual <= self.check.tol


def verify(model: models.BivariateModel, cfg: NumericConfig | None = None) -> list[CheckResult]:
    """Every row of :data:`CHECKS` on ``model``, one record each: its ``residual`` bit for bit.

    A check whose component has an infinite mean fails with the error as
    its note; any other :class:`BivquantError` propagates.  Each component
    is evaluated once, on a node table that holds every check's nodes, and
    its checks read it there.  Where that raises, its table is empty, so
    each read is one ``all_quantities`` call at its check's positions; a
    component that evaluates on the table evaluates on any part of it, so
    the first error in check order is the one raised.
    """
    cfg = config_or_default(cfg)
    nodes, positions = _node_table(cfg)
    tables = {}
    for c in COMPONENTS:
        try:
            tables[c] = reliability.all_quantities(model, c, VERIFY_CONDITIONING_U, nodes, cfg)
        except BivquantError:
            tables[c] = {}
    records = []
    for check, at in zip(CHECKS, positions):
        read = _reader(model, check.component, VERIFY_CONDITIONING_U, cfg, tables[check.component], *at)
        try:
            residuals, note = check.residual(read, cfg), ""
        except InfiniteMeanError as exc:
            residuals, note = None, str(exc)
        records.append(CheckResult(check, residuals, note))
    return records
