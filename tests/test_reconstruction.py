import warnings

import numpy as np
import pytest

from bivquant import (
    BivariateModel,
    BoundaryError,
    ComponentFunction,
    DivergenceError,
    DomainError,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    InfiniteMeanError,
    IntegrandError,
    Pareto,
    SignError,
    Uniform01,
    Weibull,
    component_from_model,
    conditional_quantile,
    hazard_mrl_identity_residual,
    marginal_quantile,
    quantile_from_hazard,
    quantile_from_mrl,
    quantile_from_reversed_hazard,
    quantile_from_reversed_mrl,
)
from bivquant import reconstruction
from bivquant.numerics import DEFAULT_CONFIG
from bivquant.reconstruction import (
    COMPONENT_KINDS,
    INVERSE_MAPS,
    KIND_OF,
    round_trip,
)
from bivquant.reliability import QUANTITIES

from conftest import mixed_models
from oracles import LN2, PHI_HALF, fgm_phi_closed, trapezoid

#: Each quantity's public inverse map.
MAPS = {
    "hazard": quantile_from_hazard,
    "mrl": quantile_from_mrl,
    "rev-hazard": quantile_from_reversed_hazard,
    "rev-mrl": quantile_from_reversed_mrl,
}
MAIN_GRID = np.linspace(0.01, 0.95, 33)
REV_GRID = np.linspace(0.05, 0.99, 33)
IDENTITY_GRID = np.arange(1, 34) / 34.0


def _const(kind, value, mean=None):
    return ComponentFunction(kind=kind, eval=lambda z: np.full_like(np.asarray(z, float), value), mean_hint=mean)


class TestHazardMap:
    def test_constant_hazard_recovers_exponential(self):
        got = quantile_from_hazard(_const("hazard1", 1.0), 0.5)
        assert got == pytest.approx(LN2, abs=1e-9)

    def test_uniform_hazard_recovers_identity(self):
        f = ComponentFunction("hazard1", lambda z: 1.0 / (1.0 - z))
        assert quantile_from_hazard(f, 0.7) == pytest.approx(0.7, abs=1e-9)

    def test_fgm_second_component(self, fgm_uniform):
        comp = component_from_model(fgm_uniform, "hazard2", 0.5)
        got = quantile_from_hazard(comp, 0.5)
        assert got == pytest.approx(PHI_HALF, abs=1e-6)

    def test_sign_error(self):
        with pytest.raises(SignError):
            quantile_from_hazard(_const("hazard1", -1.0), 0.5)

    def test_kind_check(self):
        f = _const("mrl1", 1.0, mean=1.0)
        with pytest.raises(DomainError):
            quantile_from_hazard(f, 0.5)

    def test_t_domain(self):
        with pytest.raises(DomainError):
            quantile_from_hazard(_const("hazard1", 1.0), 1.5)


class TestMrlMap:
    def test_constant_mrl_recovers_exponential(self):
        got = quantile_from_mrl(_const("mrl1", 1.0, mean=1.0), 0.5)
        assert got == pytest.approx(LN2, abs=1e-9)

    def test_linear_mrl_recovers_uniform(self):
        f = ComponentFunction("mrl1", lambda z: (1.0 - z) / 2.0, mean_hint=0.5)
        assert quantile_from_mrl(f, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_fgm_second_component_with_trapezoid_mean(self, fgm_uniform):
        mu = trapezoid(fgm_phi_closed, 0.0, 1.0)  # conditional mean oracle
        comp = component_from_model(fgm_uniform, "mrl2", 0.5)
        assert comp.mean_hint == pytest.approx(mu, abs=1e-9)
        assert quantile_from_mrl(comp, 0.5) == pytest.approx(PHI_HALF, abs=1e-6)

    @pytest.mark.parametrize("kind", ["mrl1", "mrl2"])
    def test_mean_hint_required(self, kind):
        with pytest.raises(DomainError, match=f"kind '{kind}' needs a mean_hint"):
            ComponentFunction(kind, lambda z: (1.0 - z) / 2.0)

    @pytest.mark.parametrize("hint, message", [({}, "must be a real number, got {}"), (10**400, "is too large"),
                                               ("x", "must be a real number, got 'x'"),
                                               (True, "must be a real number, got True")],
                             ids=["dict", "huge-int", "string", "bool"])
    def test_mean_hint_checked_where_it_enters(self, hint, message):
        with pytest.raises(DomainError, match=f"^mean_hint {message}"):
            ComponentFunction("mrl1", lambda z: (1.0 - z) / 2.0, hint)

    @pytest.mark.parametrize("hint", [float("nan"), float("inf"), -float("inf"), np.float64("nan")], ids=repr)
    def test_non_finite_mean_hint_is_domain_error(self, hint):
        # a hint that entered would make the MRL map return it at every t, with no error
        with pytest.raises(DomainError) as info:
            quantile_from_mrl(ComponentFunction("mrl1", lambda z: (1.0 - z) / 2.0, hint), [0.3, 0.5])
        assert str(info.value) == f"mean_hint must be a finite real, got {float(hint)!r}"

    def test_mean_hint_stored_as_float(self):
        f = ComponentFunction("mrl1", lambda z: (1.0 - z) / 2.0, np.float32(0.5))
        assert type(f.mean_hint) is float and quantile_from_mrl(f, 0.5) == pytest.approx(0.5, abs=1e-9)
        assert type(ComponentFunction("rev_mrl1", np.ones_like, 2).mean_hint) is float

    def test_infinite_mean_at_construction(self, heavy_pareto):
        with pytest.raises(InfiniteMeanError, match="infinite mean"):
            component_from_model(heavy_pareto, "mrl1")


class TestReversedMaps:
    def test_uniform_reversed_hazard(self):
        f = ComponentFunction("rev_hazard1", lambda z: 1.0 / z)
        assert quantile_from_reversed_hazard(f, 0.7) == pytest.approx(0.7, abs=1e-9)

    def test_exponential_reversed_hazard(self):
        f = ComponentFunction("rev_hazard1", lambda z: (1.0 - z) / z)
        assert quantile_from_reversed_hazard(f, 0.5) == pytest.approx(LN2, abs=1e-9)

    def test_uniform_reversed_mrl(self):
        f = ComponentFunction("rev_mrl1", lambda z: z / 2.0)
        assert quantile_from_reversed_mrl(f, 0.8) == pytest.approx(0.8, abs=1e-9)

    def test_exponential_reversed_mrl(self, indep_exp):
        comp = component_from_model(indep_exp, "rev_mrl1")
        assert quantile_from_reversed_mrl(comp, 0.5) == pytest.approx(LN2, abs=1e-6)

    def test_fgm_second_components(self, fgm_uniform):
        for kind, inverse in [
            ("rev_hazard2", quantile_from_reversed_hazard),
            ("rev_mrl2", quantile_from_reversed_mrl),
        ]:
            comp = component_from_model(fgm_uniform, kind, 0.5)
            assert inverse(comp, 0.5) == pytest.approx(PHI_HALF, abs=1e-6)

    def test_mean_free(self, indep_exp):
        comp = component_from_model(indep_exp, "rev_mrl1")
        hinted = ComponentFunction("rev_mrl1", comp.eval, mean_hint=123.0)
        for t in (0.1, 0.5, 0.9):
            assert quantile_from_reversed_mrl(comp, t) == quantile_from_reversed_mrl(hinted, t)

    def test_divergence_diagnostic(self):
        # 1/(z f(z)) = z**-1.5: the clipped integral keeps growing as clip shrinks
        f = ComponentFunction("rev_hazard1", lambda z: np.sqrt(z))
        with pytest.raises(DivergenceError):
            quantile_from_reversed_hazard(f, 0.5)

    @pytest.mark.parametrize("s", [1.0, 1.005, 1.02, 1.5])
    def test_divergence_verdict_on_power_integrand(self, s):
        # 1/(z f(z)) = z**-s puts 8**(s-1) times as much mass on [clip, 8*clip]
        # as on [8*clip, 64*clip]; the probe flags a ratio above 1.02
        f = ComponentFunction("rev_hazard1", lambda z: z ** (s - 1.0))
        if 8.0 ** (s - 1.0) > 1.02:
            with pytest.raises(DivergenceError, match="keeps growing toward 0"):
                quantile_from_reversed_hazard(f, [0.3, 0.6])
        else:
            assert np.all(np.isfinite(quantile_from_reversed_hazard(f, [0.3, 0.6])))


class TestRoundTrips:
    def test_hazard_round_trips_all_models(self):
        # hazard inputs see no support offset: compare against the quantile
        # relative to its left endpoint (zero everywhere except Pareto)
        for model in mixed_models():
            x0 = model.marginal_x.support[0]
            y0 = model.marginal_y.support[0]
            comp1 = component_from_model(model, "hazard1")
            comp2 = component_from_model(model, "hazard2", 0.5)
            e1 = max(
                abs(quantile_from_hazard(comp1, t) - (marginal_quantile(model, "x", t) - x0))
                for t in MAIN_GRID
            )
            e2 = max(
                abs(
                    quantile_from_hazard(comp2, t)
                    - (conditional_quantile(model, "le", 0.5, t) - y0)
                )
                for t in MAIN_GRID
            )
            assert max(e1, e2) <= 1e-4, repr(model)

    def test_hazard_round_trip_pareto_recovers_shifted_quantile(self):
        # hazard input is invariant to the support offset, so the map returns
        # the quantile relative to its left endpoint (the scale)
        model = BivariateModel(Pareto(1.5, 2.0), Uniform01(), IndependenceCopula())
        comp = component_from_model(model, "hazard1")
        e = max(
            abs(quantile_from_hazard(comp, t) - (marginal_quantile(model, "x", t) - 1.5))
            for t in MAIN_GRID
        )
        assert e <= 1e-4

    def test_mrl_round_trips_finite_mean_models(self):
        for model in mixed_models():
            comp1 = component_from_model(model, "mrl1")
            comp2 = component_from_model(model, "mrl2", 0.5)
            e1 = max(
                abs(quantile_from_mrl(comp1, t) - marginal_quantile(model, "x", t))
                for t in MAIN_GRID
            )
            e2 = max(
                abs(quantile_from_mrl(comp2, t) - conditional_quantile(model, "le", 0.5, t))
                for t in MAIN_GRID
            )
            assert max(e1, e2) <= 1e-4, repr(model)

    def test_reversed_round_trips(self):
        for model in mixed_models():
            x0 = model.marginal_x.support[0]
            y0 = model.marginal_y.support[0]
            for kind, inverse, offset in [
                ("rev_hazard1", quantile_from_reversed_hazard, x0),
                ("rev_mrl1", quantile_from_reversed_mrl, x0),
            ]:
                comp = component_from_model(model, kind)
                e = max(
                    abs(inverse(comp, t) - (marginal_quantile(model, "x", t) - offset))
                    for t in REV_GRID
                )
                assert e <= 1e-4, (repr(model), kind)
            for kind, inverse in [
                ("rev_hazard2", quantile_from_reversed_hazard),
                ("rev_mrl2", quantile_from_reversed_mrl),
            ]:
                comp = component_from_model(model, kind, 0.5)
                e = max(
                    abs(inverse(comp, t) - (conditional_quantile(model, "le", 0.5, t) - y0))
                    for t in REV_GRID
                )
                assert e <= 1e-4, (repr(model), kind)


class TestKindCheck:
    """Each public map checks its component's kind, then t; its body takes checked values."""

    OTHER_KINDS = [(quantity, kind) for quantity in MAPS for kind in COMPONENT_KINDS
                   if kind not in (KIND_OF[quantity, "first"], KIND_OF[quantity, "second"])]

    @pytest.mark.parametrize("quantity, kind", OTHER_KINDS)
    def test_each_map_rejects_every_other_kind(self, quantity, kind):
        first, second = KIND_OF[quantity, "first"], KIND_OF[quantity, "second"]
        with pytest.raises(DomainError) as info:
            MAPS[quantity](_const(kind, 1.0, mean=1.0), 0.5)
        assert str(info.value) == f"expected a component of kind ('{first}', '{second}'), got '{kind}'"

    @pytest.mark.parametrize("quantity", list(MAPS))
    def test_the_kind_is_checked_before_t(self, quantity):
        wrong = next(kind for q, kind in self.OTHER_KINDS if q == quantity)
        with pytest.raises(DomainError, match="^expected a component of kind"):
            MAPS[quantity](_const(wrong, 1.0, mean=1.0), None)
        with pytest.raises(DomainError, match="^t must be a number"):  # the same t alone fails at t
            MAPS[quantity](_const(KIND_OF[quantity, "first"], 1.0, mean=1.0), None)


class TestEvaluationOrder:
    """Both MRL maps read their point term f(t) before the integral, so the component checks the caller's t first.

    Each case fails at both steps, so the order decides which error a caller sees.
    """

    def test_mrl_reads_its_point_term_first(self):
        # f(1e-13) is below eps_boundary; the integral overflows on this scale
        model = BivariateModel(Pareto(1e300, 1.01), Exponential(1.0), IndependenceCopula())
        comp = component_from_model(model, "mrl1")
        with pytest.raises(BoundaryError, match=r"^u = 1e-13 lies outside"):
            quantile_from_mrl(comp, [1e-13, 0.99])

    def test_reversed_mrl_reads_its_point_term_first(self):
        # f(1e-13) is below eps_boundary; the integrand is not finite at z = 1e-7 on this scale
        model = BivariateModel(Exponential(1e-310), Exponential(1.0), FGMCopula(0.5))
        comp = component_from_model(model, "rev_mrl1")
        with pytest.raises(BoundaryError, match=r"^u = 1e-13 lies outside"):
            quantile_from_reversed_mrl(comp, 1e-13)


class TestRegistry:
    def test_inverse_maps_share_quantity_keys(self):
        assert list(INVERSE_MAPS) == list(QUANTITIES) == ["hazard", "mrl", "rev-hazard", "rev-mrl"]
        assert INVERSE_MAPS["hazard"].t_range == INVERSE_MAPS["mrl"].t_range == (0.01, 0.95)
        assert INVERSE_MAPS["rev-hazard"].t_range == INVERSE_MAPS["rev-mrl"].t_range == (0.05, 0.99)

    def test_map_facts(self):
        # only the MRL map reads the mean, so only it keeps the support offset; both MRL maps add a point term; only
        # the reversed hazard probes divergence
        assert [q for q, m in INVERSE_MAPS.items() if m.reads_mean] == ["mrl"]
        assert [q for q, m in INVERSE_MAPS.items() if m.point] == ["mrl", "rev-mrl"]
        assert [q for q, m in INVERSE_MAPS.items() if m.probe] == ["rev-hazard"]

    def test_component_kind_spelling(self):
        assert KIND_OF["rev-hazard", "second"] == "rev_hazard2"
        assert COMPONENT_KINDS == (
            "hazard1", "hazard2", "mrl1", "mrl2",
            "rev_hazard1", "rev_hazard2", "rev_mrl1", "rev_mrl2",
        )

    def test_unknown_kind(self, indep_exp):
        message = f"kind must be one of {COMPONENT_KINDS}, got 'hazard3'"
        with pytest.raises(DomainError) as info:
            ComponentFunction("hazard3", lambda z: z)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            component_from_model(indep_exp, "hazard3")
        assert str(info.value) == message

    @pytest.mark.parametrize("quantity", list(QUANTITIES))
    def test_first_component_round_trip_through_registry(self, quantity, indep_exp):
        # support starts at 0, so every inverse map returns the quantile itself
        comp = component_from_model(indep_exp, KIND_OF[quantity, "first"])
        inverse, (lo, hi) = MAPS[quantity], INVERSE_MAPS[quantity].t_range
        e = max(
            abs(inverse(comp, t) - marginal_quantile(indep_exp, "x", t))
            for t in np.linspace(lo, hi, 9)
        )
        assert e <= 1e-4


class TestGrids:
    """Every inverse map and the identity take a scalar t or a 1-D grid."""

    @pytest.mark.parametrize("quantity", list(QUANTITIES))
    @pytest.mark.parametrize("component", ["first", "second"])
    def test_grid_equals_scalar_calls(self, quantity, component):
        model = BivariateModel(Exponential(1.3), Weibull(1.1, 1.7), FGMCopula(-0.6))
        comp = component_from_model(model, KIND_OF[quantity, component], 0.4)
        inverse, (lo, hi) = MAPS[quantity], INVERSE_MAPS[quantity].t_range
        ts = np.linspace(lo, hi, 5)
        scalars = [inverse(comp, t) for t in ts]
        assert all(type(v) is float for v in scalars)
        grid = inverse(comp, ts)
        assert isinstance(grid, np.ndarray) and grid.shape == ts.shape
        assert np.array_equal(grid, scalars)  # bit for bit

    @pytest.mark.parametrize("component", ["first", "second"])
    def test_identity_grid_equals_scalar_calls(self, fgm_uniform, component):
        scalars = [hazard_mrl_identity_residual(fgm_uniform, component, 0.5, t) for t in IDENTITY_GRID]
        assert all(type(v) is float for v in scalars)
        grid = hazard_mrl_identity_residual(fgm_uniform, component, 0.5, IDENTITY_GRID)
        assert np.array_equal(grid, scalars)

    @pytest.mark.parametrize("quantity", list(QUANTITIES))
    @pytest.mark.parametrize("n", [1, 5, 33])
    def test_one_vector_call_per_grid(self, quantity, n):
        # the integral takes one call whatever the grid length, the
        # endpoint probe included; the MRL maps add one for their
        # point terms f(t)
        ndims = []

        def f(z):
            ndims.append(np.ndim(z))
            return np.full_like(np.asarray(z, float), 0.5)

        inverse, (lo, hi) = MAPS[quantity], INVERSE_MAPS[quantity].t_range
        inverse(ComponentFunction(KIND_OF[quantity, "first"], f, mean_hint=0.5), np.linspace(lo, hi, n))
        expected = {"hazard": 1, "mrl": 2, "rev-hazard": 1, "rev-mrl": 2}[quantity]
        assert ndims == [1] * expected

    def test_grid_validation(self):
        f = _const("hazard1", 1.0)
        with pytest.raises(DomainError, match=r"t must lie in \(0,1\), got 1.0"):
            quantile_from_hazard(f, [0.2, 1.0, 0.5])
        with pytest.raises(DomainError, match="1-D grid"):
            quantile_from_hazard(f, np.full((2, 2), 0.5))
        # the numbers, then the shape, then the range: a 2-D grid outside (0,1) is named by its shape
        with pytest.raises(DomainError, match=r"^t must be a scalar or a 1-D grid, got shape \(2, 2\)$"):
            quantile_from_hazard(f, np.full((2, 2), 1.5))
        assert quantile_from_hazard(f, []).shape == (0,)

    def test_divergence_probe_runs_once_per_call(self, monkeypatch):
        # every map makes one integrate call: its grid plus the two probe
        # points at 8*clip and 64*clip
        sizes = []
        original = reconstruction.integrate

        def counting(f, ts, *args, **kwargs):
            sizes.append(np.size(ts))
            return original(f, ts, *args, **kwargs)

        monkeypatch.setattr(reconstruction, "integrate", counting)
        for quantity, inverse in MAPS.items():
            lo, hi = INVERSE_MAPS[quantity].t_range
            f = ComponentFunction(KIND_OF[quantity, "first"], lambda z: np.full_like(z, 0.5), mean_hint=0.5)
            for n in (1, 5):
                sizes.clear()
                got = inverse(f, np.linspace(lo, hi, n))
                assert sizes == [n + 2] and got.shape == (n,), quantity


class TestEndpointTail:
    """The maps add the mass the clip drops at their singular endpoint."""

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.8])
    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_power_law_matches_unclipped_integral(self, s, end):
        # d**-s, d the distance from ``end``, integrates to d(t)**(1-s)/(1-s)
        # over the whole interval between ``end`` and t
        ts = np.array([0.05, 0.3, 0.99])
        dist = ts if end == 0.0 else 1.0 - ts
        got, _, _ = reconstruction._integrate_with_tail(lambda z: np.abs(z - end) ** -s, ts, end, DEFAULT_CONFIG)
        assert np.allclose(got, dist ** (1.0 - s) / (1.0 - s), rtol=1e-9, atol=0.0)

    def test_tail_that_overflows_is_one_error(self):
        # the integral is finite, but the tail inner**2 / (outer - inner) overflows: one error, no numpy warning
        f = ComponentFunction("rev_mrl1", lambda z: 1e160 * np.ones_like(z))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrandError) as info:
                quantile_from_reversed_mrl(f, 0.5)
        assert str(info.value) == ("integral plus the mass dropped at the clipped endpoint is not finite "
                                   "(mass 2.079e+160 on [clip, 8*clip] and 2.079e+160 on [8*clip, 64*clip])")

    @pytest.mark.parametrize("s", [0.0, 0.5, 0.8])
    def test_reversed_hazard_map_recovers_power_quantile(self, s):
        # 1/(z f(z)) = z**-s: Q(t) = t**(1-s)/(1-s), with no mass lost below the clip
        f = ComponentFunction("rev_hazard1", lambda z: z ** (s - 1.0))
        ts = np.array([0.05, 0.3, 0.99])
        exact = ts ** (1.0 - s) / (1.0 - s)
        assert np.allclose(quantile_from_reversed_hazard(f, ts), exact, rtol=1e-9, atol=0.0)


class TestRoundTrip:
    def test_reference_offset_per_quantity(self):
        # Pareto support starts at its scale: only the MRL map carries it
        model = BivariateModel(Pareto(1.5, 3.0), Exponential(1.0), FGMCopula(0.3))
        ts = np.linspace(0.05, 0.95, 7)
        quantile = marginal_quantile(model, "x", ts)
        for quantity in QUANTITIES:
            rec, ref = round_trip(model, quantity, "first", 0.5, ts)
            offset = 0.0 if quantity == "mrl" else 1.5
            assert np.array_equal(ref, quantile - offset)
            assert np.max(np.abs(rec - ref)) <= 1e-4, quantity

    def test_second_component_matches_maps(self, fgm_uniform):
        ts = np.linspace(0.05, 0.95, 5)
        rec, ref = round_trip(fgm_uniform, "rev-mrl", "second", 0.5, ts)
        comp = component_from_model(fgm_uniform, "rev_mrl2", 0.5)
        assert np.array_equal(rec, quantile_from_reversed_mrl(comp, ts))
        assert np.array_equal(ref, [conditional_quantile(fgm_uniform, "le", 0.5, t) for t in ts])

    @pytest.mark.parametrize("component", ["first", "second"])
    def test_conditioning_u_checked_for_every_component(self, indep_exp, component):
        with pytest.raises(DomainError, match="conditioning_u"):
            round_trip(indep_exp, "hazard", component, 1.5, [0.5])

    def test_unknown_component(self, indep_exp):
        with pytest.raises(DomainError, match="third"):
            round_trip(indep_exp, "hazard", "third", 0.5, [0.5])

    def test_argument_order(self, indep_exp):
        # quantity, component, t, then the level, as hazard_mrl_identity_residual; t is checked before it is wrapped
        cases = [(("odds", "third", None), "^quantity "), (("hazard", "third", None), "^component "),
                 (("hazard", "first", None), "^t must be a number or an array of numbers, got None$"),
                 (("hazard", "first", [0.3]), "^conditioning_u ")]
        for (quantity, component, ts), message in cases:
            with pytest.raises(DomainError, match=message):
                round_trip(indep_exp, quantity, component, 1.5, ts)


class TestEntryBoundary:
    """The three entry points that take a level check it once, through the component's reader."""

    ENTRIES = {
        "round_trip": lambda model, component, u0: round_trip(model, "hazard", component, u0, [0.3]),
        "identity": lambda model, component, u0: hazard_mrl_identity_residual(model, component, u0, 0.3),
        "component_from_model": lambda model, component, u0: component_from_model(
            model, KIND_OF["hazard", component], u0),
    }

    @pytest.mark.parametrize("u0", ["x", None, [0.4, 0.6], np.full((2, 2), 0.5), object(), 1.5],
                             ids=["string", "none", "list", "2-d", "object", "outside"])
    @pytest.mark.parametrize("component", ["first", "second"])
    @pytest.mark.parametrize("entry", list(ENTRIES))
    def test_a_level_that_is_not_one_number_in_the_interval_is_a_domain_error(self, indep_exp, entry, component, u0):
        # raised when the component is built, for a first component too, which never reads the level
        with pytest.raises(DomainError, match="^conditioning_u "):
            self.ENTRIES[entry](indep_exp, component, u0)

    def test_a_grid_of_levels_is_not_read_as_one(self, indep_exp):
        with pytest.raises(DomainError, match=r"^conditioning_u must be one number, got shape \(2,\)$"):
            hazard_mrl_identity_residual(indep_exp, "first", np.array([0.4, 0.6]), 0.3)

    @pytest.mark.parametrize("quantity", ["hazard", "rev-hazard", "mrl", "rev-mrl"])
    @pytest.mark.parametrize("component", ["first", "second"])
    def test_every_round_trip_rejects_t_inside_the_clip(self, indep_exp, quantity, component):
        # the reference quantile is read unclipped, as the MRL maps read their point term
        with pytest.raises(BoundaryError, match="= 1e-12 lies outside the clipped interval"):
            round_trip(indep_exp, quantity, component, 0.5, [1e-12, 0.5])


class TestIdentity:
    def test_uniform_analytic_both_sides(self, indep_uniform):
        # both sides equal (1-t)^2/2 = 1/8 at t = 1/2
        assert (1 - 0.5) ** 2 / 2 == 0.125
        res = hazard_mrl_identity_residual(indep_uniform, "first", 0.5, 0.5)
        assert abs(res) <= 1e-9

    def test_exponential(self, indep_exp):
        res = hazard_mrl_identity_residual(indep_exp, "first", 0.5, 0.3)
        assert abs(res) <= 1e-8

    def test_fgm_second_component_vs_trapezoid_oracles(self, fgm_uniform):
        t = 0.5
        lhs = (1 - t) * (trapezoid(fgm_phi_closed, t, 1.0) / (1 - t) - fgm_phi_closed(t))
        # rhs oracle: 1/h2(z) = (1-z) phi'(z); integrate the closed-form derivative
        rhs = trapezoid(lambda z: (1 - z) * 2.0 / np.sqrt(9.0 - 8.0 * z), t, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-7)
        res = hazard_mrl_identity_residual(fgm_uniform, "second", 0.5, t)
        assert abs(res) <= 1e-6

    def test_grid_all_finite_mean_models(self):
        for model in mixed_models():
            for component in ("first", "second"):
                worst = max(
                    abs(hazard_mrl_identity_residual(model, component, 0.5, t))
                    for t in IDENTITY_GRID
                )
                assert worst <= 1e-6, (repr(model), component)

    def test_infinite_mean_propagates(self, heavy_pareto):
        with pytest.raises(InfiniteMeanError):
            hazard_mrl_identity_residual(heavy_pareto, "first", 0.5, 0.5)

    def test_component_validation(self, indep_uniform):
        with pytest.raises(DomainError):
            hazard_mrl_identity_residual(indep_uniform, "third", 0.5, 0.5)

    @pytest.mark.parametrize("u0", [0.0, -0.0, 1.0], ids=["zero", "minus-zero", "one"])
    @pytest.mark.parametrize("component", ["first", "second"])
    def test_exact_conditioning_u_endpoint(self, indep_exp, component, u0):
        # outside (0,1): a DomainError, not the BoundaryError of a value within eps_boundary of an end
        message = f"conditioning_u must lie in (0,1), got {u0!r}"
        with pytest.raises(DomainError) as info:
            hazard_mrl_identity_residual(indep_exp, component, u0, 0.3)
        assert str(info.value) == message
        with pytest.raises(DomainError) as info:
            round_trip(indep_exp, "hazard", component, u0, [0.3])
        assert str(info.value) == message

    @pytest.mark.parametrize("component", ["first", "second"])
    def test_conditioning_u_checked_for_every_component(self, indep_exp, component):
        # the check and message of round_trip, though the first component never reads the level
        with pytest.raises(DomainError, match=r"^conditioning_u must lie in \(0,1\), got 1\.5$"):
            hazard_mrl_identity_residual(indep_exp, component, 1.5, 0.3)
        with pytest.raises(DomainError, match=r"^conditioning_u must lie in \(0,1\), got 1\.5$"):
            round_trip(indep_exp, "mrl", component, 1.5, [0.3])
