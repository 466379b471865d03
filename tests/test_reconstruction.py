import numpy as np
import pytest

from bivquant import (
    BivariateModel,
    ComponentFunction,
    DivergenceError,
    DomainError,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    InfiniteMeanError,
    MissingMeanError,
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
from bivquant.reconstruction import (
    COMPONENT_KINDS,
    INVERSE_MAPS,
    KIND_OF,
    RECON_CONFIG,
    reversed_hazard_clip_bias,
    round_trip,
)
from bivquant.reliability import QUANTITIES

from conftest import mixed_models
from oracles import LN2, PHI_HALF, fgm_phi_closed, trapezoid

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
        with pytest.raises(DomainError):
            quantile_from_hazard(_const("mrl1", 1.0), 0.5)

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

    def test_mean_recovered_from_lower_clip(self):
        with_hint = ComponentFunction("mrl1", lambda z: (1.0 - z) / 2.0, mean_hint=0.5)
        without = ComponentFunction("mrl1", lambda z: (1.0 - z) / 2.0)
        a = quantile_from_mrl(with_hint, 0.4)
        b = quantile_from_mrl(without, 0.4)
        assert b == pytest.approx(a, abs=1e-9)  # O(clip) bias only

    def test_missing_mean(self):
        def explode(z):
            raise ValueError("not evaluable near zero")

        with pytest.raises(MissingMeanError):
            quantile_from_mrl(ComponentFunction("mrl1", explode), 0.5)

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

    def test_clip_bias_estimate(self, indep_uniform):
        comp = component_from_model(indep_uniform, "rev_hazard1")
        bias = reversed_hazard_clip_bias(comp)
        assert 0.0 < bias < 1e-10


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
            assert max(e1, e2) <= 1e-4, model.describe()

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
            assert max(e1, e2) <= 1e-4, model.describe()

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
                assert e <= 1e-4, (model.describe(), kind)
            for kind, inverse in [
                ("rev_hazard2", quantile_from_reversed_hazard),
                ("rev_mrl2", quantile_from_reversed_mrl),
            ]:
                comp = component_from_model(model, kind, 0.5)
                e = max(
                    abs(inverse(comp, t) - (conditional_quantile(model, "le", 0.5, t) - y0))
                    for t in REV_GRID
                )
                assert e <= 1e-4, (model.describe(), kind)


class TestRegistry:
    def test_inverse_maps_share_quantity_keys(self):
        assert list(INVERSE_MAPS) == list(QUANTITIES) == ["hazard", "mrl", "rev-hazard", "rev-mrl"]
        assert INVERSE_MAPS["hazard"][1] == INVERSE_MAPS["mrl"][1] == (0.01, 0.95)
        assert INVERSE_MAPS["rev-hazard"][1] == INVERSE_MAPS["rev-mrl"][1] == (0.05, 0.99)

    def test_component_kind_spelling(self):
        assert KIND_OF["rev-hazard", "second"] == "rev_hazard2"
        assert COMPONENT_KINDS == (
            "hazard1", "hazard2", "mrl1", "mrl2",
            "rev_hazard1", "rev_hazard2", "rev_mrl1", "rev_mrl2",
        )

    @pytest.mark.parametrize("quantity", list(QUANTITIES))
    def test_first_component_round_trip_through_registry(self, quantity, indep_exp):
        # support starts at 0, so every inverse map returns the quantile itself
        comp = component_from_model(indep_exp, KIND_OF[quantity, "first"])
        inverse, (lo, hi) = INVERSE_MAPS[quantity]
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
        inverse, (lo, hi) = INVERSE_MAPS[quantity]
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

    @pytest.mark.parametrize("kind, inverse", [("mrl1", quantile_from_mrl), ("rev_mrl1", quantile_from_reversed_mrl)])
    def test_point_terms_are_scalar_calls(self, kind, inverse):
        # a vector call into the model kernels can differ from scalar ones in
        # the last bits, so f(t) is evaluated one float at a time
        ndims = []

        def f(z):
            ndims.append(np.ndim(z))
            return np.full_like(np.asarray(z, float), 0.5)

        inverse(ComponentFunction(kind, f, mean_hint=0.5), np.linspace(0.1, 0.9, 5))
        assert ndims.count(0) == 5

    def test_grid_validation(self):
        f = _const("hazard1", 1.0)
        with pytest.raises(DomainError, match=r"t must lie in \(0,1\), got 1.0"):
            quantile_from_hazard(f, [0.2, 1.0, 0.5])
        with pytest.raises(DomainError, match="1-D grid"):
            quantile_from_hazard(f, np.full((2, 2), 0.5))
        assert quantile_from_hazard(f, []).shape == (0,)

    def test_divergence_probe_runs_once_per_call(self, monkeypatch):
        calls = []
        original = reconstruction.integrate

        def counting(*args, **kwargs):
            calls.append(args[1:3])
            return original(*args, **kwargs)

        monkeypatch.setattr(reconstruction, "integrate", counting)
        f = ComponentFunction("rev_hazard1", lambda z: 1.0 / z)
        quantile_from_reversed_hazard(f, np.linspace(0.1, 0.9, 5))
        assert len(calls) == 2 + 5  # the probe's two pieces, then one integral per t
        calls.clear()
        # no t reaches past 64*clip, so the probe has nothing to look at
        quantile_from_reversed_hazard(f, [10 * RECON_CONFIG.sing_clip])
        assert len(calls) == 1


class TestRoundTrip:
    def test_reference_offset_per_quantity(self):
        # Pareto support starts at its scale: only the MRL map carries it
        model = BivariateModel(Pareto(1.5, 3.0), Exponential(1.0), FGMCopula(0.3))
        ts = np.linspace(0.05, 0.95, 7)
        quantile = np.array([marginal_quantile(model, "x", t) for t in ts])
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
                assert worst <= 1e-6, (model.describe(), component)

    def test_infinite_mean_propagates(self, heavy_pareto):
        with pytest.raises(InfiniteMeanError):
            hazard_mrl_identity_residual(heavy_pareto, "first", 0.5, 0.5)

    def test_component_validation(self, indep_uniform):
        with pytest.raises(DomainError):
            hazard_mrl_identity_residual(indep_uniform, "third", 0.5, 0.5)
