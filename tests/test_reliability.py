import numpy as np
import pytest

from bivquant import (
    BivariateModel,
    BoundaryError,
    DomainError,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    InfiniteMeanError,
    Pareto,
    Uniform01,
    Weibull,
    conditional_mean,
    hazard_vector,
    interchanged,
    mrl_vector,
    reversed_hazard_vector,
    reversed_mrl_vector,
    swap_axes,
)
from bivquant import reliability as rel

from conftest import mixed_models
from oracles import (
    EXP_ETA1_HALF,
    FGM_ETA2_HALF,
    FGM_M2_HALF,
    SQRT5,
    central_diff,
    fgm_cond_le_quantile_roots,
    fgm_phi_closed,
    trapezoid,
)

GRID = np.linspace(0.05, 0.95, 19)


class TestHazard:
    def test_exponential_constant(self, indep_exp):
        vec = hazard_vector(indep_exp, 0.5, 0.5)
        assert vec.first == pytest.approx(1.0, abs=1e-12)
        assert vec.second == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self, indep_uniform):
        vec = hazard_vector(indep_uniform, 0.5, 0.25)
        assert vec.first == pytest.approx(2.0, abs=1e-12)
        assert vec.second == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_fgm_second_component_against_derivative_oracle(self, fgm_uniform):
        # oracle: differentiate the np.roots-based conditional inverse
        phi_deriv = central_diff(lambda p: fgm_cond_le_quantile_roots(p, 0.5, 1.0), 0.5)
        oracle = 1.0 / (0.5 * phi_deriv)
        vec = hazard_vector(fgm_uniform, 0.5, 0.5)
        assert vec.second == pytest.approx(oracle, abs=1e-5)
        assert vec.second == pytest.approx(SQRT5, abs=1e-12)

    def test_vector_metadata(self, fgm_uniform):
        vec = hazard_vector(fgm_uniform, 0.4, 0.7)
        assert (vec.u, vec.p_cond, vec.conditioning_u) == (0.4, 0.7, 0.4)

    def test_boundary_error(self, indep_uniform):
        with pytest.raises(BoundaryError):
            hazard_vector(indep_uniform, 1e-12, 0.5)
        with pytest.raises(BoundaryError):
            hazard_vector(indep_uniform, 0.5, 1.0 - 1e-12)


class TestMrl:
    def test_exponential_memoryless(self, indep_exp):
        vec = mrl_vector(indep_exp, 0.3, 0.7)
        assert vec.first == pytest.approx(1.0, abs=1e-12)
        assert vec.second == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self, indep_uniform):
        vec = mrl_vector(indep_uniform, 0.5, 0.5)
        assert vec.first == pytest.approx(0.25, abs=1e-12)
        assert vec.second == pytest.approx(0.25, abs=1e-12)

    def test_fgm_second_against_trapezoid_oracle(self, fgm_uniform):
        oracle = trapezoid(fgm_phi_closed, 0.5, 1.0) / 0.5 - fgm_phi_closed(0.5)
        vec = mrl_vector(fgm_uniform, 0.5, 0.5)
        assert vec.second == pytest.approx(oracle, abs=1e-9)
        assert vec.second == pytest.approx(FGM_M2_HALF, abs=1e-12)

    def test_pareto_closed_form(self):
        # m1(u) = Q(u)/(shape - 1) for the unit-scale power tail
        model = BivariateModel(Pareto(1.0, 3.0), Uniform01(), IndependenceCopula())
        got = float(rel.mrl_first(model, 0.5))
        assert got == pytest.approx((1 - 0.5) ** (-1 / 3.0) / 2.0, abs=1e-12)

    def test_infinite_mean_named_error(self, heavy_pareto):
        with pytest.raises(InfiniteMeanError, match="infinite mean"):
            mrl_vector(heavy_pareto, 0.5, 0.5)

    def test_infinite_mean_second_component(self):
        model = BivariateModel(Exponential(1.0), Pareto(1.0, 1.0), IndependenceCopula())
        with pytest.raises(InfiniteMeanError, match="marginal Y"):
            mrl_vector(model, 0.5, 0.5)


class TestReversedHazard:
    def test_uniform(self, indep_uniform):
        vec = reversed_hazard_vector(indep_uniform, 0.5, 0.25)
        assert vec.first == pytest.approx(2.0, abs=1e-12)
        assert vec.second == pytest.approx(4.0, abs=1e-12)

    def test_exponential(self, indep_exp):
        vec = reversed_hazard_vector(indep_exp, 0.5, 0.5)
        assert vec.first == pytest.approx(1.0, abs=1e-12)
        assert vec.second == pytest.approx(1.0, abs=1e-12)

    def test_fgm_second(self, fgm_uniform):
        vec = reversed_hazard_vector(fgm_uniform, 0.5, 0.5)
        assert vec.second == pytest.approx(SQRT5, abs=1e-12)

    def test_ratio_law_with_hazard(self):
        # hazard/reversed-hazard = u/(1-u) exactly; both share the derivative
        for model in mixed_models():
            for u in (0.2, 0.5, 0.8):
                h = hazard_vector(model, u, 0.6)
                r = reversed_hazard_vector(model, u, 0.6)
                assert h.first / r.first == pytest.approx(u / (1 - u), abs=1e-12)
                assert h.second / r.second == pytest.approx(0.6 / 0.4, abs=1e-12)


class TestReversedMrl:
    def test_uniform(self, indep_uniform):
        vec = reversed_mrl_vector(indep_uniform, 0.5, 0.5)
        assert vec.first == pytest.approx(0.25, abs=1e-12)
        assert vec.second == pytest.approx(0.25, abs=1e-12)

    def test_exponential_against_antiderivative_oracle(self, indep_exp):
        # oracle: int_0^u -ln(1-z) dz = (1-z)ln(1-z) + z at the endpoints
        u = 0.5
        j0 = (1 - u) * np.log(1 - u) + u
        oracle = -np.log(1 - u) - j0 / u
        vec = reversed_mrl_vector(indep_exp, u, 0.3)
        assert vec.first == pytest.approx(oracle, abs=1e-12)
        assert vec.first == pytest.approx(EXP_ETA1_HALF, abs=1e-12)

    def test_fgm_second_against_trapezoid_oracle(self, fgm_uniform):
        oracle = fgm_phi_closed(0.5) - trapezoid(fgm_phi_closed, 0.0, 0.5) / 0.5
        vec = reversed_mrl_vector(fgm_uniform, 0.5, 0.5)
        assert vec.second == pytest.approx(oracle, abs=1e-9)
        assert vec.second == pytest.approx(FGM_ETA2_HALF, abs=1e-12)

    def test_no_mean_needed(self, heavy_pareto):
        # reversed-time quantities are defined even for infinite-mean tails
        vec = reversed_mrl_vector(heavy_pareto, 0.5, 0.5)
        assert np.isfinite(vec.first) and vec.first > 0


class TestInterchanged:
    def test_example(self):
        model = BivariateModel(Exponential(1.0), Uniform01(), IndependenceCopula())
        vec = interchanged(model, "hazard", 0.5, 0.5)
        assert vec.first == pytest.approx(2.0, abs=1e-12)  # uniform is the first axis now

    def test_involution(self):
        for model in mixed_models()[:4]:
            for u, p in [(0.3, 0.6), (0.7, 0.2)]:
                direct = hazard_vector(model, u, p)
                twice = interchanged(swap_axes(model), "hazard", u, p)
                assert twice.first == pytest.approx(direct.first, abs=1e-12)
                assert twice.second == pytest.approx(direct.second, abs=1e-12)

    def test_fgm_identical_marginals_symmetric(self, fgm_uniform):
        for u in np.linspace(0.1, 0.9, 10):
            direct = hazard_vector(fgm_uniform, u, 0.5)
            inter = interchanged(fgm_uniform, "hazard", u, 0.5)
            assert inter.first == pytest.approx(direct.first, abs=1e-12)
            assert inter.second == pytest.approx(direct.second, abs=1e-12)

    def test_cli_spelling(self, fgm_uniform):
        model = BivariateModel(Exponential(1.0), Uniform01(), fgm_uniform.copula)
        inter = interchanged(model, "rev-mrl", 0.3, 0.6)
        direct = reversed_mrl_vector(swap_axes(model), 0.3, 0.6)
        assert (inter.first, inter.second) == (direct.first, direct.second)

    def test_unknown_kind(self, indep_uniform):
        with pytest.raises(DomainError):
            interchanged(indep_uniform, "median", 0.5, 0.5)


class TestIndependenceReduction:
    CASES = [
        (Uniform01(), {
            "hazard": lambda p: 1 / (1 - p),
            "mrl": lambda p: (1 - p) / 2,
            "rev_hazard": lambda p: 1 / p,
            "rev_mrl": lambda p: p / 2,
        }),
        (Exponential(2.0), {
            "hazard": lambda p: 2.0,
            "mrl": lambda p: 0.5,
            "rev_hazard": lambda p: 2.0 * (1 - p) / p,
            "rev_mrl": lambda p: (-np.log(1 - p) - ((1 - p) * np.log(1 - p) + p) / p) / 2.0,
        }),
        (Pareto(1.0, 3.0), {
            "hazard": lambda p: 3.0 * (1 - p) ** (1 / 3.0),
            "mrl": lambda p: (1 - p) ** (-1 / 3.0) / 2.0,
            "rev_hazard": lambda p: 3.0 * (1 - p) ** (1 + 1 / 3.0) / p,
            "rev_mrl": lambda p: (1 - p) ** (-1 / 3.0)
            - 1.5 * (1 - (1 - p) ** (2 / 3.0)) / p,
        }),
    ]

    @pytest.mark.parametrize("fam,formulas", CASES, ids=lambda c: getattr(c, "kind", ""))
    def test_second_components_match_marginal_formulas(self, fam, formulas):
        model = BivariateModel(Exponential(1.0), fam, IndependenceCopula())
        ops = {
            "hazard": rel.hazard_second,
            "mrl": rel.mrl_second,
            "rev_hazard": rel.reversed_hazard_second,
            "rev_mrl": rel.reversed_mrl_second,
        }
        for name, op in ops.items():
            expected = np.array([formulas[name](p) for p in GRID])
            got = np.array([float(op(model, 0.5, p)) for p in GRID])
            assert np.max(np.abs(got - expected)) <= 1e-9, name


class TestPositivityAndMeans:
    def test_positivity_on_grids(self):
        for model in mixed_models():
            finite_x = model.marginal_x.has_finite_mean
            finite_y = model.marginal_y.has_finite_mean
            for u in GRID[::3]:
                assert float(rel.hazard_first(model, u)) > 0
                assert float(rel.reversed_hazard_first(model, u)) > 0
                assert float(rel.reversed_mrl_first(model, u)) >= 0
                assert float(rel.hazard_second(model, 0.5, u)) > 0
                assert float(rel.reversed_hazard_second(model, 0.5, u)) > 0
                assert float(rel.reversed_mrl_second(model, 0.5, u)) >= 0
                if finite_x:
                    assert float(rel.mrl_first(model, u)) >= 0
                if finite_y:
                    assert float(rel.mrl_second(model, 0.5, u)) >= 0

    def test_conditional_mean_independence(self, indep_exp):
        assert conditional_mean(indep_exp, 0.5) == pytest.approx(1.0, abs=1e-12)

    def test_conditional_mean_fgm_oracle(self, fgm_uniform):
        oracle = trapezoid(fgm_phi_closed, 0.0, 1.0)
        assert conditional_mean(fgm_uniform, 0.5) == pytest.approx(oracle, abs=1e-9)
        assert conditional_mean(fgm_uniform, 0.5) == pytest.approx(5.0 / 12.0, abs=1e-12)


class TestExponentialInvariance:
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_hazard_and_mrl_constant(self, rate):
        model = BivariateModel(Exponential(rate), Uniform01(), IndependenceCopula())
        h = np.array([float(rel.hazard_first(model, u)) for u in GRID])
        m = np.array([float(rel.mrl_first(model, u)) for u in GRID])
        assert np.max(np.abs(h - rate)) <= 1e-9
        assert np.max(np.abs(m - 1.0 / rate)) <= 1e-9
