import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivquant import (
    ALL_DIRECTIONS,
    BivariateModel,
    BoundaryError,
    DegenerateConditioningError,
    Direction,
    DomainError,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    LOWER_LOWER,
    ModelSpecError,
    Pareto,
    Uniform01,
    Weibull,
    conditional_cdf,
    conditional_quantile,
    marginal_quantile,
    model_from_dict,
    orthant_prob,
    swap_axes,
)
from bivquant.models import Copula

from oracles import PHI_HALF, bisect, fgm_cdf, trapezoid

ALL_MARGINALS = [Uniform01(), Exponential(0.7), Pareto(1.3, 2.2), Weibull(1.5, 0.8), Weibull(2.0, 3.0)]

probs = st.floats(min_value=1e-6, max_value=1.0 - 1e-6)
thetas = st.floats(min_value=-1.0, max_value=1.0)


def _indep(mx, my):
    return BivariateModel(mx, my, IndependenceCopula())


class TestMarginalQuantile:
    def test_uniform_median(self, indep_uniform):
        assert marginal_quantile(indep_uniform, "x", 0.5) == 0.5

    def test_exponential_median(self, indep_exp):
        assert marginal_quantile(indep_exp, "x", 0.5) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_pareto_example_against_root_oracle(self):
        model = _indep(Pareto(1.0, 2.0), Uniform01())
        oracle = bisect(lambda x: (1.0 - (1.0 / x) ** 2) - 0.75, 1.0, 100.0)
        assert oracle == pytest.approx(2.0, abs=1e-9)
        assert marginal_quantile(model, "x", 0.75) == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("fam", ALL_MARGINALS, ids=lambda f: f.describe())
    def test_cdf_quantile_round_trip(self, fam):
        model = _indep(fam, Uniform01())
        grid = np.arange(1, 100) / 100.0
        q = marginal_quantile(model, "x", grid)
        assert np.max(np.abs(fam.cdf(q) - grid)) <= 1e-9

    @pytest.mark.parametrize("fam", ALL_MARGINALS, ids=lambda f: f.describe())
    def test_strictly_increasing(self, fam):
        model = _indep(fam, Uniform01())
        q = marginal_quantile(model, "x", np.linspace(0.01, 0.99, 200))
        assert np.all(np.diff(q) > 0)

    def test_domain_error(self, indep_exp):
        with pytest.raises(DomainError):
            marginal_quantile(indep_exp, "x", -0.1)
        with pytest.raises(DomainError):
            marginal_quantile(indep_exp, "x", 1.2)

    def test_boundary_error_names_endpoint(self, indep_exp):
        with pytest.raises(BoundaryError, match="upper"):
            marginal_quantile(indep_exp, "x", 1.0)

    def test_finite_endpoints_are_exact(self, indep_uniform):
        assert marginal_quantile(indep_uniform, "x", 1.0) == 1.0
        model = _indep(Pareto(2.5, 1.0), Uniform01())
        assert marginal_quantile(model, "x", 0.0) == 2.5

    def test_bad_axis(self, indep_uniform):
        with pytest.raises(DomainError):
            marginal_quantile(indep_uniform, "z", 0.5)


class TestPartialIntegrals:
    @pytest.mark.parametrize("fam", ALL_MARGINALS, ids=lambda f: f.describe())
    @pytest.mark.parametrize("u", [0.2, 0.5, 0.9])
    def test_quantile_integral_matches_quadrature(self, fam, u):
        oracle = trapezoid(fam.quantile, 0.0, u)
        assert float(fam.quantile_integral(u)) == pytest.approx(oracle, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("fam", ALL_MARGINALS, ids=lambda f: f.describe())
    @pytest.mark.parametrize("u", [0.2, 0.5, 0.9])
    def test_weighted_quantile_integral_matches_quadrature(self, fam, u):
        oracle = trapezoid(lambda z: z * fam.quantile(z), 0.0, u)
        assert float(fam.weighted_quantile_integral(u)) == pytest.approx(oracle, rel=1e-7, abs=1e-9)

    @pytest.mark.parametrize("fam", ALL_MARGINALS, ids=lambda f: f.describe())
    def test_mean_is_total_quantile_integral(self, fam):
        oracle = trapezoid(fam.quantile, 0.0, 1.0 - 1e-7)
        assert fam.mean == pytest.approx(oracle, rel=5e-3)

    @pytest.mark.parametrize(
        "fam", [Pareto(1.0, 2.0), Exponential(1.0)], ids=lambda f: f.describe()
    )
    def test_gap_integrals_stable_near_zero(self, fam):
        # limits: D(u)/u^2 -> Q'(0)/2 and E(u)/u^3 -> Q'(0)/3
        qd0 = float(fam.quantile_deriv(0.0))
        for u in (1e-14, 1e-10, 1e-7):
            assert float(fam.quantile_gap_integral(u)) / u**2 == pytest.approx(qd0 / 2, rel=1e-5)
            assert float(fam.weighted_quantile_gap_integral(u)) / u**3 == pytest.approx(
                qd0 / 3, rel=1e-5
            )

    def test_infinite_mean_flag(self):
        assert not Pareto(1.0, 0.5).has_finite_mean
        assert not Pareto(1.0, 1.0).has_finite_mean
        assert Pareto(1.0, 1.01).has_finite_mean

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Exponential(0.0)
        with pytest.raises(DomainError):
            Pareto(-1.0, 2.0)
        with pytest.raises(DomainError):
            Weibull(1.0, 0.0)
        with pytest.raises(DomainError):
            FGMCopula(1.5)


class TestOrthantProb:
    def test_independence_product(self, indep_uniform):
        assert orthant_prob(indep_uniform, LOWER_LOWER, 0.4, 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_fgm_against_formula_oracle(self, fgm_uniform):
        assert orthant_prob(fgm_uniform, LOWER_LOWER, 0.5, 0.5) == pytest.approx(
            fgm_cdf(0.5, 0.5, 1.0), abs=1e-15
        )
        assert fgm_cdf(0.5, 0.5, 1.0) == 0.3125

    @settings(max_examples=60, deadline=None)
    @given(x=probs, y=probs, theta=thetas)
    def test_orthant_decomposition(self, x, y, theta):
        model = BivariateModel(Uniform01(), Uniform01(), FGMCopula(theta))
        total = sum(orthant_prob(model, d, x, y) for d in ALL_DIRECTIONS)
        assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(u1=probs, u2=probs, v1=probs, v2=probs, theta=thetas)
    def test_fgm_rectangle_volumes_nonnegative(self, u1, u2, v1, v2, theta):
        cop = FGMCopula(theta)
        ulo, uhi = sorted((u1, u2))
        vlo, vhi = sorted((v1, v2))
        volume = (
            cop.cdf(uhi, vhi) - cop.cdf(ulo, vhi) - cop.cdf(uhi, vlo) + cop.cdf(ulo, vlo)
        )
        assert volume >= -1e-12

    @settings(max_examples=40, deadline=None)
    @given(u=probs, v=probs, theta=thetas)
    def test_fgm_uniform_margins(self, u, v, theta):
        cop = FGMCopula(theta)
        assert cop.cdf(u, 1.0) == pytest.approx(u, abs=1e-12)
        assert cop.cdf(1.0, v) == pytest.approx(v, abs=1e-12)
        assert cop.cdf(u, 0.0) == 0.0
        assert cop.cdf(0.0, v) == 0.0


class TestConditionalCdf:
    def test_independence_drops_conditioning(self, indep_uniform):
        assert conditional_cdf(indep_uniform, "le", 0.3, 0.6) == pytest.approx(0.6, abs=1e-12)

    def test_fgm_example(self, fgm_uniform):
        got = conditional_cdf(fgm_uniform, "le", 0.5, 0.5)
        assert got == pytest.approx(0.625, abs=1e-12)
        # oracle: C(u, v)/u evaluated independently
        assert got == pytest.approx(fgm_cdf(0.5, 0.5, 1.0) / 0.5, abs=1e-15)

    def test_upper_limit_is_one(self, indep_exp):
        assert conditional_cdf(indep_exp, "ge", 0.4, 60.0) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_y(self, fgm_uniform):
        ys = np.linspace(0.01, 0.99, 50)
        vals = conditional_cdf(fgm_uniform, "le", 0.37, ys)
        assert np.all(np.diff(vals) >= -1e-12)

    def test_degenerate_conditioning(self, indep_uniform):
        with pytest.raises(DegenerateConditioningError):
            conditional_cdf(indep_uniform, "le", 0.0, 0.5)
        with pytest.raises(DegenerateConditioningError):
            conditional_cdf(indep_uniform, "ge", 1.0, 0.5)

    def test_bad_sense(self, indep_uniform):
        with pytest.raises(DomainError):
            conditional_cdf(indep_uniform, "eq", 0.5, 0.5)


class TestConditionalQuantile:
    def test_independence_reduces_to_marginal(self, indep_uniform):
        assert conditional_quantile(indep_uniform, "le", 0.3, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_fgm_example_against_bisection_oracle(self, fgm_uniform):
        oracle = bisect(lambda v: fgm_cdf(0.5, v, 1.0) / 0.5 - 0.5, 0.0, 1.0)
        assert oracle == pytest.approx(PHI_HALF, abs=1e-12)
        assert conditional_quantile(fgm_uniform, "le", 0.5, 0.5) == pytest.approx(oracle, abs=1e-9)

    def test_small_p_approaches_support_infimum(self, fgm_uniform):
        assert conditional_quantile(fgm_uniform, "le", 0.5, 1e-12) <= 1e-8

    @pytest.mark.parametrize("sense", ["le", "ge"])
    def test_round_trip_with_conditional_cdf(self, fgm_uniform, sense):
        # identity holds at the root tolerance on interior grids
        ps = np.linspace(0.05, 0.95, 19)
        ys = conditional_quantile(fgm_uniform, sense, 0.4, ps)
        back = conditional_cdf(fgm_uniform, sense, 0.4, ys)
        assert np.max(np.abs(back - ps)) <= 1e-12

    def test_base_class_cond_cdf_consistency(self, fgm_uniform):
        # generic cond_cdf built from the copula CDF agrees with the quadratic form
        cop = fgm_uniform.copula
        for u in (0.2, 0.5, 0.8):
            for v in (0.1, 0.6, 0.9):
                le_generic = cop.cdf(u, v) / u
                ge_generic = (cop.cdf(1.0, v) - cop.cdf(u, v)) / (1.0 - u)
                assert float(cop.cond_cdf("le", u, v)) == pytest.approx(le_generic, abs=1e-13)
                assert float(cop.cond_cdf("ge", u, v)) == pytest.approx(ge_generic, abs=1e-13)


class TestSwapAxes:
    def test_marginals_exchange(self):
        model = BivariateModel(Exponential(1.0), Uniform01(), IndependenceCopula())
        swapped = swap_axes(model)
        assert swapped.marginal_x == Uniform01()
        assert swapped.marginal_y == Exponential(1.0)

    def test_involution(self, fgm_uniform):
        assert swap_axes(swap_axes(fgm_uniform)) == fgm_uniform

    def test_fgm_exchangeable(self, fgm_uniform):
        assert swap_axes(fgm_uniform).copula == fgm_uniform.copula

    @settings(max_examples=30, deadline=None)
    @given(x=probs, y=probs, theta=thetas)
    def test_orthant_relabeling(self, x, y, theta):
        model = BivariateModel(Uniform01(), Uniform01(), FGMCopula(theta))
        swapped = swap_axes(model)
        for d in ALL_DIRECTIONS:
            assert orthant_prob(swapped, d.swapped(), y, x) == pytest.approx(
                orthant_prob(model, d, x, y), abs=1e-14
            )


class TestDirection:
    def test_exactly_four(self):
        assert len(set(ALL_DIRECTIONS)) == 4

    def test_string_round_trip(self):
        for s in ("--", "+-", "-+", "++"):
            assert str(Direction.from_string(s)) == s

    def test_invalid(self):
        with pytest.raises(DomainError):
            Direction.from_string("+")
        with pytest.raises(DomainError):
            Direction(0, 1)


class TestModelSpec:
    def spec(self):
        return {
            "marginal_x": {"kind": "Pareto", "scale": 1.0, "shape": 2.0},
            "marginal_y": {"kind": "Exponential", "rate": 0.5},
            "copula": {"kind": "FGM", "theta": -0.25},
        }

    def test_round_trip(self):
        model = model_from_dict(self.spec())
        assert model.to_dict() == self.spec()
        assert model_from_dict(json.loads(json.dumps(model.to_dict()))) == model

    def test_unknown_top_key(self):
        bad = self.spec() | {"extra": 1}
        with pytest.raises(ModelSpecError, match="extra"):
            model_from_dict(bad)

    def test_unknown_family(self):
        bad = self.spec()
        bad["marginal_x"] = {"kind": "Cauchy"}
        with pytest.raises(ModelSpecError, match="Cauchy"):
            model_from_dict(bad)

    def test_unknown_param(self):
        bad = self.spec()
        bad["copula"] = {"kind": "FGM", "theta": 0.5, "rho": 0.1}
        with pytest.raises(ModelSpecError, match="rho"):
            model_from_dict(bad)

    def test_missing_param(self):
        bad = self.spec()
        bad["marginal_y"] = {"kind": "Exponential"}
        with pytest.raises(ModelSpecError, match="rate"):
            model_from_dict(bad)

    def test_invalid_value(self):
        bad = self.spec()
        bad["copula"] = {"kind": "FGM", "theta": 3.0}
        with pytest.raises(ModelSpecError, match="theta"):
            model_from_dict(bad)

    @pytest.mark.parametrize(
        "section, component",
        [
            ("marginal_y", {"kind": "Exponential", "rate": "abc"}),
            ("marginal_y", {"kind": "Exponential", "rate": None}),
            ("marginal_y", {"kind": "Exponential", "rate": True}),
            ("marginal_x", {"kind": "Pareto", "scale": 1.0, "shape": [2.0]}),
            ("copula", {"kind": "FGM", "theta": "0.5"}),
            ("copula", {"kind": "FGM", "theta": False}),
            ("marginal_x", {"kind": "Weibull", "scale": 1.0, "shape": "2"}),
        ],
        ids=["string", "null", "bool", "list", "numeric-string", "bool-theta", "weibull-string"],
    )
    def test_non_real_parameter(self, section, component):
        # the constructor rejects it before any arithmetic ...
        cls = {"Exponential": Exponential, "Pareto": Pareto, "Weibull": Weibull, "FGM": FGMCopula}
        params = {k: v for k, v in component.items() if k != "kind"}
        with pytest.raises(DomainError, match="must be a real number"):
            cls[component["kind"]](**params)
        # ... and a spec file names it as a specification error
        bad = self.spec() | {section: component}
        with pytest.raises(ModelSpecError, match="must be a real number"):
            model_from_dict(bad)
