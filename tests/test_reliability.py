import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivquant import (
    BivariateModel,
    BoundaryError,
    DomainError,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    InfiniteMeanError,
    MonotonicityError,
    Pareto,
    Uniform01,
    Weibull,
    conditional_quantile,
    marginal_quantile,
    swap_axes,
)
from bivquant import models
from bivquant import reliability as rel

from conftest import BLOCK_MODELS, bench_inputs, bits, mixed_models
from oracles import (
    EXP_ETA1_HALF,
    FGM_ETA2_HALF,
    FGM_M2_HALF,
    SQRT5,
    central_diff,
    fgm_cond_le_quantile_roots,
    fgm_phi_closed,
    pareto_phi_mrl_and_mean,
    trapezoid,
    uniform_phi_hazard_and_reversed_mrl,
)

GRID = np.linspace(0.05, 0.95, 19)
FULL_RANGES, PARAMS = bench_inputs().FULL_RANGES, bench_inputs().PARAMS


def conditional_mean(model, conditioning_u):
    """The mean of Y given {X <= Q_X(conditioning_u)}: ``all_quantities``' ``"mean"``, which reads any p, here one
    that broadcasts with the levels."""
    p = np.full(np.shape(conditioning_u), 0.5)
    return rel.all_quantities(model, "second", conditioning_u, p, None, ("mean",))["mean"]


class TestProbabilityValidation:
    @pytest.mark.parametrize("bad", [np.nan, [0.5, np.nan], [0.5, np.inf], [-0.1, 0.5], [0.5, 1.1]])
    def test_non_probability_is_domain_error(self, indep_exp, bad):
        with pytest.raises(DomainError, match=r"u must lie in \(0,1\)"):
            rel.hazard_first(indep_exp, bad)
        with pytest.raises(DomainError, match=r"p_cond must lie in \(0,1\)"):
            rel.hazard_second(indep_exp, 0.5, bad)

    def test_boundary_error_names_first_offending_value(self, indep_exp):
        with pytest.raises(BoundaryError) as info:
            rel.mrl_first(indep_exp, [0.5, 1.0 - 1e-12, 0.6, 1e-12])
        assert str(info.value).startswith(f"u = {1.0 - 1e-12!r} lies outside the clipped interval")
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("grid, first", [(np.linspace(0.5, 1.5, 40), 0.5 + 20 / 39), ([0.5, np.nan, 2.0], np.nan)],
                             ids=["above-1", "nan"])
    def test_domain_error_names_first_offending_value(self, indep_exp, grid, first):
        with pytest.raises(DomainError) as info:
            rel.hazard_first(indep_exp, grid)
        assert str(info.value) == f"u must lie in (0,1), got {float(first)!r}"  # one line

    @pytest.mark.parametrize("end", [0.0, -0.0, 1.0], ids=["zero", "minus-zero", "one"])
    def test_exact_endpoint_is_domain_error(self, indep_exp, end):
        # outside (0,1), so a DomainError, not the BoundaryError of a value within eps_boundary of an end
        for first_fn, second_fn in rel.QUANTITIES.values():
            for name, call in [
                ("u", lambda: first_fn(indep_exp, [0.5, end])),
                ("conditioning_u", lambda: second_fn(indep_exp, end, 0.5)),
                ("p_cond", lambda: second_fn(indep_exp, 0.5, [0.5, end])),
            ]:
                with pytest.raises(DomainError) as info:
                    call()
                assert str(info.value) == f"{name} must lie in (0,1), got {end!r}"
        with pytest.raises(DomainError) as info:
            conditional_mean(indep_exp, end)
        assert str(info.value) == f"conditioning_u must lie in (0,1), got {end!r}"

    def test_empty_grid_passes(self, indep_exp):
        assert rel.hazard_first(indep_exp, np.array([])).shape == (0,)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda m: rel.hazard_first(m, "x"), "u must be a number or an array of numbers, got 'x'"),
            (lambda m: rel.mrl_second(m, 0.5, None), "p_cond must be a number or an array of numbers, got None"),
            (lambda m: conditional_mean(m, "x"), "conditioning_u must be a number or an array of numbers, got 'x'"),
        ],
        ids=["string-u", "none-p_cond", "string-conditioning_u"],
    )
    def test_non_numeric_probability_is_domain_error(self, indep_exp, call, message):
        with pytest.raises(DomainError) as info:
            call(indep_exp)
        assert str(info.value) == message


class TestHazard:
    def test_exponential_constant(self, indep_exp):
        assert float(rel.hazard_first(indep_exp, 0.5)) == pytest.approx(1.0, abs=1e-12)
        assert float(rel.hazard_second(indep_exp, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self, indep_uniform):
        assert float(rel.hazard_first(indep_uniform, 0.5)) == pytest.approx(2.0, abs=1e-12)
        assert float(rel.hazard_second(indep_uniform, 0.5, 0.25)) == pytest.approx(4.0 / 3.0, abs=1e-12)

    def test_fgm_second_component_against_derivative_oracle(self, fgm_uniform):
        # oracle: differentiate the np.roots-based conditional inverse
        phi_deriv = central_diff(lambda p: fgm_cond_le_quantile_roots(p, 0.5, 1.0), 0.5)
        oracle = 1.0 / (0.5 * phi_deriv)
        second = float(rel.hazard_second(fgm_uniform, 0.5, 0.5))
        assert second == pytest.approx(oracle, abs=1e-5)
        assert second == pytest.approx(SQRT5, abs=1e-12)

    def test_boundary_error(self, indep_uniform):
        with pytest.raises(BoundaryError):
            rel.hazard_first(indep_uniform, 1e-12)
        with pytest.raises(BoundaryError):
            rel.hazard_second(indep_uniform, 1e-12, 0.5)
        with pytest.raises(BoundaryError):
            rel.hazard_second(indep_uniform, 0.5, 1.0 - 1e-12)


class TestMrl:
    def test_exponential_memoryless(self, indep_exp):
        assert float(rel.mrl_first(indep_exp, 0.3)) == pytest.approx(1.0, abs=1e-12)
        assert float(rel.mrl_second(indep_exp, 0.3, 0.7)) == pytest.approx(1.0, abs=1e-12)

    def test_uniform(self, indep_uniform):
        assert float(rel.mrl_first(indep_uniform, 0.5)) == pytest.approx(0.25, abs=1e-12)
        assert float(rel.mrl_second(indep_uniform, 0.5, 0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_fgm_second_against_trapezoid_oracle(self, fgm_uniform):
        oracle = trapezoid(fgm_phi_closed, 0.5, 1.0) / 0.5 - fgm_phi_closed(0.5)
        second = float(rel.mrl_second(fgm_uniform, 0.5, 0.5))
        assert second == pytest.approx(oracle, abs=1e-9)
        assert second == pytest.approx(FGM_M2_HALF, abs=1e-12)

    def test_pareto_closed_form(self):
        # m1(u) = Q(u)/(shape - 1) for the unit-scale power tail
        model = BivariateModel(Pareto(1.0, 3.0), Uniform01(), IndependenceCopula())
        got = float(rel.mrl_first(model, 0.5))
        assert got == pytest.approx((1 - 0.5) ** (-1 / 3.0) / 2.0, abs=1e-12)

    def test_infinite_mean_named_error(self, heavy_pareto):
        with pytest.raises(InfiniteMeanError, match="infinite mean"):
            rel.mrl_first(heavy_pareto, 0.5)

    def test_infinite_mean_second_component(self):
        model = BivariateModel(Exponential(1.0), Pareto(1.0, 1.0), IndependenceCopula())
        with pytest.raises(InfiniteMeanError, match="marginal Y"):
            rel.mrl_second(model, 0.5, 0.5)

    @pytest.mark.parametrize("fam", [Weibull(1.3, 1.7), Pareto(1.0, 3.0)], ids=lambda f: f.kind)
    def test_second_reads_the_mean_end_once(self, monkeypatch, fam):
        # int_v^1 phi takes the u = 1 end as one scalar, not one copy per grid point; the mean needs no end 0
        points = {}

        def counting(name):
            method = getattr(type(fam), name)

            def counted(self, u):
                points[name] = points.get(name, 0) + np.size(u)
                return method(self, u)

            return counted

        for name in ("quantile_integral", "weighted_quantile_integral"):
            monkeypatch.setattr(type(fam), name, counting(name))
        rel.mrl_second(BivariateModel(Exponential(1.0), fam, FGMCopula(0.5)), 0.5, GRID)
        assert points == {"quantile_integral": len(GRID) + 1, "weighted_quantile_integral": len(GRID) + 1}


WEIGHTED = ("weighted_quantile_integral", "weighted_quantile_gap_integral")
ZERO_COEFF = [IndependenceCopula(), FGMCopula(0.0), FGMCopula(-0.0)]
Y_FAMILIES = [Uniform01(), Exponential(1.3), Pareto(1.0, 3.0), Weibull(1.3, 1.7)]


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


class TestPartialMoments:
    """The phi integrals against the full formula built from direct kernel calls."""

    @staticmethod
    def _full(model, cu, p):
        """(mrl_second, reversed_mrl_second, conditional_mean) with every term, c·J1 included.

        J0 = int_v^1 Q_Y and J1 end at the kernel's own int_0^1; at v = 0 for the conditional mean too."""
        fam, cop = model.marginal_y, model.copula
        c = cop.cond_linear_coeff("le", np.asarray(cu))
        v = cop.cond_quantile("le", np.asarray(cu), p)
        ends = np.append(v, 1.0)  # int_v^1: the grid and its end in one call
        j0, j1 = fam.quantile_integral(ends), fam.weighted_quantile_integral(ends)
        tail = (1.0 + c) * (j0[-1] - j0[:-1]) - 2.0 * c * (j1[-1] - j1[:-1])
        mrl = tail / (1.0 - p) - fam.quantile(v)
        rev = ((1.0 + c) * fam.quantile_gap_integral(v) - c * fam.weighted_quantile_gap_integral(v)) / p
        j0, j1 = fam.quantile_integral(np.array([0.0, 1.0])), fam.weighted_quantile_integral(np.array([0.0, 1.0]))
        mean = float((1.0 + c) * (j0[1] - j0[0]) - 2.0 * c * (j1[1] - j1[0]))
        return mrl, rev, mean

    @pytest.mark.parametrize("copula", [*ZERO_COEFF, FGMCopula(0.5)], ids=lambda c: c.describe())
    @pytest.mark.parametrize("fam", Y_FAMILIES, ids=lambda f: f.kind)
    def test_equal_to_full_formula(self, fam, copula):
        model = BivariateModel(Exponential(1.0), fam, copula)
        mrl, rev, mean = self._full(model, 0.3, GRID)
        assert np.array_equal(_bits(rel.mrl_second(model, 0.3, GRID)), _bits(mrl))
        assert np.array_equal(_bits(rel.reversed_mrl_second(model, 0.3, GRID)), _bits(rev))
        assert _bits(conditional_mean(model, 0.3)) == _bits(mean)

    @pytest.mark.parametrize("levels", [0.3, np.array([[0.2], [0.7]])], ids=["one-level", "level-grid"])
    @pytest.mark.parametrize("fam", Y_FAMILIES, ids=lambda f: f.kind)
    def test_each_moment_call_takes_the_points_and_the_end_1(self, monkeypatch, fam, levels):
        # every kernel is 0 at 0, so the mean is the end 1 alone: a call never reads the end 0 (the gap forms, which
        # Pareto builds on its own moment kernel, stay out)
        calls = []

        def counting(name):
            method = getattr(type(fam), name)

            def counted(self, u):
                calls.append((name, np.size(u), float(np.ravel(u)[-1])))
                return method(self, u)

            return counted

        for name in ("quantile_integral", "weighted_quantile_integral"):
            monkeypatch.setattr(type(fam), name, counting(name))
        model = BivariateModel(fam, fam, FGMCopula(0.5))
        for component, p in (("first", GRID), ("second", GRID), ("second", ())):
            calls.clear()
            at_size = np.broadcast(np.asarray(levels), np.asarray(p)).size if component == "second" else np.size(p)
            rel.all_quantities(model, component, levels, p, None, ("mrl", "mean"))
            assert calls and all(size == at_size + 1 and end == 1.0 for _, size, end in calls), (component, calls)

    @pytest.mark.parametrize("copula", ZERO_COEFF, ids=lambda c: c.describe())
    def test_zero_coefficient_is_signed_zero(self, copula):
        c = copula.cond_linear_coeff("le", 0.3)
        assert c == 0.0 and np.signbit(c) == np.signbit(getattr(copula, "theta", 0.0))

    @pytest.mark.parametrize("copula", [*ZERO_COEFF, FGMCopula(0.5)], ids=lambda c: c.describe())
    @pytest.mark.parametrize("fam", Y_FAMILIES, ids=lambda f: f.kind)
    def test_one_call_per_moment(self, monkeypatch, fam, copula):
        # the weighted moment and gap only where c != 0; both ends of an integral in one call
        calls = {}

        def counting(name):
            method = getattr(type(fam), name)

            def counted(self, u):
                calls[name] = calls.get(name, 0) + 1
                return method(self, u)

            return counted

        for name in ("quantile_integral", *WEIGHTED):
            monkeypatch.setattr(type(fam), name, counting(name))
        model = BivariateModel(Exponential(1.0), fam, copula)
        weighted = int(copula not in ZERO_COEFF)
        for evaluate in (lambda: rel.mrl_second(model, 0.3, GRID), lambda: conditional_mean(model, 0.3)):
            calls.clear()
            evaluate()
            assert calls == {"quantile_integral": 1, **({"weighted_quantile_integral": 1} if weighted else {})}
        calls.clear()
        rel.reversed_mrl_second(model, 0.3, GRID)
        # a family with the plain gap forms takes its weighted gap from the weighted moment
        assert (calls.get("weighted_quantile_gap_integral", 0) or calls.get("weighted_quantile_integral", 0)) == weighted
        assert weighted or not calls.keys() & set(WEIGHTED)


class TestReversedHazard:
    def test_uniform(self, indep_uniform):
        assert float(rel.reversed_hazard_first(indep_uniform, 0.5)) == pytest.approx(2.0, abs=1e-12)
        assert float(rel.reversed_hazard_second(indep_uniform, 0.5, 0.25)) == pytest.approx(4.0, abs=1e-12)

    def test_exponential(self, indep_exp):
        assert float(rel.reversed_hazard_first(indep_exp, 0.5)) == pytest.approx(1.0, abs=1e-12)
        assert float(rel.reversed_hazard_second(indep_exp, 0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_fgm_second(self, fgm_uniform):
        assert float(rel.reversed_hazard_second(fgm_uniform, 0.5, 0.5)) == pytest.approx(SQRT5, abs=1e-12)

    def test_ratio_law_with_hazard(self):
        # hazard/reversed-hazard = u/(1-u) exactly; both share the derivative
        for model in mixed_models():
            for u in (0.2, 0.5, 0.8):
                first = rel.hazard_first(model, u) / rel.reversed_hazard_first(model, u)
                second = rel.hazard_second(model, u, 0.6) / rel.reversed_hazard_second(model, u, 0.6)
                assert float(first) == pytest.approx(u / (1 - u), abs=1e-12)
                assert float(second) == pytest.approx(0.6 / 0.4, abs=1e-12)


class TestReversedMrl:
    def test_uniform(self, indep_uniform):
        assert float(rel.reversed_mrl_first(indep_uniform, 0.5)) == pytest.approx(0.25, abs=1e-12)
        assert float(rel.reversed_mrl_second(indep_uniform, 0.5, 0.5)) == pytest.approx(0.25, abs=1e-12)

    def test_exponential_against_antiderivative_oracle(self, indep_exp):
        # oracle: int_0^u -ln(1-z) dz = (1-z)ln(1-z) + z at the endpoints
        u = 0.5
        j0 = (1 - u) * np.log(1 - u) + u
        oracle = -np.log(1 - u) - j0 / u
        first = float(rel.reversed_mrl_first(indep_exp, u))
        assert first == pytest.approx(oracle, abs=1e-12)
        assert first == pytest.approx(EXP_ETA1_HALF, abs=1e-12)

    def test_fgm_second_against_trapezoid_oracle(self, fgm_uniform):
        oracle = fgm_phi_closed(0.5) - trapezoid(fgm_phi_closed, 0.0, 0.5) / 0.5
        second = float(rel.reversed_mrl_second(fgm_uniform, 0.5, 0.5))
        assert second == pytest.approx(oracle, abs=1e-9)
        assert second == pytest.approx(FGM_ETA2_HALF, abs=1e-12)

    def test_no_mean_needed(self, heavy_pareto):
        # reversed-time quantities are defined even for infinite-mean tails
        first = float(rel.reversed_mrl_first(heavy_pareto, 0.5))
        assert np.isfinite(first) and first > 0

    def test_phi_level_below_eps_boundary_is_read_as_it_is(self):
        # p = eps_boundary with c = 0.946: phi's level v is about p / 1.95, below eps_boundary; p is checked, v is exact
        model = BivariateModel(Uniform01(), Uniform01(), FGMCopula(0.9654))
        hazard, reversed_mrl = uniform_phi_hazard_and_reversed_mrl(0.9654, 0.02, 1e-9)
        assert float(rel.reversed_mrl_second(model, 0.02, 1e-9)) == pytest.approx(reversed_mrl, rel=1e-12)
        assert float(rel.hazard_second(model, 0.02, 1e-9)) == pytest.approx(hazard, rel=1e-12)


@st.composite
def marginals(draw):
    """One marginal of any family, its parameters drawn over the benchmark's FULL_RANGES."""
    kind = draw(st.sampled_from(sorted(models._MARGINAL_REGISTRY)))
    params = {p: draw(st.floats(*FULL_RANGES[f"{kind}.{p}"])) for p in PARAMS[kind]}
    return models._MARGINAL_REGISTRY[kind](**params)


class TestParetoAccuracy:
    """mrl_second and conditional_mean of a Pareto Y against 50-digit mpmath, one relative bound for every case.

    165 models: shapes from 1.001 (where the kernel's exponent (shape - 1)/shape is nearest 0) to 4.5, and
    c = theta (1 - u0) from -0.98 to 0.98 through 0.
    """

    TOL = 2e-13
    PROBS = (0.05, 0.3, 0.6, 0.9, 0.99)
    SHAPES = (1.001, 1.0013, 1.002, 1.003, 1.005, 1.01, 1.02, 1.05, 1.3, 2.0, 4.5)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_against_mpmath(self, shape):
        for theta in (-1.0, -0.4, 0.0, 0.5, 1.0):
            for u0 in (0.02, 0.5, 0.9):
                model = BivariateModel(Exponential(1.0), Pareto(0.7, shape), FGMCopula(theta))
                got = rel.mrl_second(model, u0, np.array(self.PROBS))
                for p, value in zip(self.PROBS, got):
                    oracle = pareto_phi_mrl_and_mean(0.7, shape, theta, u0, p)[0]
                    assert abs(value - oracle) <= self.TOL * oracle, (theta, u0, p)
                oracle = pareto_phi_mrl_and_mean(0.7, shape, theta, u0, 0.5)[1]
                assert abs(conditional_mean(model, u0) - oracle) <= self.TOL * oracle, (theta, u0)


class TestInterchanged:
    """The X/Y-interchanged pair is the component functions applied to swap_axes(model)."""

    def test_example(self):
        model = BivariateModel(Exponential(1.0), Uniform01(), IndependenceCopula())
        # uniform is the first axis now
        assert float(rel.hazard_first(swap_axes(model), 0.5)) == pytest.approx(2.0, abs=1e-12)

    @settings(max_examples=80)
    @given(x=marginals(), y=marginals(), u0=st.floats(0.01, 0.99), p=st.floats(0.01, 0.99))
    def test_involution(self, x, y, u0, p):
        # under independence phi is Q_Y, so each second component is the first one of (Y, X)
        model = BivariateModel(x, y, IndependenceCopula())
        swapped = swap_axes(model)
        assert swap_axes(swapped) == model
        for name, (first, second) in rel.QUANTITIES.items():
            try:
                expected = first(swapped, p)
            except InfiniteMeanError:
                with pytest.raises(InfiniteMeanError):
                    second(model, u0, p)
                continue
            assert np.array_equal(second(model, u0, p), expected), name

    def test_fgm_identical_marginals_symmetric(self, fgm_uniform):
        swapped = swap_axes(fgm_uniform)
        for u in np.linspace(0.1, 0.9, 10):
            assert float(rel.hazard_first(swapped, u)) == pytest.approx(
                float(rel.hazard_first(fgm_uniform, u)), abs=1e-12
            )
            assert float(rel.hazard_second(swapped, u, 0.5)) == pytest.approx(
                float(rel.hazard_second(fgm_uniform, u, 0.5)), abs=1e-12
            )


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

    @pytest.mark.parametrize("model", BLOCK_MODELS)
    def test_conditional_mean_grid_is_one_call_per_level(self, model):
        # one number per scalar level, and for a grid an array of its shape, each element the scalar call's bits
        levels = np.array([0.3, 0.5, 0.9])
        scalars = [conditional_mean(model, float(u0)) for u0 in levels]
        assert all(np.ndim(value) == 0 for value in scalars)
        grid = conditional_mean(model, levels)
        assert isinstance(grid, np.ndarray) and grid.shape == levels.shape
        assert np.array_equal(bits(grid), bits(scalars))
        assert np.array_equal(bits(conditional_mean(model, levels.reshape(3, 1)).ravel()), bits(scalars))


#: A model per family on each axis, plus Pareto(0.75, 1.006) on each axis.
SCALAR_MODELS = [
    *BLOCK_MODELS,
    BivariateModel(Pareto(0.75, 1.006), Weibull(1.2, 0.6), FGMCopula(0.8)),
    BivariateModel(Weibull(0.9, 2.7), Pareto(0.75, 1.006), IndependenceCopula()),
]


@pytest.mark.parametrize(
    "model", SCALAR_MODELS, ids=lambda m: "-".join(part.describe() for part in (m.marginal_x, m.marginal_y, m.copula))
)
class TestScalarEqualsGrid:
    """At a scalar argument, a component or quantile is the grid value at that point, bit for bit."""

    PROBS = np.linspace(0.02, 0.98, 25)
    CONDITIONING = (0.3, 0.7)

    @pytest.mark.parametrize("quantity", list(rel.QUANTITIES))
    def test_components(self, model, quantity):
        first, second = rel.QUANTITIES[quantity]
        assert np.array_equal(bits([first(model, float(u)) for u in self.PROBS]), bits(first(model, self.PROBS)))
        for u0 in self.CONDITIONING:
            scalars = [second(model, u0, float(p)) for p in self.PROBS]
            assert np.array_equal(bits(scalars), bits(second(model, u0, self.PROBS)))

    def test_quantiles(self, model):
        for axis in ("x", "y"):
            scalars = [marginal_quantile(model, axis, float(u)) for u in self.PROBS]
            assert np.array_equal(bits(scalars), bits(marginal_quantile(model, axis, self.PROBS)))
        for sense in ("le", "ge"):
            for u0 in self.CONDITIONING:
                scalars = [conditional_quantile(model, sense, u0, float(p)) for p in self.PROBS]
                assert np.array_equal(bits(scalars), bits(conditional_quantile(model, sense, u0, self.PROBS)))


class TestExponentialInvariance:
    @pytest.mark.parametrize("rate", [0.5, 1.0, 2.0])
    def test_hazard_and_mrl_constant(self, rate):
        model = BivariateModel(Exponential(rate), Uniform01(), IndependenceCopula())
        h = np.array([float(rel.hazard_first(model, u)) for u in GRID])
        m = np.array([float(rel.mrl_first(model, u)) for u in GRID])
        assert np.max(np.abs(h - rate)) <= 1e-9
        assert np.max(np.abs(m - 1.0 / rate)) <= 1e-9


class _Falling(Exponential):
    """An Exponential whose quantile derivative has the wrong sign."""

    def quantile_deriv(self, u):
        return -super().quantile_deriv(u)


class TestComponentBoundary:
    """A quantile that overflows is one DomainError with no numpy warning; a wrong sign is a MonotonicityError."""

    # rate 1e-307 keeps the mean finite, so the MRL components evaluate and overflow too
    TINY_X = BivariateModel(Exponential(1e-307), Exponential(1.0), FGMCopula(0.5))

    @pytest.mark.parametrize("quantity", list(rel.QUANTITIES))
    def test_overflow_is_one_domain_error(self, quantity):
        first, second = rel.QUANTITIES[quantity]
        probs = np.array([0.5, 1.0 - 1e-9])
        with pytest.raises(DomainError, match=r"is not finite: the quantile of Exponential\(rate=1e-307\) overflows"):
            first(self.TINY_X, probs)
        with pytest.raises(DomainError, match=r"is not finite: the quantile of Exponential\(rate=1e-307\) overflows"):
            second(swap_axes(self.TINY_X), 0.5, probs)

    @pytest.mark.parametrize("quantity", ["hazard", "rev-hazard"])
    def test_sign_fault_is_monotonicity_error(self, quantity):
        first, second = rel.QUANTITIES[quantity]
        model = BivariateModel(_Falling(1.0), _Falling(1.0), IndependenceCopula())
        with pytest.raises(MonotonicityError, match="marginal X quantile produced a nonpositive derivative"):
            first(model, GRID)
        with pytest.raises(MonotonicityError, match="marginal Y quantile produced a nonpositive derivative"):
            second(model, 0.5, GRID)


class TestAllQuantities:
    """One state per component gives every quantity, the quantile and the mean of their own functions, bit for bit."""

    MODELS = [*BLOCK_MODELS, BivariateModel(Pareto(1.2, 0.9), Weibull(0.7, 0.6), FGMCopula(0.8)),
              BivariateModel(Weibull(1.1, 1.7), Pareto(2.0, 0.8), FGMCopula(-0.0)),
              BivariateModel(Pareto(1, 3.0), Pareto(2, 2.5), FGMCopula(0.3))]

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: "-".join(
        part.describe() for part in (m.marginal_x, m.marginal_y, m.copula)))
    @pytest.mark.parametrize("component", ["first", "second"])
    def test_equals_the_functions(self, model, component):
        values = rel.all_quantities(model, component, 0.4, GRID)
        index = component == "second"
        fam = model.marginal_y if index else model.marginal_x
        for quantity, pair in rel.QUANTITIES.items():
            args = (model, 0.4, GRID) if index else (model, GRID)
            if quantity == "mrl" and not fam.has_finite_mean:
                assert "mrl" not in values and "mean" not in values
                continue
            assert np.array_equal(bits(values[quantity]), bits(pair[index](*args))), quantity
        quantile = conditional_quantile(model, "le", 0.4, GRID) if index else marginal_quantile(model, "x", GRID)
        assert np.array_equal(bits(values["quantile"]), bits(quantile))
        if fam.has_finite_mean:
            # the mean reads no p: the state at the grid gives the bits of a one-name call at p = ()
            alone = rel.all_quantities(model, component, 0.4, (), None, ("mean",))["mean"]
            assert bits(values["mean"]) == bits(alone if index else fam.mean)
        # the support offset is one float, also where the family was given an int scale
        assert type(values["offset"]) is float and values["offset"] == fam.support[0]

    @pytest.mark.parametrize("names, message", [
        (("bogus",), "name must be one of ('hazard', 'mrl', 'rev-hazard', 'rev-mrl', 'quantile', 'mean', 'offset'), "
                     "got 'bogus'"),
        (("quantile", "Mean"), "name must be one of ('hazard', 'mrl', 'rev-hazard', 'rev-mrl', 'quantile', 'mean', "
                               "'offset'), got 'Mean'"),
        ("mean", "names must be a sequence of names, got 'mean'"),  # a str is not read letter by letter
        (3, "names must be a sequence of names, got 3"),
    ], ids=["unknown", "unknown-second", "str", "int"])
    def test_unknown_name_is_domain_error(self, indep_exp, names, message):
        with pytest.raises(DomainError) as info:
            rel.all_quantities(indep_exp, "second", 0.5, GRID, None, names)
        assert str(info.value) == message

    def test_unknown_component_is_domain_error(self, indep_exp):
        with pytest.raises(DomainError, match=r"^component must be one of \('first', 'second'\), got 'third'$"):
            rel.all_quantities(indep_exp, "third", 0.5, GRID)
