import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from fractions import Fraction

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
    NumericConfig,
    Pareto,
    Uniform01,
    Weibull,
    conditional_quantile,
    marginal_quantile,
    model_from_dict,
    orthant_prob,
    swap_axes,
)
from bivquant import curves, estimation, models, reliability
from bivquant.models import KERNELS, Copula, _quad_inv
from bivquant.numerics import DEFAULT_CONFIG

from conftest import bench_inputs, bits
from oracles import PHI_HALF, bisect, fgm_cdf, fgm_cond_cdf, pareto_phi_mrl_and_mean, trapezoid

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

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda m: marginal_quantile(m, "x", np.linspace(-0.5, 0.5, 40)), "u must lie in [0, 1], got -0.5"),
            (lambda m: conditional_quantile(m, "le", np.linspace(0.5, 1.5, 40), 0.5),
             f"conditioning_u must lie in [0, 1], got {0.5 + 20 / 39!r}"),
            (lambda m: conditional_quantile(m, "ge", 0.5, [0.5, np.inf, np.nan]),
             "p must lie in [0, 1], got inf"),
        ],
        ids=["u", "conditioning_u", "p"],
    )
    def test_domain_error_names_first_offending_value(self, indep_exp, call, message):
        with pytest.raises(DomainError) as info:
            call(indep_exp)
        assert str(info.value) == message  # one line, however long the grid

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

    #: Each series split (u = 0.01 and 0.05, Weibull's t = 1), its two neighbours, the exact ends and a coarse grid.
    SPLITS = [0.0, 1e-12, 0.005, 0.01, 0.03, 0.05, 0.3, -math.expm1(-1.0), 0.9, 1.0]
    SPLIT_GRID = np.unique(np.clip(np.concatenate(
        [SPLITS, np.nextafter(SPLITS, 0.0), np.nextafter(SPLITS, 1.0), np.linspace(0.0, 1.0, 21)]), 0.0, 1.0))

    @pytest.mark.parametrize("method", KERNELS)
    @pytest.mark.parametrize("fam", [*ALL_MARGINALS, Pareto(0.75, 1.006)], ids=lambda f: f.describe())
    def test_grid_equals_one_call_per_point(self, fam, method):
        f = getattr(fam, method)
        with np.errstate(all="ignore"):  # a quantile or gap of an unbounded support is inf at u = 1
            grid = fam.quantile(self.SPLIT_GRID) if method == "cdf" else self.SPLIT_GRID  # cdf takes x
            inside, half = grid[1:-1], grid.size // 2
            values = f(grid)
            one_at_a_time = np.concatenate([f(grid[i : i + 1]) for i in range(grid.size)])
            ends_appended = f(np.concatenate([inside, grid[[0, -1]]]))
            ends_apart = np.concatenate([f(inside), [f(grid[0]), f(grid[-1])]])
            zero_d = [f(float(u)) for u in grid]
            two_d = f(grid[: 2 * half].reshape(2, half))
        assert values.shape == grid.shape and two_d.shape == (2, half)
        assert all(np.shape(z) == () for z in zero_d)
        assert np.array_equal(bits(values), bits(one_at_a_time))
        assert np.array_equal(bits(ends_appended), bits(ends_apart))
        assert np.array_equal(bits(zero_d), bits(values))
        assert np.array_equal(bits(two_d.ravel()), bits(values[: 2 * half]))

    @pytest.mark.parametrize("u", [1e-9, 0.2, 0.5, 0.9, 1.0 - 1e-9])
    def test_pareto_power_integral_at_expo_minus_one(self, u):
        # shape 1 makes int_0^u Q a logarithm; shape 0.5 makes one term of int_0^u z Q one
        assert float(Pareto(1.7, 1.0).quantile_integral(u)) == 1.7 * -math.log1p(-u)
        closed = 1.7 * (u / (1.0 - u) + math.log1p(-u))  # int_0^u z (1-z)**-2 dz
        assert float(Pareto(1.7, 0.5).weighted_quantile_integral(u)) == pytest.approx(closed, rel=1e-9)

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

    @pytest.mark.parametrize("shape", [0.005, 0.0058, 1e-300, 5e-324])
    def test_weibull_shape_whose_gamma_overflows(self, shape):
        # Γ(1 + 1/shape) overflows a double for shape below about 0.00586: a parameter error, as any other
        with pytest.raises(DomainError, match=f"^Weibull shape {shape!r} is below 0.00586") as info:
            Weibull(1.0, shape)
        assert "\n" not in str(info.value)
        spec = {"marginal_x": {"kind": "Weibull", "scale": 1.0, "shape": shape}, "marginal_y": {"kind": "Uniform01"},
                "copula": {"kind": "Independence"}}
        with pytest.raises(ModelSpecError) as wrapped:
            model_from_dict(spec)
        assert str(wrapped.value) == f"invalid marginal_x parameters for Weibull: {info.value}"

    def test_weibull_smallest_shape_has_finite_integrals(self):
        fam = Weibull(1.0, 0.00587)
        assert math.isfinite(fam.mean)
        values = fam.quantile_integral([0.5, 0.999, 1.0])
        assert np.all(np.isfinite(values)) and values[-1] == fam.mean


def _draws(kind: str, n: int = 200):
    """n marginals of ``kind``, parameters uniform over the benchmark's FULL_RANGES from one fixed seed."""
    inputs, rng = bench_inputs(), np.random.default_rng(35)
    ranges = [inputs.FULL_RANGES[f"{kind}.{p}"] for p in inputs.PARAMS[kind]]
    return [models._MARGINAL_REGISTRY[kind](*(float(rng.uniform(*r)) for r in ranges)) for _ in range(n)]


class TestNumbersFromKernels:
    """A family's support and mean are its kernels' Q(0), Q(1) and int_0^1 Q, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(models._MARGINAL_REGISTRY))
    def test_support_and_mean_are_kernel_values(self, kind):
        for fam in _draws(kind):
            with np.errstate(all="ignore"):  # Q(1) and a heavy tail's int_0^1 Q are inf
                ends, total = fam.quantile([0.0, 1.0]), fam.quantile_integral(1.0)
            assert bits(fam.support).tolist() == bits(ends).tolist(), fam
            assert bits(fam.mean) == bits(total), fam
            assert type(fam.mean) is float and all(type(end) is float for end in fam.support)

    @pytest.mark.parametrize("kind", ["Uniform01", "Exponential", "Weibull"])
    def test_closed_forms_unchanged(self, kind):
        closed = {"Uniform01": lambda f: (0.5, (0.0, 1.0)),
                  "Exponential": lambda f: (1.0 / f.rate, (0.0, math.inf)),
                  "Weibull": lambda f: (f.scale * math.gamma(1.0 + 1.0 / f.shape), (0.0, math.inf))}[kind]
        for fam in _draws(kind):
            mean, support = closed(fam)
            assert bits(fam.mean) == bits(mean) and bits(fam.support).tolist() == bits(support).tolist(), fam

    def test_pareto_support_is_floats(self):
        # an int scale is Q(0) = scale * 1.0, so the offset that verify reads is a float
        assert Pareto(2, 3.0).support == (2.0, math.inf) and type(Pareto(2, 3.0).support[0]) is float

    @pytest.mark.parametrize("scale", [0.7, 1.0, 1.3])
    @pytest.mark.parametrize("shape", [1.0001, 1.001, 1.01])
    def test_pareto_mean_near_shape_one(self, scale, shape):
        # the exponent is formed from shape - 1: 1 - 1/shape, rounded, misses the mean by up to 2,125 ulp here
        oracle = pareto_phi_mrl_and_mean(scale, shape, 0.0, 0.5, 0.5)[1]  # at c = 0: scale shape / (shape - 1)
        assert abs(float(Pareto(scale, shape).quantile_integral(1.0)) - oracle) <= 2 * math.ulp(oracle)


class TestOrthantProb:
    def test_independence_product(self, indep_uniform):
        assert orthant_prob(indep_uniform, LOWER_LOWER, 0.4, 0.5) == pytest.approx(0.2, abs=1e-12)

    def test_fgm_against_formula_oracle(self, fgm_uniform):
        assert orthant_prob(fgm_uniform, LOWER_LOWER, 0.5, 0.5) == pytest.approx(
            fgm_cdf(0.5, 0.5, 1.0), abs=1e-15
        )
        assert fgm_cdf(0.5, 0.5, 1.0) == 0.3125

    @settings(max_examples=60)
    @given(x=probs, y=probs, theta=thetas)
    def test_orthant_decomposition(self, x, y, theta):
        model = BivariateModel(Uniform01(), Uniform01(), FGMCopula(theta))
        total = sum(orthant_prob(model, d, x, y) for d in ALL_DIRECTIONS)
        assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60)
    @given(u1=probs, u2=probs, v1=probs, v2=probs, theta=thetas)
    def test_fgm_rectangle_volumes_nonnegative(self, u1, u2, v1, v2, theta):
        cop = FGMCopula(theta)
        ulo, uhi = sorted((u1, u2))
        vlo, vhi = sorted((v1, v2))
        volume = (
            cop.cdf(uhi, vhi) - cop.cdf(ulo, vhi) - cop.cdf(uhi, vlo) + cop.cdf(ulo, vlo)
        )
        assert volume >= -1e-12

    @settings(max_examples=40)
    @given(u=probs, v=probs, theta=thetas)
    def test_fgm_uniform_margins(self, u, v, theta):
        cop = FGMCopula(theta)
        assert cop.cdf(u, 1.0) == pytest.approx(u, abs=1e-12)
        assert cop.cdf(1.0, v) == pytest.approx(v, abs=1e-12)
        assert cop.cdf(u, 0.0) == 0.0
        assert cop.cdf(0.0, v) == 0.0


def _cond_cdf(model, sense, u, v):
    """Conditional CDF of V given the sense event at u: v + c v (1-v) from the copula."""
    c = float(model.copula.cond_linear_coeff(sense, u))
    return v + c * v * (1.0 - v)


class TestConditionalCdf:
    def test_independence_drops_conditioning(self, indep_uniform):
        assert _cond_cdf(indep_uniform, "le", 0.3, 0.6) == pytest.approx(0.6, abs=1e-12)
        assert conditional_quantile(indep_uniform, "le", 0.3, 0.6) == pytest.approx(0.6, abs=1e-12)

    def test_fgm_example(self, fgm_uniform):
        got = _cond_cdf(fgm_uniform, "le", 0.5, 0.5)
        assert got == pytest.approx(0.625, abs=1e-12)
        # oracle: C(u, v)/u evaluated independently
        assert got == pytest.approx(fgm_cdf(0.5, 0.5, 1.0) / 0.5, abs=1e-15)
        assert conditional_quantile(fgm_uniform, "le", 0.5, got) == pytest.approx(0.5, abs=1e-12)


class TestConditionalQuantile:
    def test_independence_reduces_to_marginal(self, indep_uniform):
        assert conditional_quantile(indep_uniform, "le", 0.3, 0.5) == pytest.approx(0.5, abs=1e-9)

    def test_fgm_example_against_bisection_oracle(self, fgm_uniform):
        oracle = bisect(lambda v: fgm_cdf(0.5, v, 1.0) / 0.5 - 0.5, 0.0, 1.0)
        assert oracle == pytest.approx(PHI_HALF, abs=1e-12)
        assert conditional_quantile(fgm_uniform, "le", 0.5, 0.5) == pytest.approx(oracle, abs=1e-9)

    def test_small_p_approaches_support_infimum(self, fgm_uniform):
        assert conditional_quantile(fgm_uniform, "le", 0.5, 1e-12) <= 1e-8

    def test_p_near_one_reaches_the_clipped_upper_tail(self, indep_exp):
        # p is clipped to 1 - eps_boundary, so the unbounded tail ends at -ln(eps_boundary)
        got = conditional_quantile(indep_exp, "ge", 0.4, 1.0 - 1e-12)
        assert got == pytest.approx(-math.log(DEFAULT_CONFIG.eps_boundary), rel=1e-6)

    def test_phi_level_is_not_clipped(self):
        # p is clipped once, where it enters; the root v of v + c v (1-v) = p is exact, so y = v of a Uniform01 Y keeps
        # rising below eps_boundary (c = 1/2 at u = 0.5, and 0.999 at u = 0.001)
        model = BivariateModel(Exponential(1.0), Uniform01(), FGMCopula(1.0))
        cfg = NumericConfig(eps_boundary=0.01, sing_clip=0.01)
        for u, ps, config in ((0.5, [0.01, 0.012, 0.014], cfg), (0.001, [1.5e-9], None)):
            c, p = 1.0 - u, np.array(ps)
            root = 2.0 * p / (1.0 + c + np.sqrt((1.0 + c) ** 2 - 4.0 * c * p))
            assert conditional_quantile(model, "le", u, p, config) == pytest.approx(root, rel=1e-12)

    def test_monotone_in_p(self, fgm_uniform):
        ys = conditional_quantile(fgm_uniform, "le", 0.37, np.linspace(0.01, 0.99, 50))
        assert np.all(np.diff(ys) > 0.0)

    def test_degenerate_conditioning(self, indep_uniform):
        with pytest.raises(DegenerateConditioningError):
            conditional_quantile(indep_uniform, "le", 0.0, 0.5)
        with pytest.raises(DegenerateConditioningError):
            conditional_quantile(indep_uniform, "ge", 1.0, 0.5)

    def test_bad_sense(self, indep_uniform):
        # "eq" conditions on U = u, which only sampling uses
        with pytest.raises(DomainError):
            conditional_quantile(indep_uniform, "eq", 0.5, 0.5)

    @pytest.mark.parametrize("sense", ["le", "ge"])
    def test_round_trip_with_conditional_cdf(self, fgm_uniform, sense):
        # identity holds at the root tolerance on interior grids
        ps = np.linspace(0.05, 0.95, 19)
        ys = conditional_quantile(fgm_uniform, sense, 0.4, ps)
        back = fgm_cond_cdf(sense, 0.4, ys, 1.0)  # uniform margins: v = y
        assert np.max(np.abs(back - ps)) <= 1e-12

    def test_base_class_cond_cdf_consistency(self, fgm_uniform):
        # the quadratic form v + c v (1-v) of cond_linear_coeff is the conditional CDF built
        # from the joint CDF, and conditional_quantile inverts it
        cop = fgm_uniform.copula
        for sense in ("le", "ge"):
            for u in (0.2, 0.5, 0.8):
                c = float(cop.cond_linear_coeff(sense, u))
                for v in (0.1, 0.6, 0.9):
                    p = fgm_cond_cdf(sense, u, v, 1.0)
                    assert v + c * v * (1.0 - v) == pytest.approx(p, abs=1e-13)
                    assert conditional_quantile(fgm_uniform, sense, u, p) == pytest.approx(v, abs=1e-12)


class TestIndependenceInverse:
    """``IndependenceCopula.cond_quantile`` returns p; the quadratic inverse at c = 0 is p bit for bit."""

    EDGES = [0.0, DEFAULT_CONFIG.eps_boundary, 0.5, 1.0 - DEFAULT_CONFIG.eps_boundary, 1.0]

    @pytest.mark.parametrize("sense", ["le", "ge", "eq"])
    def test_equals_quadratic_inverse(self, sense):
        rng = np.random.default_rng(5)
        for p in [np.array(self.EDGES), rng.random(1000), np.linspace(0.0, 1.0, 1001)]:
            u = rng.random(p.shape)
            got = IndependenceCopula().cond_quantile(sense, u, p)
            assert got.shape == p.shape
            assert np.array_equal(got.view(np.uint64), _quad_inv(p, 0.0).view(np.uint64))

    @pytest.mark.parametrize("sense", ["le", "ge", "eq"])
    def test_scalar_arguments(self, sense):
        for p in self.EDGES:
            assert float(IndependenceCopula().cond_quantile(sense, 0.3, p)) == float(_quad_inv(p, 0.0))

    def test_field_broadcast(self):
        # field evaluates conditioning levels (k, 1) against probabilities (1, m)
        us, ps = np.linspace(0.1, 0.9, 7)[:, None], np.array(self.EDGES + [0.25, 0.75])[None, :]
        got = np.asarray(IndependenceCopula().cond_quantile("le", us, ps), dtype=float)
        expected = _quad_inv(ps, np.zeros_like(us))
        assert got.shape == expected.shape == (7, 7)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_unknown_sense(self):
        with pytest.raises(DomainError, match=r"^sense must be one of \('le', 'ge', 'eq'\), got 'lt'$"):
            IndependenceCopula().cond_quantile("lt", 0.5, 0.5)


@pytest.mark.parametrize("copula", [IndependenceCopula(), FGMCopula(0.5)], ids=lambda c: c.kind)
@pytest.mark.parametrize("method", ["cond_linear_coeff", "cond_quantile"])
def test_unknown_conditioning_sense(copula, method):
    args = ("lt", 0.5) if method == "cond_linear_coeff" else ("lt", 0.5, 0.5)
    with pytest.raises(DomainError, match=r"^sense must be one of \('le', 'ge', 'eq'\), got 'lt'$"):
        getattr(copula, method)(*args)


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

    @settings(max_examples=30)
    @given(x=probs, y=probs, theta=thetas)
    def test_orthant_relabeling(self, x, y, theta):
        model = BivariateModel(Uniform01(), Uniform01(), FGMCopula(theta))
        swapped = swap_axes(model)
        for d in ALL_DIRECTIONS:
            assert orthant_prob(swapped, Direction(d.eps2, d.eps1), y, x) == pytest.approx(
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
        model = model_from_dict(json.loads(json.dumps(self.spec())))
        assert model == BivariateModel(Pareto(1.0, 2.0), Exponential(0.5), FGMCopula(-0.25))

    def test_unknown_top_key(self):
        bad = self.spec() | {"extra": 1}
        with pytest.raises(ModelSpecError, match="extra"):
            model_from_dict(bad)

    @pytest.mark.parametrize("section, extra, line", [
        (None, {"a": 1, 2: 3}, "unknown model keys: [2, 'a']"),
        ("marginal_y", {3: 1, "z": 2}, "unknown marginal_y keys for Exponential: [3, 'z']"),
    ], ids=["top", "section"])
    def test_keys_json_cannot_spell_are_named_in_text_order(self, section, extra, line):
        # an int key beside a string key: the keys are sorted as text, never compared with each other
        bad = self.spec() | extra if section is None else self.spec() | {section: self.spec()[section] | extra}
        with pytest.raises(ModelSpecError) as info:
            model_from_dict(bad)
        assert str(info.value) == line

    def test_keys_of_one_text_keep_one_order(self):
        # 2 and "2" share their text and sort by repr after it, so the message does not follow the string hash seed
        # (on CPython 3.11, hash seeds 4 and 5 flip a sort by text alone)
        src = os.path.dirname(os.path.dirname(models.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        code = ("from bivquant import model_from_dict\n"
                "try:\n    model_from_dict({2: 0, '2': 0})\nexcept Exception as exc:\n    print(exc)")
        lines = {subprocess.run([sys.executable, "-c", code], env=env | {"PYTHONHASHSEED": str(seed)},
                                capture_output=True, text=True).stdout for seed in range(8)}
        assert lines == {"unknown model keys: ['2', 2]\n"}

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

    @pytest.mark.parametrize(
        "section, component",
        [
            ("marginal_y", {"kind": "Exponential", "rate": 10**400}),
            ("marginal_x", {"kind": "Pareto", "scale": 1.0, "shape": -(10**400)}),
            ("copula", {"kind": "FGM", "theta": 10**400}),
        ],
        ids=["rate", "negative-shape", "theta"],
    )
    def test_integer_too_large_for_a_float(self, section, component):
        bad = self.spec() | {section: component}
        with pytest.raises(ModelSpecError, match="too large for a float"):
            model_from_dict(bad)

    @pytest.mark.parametrize("kind", [["Exponential"], {"kind": "FGM"}, 1, None], ids=["list", "object", "int", "null"])
    def test_kind_not_a_string(self, kind):
        bad = self.spec()
        bad["copula"] = {"kind": kind}
        with pytest.raises(ModelSpecError, match="unknown copula kind"):
            model_from_dict(bad)


#: Parameters of each real type a caller may pass, per family, copula and config: ints (no positive int lies below
#: the 0.5 of eps_boundary and sing_clip), numpy scalars and Fractions.
PARAMETER_TYPES = {
    "int": [(Exponential, (2,)), (Pareto, (1, 3)), (Weibull, (2, 1)), (FGMCopula, (-1,)),
            (NumericConfig, (1e-9, 64, 1e-7))],
    "numpy": [(Exponential, (np.float32(0.5),)), (Pareto, (np.int64(1), np.float16(2.5))),
              (Weibull, (np.int32(2), np.float64(1.5))), (FGMCopula, (np.float32(0.25),)),
              (NumericConfig, (np.float32(1e-9), np.int64(64), np.float64(1e-7)))],
    "Fraction": [(Exponential, (Fraction(1, 3),)), (Pareto, (Fraction(3, 2), Fraction(5, 2))),
                 (Weibull, (Fraction(7, 5), Fraction(3, 2))), (FGMCopula, (Fraction(-1, 3),)),
                 (NumericConfig, (Fraction(1, 10**9), Fraction(128, 2), Fraction(1, 10**7)))],
}


class TestParametersKeptAsFloats:
    """Every real parameter is kept as the float ``require_real`` returns, whatever real type it came as."""

    @pytest.mark.parametrize("kind", list(PARAMETER_TYPES))
    def test_stored_as_float(self, kind):
        for cls, args in PARAMETER_TYPES[kind]:
            obj = cls(*args)
            kept = {f.name: getattr(obj, f.name) for f in fields(obj)}
            assert kept == dict(zip(kept, map(float, args)))
            assert {name: type(v) for name, v in kept.items()} == {
                name: int if name == "quad_points" else float for name in kept}, cls

    @pytest.mark.parametrize("kind", ["int", "Fraction"])
    def test_same_bits_as_the_float_twin(self, kind):
        # sample, curve points and all eight components of a model and a config built from these types equal their
        # float twins' bit for bit
        built = dict(PARAMETER_TYPES[kind])
        twins = {cls: cls(*map(float, args)) for cls, args in built.items()}
        built = {cls: cls(*args) for cls, args in built.items()}
        cfg, twin_cfg = built[NumericConfig], twins[NumericConfig]
        for pair in ((Exponential, Pareto), (Weibull, Exponential)):
            model = BivariateModel(built[pair[0]], built[pair[1]], built[FGMCopula])
            twin = BivariateModel(twins[pair[0]], twins[pair[1]], twins[FGMCopula])
            assert bits(estimation.sample(model, 500, 3, cfg).pairs).tolist() == bits(
                estimation.sample(twin, 500, 3, twin_cfg).pairs).tolist()
            for direction in ALL_DIRECTIONS:
                assert bits(curves.curve_points(model, 0.2, direction, 50, cfg).points).tolist() == bits(
                    curves.curve_points(twin, 0.2, direction, 50, twin_cfg).points).tolist()
            ts = np.linspace(0.01, 0.99, 41)
            for component in ("first", "second"):
                got = reliability.all_quantities(model, component, 0.5, ts, cfg)
                want = reliability.all_quantities(twin, component, 0.5, ts, twin_cfg)
                assert list(got) == list(want) and set(reliability.QUANTITIES) <= set(got)
                assert all(bits(got[name]).tolist() == bits(want[name]).tolist() for name in got)
