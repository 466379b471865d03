from collections import Counter
from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from bivquant import (
    BivariateModel,
    DomainError,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    InsufficientMassError,
    LOWER_LOWER,
    LOWER_UPPER,
    Pareto,
    SampleSet,
    UPPER_LOWER,
    UPPER_UPPER,
    Uniform01,
    curve_from_conditional,
    empirical_curve,
    empirical_mrl_first,
    orthant_prob,
    sample,
)
from bivquant import estimation
from bivquant import reliability as rel
from bivquant.curves import admissible_interval

from oracles import empirical_curve_by_mask, trapezoid

N_BIG = 100_000
SEED = 1
GRID9 = np.linspace(0.3, 0.9, 9)
DIRECTIONS = [LOWER_LOWER, LOWER_UPPER, UPPER_LOWER, UPPER_UPPER]


def _sample_set(xs, ys) -> SampleSet:
    pairs = np.column_stack([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])
    return SampleSet(pairs=pairs, seed=0, n=len(pairs), model_tag="hand-built")


def _oracle(s, p, direction, us):
    return empirical_curve_by_mask(s.x, s.y, p, direction.eps1, direction.eps2, us)


def _assert_matches_oracle(s, p, direction, grid):
    """Equal points, or the same InsufficientMassError text at the same grid point."""
    try:
        expected = _oracle(s, p, direction, grid)
    except ValueError as err:
        with pytest.raises(InsufficientMassError) as raised:
            empirical_curve(s, p, direction, grid)
        assert str(raised.value) == str(err)
    else:
        assert np.array_equal(empirical_curve(s, p, direction, grid).points, expected)


def _analytic_points(model, p, direction, grid):
    return np.array([curve_from_conditional(model, p, direction, u) for u in grid])


class TestSample:
    def test_determinism(self, fgm_uniform):
        a = sample(fgm_uniform, 5, seed=42)
        b = sample(fgm_uniform, 5, seed=42)
        assert np.array_equal(a.pairs, b.pairs)
        assert a.pairs.tobytes() == b.pairs.tobytes()
        assert a.model_tag == b.model_tag

    def test_different_seeds_differ(self, fgm_uniform):
        a = sample(fgm_uniform, 100, seed=1)
        b = sample(fgm_uniform, 100, seed=2)
        assert not np.array_equal(a.pairs, b.pairs)

    def test_independence_correlation_near_zero(self, indep_uniform):
        s = sample(indep_uniform, N_BIG, seed=SEED)
        assert abs(np.corrcoef(s.x, s.y)[0, 1]) < 0.01

    def test_fgm_correlation_against_copula_integral(self, fgm_uniform):
        # oracle: corr(U, V) = 12 * intint (C(u,v) - uv) du dv, = theta/3 here
        grid = np.linspace(0.0, 1.0, 601)
        U, V = np.meshgrid(grid, grid, indexing="ij")
        cop = fgm_uniform.copula
        gap = cop.cdf(U, V) - U * V
        oracle = 12.0 * np.trapezoid(np.trapezoid(gap, grid, axis=1), grid)
        assert oracle == pytest.approx(1.0 / 3.0, abs=1e-5)
        s = sample(fgm_uniform, N_BIG, seed=SEED)
        assert np.corrcoef(s.x, s.y)[0, 1] == pytest.approx(oracle, abs=0.01)

    def test_marginals_pushed_through_quantiles(self):
        model = BivariateModel(Exponential(2.0), Pareto(1.0, 3.0), FGMCopula(-0.5))
        s = sample(model, 50_000, seed=3)
        assert np.all(s.x >= 0)
        assert np.all(s.y >= 1.0)
        assert np.mean(s.x) == pytest.approx(0.5, abs=0.02)

    def test_invalid_n(self, indep_uniform):
        with pytest.raises(DomainError):
            sample(indep_uniform, 0, seed=1)


class TestEmpiricalCurve:
    def test_independent_uniform_midpoint(self, indep_uniform):
        s = sample(indep_uniform, N_BIG, seed=SEED)
        curve = empirical_curve(s, 0.25, LOWER_LOWER, [0.5])
        assert curve.x[0] == pytest.approx(0.5, abs=0.02)
        assert curve.y[0] == pytest.approx(0.5, abs=0.02)

    def test_fgm_sup_distance_to_analytic(self, fgm_uniform):
        s = sample(fgm_uniform, N_BIG, seed=SEED)
        emp = empirical_curve(s, 0.25, LOWER_LOWER, GRID9)
        ana = _analytic_points(fgm_uniform, 0.25, LOWER_LOWER, GRID9)
        sup = max(np.abs(emp.x - ana[:, 0]).max(), np.abs(emp.y - ana[:, 1]).max())
        assert sup <= 0.02

    def test_upper_direction(self, fgm_uniform):
        s = sample(fgm_uniform, N_BIG, seed=SEED)
        grid = np.linspace(0.1, 0.7, 7)
        emp = empirical_curve(s, 0.25, UPPER_UPPER, grid)
        ana = _analytic_points(fgm_uniform, 0.25, UPPER_UPPER, grid)
        sup = max(np.abs(emp.x - ana[:, 0]).max(), np.abs(emp.y - ana[:, 1]).max())
        assert sup <= 0.02

    def test_domain_error_for_inadmissible_grid(self, fgm_uniform):
        s = sample(fgm_uniform, 1000, seed=SEED)
        with pytest.raises(DomainError, match="u > p"):
            empirical_curve(s, 0.25, LOWER_LOWER, [0.2, 0.5])

    @pytest.mark.parametrize(
        "direction, grid",
        [
            (LOWER_LOWER, [0.5, 1.5]),
            (UPPER_UPPER, [-0.5, 0.2]),
            (LOWER_LOWER, [0.5, np.inf]),
            (UPPER_UPPER, [-np.inf, 0.2]),
            (LOWER_LOWER, [np.nan]),
        ],
        ids=["above-one", "below-zero", "inf", "minus-inf", "nan"],
    )
    def test_u_grid_outside_unit_interval(self, fgm_uniform, direction, grid):
        s = sample(fgm_uniform, 1000, seed=SEED)
        with pytest.raises(DomainError, match=r"u_grid must lie in \(0,1\)") as info:
            empirical_curve(s, 0.25, direction, grid)
        assert "\n" not in str(info.value)

    def test_nan_x_rejected(self):
        s = _sample_set([0.5, np.nan] + [1.0] * 40, np.arange(42))
        with pytest.raises(DomainError, match="must not be NaN"):
            empirical_curve(s, 0.1, UPPER_UPPER, [0.2])

    def test_insufficient_mass(self, fgm_uniform):
        s = sample(fgm_uniform, 50, seed=SEED)
        with pytest.raises(InsufficientMassError):
            empirical_curve(s, 0.25, LOWER_LOWER, [0.3])

    def test_empirical_level_frequency(self, fgm_uniform):
        # emitted points carry empirical orthant mass p up to binomial noise
        p = 0.25
        s = sample(fgm_uniform, N_BIG, seed=SEED)
        emp = empirical_curve(s, p, LOWER_LOWER, GRID9)
        bound = 3.0 * np.sqrt(p * (1 - p) / s.n)
        for _, x, y in emp.points:
            freq = np.mean((s.x <= x) & (s.y <= y))
            assert abs(freq - p) <= bound

    def test_consistency_rate(self, fgm_uniform):
        # quadrupling n roughly halves the sup error (root-n Monte Carlo rate)
        ana = _analytic_points(fgm_uniform, 0.25, LOWER_LOWER, GRID9)

        def sup_err(n, seed):
            s = sample(fgm_uniform, n, seed=seed)
            emp = empirical_curve(s, 0.25, LOWER_LOWER, GRID9)
            return max(np.abs(emp.x - ana[:, 0]).max(), np.abs(emp.y - ana[:, 1]).max())

        ratios = [sup_err(40_000, seed) / sup_err(10_000, seed) for seed in range(10)]
        assert 0.3 <= np.mean(ratios) <= 0.8


class TestMatchesMaskAndSort:
    """The prefix/suffix selection estimator equals the mask-and-sort one bit for bit."""

    @pytest.mark.parametrize("direction", DIRECTIONS, ids=str)
    def test_large_sample(self, direction):
        model = BivariateModel(Exponential(2.0), Pareto(1.0, 3.0), FGMCopula(0.7))
        s = sample(model, N_BIG, seed=SEED)
        grid = np.linspace(*admissible_interval(0.25, direction), 40)
        emp = empirical_curve(s, 0.25, direction, grid)
        assert np.array_equal(emp.points, _oracle(s, 0.25, direction, grid))

    @pytest.mark.parametrize("direction", DIRECTIONS, ids=str)
    def test_heavy_ties_in_x(self, direction):
        # integer-valued x: every x-hat is tied, so the split must follow "<=" and ">"
        rng = np.random.default_rng(7)
        s = _sample_set(rng.integers(0, 12, 3000), rng.integers(0, 6, 3000))
        grid = np.linspace(*admissible_interval(0.2, direction), 80)
        emp = empirical_curve(s, 0.2, direction, grid)
        assert np.array_equal(emp.points, _oracle(s, 0.2, direction, grid))

    @pytest.mark.parametrize(
        "direction, u_pass, u_fail",
        [(LOWER_LOWER, 0.295, 0.285), (UPPER_UPPER, 0.695, 0.705)],
        ids=["prefix", "suffix"],
    )
    def test_min_cond_n_edge(self, direction, u_pass, u_fail):
        # 100 distinct x: u_pass leaves exactly 30 conditioning points, u_fail 29
        s = _sample_set(np.arange(100), np.arange(100)[::-1])
        emp = empirical_curve(s, 0.1, direction, [u_pass])
        assert np.array_equal(emp.points, _oracle(s, 0.1, direction, [u_pass]))
        message = f"conditioning subsample at u = {u_fail} has 29 points (< min_cond_n = 30)"
        with pytest.raises(ValueError) as expected:
            _oracle(s, 0.1, direction, np.array([u_fail]))
        assert str(expected.value) == message
        with pytest.raises(InsufficientMassError) as raised:
            empirical_curve(s, 0.1, direction, [u_fail])
        assert str(raised.value) == message

    def test_min_cond_n_edge_counts_ties(self):
        # x-hat = 0 takes all tied zeros into the prefix: 30 zeros pass, 29 do not
        s = _sample_set([0.0] * 30 + [1.0] * 70, np.arange(100))
        assert empirical_curve(s, 0.005, LOWER_LOWER, [0.01]).x[0] == 0.0
        s = _sample_set([0.0] * 29 + [1.0] * 71, np.arange(100))
        with pytest.raises(InsufficientMassError, match="has 29 points"):
            empirical_curve(s, 0.005, LOWER_LOWER, [0.01])

    @pytest.mark.parametrize(
        "direction, grid, short_u",
        [(LOWER_LOWER, [0.285, 0.295, 0.5], 0.285), (UPPER_UPPER, [0.2, 0.695, 0.705], 0.705)],
        ids=["prefix", "suffix"],
    )
    def test_min_cond_n_edge_reports_first_short_point(self, direction, grid, short_u):
        # the suffix walk visits u downwards; the error still names the first short u of the grid
        s = _sample_set(np.arange(100), np.arange(100)[::-1])
        with pytest.raises(InsufficientMassError, match=f"at u = {short_u} has 29 points"):
            empirical_curve(s, 0.1, direction, grid)
        _assert_matches_oracle(s, 0.1, direction, grid)

    @pytest.mark.parametrize("n", [31, 111, 900, 1000])
    @pytest.mark.parametrize("size", ["1", "2", "sqrt-1", "sqrt+1", "2000"])
    def test_chunk_edges(self, n, size):
        # 31 = 5·6 + 1 and 111 = 10·11 + 1 leave a last chunk of one rank; 900 is a square
        width = isqrt(n - 1) + 1
        g = {"1": 1, "2": 2, "sqrt-1": width - 1, "sqrt+1": width + 1, "2000": 2000}[size]
        rng = np.random.default_rng(n * 7 + g)
        samples = {
            "continuous": (rng.random(n), rng.random(n)),
            "tied-x": (rng.integers(0, 5, n), rng.random(n)),
            "tied-y": (rng.random(n), rng.integers(0, 3, n)),
            "tied-both": (rng.integers(0, 4, n), rng.integers(0, 4, n)),
        }
        for xs, ys in samples.values():
            s = _sample_set(xs, ys)
            for direction in DIRECTIONS:
                lo, hi = admissible_interval(0.2, direction)
                # keep at least MIN_COND_N distinct x on the conditioning side
                if direction.eps1 < 0:
                    lo = max(lo, 29.5 / n)
                else:
                    hi = min(hi, (n - 30.5) / n)
                _assert_matches_oracle(s, 0.2, direction, np.linspace(lo, hi, g))

    @settings(max_examples=150)
    @given(data=st.data())
    def test_property_tied_samples(self, data):
        n = data.draw(st.integers(30, 400), label="n")
        values = st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5, 7.0])
        xs = data.draw(arrays(float, n, elements=values), label="x")
        ys = data.draw(arrays(float, n, elements=values), label="y")
        direction = data.draw(st.sampled_from(DIRECTIONS), label="direction")
        p = data.draw(st.sampled_from([0.05, 0.1, 0.25, 0.4]), label="p")
        lo, hi = admissible_interval(p, direction)
        g = data.draw(st.integers(1, 300), label="grid length")
        us = data.draw(arrays(float, g, elements=st.floats(lo, hi), unique=True), label="u")
        _assert_matches_oracle(_sample_set(xs, ys), p, direction, np.sort(us))


class _CountingNumpy:
    """Stands in for ``np`` inside the estimation module; counts the sorting calls."""

    COUNTED = ("argsort", "partition", "sort", "argpartition")

    def __init__(self):
        self.calls = Counter()

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name not in self.COUNTED:
            return attr

        def counted(*args, **kwargs):
            self.calls[name] += 1
            return attr(*args, **kwargs)

        return counted


class TestSortsOnce:
    @pytest.mark.parametrize("g", [1, 200, 2000])
    @pytest.mark.parametrize("direction", [LOWER_LOWER, UPPER_UPPER], ids=str)
    def test_two_argsorts_and_no_partition(self, monkeypatch, fgm_uniform, direction, g):
        s = sample(fgm_uniform, 20_000, seed=SEED)
        grid = np.linspace(*admissible_interval(0.25, direction), g)
        counting = _CountingNumpy()
        monkeypatch.setattr(estimation, "np", counting)
        empirical_curve(s, 0.25, direction, grid)
        assert counting.calls == Counter(argsort=2)


class TestEmpiricalMrl:
    @pytest.mark.parametrize("tied", [False, True], ids=["continuous", "tied"])
    def test_equals_sorted_order_statistic(self, indep_exp, tied):
        s = sample(indep_exp, 20_000, seed=SEED)
        if tied:
            s = _sample_set(np.floor(4.0 * s.x), s.y)
        xs = np.sort(s.x)
        for u in (0.25, 0.5, 0.75):
            x_hat = float(xs[int(np.ceil(u * len(xs))) - 1])
            assert empirical_mrl_first(s, u) == float(np.mean(s.x[s.x > x_hat]) - x_hat)

    def test_exponential_memoryless(self, indep_exp):
        s = sample(indep_exp, N_BIG, seed=SEED)
        assert empirical_mrl_first(s, 0.5) == pytest.approx(1.0, abs=0.03)

    def test_uniform(self, indep_uniform):
        s = sample(indep_uniform, N_BIG, seed=SEED)
        assert empirical_mrl_first(s, 0.5) == pytest.approx(0.25, abs=0.01)

    def test_pareto_within_three_standard_errors(self):
        model = BivariateModel(Pareto(1.0, 3.0), Uniform01(), IndependenceCopula())
        analytic = float(rel.mrl_first(model, 0.5))
        # coarse quadrature cross-check (the clipped singular tail biases it ~0.3%)
        oracle = trapezoid(model.marginal_x.quantile, 0.5, 1 - 1e-9) / 0.5 - float(
            model.marginal_x.quantile(0.5)
        )
        assert analytic == pytest.approx(oracle, rel=1e-2)
        s = sample(model, N_BIG, seed=SEED)
        xs = np.sort(s.x)
        x_hat = xs[int(np.ceil(0.5 * len(xs))) - 1]
        exceed = s.x[s.x > x_hat] - x_hat
        se = exceed.std(ddof=1) / np.sqrt(len(exceed))
        assert abs(empirical_mrl_first(s, 0.5) - analytic) <= 3.0 * se

    def test_insufficient_exceedances(self, indep_exp):
        s = sample(indep_exp, 1000, seed=SEED)
        with pytest.raises(InsufficientMassError):
            empirical_mrl_first(s, 0.999)

    def test_hand_built_sample(self):
        x = np.arange(100.0)
        s = _sample_set(x, x)
        assert empirical_mrl_first(s, 0.7) == 15.5  # 30 exceedances 70..99 over 69
        with pytest.raises(InsufficientMassError, match="only 29 exceedances"):
            empirical_mrl_first(s, 0.71)
        with pytest.raises(InsufficientMassError, match="only 0 exceedances"):
            empirical_mrl_first(s, 0.9999)
        curve = empirical_curve(s, 0.2, LOWER_LOWER, [0.5])
        assert curve.points.tolist() == [[0.5, 49.0, 19.0]]  # the 0.4-quantile of y = 0..49
