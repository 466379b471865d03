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
    Weibull,
    curve_from_conditional,
    curve_points,
    empirical_curve,
    empirical_mrl_first,
    level_residuals,
    orthant_prob,
    sample,
)
from bivquant import estimation
from bivquant import reliability as rel
from bivquant.cli import load_sample_csv
from bivquant.curves import admissible_interval
from bivquant.numerics import BLOCK

from conftest import BLOCK_MODELS, BLOCK_SIZES, bits, traced_peak_mib
from oracles import empirical_curve_by_mask, sample_unblocked, trapezoid

N_BIG = 100_000
SEED = 1
GRID9 = np.linspace(0.3, 0.9, 9)
DIRECTIONS = [LOWER_LOWER, LOWER_UPPER, UPPER_LOWER, UPPER_UPPER]


def _sample_set(xs, ys) -> SampleSet:
    pairs = np.column_stack([np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)])
    return SampleSet(pairs)


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
        assert a.n == 5

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

    @pytest.mark.parametrize("n", [float("nan"), float("inf")])
    def test_non_finite_n(self, indep_uniform, n):
        with pytest.raises(DomainError, match="n must be an integer >= 1"):
            sample(indep_uniform, n, seed=0)

    @pytest.mark.parametrize("seed", [-1, 1.5, float("inf"), float("nan")])
    def test_invalid_seed(self, indep_uniform, seed):
        with pytest.raises(DomainError, match="seed must be an integer >= 0"):
            sample(indep_uniform, 5, seed=seed)

    def test_a_seed_has_no_ceiling(self, indep_uniform):
        # counts stop at numerics.MAX_COUNT; a seed is any integer >= 0, as numpy's generator takes it
        assert sample(indep_uniform, 3, seed=10**400).n == 3

    @pytest.mark.parametrize("axis, model", [
        ("x", BivariateModel(Exponential(1e-310), Exponential(1.0), IndependenceCopula())),
        ("y", BivariateModel(Exponential(1.0), Pareto(1.0, 1e-3), FGMCopula(0.5))),
    ])
    def test_overflowing_quantile_is_one_error(self, axis, model):
        # numpy's overflow warning is an error under the test settings, so a leaked one fails here too
        with pytest.raises(DomainError, match=f"sampled {axis} is not finite: the quantile of .* overflows"):
            sample(model, BLOCK + 3, seed=1)


class TestBlockedSample:
    @pytest.mark.parametrize("n", BLOCK_SIZES)
    @pytest.mark.parametrize("model", BLOCK_MODELS, ids=repr)
    def test_matches_unblocked_bit_for_bit(self, model, n):
        pairs = sample(model, n, seed=SEED).pairs
        assert pairs.shape == (n, 2)
        assert np.array_equal(bits(pairs), bits(sample_unblocked(model, n, SEED)))
        drawn = list(estimation.sample_blocks(model, n, SEED))  # what the CLI writes
        assert [block.shape for block in drawn] == [(min(BLOCK, n - start), 2) for start in range(0, n, BLOCK)]
        assert np.array_equal(bits(np.concatenate(drawn)), bits(pairs))

    def test_seed_past_64_bits(self, fgm_uniform):
        # a seed numpy hashes into its state: both block streams still start from it
        n = 3 * BLOCK + 5
        pairs = sample(fgm_uniform, n, seed=10**400).pairs
        assert np.array_equal(bits(pairs), bits(sample_unblocked(fgm_uniform, n, 10**400)))

    @pytest.mark.parametrize("n, seed, message", [
        (0, -1, "n must be an integer >= 1"),
        (float("nan"), 1, "n must be an integer >= 1"),
        (5, -1, "seed must be an integer >= 0"),
    ])
    def test_blocks_check_their_arguments_before_a_draw(self, indep_uniform, n, seed, message):
        # n before seed, when called, not when the first block is read
        with pytest.raises(DomainError, match=message):
            estimation.sample_blocks(indep_uniform, n, seed)

    def test_overflow_is_raised_by_its_block(self):
        # X's first draw whose quantile overflows is row 30,160: three whole blocks come first
        model = BivariateModel(Pareto(1e300, 0.5), Uniform01(), IndependenceCopula())
        drawn = estimation.sample_blocks(model, 100_000, 1)
        assert [len(next(drawn)) for _ in range(3)] == [BLOCK] * 3
        with pytest.raises(DomainError, match=r"sampled x is not finite: the quantile of Pareto\(scale=1e\+300"):
            next(drawn)


class TestColumnMajor:
    def _assert_contiguous(self, s):
        assert s.x.flags.c_contiguous and s.y.flags.c_contiguous

    def test_drawn(self, fgm_uniform):
        self._assert_contiguous(sample(fgm_uniform, 100, seed=SEED))

    def test_built_from_row_major(self):
        pairs = np.arange(20.0).reshape(10, 2)
        s = SampleSet(pairs)
        self._assert_contiguous(s)
        assert np.array_equal(s.pairs, pairs)

    def test_read_from_csv(self, tmp_path):
        path = tmp_path / "draws.csv"
        path.write_text("x,y\n1,2\n3,4\n5,6\n")
        self._assert_contiguous(load_sample_csv(str(path)))

    @pytest.mark.parametrize("shape", [(5, 3), (5, 1), (5,), (0, 2), (2, 2, 2)], ids=str)
    def test_rejects_other_shapes(self, shape):
        with pytest.raises(DomainError, match=r"sample pairs must have shape \(n, 2\)"):
            SampleSet(np.zeros(shape))


class TestPairsChecked:
    """Pairs are checked once, where a SampleSet is built; the estimators read them as given."""

    @pytest.mark.parametrize("pairs", [
        np.array([["1", "2"], ["3", "4"]]),
        np.array([[1.0, 2.0], [3.0, None]], dtype=object),
        np.array([[1.0, 2.0], [3.0, 4.0]]) + 0j,
        [[1.0, 2.0], [3.0, None]],
        None,
    ], ids=["strings", "objects", "complex", "none-inside", "none"])
    def test_not_numbers(self, pairs):
        with pytest.raises(DomainError, match="sample pairs must be a number or an array of numbers"):
            SampleSet(pairs)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("column", [0, 1], ids=["x", "y"])
    def test_not_finite(self, column, bad):
        pairs = np.ones((40, 2))
        pairs[7, column] = bad
        with pytest.raises(DomainError) as info:
            SampleSet(pairs)
        assert str(info.value) == "sample pairs must be finite"

    @pytest.mark.parametrize("pairs, got", [
        (np.array([["1", "2"], ["3", "4"]]), "an array of dtype <U1 and shape (2, 2)"),
        (np.zeros((5000, 2), dtype=complex), "an array of dtype complex128 and shape (5000, 2)"),
    ], ids=["strings", "complex"])
    def test_rejected_array_named_in_one_line(self, pairs, got):
        # an array's repr spans lines and lists its values; the message names its dtype and shape
        with pytest.raises(DomainError) as info:
            SampleSet(pairs)
        assert str(info.value) == f"sample pairs must be a number or an array of numbers, got {got}"

    def test_integers_read_as_floats(self):
        s = SampleSet(np.arange(8).reshape(4, 2))
        assert s.pairs.dtype == float
        assert s.x.tolist() == [0.0, 2.0, 4.0, 6.0]


class TestWorkingSet:
    """Per-call traced peaks at n = 1e5, in MiB; whole-array evaluation exceeds every bound.

    Whole-array peaks on this model: sample 6.1, curve_points 8.4,
    level_residuals 3.8, empirical_curve 5.4.  Block by block: 2.1, 3.2, 1.1
    and 2.4, so sample holds its 1.5 MiB of pairs plus cache-sized blocks;
    it reads 3.5 if it draws its n-sized u and w up front.  empirical_curve
    reads 3.1 if the selection makes a sorted copy of y, 4.7 if it also keeps
    the x order and sorted x through the selection, and 3.8 if the chunk index
    takes n-sized temporaries.  curve_points reads 3.9 if its u-grid stays
    alive through the fill.
    """

    MODEL = BivariateModel(Weibull(1.5, 0.8), Pareto(1.3, 2.2), FGMCopula(-0.6))

    @pytest.fixture(autouse=True)
    def _warm(self):
        # first calls build per-family constants; keep them out of the peaks
        curve = curve_points(self.MODEL, 0.25, UPPER_UPPER, 10)
        level_residuals(self.MODEL, curve)
        empirical_curve(sample(self.MODEL, 100, SEED), 0.25, UPPER_UPPER, [0.3])

    def test_sample(self):
        assert traced_peak_mib(sample, self.MODEL, N_BIG, SEED) < 2.5

    def test_sample_holds_only_its_output(self):
        # at 4e5 pairs (6.1 MiB) the blocks stay the same size: 7.0 MiB, where up-front uniforms read 12.6
        n = 4 * N_BIG
        output = n * 2 * 8 / 2**20
        assert traced_peak_mib(sample, self.MODEL, n, SEED) < output + 1.5

    def test_curve_points(self):
        assert traced_peak_mib(curve_points, self.MODEL, 0.25, UPPER_UPPER, N_BIG) < 3.6

    def test_level_residuals(self):
        curve = curve_points(self.MODEL, 0.25, UPPER_UPPER, N_BIG)
        assert traced_peak_mib(level_residuals, self.MODEL, curve) < 1.6

    @pytest.mark.parametrize("direction", [LOWER_LOWER, UPPER_UPPER], ids=str)
    def test_empirical_curve(self, direction):
        s = sample(self.MODEL, N_BIG, SEED)
        grid = np.linspace(*admissible_interval(0.25, direction), 200)
        assert traced_peak_mib(empirical_curve, s, 0.25, direction, grid) < 2.8


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
        with pytest.raises(DomainError) as info:
            empirical_curve(s, 0.25, UPPER_UPPER, [0.5, 0.75])
        assert str(info.value) == f"direction {UPPER_UPPER} requires u < 1 - p, got u = 0.75, p = 0.25"

    @pytest.mark.parametrize(
        "grid",
        [[0.5, 0.4], [0.5, 0.5], [1.5, 0.5], [0.4, np.nan, 0.6], [], [[0.4, 0.6]]],
        ids=["decreasing", "repeated", "decreasing-outside", "nan-inside", "empty", "2-d"],
    )
    def test_u_grid_not_strictly_increasing(self, fgm_uniform, grid):
        # checked before the range, so a grid that breaks both names its order
        s = sample(fgm_uniform, 1000, seed=SEED)
        with pytest.raises(DomainError) as info:
            empirical_curve(s, 0.25, LOWER_LOWER, grid)
        assert str(info.value) == "u_grid must be a nonempty strictly increasing 1-d sequence"

    @pytest.mark.parametrize(
        "direction, grid, first",
        [
            (LOWER_LOWER, [0.5, 1.0, 1.5], 1.0),
            (UPPER_UPPER, [-0.5, 0.0, 0.2], -0.5),
            (LOWER_LOWER, [0.5, np.inf], np.inf),
            (UPPER_UPPER, [-np.inf, 0.2], -np.inf),
            (LOWER_LOWER, [np.nan], np.nan),
        ],
        ids=["above-one", "below-zero", "inf", "minus-inf", "nan"],
    )
    def test_u_grid_outside_unit_interval(self, fgm_uniform, direction, grid, first):
        s = sample(fgm_uniform, 1000, seed=SEED)
        with pytest.raises(DomainError) as info:
            empirical_curve(s, 0.25, direction, grid)
        assert str(info.value) == f"u_grid must lie in (0,1), got {first!r}"  # the first bad u, on one line

    @pytest.mark.parametrize("p", [0.0, 1.5, float("nan"), float("inf")])
    def test_invalid_level(self, fgm_uniform, p):
        s = sample(fgm_uniform, 1000, seed=SEED)
        with pytest.raises(DomainError, match=rf"p must lie in \(0,1\), got {p}"):
            empirical_curve(s, p, UPPER_UPPER, [0.2])

    def test_nan_x_rejected(self):
        # a NaN x lies on neither side of any x-hat: the set that would hold it is never built
        with pytest.raises(DomainError, match="sample pairs must be finite"):
            _sample_set([0.5, np.nan] + [1.0] * 40, np.arange(42))

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

    @pytest.mark.parametrize("u", [-0.5, 1.5, float("nan"), float("inf")])
    def test_u_outside_unit_interval(self, indep_exp, u):
        s = sample(indep_exp, 1000, seed=SEED)
        with pytest.raises(DomainError) as info:
            empirical_mrl_first(s, u)
        assert str(info.value) == f"u must lie in (0,1), got {u!r}"

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
