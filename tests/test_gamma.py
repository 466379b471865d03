"""The numpy incomplete-gamma kernel behind the Weibull integrals, against a 40-digit mpmath oracle."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bivquant import Weibull, models
from bivquant.errors import BivquantError, ConvergenceError

from oracles import gamma_p_per_call, regularized_gamma_p, weibull_integrals, weibull_weighted_per_call

P = models._regularized_gamma_p
REPO = Path(__file__).resolve().parent.parent
TOL = 1e-13

#: u from 1e-14 to 1 - 1e-14, dense toward both ends.
U_GRID = np.concatenate([np.geomspace(1e-14, 0.5, 30), 1.0 - np.geomspace(0.5, 1e-14, 30)[1:]])


def _gamma_args(u):
    return -np.log1p(-np.asarray(u, dtype=float))


def _oracle(a, xs):
    return np.array([regularized_gamma_p(a, x) for x in np.ravel(xs)]).reshape(np.shape(xs))


class TestKernelAgainstOracle:
    @pytest.mark.parametrize("shape", np.linspace(0.5, 5.0, 10))
    def test_weibull_arguments(self, shape):
        a = 1.0 + 1.0 / shape
        t = _gamma_args(U_GRID)
        xs = np.stack([t, 2.0 * t])
        assert np.max(np.abs(P(a, xs) / _oracle(a, xs) - 1.0)) <= TOL

    @pytest.mark.parametrize("shape", [0.01, 0.05])
    def test_large_a(self, shape):
        # a = 101 and 21: the series needs hundreds of terms and the fraction runs past a + 1
        a = 1.0 + 1.0 / shape
        t = _gamma_args(U_GRID)
        xs = np.concatenate([t, 2.0 * t, a * np.geomspace(0.2, 10.0, 40)])
        ref = _oracle(a, xs)
        got = P(a, xs)
        normal = ref > 1e-280  # below, P itself nears the end of the double range
        assert normal.sum() > 60
        assert np.max(np.abs(got[normal] / ref[normal] - 1.0)) <= TOL
        assert np.all(got[~normal] <= 1e-280)

    @pytest.mark.parametrize("a", [1.0, 1.2, 2.0, 2.5, 21.0, 171.6])
    def test_endpoints(self, a):
        assert P(a, 0.0) == 0.0
        assert P(a, np.inf) == 1.0
        assert np.isnan(P(a, np.nan))

    def test_zero_d_and_stacked_shapes(self):
        a = 1.7
        xs = np.array([[0.0, 1e-12, 0.5, 3.0, 8.1, 8.11], [9.0, 20.0, 60.0, np.inf, 1e3, 2.0]])
        got = P(a, xs)
        assert got.shape == xs.shape
        scalar = P(a, np.float64(8.1))
        assert scalar.ndim == 0 and scalar == got[0, 4]
        # a value does not depend on the other points of its call
        one_at_a_time = np.array([[P(a, x) for x in row] for row in xs])
        assert np.array_equal(got, one_at_a_time)
        assert np.array_equal(got[1], P(a, xs[1]))
        assert np.allclose(got, _oracle(a, xs), rtol=TOL, atol=0.0)

    @settings(max_examples=120)
    @given(
        shape=st.floats(0.0059, 10.0, allow_nan=False),
        x=st.one_of(st.floats(0.0, 80.0), st.floats(0.0, 1500.0)),
    )
    def test_property_matches_oracle(self, shape, x):
        a = 1.0 + 1.0 / shape
        ref = regularized_gamma_p(a, x)
        got = float(P(a, x))
        assert 0.0 <= got <= 1.0
        assert abs(got - ref) <= TOL * ref + 1e-290

    def test_series_at_large_a_stays_a_probability(self):
        # 500-odd series terms can round a few ulps above 1 here
        a = 1.0 + 1.0 / 0.0059
        assert P(a, 367.0) == regularized_gamma_p(a, 367.0) == 1.0

    def test_iteration_cap_is_a_named_error(self, monkeypatch):
        monkeypatch.setattr(models, "_MAX_TERMS", 5)
        models._gamma_p_constants.cache_clear()
        try:
            with pytest.raises(ConvergenceError, match="did not converge in 5 steps at a = 1.5") as info:
                Weibull(1.0, 2.0).quantile_integral(0.5)
        finally:
            models._gamma_p_constants.cache_clear()
        assert isinstance(info.value, BivquantError)
        assert "\n" not in str(info.value)


class TestWeibullAgainstOracle:
    @pytest.mark.parametrize("shape", [0.5, 0.8, 1.0, 1.7, 3.0, 5.0, 0.05])
    def test_mean_and_integrals(self, shape):
        fam = Weibull(1.3, shape)
        mean = weibull_integrals(1.3, shape, 0.5)[0]
        assert abs(fam.mean / mean - 1.0) <= TOL
        oracle = np.array([weibull_integrals(1.3, shape, u) for u in U_GRID])
        normal = oracle[:, 1] > 1e-280 * mean  # P(a, t) itself a normal double
        integral = fam.quantile_integral(U_GRID[normal])
        assert np.max(np.abs(integral / oracle[normal, 1] - 1.0)) <= TOL
        normal = oracle[:, 2] > 1e-280 * mean
        weighted = fam.weighted_quantile_integral(U_GRID[normal])
        assert np.max(np.abs(weighted / oracle[normal, 2] - 1.0)) <= TOL

    def test_u_one_is_the_mean(self):
        fam = Weibull(0.9, 1.4)
        assert fam.quantile_integral(1.0) == fam.mean
        a = 1.0 + 1.0 / 1.4
        assert fam.weighted_quantile_integral(1.0) == pytest.approx(fam.mean * (1.0 - 2.0**-a), rel=1e-15)


class TestCachedConstants:
    """The per-shape constants are cached; every value equals the per-call kernel bit for bit."""

    GRIDS = {
        "mixed": U_GRID,
        "series-only": np.geomspace(1e-14, 0.6, 25),  # t < 1: the P(a, x) branch gets no points
        "no-series": np.concatenate([1.0 - np.geomspace(0.3, 1e-14, 25), [1.0]]),  # t >= 1, and u = 1
        "u-one": np.array(1.0),
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("shape", [0.05, 0.5, 1.0, 3.0, 0.0059])
    def test_integrals_equal_per_call_kernel(self, shape, grid):
        u, a = self.GRIDS[grid], 1.0 + 1.0 / shape
        fam = Weibull(1.3, shape)
        weighted = fam.weighted_quantile_integral(u)
        assert weighted.tobytes() == weibull_weighted_per_call(1.3, shape, u).tobytes()
        with np.errstate(divide="ignore"):  # u = 1 is t = inf
            t = _gamma_args(u)
        assert P(a, np.stack([t, 2.0 * t])).tobytes() == gamma_p_per_call(a, np.stack([t, 2.0 * t])).tobytes()


class TestRuntimeDependencies:
    def test_cli_import_leaves_scipy_out(self):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")])}
        code = "import bivquant.cli, sys; assert 'scipy' not in sys.modules"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr

    def test_scipy_not_a_dependency(self):
        text = (REPO / "pyproject.toml").read_text(encoding="utf-8")
        dependencies = text.split("\ndependencies = [", 1)[1].split("]", 1)[0]
        assert "numpy" in dependencies and "scipy" not in dependencies
