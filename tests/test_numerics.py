import numpy as np
import pytest

from bivquant import DomainError, IntegrandError, NumericConfig, integrate
from bivquant.errors import ConfigError
from bivquant.numerics import cumulative_integral

from oracles import CLIPPED_LOG_INTEGRAL


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda z: np.ones_like(z), 0.0, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_log_kernel(self):
        got = integrate(lambda z: 1.0 / (1.0 - z), 0.0, 0.5)
        assert got == pytest.approx(np.log(2.0), abs=1e-8)

    def test_clipping_contract(self):
        # divergent integrand: the result is the integral over [0, 1 - sing_clip]
        got = integrate(lambda z: 1.0 / (1.0 - z), 0.0, 1.0, singular_upper=True)
        assert got == pytest.approx(CLIPPED_LOG_INTEGRAL, abs=0.01)

    @pytest.mark.parametrize("panels", [2, 8, 100, 2048])
    def test_exact_for_cubics(self, panels):
        cfg = NumericConfig(quad_points=panels)
        got = integrate(lambda z: z**3, 0.0, 1.0, cfg)
        assert got == pytest.approx(0.25, abs=5e-15)

    def test_graded_square_root_singularity(self):
        # int_clip^1 z**-1/2 dz = 2 - 2 sqrt(clip)
        got = integrate(lambda z: z**-0.5, 0.0, 1.0, singular_lower=True)
        assert got == pytest.approx(2.0 - 2.0e-3, abs=1e-7)

    def test_both_singular(self):
        got = integrate(lambda z: z**-0.5 + (1 - z) ** -0.5, 0.0, 1.0,
                        singular_lower=True, singular_upper=True)
        assert got == pytest.approx(2.0 * (2.0 - 2.0e-3), abs=1e-5)

    def test_invalid_bounds(self):
        with pytest.raises(DomainError):
            integrate(lambda z: z, 1.0, 0.0)

    def test_nonfinite_integrand(self):
        with pytest.raises(IntegrandError, match="not finite"):
            integrate(lambda z: np.where(z > 0.5, np.nan, 1.0), 0.0, 1.0)


GRID = np.array([0.01, 0.2, 0.5, 0.73, 0.95])
TIGHT = NumericConfig(eps_boundary=1e-14, sing_clip=1e-14)


class TestCumulativeIntegral:
    def test_log_kernel_from_zero(self):
        # int_clip^t dz/(1-z) = -ln(1-t) + ln(1-clip)
        got = cumulative_integral(lambda z: 1.0 / (1.0 - z), GRID, 0.0)
        assert np.allclose(got, np.log1p(-1e-6) - np.log1p(-GRID), rtol=0.0, atol=1e-12)

    def test_square_root_singularity_clipped_at_zero(self):
        # int_clip^t z**-1/2 dz = 2 sqrt(t) - 2 sqrt(clip)
        got = cumulative_integral(lambda z: z**-0.5, GRID, 0.0)
        assert np.allclose(got, 2.0 * np.sqrt(GRID) - 2.0e-3, rtol=0.0, atol=1e-12)

    def test_log_kernel_clipped_at_one(self):
        # int_t^(1-clip) dz/(1-z) = ln(1-t) - ln(clip)
        got = cumulative_integral(lambda z: 1.0 / (1.0 - z), GRID, 1.0)
        assert np.allclose(got, np.log1p(-GRID) - np.log(1e-6), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "f",
        [np.exp, lambda z: z**-0.5, lambda z: (1.0 - z) ** -0.5, lambda z: -np.log(z)],
        ids=["smooth", "singular-at-0", "singular-at-1", "log-at-0"],
    )
    def test_agree_with_integrate(self, f):
        # integrate meshes each [0, t] or [t, 1] on its own; the sums share one mesh
        from_zero = [integrate(f, 0.0, t, TIGHT, singular_lower=True, singular_upper=True) for t in GRID]
        to_one = [integrate(f, t, 1.0, TIGHT, singular_lower=True, singular_upper=True) for t in GRID]
        assert np.allclose(cumulative_integral(f, GRID, 0.0, TIGHT), from_zero, rtol=1e-9, atol=0.0)
        assert np.allclose(cumulative_integral(f, GRID, 1.0, TIGHT), to_one, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_grid_equals_scalar_calls(self, end):
        ts = np.array([0.7, 0.01, 0.5, 0.7, 0.3, 1e-15, 0.999999, 0.5])  # unsorted, repeated
        f = lambda z: np.exp(-z) / np.sqrt(z * (1.0 - z))  # noqa: E731
        scalars = [cumulative_integral(f, t, end, TIGHT)[0] for t in ts]
        assert np.array_equal(cumulative_integral(f, ts, end, TIGHT), scalars)  # bit for bit

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_empty_grid(self, end):
        def never(z):
            raise AssertionError("an empty grid needs no integrand value")

        assert cumulative_integral(never, [], end).shape == (0,)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_nonfinite_integrand(self, end):
        with pytest.raises(IntegrandError, match="not finite at z = ") as info:
            cumulative_integral(lambda z: np.where(np.abs(z - 0.6) < 0.01, np.inf, 1.0), [0.25, 0.75], end)
        assert abs(float(str(info.value).rsplit("= ", 1)[1]) - 0.6) < 0.01

    def test_t_outside_unit_interval(self):
        with pytest.raises(DomainError, match=r"t must lie in \(0,1\)"):
            cumulative_integral(np.exp, [0.5, 1.0], 0.0)


class TestNumericConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            NumericConfig(quad_points=0)

    def test_rejects_clip_below_boundary(self):
        with pytest.raises(ConfigError):
            NumericConfig(eps_boundary=1e-6, sing_clip=1e-9)

    @pytest.mark.parametrize(
        "overrides",
        [{"quad_points": "abc"}, {"quad_points": True}, {"eps_boundary": None}, {"sing_clip": "1e-6"}],
        ids=["string", "bool", "null", "numeric-string"],
    )
    def test_rejects_non_real(self, overrides):
        with pytest.raises(ConfigError, match="must be a real number"):
            NumericConfig(**overrides)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_rejects_non_finite(self, value):
        with pytest.raises(ConfigError, match="strictly positive"):
            NumericConfig(sing_clip=value)

    def test_quad_points_upper_bound(self):
        assert NumericConfig(quad_points=65536).quad_points == 65536  # constructed, never run
        for value in (65538, 10**12):
            with pytest.raises(ConfigError, match="must be at most 65536"):
                NumericConfig(quad_points=value)

    def test_rejects_fractional_quad_points(self):
        with pytest.raises(ConfigError, match="integer"):
            NumericConfig(quad_points=100.5)
        assert NumericConfig(quad_points=100.0).quad_points == 100.0
