import numpy as np
import pytest

from bivquant import DomainError, IntegrandError, NumericConfig, integrate
from bivquant.errors import ConfigError

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

    def test_rejects_fractional_quad_points(self):
        with pytest.raises(ConfigError, match="integer"):
            NumericConfig(quad_points=100.5)
        assert NumericConfig(quad_points=100.0).quad_points == 100.0
