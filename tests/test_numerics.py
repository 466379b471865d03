import numpy as np
import pytest

from bivquant import DomainError, IntegrandError, NumericConfig, integrate, numerics
from bivquant.errors import ConfigError

from oracles import integrate_per_call_mesh

GRID = np.array([0.01, 0.2, 0.5, 0.73, 0.95])
TIGHT = NumericConfig(eps_boundary=1e-14, sing_clip=1e-14)
#: The closed forms below subtract the mass that a clip of 1e-6 drops.
CLIP_1E6 = NumericConfig(sing_clip=1e-6)


class TestCumulativeIntegral:
    def test_log_kernel_from_zero(self):
        # int_clip^t dz/(1-z) = -ln(1-t) + ln(1-clip)
        got = integrate(lambda z: 1.0 / (1.0 - z), GRID, 0.0, CLIP_1E6)
        assert np.allclose(got, np.log1p(-1e-6) - np.log1p(-GRID), rtol=0.0, atol=1e-12)

    def test_square_root_singularity_clipped_at_zero(self):
        # int_clip^t z**-1/2 dz = 2 sqrt(t) - 2 sqrt(clip)
        got = integrate(lambda z: z**-0.5, GRID, 0.0, CLIP_1E6)
        assert np.allclose(got, 2.0 * np.sqrt(GRID) - 2.0e-3, rtol=0.0, atol=1e-12)

    def test_log_kernel_clipped_at_one(self):
        # int_t^(1-clip) dz/(1-z) = ln(1-t) - ln(clip)
        got = integrate(lambda z: 1.0 / (1.0 - z), GRID, 1.0, CLIP_1E6)
        assert np.allclose(got, np.log1p(-GRID) - np.log(1e-6), rtol=0.0, atol=1e-10)

    @pytest.mark.parametrize(
        "f, antiderivative",
        [
            (np.exp, np.exp),
            (lambda z: z**-0.5, lambda z: 2.0 * np.sqrt(z)),
            (lambda z: (1.0 - z) ** -0.5, lambda z: -2.0 * np.sqrt(1.0 - z)),
            (lambda z: -np.log(z), lambda z: z - z * np.log(z)),
        ],
        ids=["smooth", "singular-at-0", "singular-at-1", "log-at-0"],
    )
    def test_agree_with_integrate(self, f, antiderivative):
        # closed forms of the clipped integrals over [clip, t] and [t, 1 - clip]
        clip = TIGHT.sing_clip
        from_zero = antiderivative(GRID) - antiderivative(clip)
        to_one = antiderivative(1.0 - clip) - antiderivative(GRID)
        assert np.allclose(integrate(f, GRID, 0.0, TIGHT), from_zero, rtol=1e-9, atol=0.0)
        assert np.allclose(integrate(f, GRID, 1.0, TIGHT), to_one, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("f, antiderivative", [(np.exp, np.exp), (np.cos, np.sin)], ids=["exp", "cos"])
    def test_coarse_mesh_is_sixth_order(self, f, antiderivative):
        # Boole's rule on 2 * 64 panels per half reads 8e-10 (exp) and 2e-10 (cos); composite Simpson reads 5e-8
        cfg = NumericConfig(quad_points=64, sing_clip=1e-6)
        from_zero = antiderivative(GRID) - antiderivative(1e-6)
        to_one = antiderivative(1.0 - 1e-6) - antiderivative(GRID)
        assert np.abs(integrate(f, GRID, 0.0, cfg) - from_zero).max() < 5e-9
        assert np.abs(integrate(f, GRID, 1.0, cfg) - to_one).max() < 5e-9

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_grid_equals_scalar_calls(self, end):
        ts = np.array([0.7, 0.01, 0.5, 0.7, 0.3, 1e-15, 0.999999, 0.5])  # unsorted, repeated
        f = lambda z: np.exp(-z) / np.sqrt(z * (1.0 - z))  # noqa: E731
        scalars = [integrate(f, t, end, TIGHT)[0] for t in ts]
        assert np.array_equal(integrate(f, ts, end, TIGHT), scalars)  # bit for bit

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_empty_grid(self, end):
        def never(z):
            raise AssertionError("an empty grid needs no integrand value")

        assert integrate(never, [], end).shape == (0,)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_nonfinite_integrand(self, end):
        with pytest.raises(IntegrandError, match="not finite at z = ") as info:
            integrate(lambda z: np.where(np.abs(z - 0.6) < 0.01, np.inf, 1.0), [0.25, 0.75], end)
        assert abs(float(str(info.value).rsplit("= ", 1)[1]) - 0.6) < 0.01

    @pytest.mark.parametrize("end", [0.5, -1.0, 2.0])
    def test_end_must_be_zero_or_one(self, end):
        def never(z):
            raise AssertionError("a rejected end needs no integrand value")

        with pytest.raises(DomainError, match=f"end must be 0 or 1, got {end!r}"):
            integrate(never, [0.3], end)

    @pytest.mark.parametrize("end", [np.array([0.0, 1.0]), "0", None], ids=["array", "string", "none"])
    def test_end_that_is_not_a_number_is_rejected(self, end):
        # an array end is never compared: the DomainError, not numpy's ambiguous truth value
        with pytest.raises(DomainError, match="^end must be 0 or 1, got "):
            integrate(np.exp, [0.5], end)

    @pytest.mark.parametrize("end", [0, 1, 0.0, 1.0, np.float64(1.0)], ids=repr)
    def test_numeric_ends_are_accepted(self, end):
        assert np.array_equal(integrate(np.exp, GRID, end), integrate(np.exp, GRID, float(end)))

    def test_t_outside_unit_interval(self):
        with pytest.raises(DomainError, match=r"^t must lie in \(0,1\), got 1\.0$"):
            integrate(np.exp, [0.5, 1.0], 0.0)

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_overflowing_sum_is_one_error(self, end):
        # every value is finite, but the coarsest mesh's weights over [clip, 1 - clip] sum past 1, so the
        # weighted sum overflows; warnings are errors under pytest
        with pytest.raises(IntegrandError, match="^integral is not finite"):
            integrate(lambda z: np.full_like(z, 1.79e308), [0.5, 1e-7, 1.0 - 1e-7], end, NumericConfig(quad_points=1))


class TestRequireProbs:
    @pytest.mark.parametrize("closed", [False, True])
    def test_passes_a_float_array(self, closed):
        assert numerics.require_probs("p", 0.5, closed).dtype == float
        grid = np.array([0.1, 0.5, 0.9])
        assert numerics.require_probs("p", grid, closed) is grid  # no copy
        assert numerics.require_probs("p", [], closed).shape == (0,)

    @pytest.mark.parametrize(
        "value, first",
        [(0.0, 0.0), (-0.0, -0.0), (1, 1.0), ([0.5, 1.5, -1.0], 1.5), ([0.5, np.nan], np.nan),
         (np.linspace(0.5, 1.5, 40), 0.5 + 20 / 39), ([[0.5], [-np.inf]], -np.inf)],
        ids=["zero", "minus-zero", "one", "first-of-two", "nan", "long-grid", "2-d"],
    )
    def test_open_names_first_value_outside(self, value, first):
        with pytest.raises(DomainError) as info:
            numerics.require_probs("u", value)
        assert str(info.value) == f"u must lie in (0,1), got {first!r}"  # one line, however long the grid

    @pytest.mark.parametrize("value", [None, [0.3, None], "0.5", [0.3, "0.4"], [0.3, 1j]],
                             ids=["none", "none-in-list", "string", "string-in-list", "complex-in-list"])
    def test_names_a_value_that_is_not_numbers(self, value):
        # numpy would read None as NaN and a string as the number it spells; neither is a number
        with pytest.raises(DomainError) as info:
            numerics.require_probs("u", value)
        assert str(info.value) == f"u must be a number or an array of numbers, got {value!r}"

    def test_closed_accepts_the_endpoints(self):
        assert numerics.require_probs("u", [0.0, -0.0, 1.0], closed=True).tolist() == [0.0, -0.0, 1.0]
        for value, first in [([1.0, 1.5], 1.5), (-1e-300, -1e-300), ([0.0, np.nan], np.nan)]:
            with pytest.raises(DomainError) as info:
                numerics.require_probs("u", value, closed=True)
            assert str(info.value) == f"u must lie in [0, 1], got {first!r}"


class TestNumericConfig:
    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            NumericConfig(quad_points=0)

    def test_rejects_clip_below_boundary(self):
        with pytest.raises(ConfigError):
            NumericConfig(eps_boundary=1e-6, sing_clip=1e-9)

    @pytest.mark.parametrize(
        "overrides, field",
        [({"eps_boundary": 0.7, "sing_clip": 0.7}, "eps_boundary"), ({"eps_boundary": 0.4, "sing_clip": 0.6}, "sing_clip"),
         ({"eps_boundary": 0.5, "sing_clip": 0.5}, "eps_boundary"), ({"sing_clip": 0.5}, "sing_clip")],
    )
    def test_rejects_half_and_above(self, overrides, field):
        # [x, 1 - x] holds one point or none from x = 0.5 up
        with pytest.raises(ConfigError, match=f"^{field} must be below 0.5, got {overrides[field]!r}$"):
            NumericConfig(**overrides)
        assert NumericConfig(eps_boundary=0.2, sing_clip=0.4999).sing_clip == 0.4999

    @pytest.mark.parametrize(
        "overrides",
        [{"quad_points": "abc"}, {"quad_points": True}, {"eps_boundary": None}, {"sing_clip": "1e-6"}],
        ids=["string", "bool", "null", "numeric-string"],
    )
    def test_rejects_non_real(self, overrides):
        with pytest.raises(ConfigError, match="must be a real number"):
            NumericConfig(**overrides)

    @pytest.mark.parametrize("field", ["quad_points", "eps_boundary", "sing_clip"])
    def test_rejects_integer_too_large_for_a_float(self, field):
        with pytest.raises(ConfigError, match=f"{field} is too large for a float"):
            NumericConfig(**{field: 10**400})

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


class TestMeshCache:
    """The nodes and values of :func:`integrate` equal those of a mesh built per call."""

    #: quad_points 3 gives each half a lone Simpson pair after its one Boole quad
    CONFIGS = [NumericConfig(), NumericConfig(quad_points=64), CLIP_1E6, NumericConfig(quad_points=3)]
    GRIDS = {
        "one-point": [0.3],
        "mixed": [0.7, 0.01, 0.5, 0.7, 0.3, 0.999, 0.5, 0.25],  # both halves, unsorted, repeated
        "near-0": [1e-15, 1e-9, 3e-7, 1e-6, 2e-6, 1e-3],  # below, at and beyond each clip
        "near-1": [1.0 - 1e-3, 1.0 - 2e-6, 1.0 - 1e-6, 1.0 - 3e-7, 1.0 - 1e-9, 1.0 - 1e-15],
    }

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "quad64", "clip1e-6", "quad3"])
    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_equals_per_call_mesh(self, cfg, end, grid):
        seen = {}

        def f(z):
            seen.setdefault("z", []).append(z.copy())
            return np.exp(-z) / np.sqrt(z * (1.0 - z))

        got = integrate(f, self.GRIDS[grid], end, cfg)
        want = integrate_per_call_mesh(f, self.GRIDS[grid], end, cfg)
        cached_z, oracle_z = seen["z"]
        assert cached_z.tobytes() == oracle_z.tobytes()  # the same nodes, in the same order
        assert got.tobytes() == want.tobytes()  # bit for bit


class TestPlanCache:
    """The nodes, weights and indices of a grid are built once per (config, end, grid) and reused."""

    GRIDS = {
        "scalar": 0.3,
        "one-point": [0.7],
        "near-0-half": [0.01, 0.2, 0.45, 0.2],
        "near-1-half": [0.999, 0.55, 0.8],
        "both-halves": [0.7, 0.01, 0.5, 0.7, 0.3, 0.999, 0.5, 0.25],
    }

    @staticmethod
    def f(z):
        return np.exp(-z) / np.sqrt(z * (1.0 - z))

    @pytest.mark.parametrize("grid", list(GRIDS))
    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_warm_equals_cold(self, end, grid):
        numerics._plan.cache_clear()
        cold = integrate(self.f, self.GRIDS[grid], end)
        warm = integrate(self.f, self.GRIDS[grid], end)
        assert numerics._plan.cache_info().hits == 1
        assert warm.tobytes() == cold.tobytes()  # bit for bit
        assert cold.tobytes() == integrate_per_call_mesh(self.f, self.GRIDS[grid], end, NumericConfig()).tobytes()

    def test_plan_is_read_only(self):
        grid = np.array([0.2, 0.9])
        integrate(self.f, grid, 0.0)
        plan = numerics._plan(NumericConfig(), 0.0, grid.shape, grid.tobytes())
        arrays = [a for a in plan if isinstance(a, np.ndarray)]
        assert arrays
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("end", [0.0, 1.0])
    def test_caller_grid_is_not_kept(self, end):
        ts = np.array([0.2, 0.7])
        integrate(self.f, ts, end)
        ts[0] = 0.9  # the plan holds a copy of the grid's bytes, not the caller's array
        assert integrate(self.f, ts, end).tobytes() == integrate_per_call_mesh(self.f, ts, end, NumericConfig()).tobytes()

    @pytest.mark.parametrize("t", [0.0, 1.0, np.nan, [[0.2, 0.3]]], ids=["zero", "one", "nan", "2-d"])
    def test_invalid_grid_raises_every_time(self, t):
        for _ in range(3):
            with pytest.raises(DomainError, match="t must"):
                integrate(np.exp, t, 0.0)

    def test_bounded(self):
        for i in range(20):
            integrate(np.exp, [0.01 * (i + 1)], 1.0)
        info = numerics._plan.cache_info()
        assert info.maxsize == 4 and info.currsize <= 4
