import re

import numpy as np
import pytest

from bivquant import (
    ALL_DIRECTIONS,
    BivariateModel,
    CURVE_TOL,
    DegenerateLevelError,
    DomainError,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    LOWER_LOWER,
    NumericConfig,
    Pareto,
    QuantileCurve,
    UPPER_UPPER,
    Uniform01,
    conditional_quantile,
    curve_from_conditional,
    curve_points,
    level_residuals,
    marginal_quantile,
    orthant_prob,
    swap_axes,
)

from bivquant.curves import conditional_args, uniform_grid
from bivquant.numerics import BLOCK

from conftest import BLOCK_MODELS, BLOCK_SIZES, bits
from oracles import PHI_HALF, bisect, curve_points_unblocked, fgm_cdf, level_residuals_unblocked


class TestCurvePoints:
    def test_uniform_independence_product_law(self, indep_uniform):
        curve = curve_points(indep_uniform, 0.25, LOWER_LOWER, 101)
        assert np.max(np.abs(curve.x * curve.y - 0.25)) <= 1e-9
        # midpoint of the parametrization passes through (0.5, 0.5)
        x, y = curve_from_conditional(indep_uniform, 0.25, LOWER_LOWER, 0.5)
        assert (x, y) == pytest.approx((0.5, 0.5), abs=1e-9)

    def test_pareto_product_law(self, indep_pareto):
        # independent unit-scale, unit-shape tails: (k/x)(k/y) = p on the ++ curve
        curve = curve_points(indep_pareto, 0.5, UPPER_UPPER, 200)
        assert np.max(np.abs(curve.x * curve.y - 2.0)) <= 1e-6

    def test_level_set_property_all_directions(self):
        model = BivariateModel(Exponential(1.0), Uniform01(), FGMCopula(1.0))
        for direction in ALL_DIRECTIONS:
            curve = curve_points(model, 0.25, direction, 50)
            assert level_residuals(model, curve).max() <= CURVE_TOL

    def test_monotone_y_along_lower_lower(self, fgm_uniform):
        curve = curve_points(fgm_uniform, 0.25, LOWER_LOWER, 80)
        assert np.all(np.diff(curve.y) <= 1e-9)

    @pytest.mark.parametrize("direction", ALL_DIRECTIONS, ids=str)
    @pytest.mark.parametrize("model", BLOCK_MODELS, ids=repr)
    def test_points_match_single_point_form(self, model, direction):
        # one evaluator: the single point at u is the curve_points row at u, bit for bit
        curve = curve_points(model, 0.25, direction, 100)
        single = [curve_from_conditional(model, 0.25, direction, u) for u in curve.points[:, 0]]
        assert np.array_equal(bits(single), bits(curve.points[:, 1:]))

    def test_invalid_level(self, indep_uniform):
        with pytest.raises(DomainError, match=r"p must lie in \(0,1\)"):
            curve_points(indep_uniform, 1.5, LOWER_LOWER, 10)

    def test_invalid_point_count(self, indep_uniform):
        with pytest.raises(DomainError):
            curve_points(indep_uniform, 0.5, LOWER_LOWER, 1)

    def test_degenerate_level(self, indep_uniform):
        with pytest.raises(DegenerateLevelError):
            curve_points(indep_uniform, 0.9999, LOWER_LOWER, 10)

    @pytest.mark.parametrize("n", [float("nan"), float("inf"), float("-inf"), 2.5])
    def test_non_integer_point_count(self, indep_uniform, n):
        with pytest.raises(DomainError, match=f"n_points must be an integer >= 2, got {n!r}"):
            curve_points(indep_uniform, 0.25, LOWER_LOWER, n)

    @pytest.mark.parametrize("axis, model", [
        ("x", BivariateModel(Exponential(1e-310), Exponential(1.0), IndependenceCopula())),
        ("y", BivariateModel(Exponential(1.0), Pareto(1.0, 1e-3), FGMCopula(0.5))),
    ])
    def test_overflowing_quantile_is_one_error(self, axis, model):
        # numpy's overflow warning is an error under the test settings, so a leaked one fails here too
        family = re.escape(model.marginal(axis).describe())
        with pytest.raises(DomainError, match=f"curve {axis} is not finite: the quantile of {family} overflows"):
            curve_points(model, 0.25, LOWER_LOWER, BLOCK + 3)
        with pytest.raises(DomainError, match=f"curve {axis} is not finite: the quantile of {family} overflows"):
            curve_from_conditional(model, 0.25, LOWER_LOWER, 0.3)


class TestBlockedCurves:
    @pytest.mark.parametrize("n", [max(n, 2) for n in BLOCK_SIZES])
    @pytest.mark.parametrize("direction", ALL_DIRECTIONS, ids=str)
    @pytest.mark.parametrize("model", BLOCK_MODELS, ids=repr)
    def test_match_unblocked_bit_for_bit(self, model, direction, n):
        curve = curve_points(model, 0.25, direction, n)
        assert curve.points.shape == (n, 3)
        assert np.array_equal(bits(curve.points), bits(curve_points_unblocked(model, 0.25, direction, n)))
        assert np.array_equal(bits(level_residuals(model, curve)), bits(level_residuals_unblocked(model, curve)))

    def test_x_and_y_contiguous(self, fgm_uniform):
        for curve in (curve_points(fgm_uniform, 0.25, LOWER_LOWER, 50),
                      QuantileCurve(0.25, LOWER_LOWER, np.array([[0.5, 0.5, 0.5], [0.6, 0.4, 0.4]]))):
            assert curve.x.flags.c_contiguous and curve.y.flags.c_contiguous


class TestCurveIsThePublicQuantiles:
    """The curve body composes the kernels on checked values; its points are the paper's public Q_X and phi."""

    @pytest.mark.parametrize("cfg", [None, NumericConfig(eps_boundary=0.3, sing_clip=0.3)], ids=["default", "clip"])
    @pytest.mark.parametrize("n", [max(n, 2) for n in BLOCK_SIZES])
    @pytest.mark.parametrize("direction", ALL_DIRECTIONS, ids=str)
    @pytest.mark.parametrize("model", BLOCK_MODELS, ids=repr)
    def test_x_is_q_x_and_y_is_phi_bit_for_bit(self, model, direction, n, cfg):
        # at eps_boundary 0.3 the clip moves u and q, so q must come from the unclipped u and be clipped itself
        us = uniform_grid(0.25, direction, n)
        sense, q = conditional_args(0.25, direction, us)
        curve = curve_points(model, 0.25, direction, n, cfg)
        assert np.array_equal(bits(curve.x), bits(marginal_quantile(model, "x", us, cfg)))
        assert np.array_equal(bits(curve.y), bits(conditional_quantile(model, sense, us, q, cfg)))


class TestCurveFromConditional:
    def test_fgm_point_against_joint_cdf_bisection(self, fgm_uniform):
        # y on the (-,-) curve at u = 1/2 solves C(1/2, y) = 1/4
        oracle = bisect(lambda v: fgm_cdf(0.5, v, 1.0) - 0.25, 0.0, 1.0)
        assert oracle == pytest.approx(PHI_HALF, abs=1e-10)
        _, y = curve_from_conditional(fgm_uniform, 0.25, LOWER_LOWER, 0.5)
        assert y == pytest.approx(oracle, abs=1e-9)

    def test_exponential_survival_product(self, indep_exp):
        # (+,+): survival product equals p; at u = 1/2, y solves 0.5 * S(y) = 0.25
        oracle = bisect(lambda y: 0.25 - 0.5 * np.exp(-y), 0.0, 50.0)
        x, y = curve_from_conditional(indep_exp, 0.25, UPPER_UPPER, 0.5)
        assert x == pytest.approx(np.log(2.0), abs=1e-9)
        assert y == pytest.approx(oracle, abs=1e-9)
        assert y == pytest.approx(np.log(2.0), abs=1e-9)

    def test_domain_error_names_constraint(self, indep_uniform):
        for u in (0.2, 0.25):  # the bound itself is outside
            with pytest.raises(DomainError, match="u > p"):
                curve_from_conditional(indep_uniform, 0.25, LOWER_LOWER, u)
        for u in (0.8, 0.75):
            with pytest.raises(DomainError, match="u < 1 - p"):
                curve_from_conditional(indep_uniform, 0.25, UPPER_UPPER, u)
        # outside (0,1), u is named by the range rule of every u-grid, before the direction's
        for u in (1.0, float("nan")):
            with pytest.raises(DomainError) as info:
                curve_from_conditional(indep_uniform, 0.25, LOWER_LOWER, u)
            assert str(info.value) == f"u_grid must lie in (0,1), got {u!r}"

    def test_near_domain_edge_returns_clipped_quantile(self, indep_uniform):
        # u barely admissible: conditional argument approaches 1, y is clipped
        _, y = curve_from_conditional(indep_uniform, 0.25, LOWER_LOWER, 0.25 + 1e-12)
        assert y <= 1.0
        assert y == pytest.approx(1.0, abs=1e-6)


class TestSymmetryAndValidation:
    def test_swap_reflection(self, fgm_uniform):
        model = BivariateModel(Exponential(1.0), Uniform01(), FGMCopula(0.5))
        swapped = swap_axes(model)
        curve = curve_points(swapped, 0.2, LOWER_LOWER, 40)
        # swapped-curve points, reflected, sit on the original curve's level set
        probs = orthant_prob(model, LOWER_LOWER, curve.y, curve.x)
        assert np.max(np.abs(probs - 0.2)) <= CURVE_TOL

    def test_curve_requires_increasing_u(self):
        with pytest.raises(DomainError):
            QuantileCurve(p=0.5, direction=LOWER_LOWER, points=np.array([[0.6, 1, 1], [0.5, 2, 2]]))

    def test_curve_shape_validation(self):
        with pytest.raises(DomainError):
            QuantileCurve(p=0.5, direction=LOWER_LOWER, points=np.zeros((3, 2)))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("column", [0, 1, 2], ids=["u", "x", "y"])
    def test_curve_points_finite(self, column, bad):
        # a non-finite point would read as a residual of p or 1 - p, with no error
        points = np.array([[0.3, 1.0, 2.0], [0.5, 1.5, 1.0], [0.7, 2.0, 0.5]])
        points[1, column] = bad
        with pytest.raises(DomainError) as info:
            QuantileCurve(p=0.2, direction=LOWER_LOWER, points=points)
        assert str(info.value) == "points must be finite"

    @pytest.mark.parametrize("p, message", [
        ("x", "p must be a number or an array of numbers, got 'x'"),
        (None, "p must be a number or an array of numbers, got None"),
        (1.5, "p must lie in (0,1), got 1.5"),
        ([0.2, 0.3], "p must be one number, got shape (2,)"),
    ], ids=["string", "none", "above-1", "list"])
    def test_curve_level_checked(self, p, message):
        with pytest.raises(DomainError) as info:
            QuantileCurve(p=p, direction=LOWER_LOWER, points=np.array([[0.3, 1.0, 2.0]]))
        assert str(info.value) == message

    def test_curve_keeps_float_level_and_points(self):
        curve = QuantileCurve(p=np.float32(0.25), direction=LOWER_LOWER, points=[[1, 2, 3], [2, 3, 4]])
        assert type(curve.p) is float and curve.p == 0.25
        assert curve.points.dtype == float and curve.points.flags.f_contiguous
