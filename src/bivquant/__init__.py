"""Bivariate quantile curves and quantile-curve based reliability analysis.

The package computes level-p quantile curves of a bivariate model in the
four orthant directions, the hazard / mean-residual-life functions (and
their reversed-time analogues) built from those curves, numerical inverse
maps recovering the curves from each reliability component, and seeded
Monte Carlo estimators that cross-validate the analytic machinery.
"""

from .curves import CURVE_TOL, QuantileCurve, curve_from_conditional, curve_points, level_residuals
from .errors import (
    BivquantError,
    BoundaryError,
    ConfigError,
    ConvergenceError,
    DegenerateConditioningError,
    DegenerateLevelError,
    DivergenceError,
    DomainError,
    InfiniteMeanError,
    InsufficientMassError,
    IntegrandError,
    ModelSpecError,
    MonotonicityError,
    SignError,
)
from .estimation import SampleSet, empirical_curve, empirical_mrl_first, sample
from .models import (
    ALL_DIRECTIONS,
    LOWER_LOWER,
    LOWER_UPPER,
    UPPER_LOWER,
    UPPER_UPPER,
    BivariateModel,
    Direction,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    Pareto,
    Uniform01,
    Weibull,
    conditional_quantile,
    marginal_quantile,
    model_from_dict,
    orthant_prob,
    swap_axes,
)
from .numerics import NumericConfig, integrate
from .reconstruction import (
    ComponentFunction,
    component_from_model,
    hazard_mrl_identity_residual,
    quantile_from_hazard,
    quantile_from_mrl,
    quantile_from_reversed_hazard,
    quantile_from_reversed_mrl,
)

__version__ = "0.1.0"
