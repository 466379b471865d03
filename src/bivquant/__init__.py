"""Bivariate quantile curves and quantile-curve based reliability analysis.

The package computes level-p quantile curves of a bivariate model in the
four orthant directions, the hazard / mean-residual-life functions (and
their reversed-time analogues) built from those curves, numerical inverse
maps recovering the curves from each reliability component, and seeded
Monte Carlo estimators that cross-validate the analytic machinery.

``import bivquant`` loads none of its modules: each public name is imported
from its module on first access (PEP 562), so a process compiles only the
modules it uses.
"""

from importlib import import_module

#: Every public name, by the module that defines it.
_EXPORTS = {
    "curves": ("CURVE_TOL", "QuantileCurve", "curve_from_conditional", "curve_points", "level_residuals"),
    "errors": ("BivquantError", "BoundaryError", "ConfigError", "ConvergenceError", "DegenerateConditioningError",
               "DegenerateLevelError", "DivergenceError", "DomainError", "InfiniteMeanError", "InsufficientMassError",
               "IntegrandError", "ModelSpecError", "MonotonicityError", "SignError"),
    "estimation": ("SampleSet", "empirical_curve", "empirical_mrl_first", "sample"),
    "models": ("ALL_DIRECTIONS", "LOWER_LOWER", "LOWER_UPPER", "UPPER_LOWER", "UPPER_UPPER", "BivariateModel",
               "Direction", "Exponential", "FGMCopula", "IndependenceCopula", "Pareto", "Uniform01", "Weibull",
               "conditional_quantile", "marginal_quantile", "model_from_dict", "orthant_prob", "swap_axes"),
    "numerics": ("NumericConfig", "integrate"),
    "reconstruction": ("ComponentFunction", "component_from_model", "hazard_mrl_identity_residual",
                       "quantile_from_hazard", "quantile_from_mrl", "quantile_from_reversed_hazard",
                       "quantile_from_reversed_mrl"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later reads find it without this call
    return value


def __dir__():
    return sorted({*globals(), *__all__})
