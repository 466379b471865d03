"""Semantic exception hierarchy.

Every failure mode has a named class so callers (and the CLI exit-code
mapping) can distinguish usage mistakes, model-definition problems and
numerical breakdowns without string matching.
"""


class BivquantError(Exception):
    """Base class for every error raised by this package."""


class DomainError(BivquantError, ValueError):
    """An argument lies outside its mathematical domain."""


class BoundaryError(BivquantError, ValueError):
    """A probability argument sits on a boundary where the quantity diverges."""


class DegenerateConditioningError(BivquantError, ValueError):
    """Conditioning event has probability zero (u = 0 for ``le``, u = 1 for ``ge``)."""


class DegenerateLevelError(BivquantError, ValueError):
    """The admissible parameter interval of a quantile curve is empty."""


class IntegrandError(BivquantError, ValueError):
    """Integrand, or the integral built on it, is not finite inside the integration interval."""


class MonotonicityError(BivquantError, RuntimeError):
    """A quantile-type function produced a nonpositive derivative."""


class InfiniteMeanError(BivquantError, ValueError):
    """Mean residual life requested for a marginal with infinite mean."""


class InsufficientMassError(BivquantError, ValueError):
    """Conditioning subsample is too small for a stable empirical estimate."""


class SignError(BivquantError, ValueError):
    """A hazard-type input function produced a nonpositive sample."""


class DivergenceError(BivquantError, RuntimeError):
    """Clipped reconstruction integral keeps growing as the clip shrinks."""


class ModelSpecError(BivquantError, ValueError):
    """Model specification file is malformed or names unknown families/keys."""


class ConfigError(BivquantError, ValueError):
    """Numerics configuration override is malformed or names unknown keys."""


class ConvergenceError(BivquantError, RuntimeError):
    """An iterative special-function kernel hit its iteration cap."""
