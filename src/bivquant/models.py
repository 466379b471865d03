"""Bivariate distribution models.

A :class:`BivariateModel` couples two marginal families through a copula.
Everything downstream (quantile curves, reliability functions,
reconstructions) only needs four ingredients from the model:

* marginal quantiles ``Q(u)`` and their derivatives,
* partial integrals of the quantile function (``int_0^u Q`` and
  ``int_0^u z Q(z) dz``), used for mean-residual-life quantities,
* orthant probabilities in the four quadrant directions,
* conditional CDFs/quantiles of one component given the other lies below
  (or above) a threshold.

Both built-in copulas (independence and the one-parameter θ family
``C(u, v) = uv(1 + θ(1-u)(1-v))``) have conditional CDFs of the quadratic
form ``v + c·v(1-v)``, so conditional quantiles invert in closed form.
"""

from __future__ import annotations

import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np
from scipy import special

from .errors import BoundaryError, DegenerateConditioningError, DomainError, ModelSpecError
from .numerics import NumericConfig, clip_prob

Axis = str  #: "x" or "y"
Sense = str  #: "le" (conditioning on U <= u), "ge" (U >= u), "eq" (U = u, sampling only)

_PUBLIC_SENSES = ("le", "ge")


def _require_axis(axis) -> str:
    if axis not in ("x", "y"):
        raise DomainError(f"axis must be 'x' or 'y', got {axis!r}")
    return axis


def _require_sense(sense) -> str:
    if sense not in _PUBLIC_SENSES:
        raise DomainError(f"sense must be one of {_PUBLIC_SENSES}, got {sense!r}")
    return sense


def _require_real(name: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _require_positive(name: str, value) -> float:
    value = _require_real(name, value)
    if not math.isfinite(value) or value <= 0:
        raise DomainError(f"{name} must be a strictly positive real, got {value!r}")
    return value


class _Family:
    """A named parametric family; subclasses are frozen dataclasses."""

    kind: str

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        for f in fields(self):  # type: ignore[arg-type]
            d[f.name] = getattr(self, f.name)
        return d

    def describe(self) -> str:
        params = ",".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))  # type: ignore[arg-type]
        return f"{self.kind}({params})" if params else self.kind


# ---------------------------------------------------------------------------
# Marginal families
# ---------------------------------------------------------------------------


class Marginal(_Family, ABC):
    """A univariate family with strictly increasing CDF on an interval.

    ``quantile``/``quantile_deriv`` assume arguments already clipped to the
    open interval; the model-level operations do the clipping and boundary
    checks.  All methods broadcast over ndarray input.
    """

    @property
    @abstractmethod
    def support(self) -> tuple[float, float]:
        """(inf, sup) of the support; ``math.inf`` marks an unbounded side."""

    @property
    @abstractmethod
    def mean(self) -> float:
        """Expectation; ``math.inf`` for heavy tails without one."""

    @abstractmethod
    def quantile(self, u):
        ...

    @abstractmethod
    def cdf(self, x):
        ...

    @abstractmethod
    def quantile_deriv(self, u):
        ...

    @abstractmethod
    def quantile_integral(self, u):
        """``int_0^u Q(z) dz`` in closed form."""

    @abstractmethod
    def weighted_quantile_integral(self, u):
        """``int_0^u z Q(z) dz`` in closed form."""

    def quantile_gap_integral(self, u):
        """``int_0^u (Q(u) - Q(z)) dz``, the reversed-mean-residual numerator.

        Families whose quantile does not vanish at 0 override this: the
        plain ``u Q(u) - int_0^u Q`` form cancels catastrophically there.
        """
        u = np.asarray(u, dtype=float)
        return u * self.quantile(u) - self.quantile_integral(u)

    def weighted_quantile_gap_integral(self, u):
        """``int_0^u 2 z (Q(u) - Q(z)) dz`` (equals ``u^2 Q(u) - 2 int_0^u z Q``)."""
        u = np.asarray(u, dtype=float)
        return u * u * self.quantile(u) - 2.0 * self.weighted_quantile_integral(u)

    @property
    def has_finite_mean(self) -> bool:
        return math.isfinite(self.mean)


@dataclass(frozen=True)
class Uniform01(Marginal):
    """Standard uniform; the identity quantile function."""

    kind = "Uniform01"

    @property
    def support(self):
        return (0.0, 1.0)

    @property
    def mean(self):
        return 0.5

    def quantile(self, u):
        return np.asarray(u, dtype=float) + 0.0

    def cdf(self, x):
        return np.clip(np.asarray(x, dtype=float), 0.0, 1.0)

    def quantile_deriv(self, u):
        return np.ones_like(np.asarray(u, dtype=float))

    def quantile_integral(self, u):
        u = np.asarray(u, dtype=float)
        return 0.5 * u * u

    def weighted_quantile_integral(self, u):
        u = np.asarray(u, dtype=float)
        return u**3 / 3.0


@dataclass(frozen=True)
class Exponential(Marginal):
    """Exponential with the given rate; Q(u) = -ln(1-u)/rate."""

    rate: float
    kind = "Exponential"

    def __post_init__(self):
        _require_positive("rate", self.rate)

    @property
    def support(self):
        return (0.0, math.inf)

    @property
    def mean(self):
        return 1.0 / self.rate

    def quantile(self, u):
        return -np.log1p(-np.asarray(u, dtype=float)) / self.rate

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        return np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def quantile_deriv(self, u):
        return 1.0 / (self.rate * (1.0 - np.asarray(u, dtype=float)))

    def quantile_integral(self, u):
        # antiderivative of -ln(1-z) is (1-z)ln(1-z) + z
        u = np.asarray(u, dtype=float)
        om = 1.0 - u
        return (om * np.log(np.maximum(om, 1e-300)) + u) / self.rate

    def weighted_quantile_integral(self, u):
        u = np.asarray(u, dtype=float)
        om = 1.0 - u
        log_om = np.log(np.maximum(om, 1e-300))
        return (0.5 * (1.0 - u * u) * log_om + 0.5 * u + 0.25 * u * u) / self.rate

    @staticmethod
    def _log_tail_series(u, drop: int):
        """sum_{n >= drop+1} u**n / n, i.e. -ln(1-u) minus its first ``drop`` terms."""
        u = np.asarray(u, dtype=float)
        total = np.zeros_like(u)
        term = u ** (drop + 1)
        for n in range(drop + 1, drop + 12):
            total += term / n
            term = term * u
        return total

    def quantile_gap_integral(self, u):
        # closed form (-ln(1-u) - u) loses all digits as u -> 0
        u = np.asarray(u, dtype=float)
        w = -np.log1p(-u)
        small = u < 0.01
        series = self._log_tail_series(np.where(small, u, 0.0), drop=1)
        return np.where(small, series, w - u) / self.rate

    def weighted_quantile_gap_integral(self, u):
        u = np.asarray(u, dtype=float)
        w = -np.log1p(-u)
        small = u < 0.01
        series = self._log_tail_series(np.where(small, u, 0.0), drop=2)
        return np.where(small, series, w - u - 0.5 * u * u) / self.rate


@dataclass(frozen=True)
class Pareto(Marginal):
    """Pareto on [scale, inf); CDF(x) = 1 - (scale/x)**shape."""

    scale: float
    shape: float
    kind = "Pareto"

    def __post_init__(self):
        _require_positive("scale", self.scale)
        _require_positive("shape", self.shape)

    @property
    def support(self):
        return (self.scale, math.inf)

    @property
    def mean(self):
        if self.shape <= 1.0:
            return math.inf
        return self.scale * self.shape / (self.shape - 1.0)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * (1.0 - u) ** (-1.0 / self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        inside = x > self.scale
        ratio = self.scale / np.maximum(x, self.scale)
        return np.where(inside, 1.0 - ratio**self.shape, 0.0)

    def quantile_deriv(self, u):
        u = np.asarray(u, dtype=float)
        b = 1.0 / self.shape
        return self.scale * b * (1.0 - u) ** (-b - 1.0)

    @staticmethod
    def _one_minus_power_integral(u, expo):
        # int_0^u (1-z)**expo dz, valid for expo != -1
        if expo == -1.0:
            return -np.log1p(-u)
        return (1.0 - (1.0 - u) ** (expo + 1.0)) / (expo + 1.0)

    def quantile_integral(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * self._one_minus_power_integral(u, -1.0 / self.shape)

    def weighted_quantile_integral(self, u):
        u = np.asarray(u, dtype=float)
        b = 1.0 / self.shape
        # z(1-z)**-b = (1-z)**-b - (1-z)**(1-b)
        return self.scale * (
            self._one_minus_power_integral(u, -b) - self._one_minus_power_integral(u, 1.0 - b)
        )

    def _gap_series(self, u, weighted: bool):
        """Binomial-series gaps: Q/scale = sum C_n u**n with C_n rising in b."""
        u = np.asarray(u, dtype=float)
        b = 1.0 / self.shape
        total = np.zeros_like(u)
        coeff = 1.0
        upow = u * u  # u**(n+1) at n = 1
        for n in range(1, 17):
            coeff *= (b + n - 1.0) / n
            frac = n / (n + 2.0) if weighted else n / (n + 1.0)
            total += coeff * upow * frac
            upow = upow * u
        return self.scale * (total * u if weighted else total)

    def quantile_gap_integral(self, u):
        # u Q(u) - int_0^u Q cancels near 0 because Q(0) = scale > 0
        u = np.asarray(u, dtype=float)
        small = u < 0.05
        series = self._gap_series(np.where(small, u, 0.0), weighted=False)
        closed = u * self.quantile(u) - self.quantile_integral(u)
        return np.where(small, series, closed)

    def weighted_quantile_gap_integral(self, u):
        u = np.asarray(u, dtype=float)
        small = u < 0.05
        series = self._gap_series(np.where(small, u, 0.0), weighted=True)
        closed = u * u * self.quantile(u) - 2.0 * self.weighted_quantile_integral(u)
        return np.where(small, series, closed)


@dataclass(frozen=True)
class Weibull(Marginal):
    """Weibull with scale/shape; Q(u) = scale * (-ln(1-u))**(1/shape)."""

    scale: float
    shape: float
    kind = "Weibull"

    def __post_init__(self):
        _require_positive("scale", self.scale)
        _require_positive("shape", self.shape)

    @property
    def support(self):
        return (0.0, math.inf)

    @property
    def mean(self):
        return self.scale * special.gamma(1.0 + 1.0 / self.shape)

    def quantile(self, u):
        u = np.asarray(u, dtype=float)
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = (np.maximum(x, 0.0) / self.scale) ** self.shape
        return np.where(x > 0.0, -np.expm1(-z), 0.0)

    def quantile_deriv(self, u):
        u = np.asarray(u, dtype=float)
        t = -np.log1p(-u)
        c = 1.0 / self.shape
        return self.scale * c * t ** (c - 1.0) / (1.0 - u)

    def quantile_integral(self, u):
        # substitute t = -ln(1-z): int_0^T t**(1/shape) e**-t dt; u = 1 maps to T = inf
        u = np.asarray(u, dtype=float)
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            t = -np.log1p(-u)
        return self.scale * special.gamma(a) * special.gammainc(a, t)

    def weighted_quantile_integral(self, u):
        u = np.asarray(u, dtype=float)
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            t = -np.log1p(-u)
        ga = special.gamma(a)
        return self.scale * ga * (special.gammainc(a, t) - 2.0**-a * special.gammainc(a, 2.0 * t))


_MARGINAL_REGISTRY: dict[str, type] = {
    "Uniform01": Uniform01,
    "Exponential": Exponential,
    "Pareto": Pareto,
    "Weibull": Weibull,
}


# ---------------------------------------------------------------------------
# Copulas
# ---------------------------------------------------------------------------


def _quad_cdf(v, c):
    """Conditional CDF of the quadratic family: v + c*v*(1-v)."""
    return v * (1.0 + c * (1.0 - v))


def _quad_inv(p, c):
    """Root in [0, 1] of v + c*v*(1-v) = p, stable for c of either sign."""
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    disc = (1.0 + c) ** 2 - 4.0 * c * p
    return 2.0 * p / (1.0 + c + np.sqrt(np.maximum(disc, 0.0)))


def _quad_deriv(v, c):
    return 1.0 + c * (1.0 - 2.0 * v)


class Copula(_Family, ABC):
    """Bivariate copula whose conditional CDFs are quadratic in v.

    ``cond_linear_coeff(sense, u)`` returns the coefficient ``c`` of
    ``v + c*v*(1-v)`` for the three conditioning senses: ``"le"``
    (``V | U <= u``), ``"ge"`` (``V | U >= u``) and ``"eq"``
    (``V | U = u``, the derivative copula used for sampling).  Both
    built-ins are exchangeable, so swapping the axes keeps the copula.
    """

    @abstractmethod
    def cdf(self, u, v):
        ...

    @abstractmethod
    def cond_linear_coeff(self, sense: Sense, u):
        ...

    def cond_cdf(self, sense: Sense, u, v):
        return _quad_cdf(np.asarray(v, dtype=float), self.cond_linear_coeff(sense, u))

    def cond_quantile(self, sense: Sense, u, p):
        return _quad_inv(p, self.cond_linear_coeff(sense, u))

    def cond_cdf_deriv(self, sense: Sense, u, v):
        return _quad_deriv(np.asarray(v, dtype=float), self.cond_linear_coeff(sense, u))


@dataclass(frozen=True)
class IndependenceCopula(Copula):
    kind = "Independence"

    def cdf(self, u, v):
        return np.asarray(u, dtype=float) * np.asarray(v, dtype=float)

    def cond_linear_coeff(self, sense, u):
        if sense not in ("le", "ge", "eq"):
            raise DomainError(f"unknown conditioning sense {sense!r}")
        return np.zeros_like(np.asarray(u, dtype=float))


@dataclass(frozen=True)
class FGMCopula(Copula):
    """One-parameter family uv(1 + theta(1-u)(1-v)), theta in [-1, 1]."""

    theta: float
    kind = "FGM"

    def __post_init__(self):
        theta = _require_real("theta", self.theta)
        if not math.isfinite(theta) or not -1.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [-1, 1], got {self.theta!r}")

    def cdf(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return u * v * (1.0 + self.theta * (1.0 - u) * (1.0 - v))

    def cond_linear_coeff(self, sense, u):
        u = np.asarray(u, dtype=float)
        if sense == "le":
            return self.theta * (1.0 - u)
        if sense == "ge":
            return -self.theta * u
        if sense == "eq":
            return self.theta * (1.0 - 2.0 * u)
        raise DomainError(f"unknown conditioning sense {sense!r}")


_COPULA_REGISTRY: dict[str, type] = {
    "Independence": IndependenceCopula,
    "FGM": FGMCopula,
}


# ---------------------------------------------------------------------------
# Directions and the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """Orthant direction (eps1, eps2); -1 selects {<= threshold}, +1 {>=}."""

    eps1: int
    eps2: int

    def __post_init__(self):
        if self.eps1 not in (-1, 1) or self.eps2 not in (-1, 1):
            raise DomainError(f"direction signs must be -1 or +1, got ({self.eps1}, {self.eps2})")

    @classmethod
    def from_string(cls, s: str) -> "Direction":
        # letter aliases exist because '--' and '-+' fight shell/argparse parsing
        signs = {"-": -1, "+": 1, "m": -1, "p": 1}
        if not isinstance(s, str) or len(s) != 2 or s[0] not in signs or s[1] not in signs:
            raise DomainError(
                f"direction must be one of '--', '+-', '-+', '++' (or mm/pm/mp/pp), got {s!r}"
            )
        return cls(signs[s[0]], signs[s[1]])

    def __str__(self) -> str:
        return ("-" if self.eps1 < 0 else "+") + ("-" if self.eps2 < 0 else "+")

    def swapped(self) -> "Direction":
        return Direction(self.eps2, self.eps1)


LOWER_LOWER = Direction(-1, -1)
UPPER_LOWER = Direction(1, -1)
LOWER_UPPER = Direction(-1, 1)
UPPER_UPPER = Direction(1, 1)
ALL_DIRECTIONS = (LOWER_LOWER, UPPER_LOWER, LOWER_UPPER, UPPER_UPPER)


@dataclass(frozen=True)
class BivariateModel:
    """Two marginals coupled by a copula; immutable and hashable-by-value."""

    marginal_x: Marginal
    marginal_y: Marginal
    copula: Copula

    def marginal(self, axis: Axis) -> Marginal:
        return self.marginal_x if _require_axis(axis) == "x" else self.marginal_y

    def describe(self) -> str:
        return f"{self.copula.describe()}|{self.marginal_x.describe()}|{self.marginal_y.describe()}"

    def to_dict(self) -> dict:
        return {
            "marginal_x": self.marginal_x.to_dict(),
            "marginal_y": self.marginal_y.to_dict(),
            "copula": self.copula.to_dict(),
        }


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def _as_prob_array(name: str, value):
    arr = np.asarray(value, dtype=float)
    if np.any(~np.isfinite(arr)) or np.any(arr < 0.0) or np.any(arr > 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return arr


def marginal_quantile(model: BivariateModel, axis: Axis, u, cfg: NumericConfig | None = None):
    """Marginal quantile Q(u); strictly increasing in u.

    Exact endpoints are honoured when the corresponding support endpoint is
    finite and raise :class:`BoundaryError` otherwise; interior arguments
    are clipped to ``[eps_boundary, 1 - eps_boundary]``.
    """
    fam = model.marginal(axis)
    arr = _as_prob_array("u", u)
    scalar = arr.ndim == 0
    lo, hi = fam.support
    if math.isinf(hi) and np.any(arr == 1.0):
        raise BoundaryError(f"u = 1 requests the upper endpoint of an unbounded support ({fam.kind})")
    if math.isinf(lo) and np.any(arr == 0.0):
        raise BoundaryError(f"u = 0 requests the lower endpoint of an unbounded support ({fam.kind})")
    interior = (arr > 0.0) & (arr < 1.0)
    clipped = np.where(interior, clip_prob(arr, cfg), arr)
    out = fam.quantile(clipped)
    return float(out) if scalar else out


def orthant_prob(model: BivariateModel, direction: Direction, x, y):
    """Probability of the direction-selected quadrant anchored at (x, y)."""
    F = model.marginal_x.cdf(x)
    G = model.marginal_y.cdf(y)
    C = model.copula.cdf(F, G)
    if direction.eps1 < 0 and direction.eps2 < 0:
        out = C
    elif direction.eps1 > 0 and direction.eps2 < 0:
        out = G - C
    elif direction.eps1 < 0 and direction.eps2 > 0:
        out = F - C
    else:
        out = 1.0 - F - G + C
    return float(out) if np.ndim(out) == 0 else out


def _validated_conditioning(sense: Sense, conditioning_u, cfg: NumericConfig | None):
    sense = _require_sense(sense)
    arr = _as_prob_array("conditioning_u", conditioning_u)
    if sense == "le" and np.any(arr == 0.0):
        raise DegenerateConditioningError("conditioning event {X <= Q_X(0)} has probability zero")
    if sense == "ge" and np.any(arr == 1.0):
        raise DegenerateConditioningError("conditioning event {X >= Q_X(1)} has probability zero")
    return sense, clip_prob(arr, cfg)


def conditional_cdf(
    model: BivariateModel, sense: Sense, conditioning_u, y, cfg: NumericConfig | None = None
):
    """CDF of Y given {X <= Q_X(u)} (``le``) or {X >= Q_X(u)} (``ge``)."""
    sense, uc = _validated_conditioning(sense, conditioning_u, cfg)
    v = model.marginal_y.cdf(y)
    out = model.copula.cond_cdf(sense, uc, v)
    return float(out) if np.ndim(out) == 0 else out


def conditional_quantile(
    model: BivariateModel, sense: Sense, conditioning_u, p, cfg: NumericConfig | None = None
):
    """Unique y with ``conditional_cdf(model, sense, u, y) = p``.

    Uses the closed-form inverse of the copula's quadratic conditional.
    """
    sense, uc = _validated_conditioning(sense, conditioning_u, cfg)
    parr = _as_prob_array("p", p)
    scalar = parr.ndim == 0 and np.ndim(conditioning_u) == 0
    pc = clip_prob(parr, cfg)
    v = clip_prob(model.copula.cond_quantile(sense, uc, pc), cfg)
    out = model.marginal_y.quantile(v)
    return float(out) if scalar else out


def swap_axes(model: BivariateModel) -> BivariateModel:
    """Model of (Y, X); an involution (the built-in copulas are exchangeable)."""
    return BivariateModel(model.marginal_y, model.marginal_x, model.copula)


# ---------------------------------------------------------------------------
# Model specification files
# ---------------------------------------------------------------------------


def _component_from_dict(section: str, d, registry: dict[str, type]):
    if not isinstance(d, dict):
        raise ModelSpecError(f"{section} must be an object, got {type(d).__name__}")
    if "kind" not in d:
        raise ModelSpecError(f"{section} is missing the 'kind' key")
    kind = d["kind"]
    cls = registry.get(kind)
    if cls is None:
        raise ModelSpecError(f"unknown {section} kind {kind!r}; expected one of {sorted(registry)}")
    params = {k: v for k, v in d.items() if k != "kind"}
    expected = {f.name for f in fields(cls)}
    unknown = set(params) - expected
    if unknown:
        raise ModelSpecError(f"unknown {section} keys for {kind}: {sorted(unknown)}")
    missing = expected - set(params)
    if missing:
        raise ModelSpecError(f"missing {section} keys for {kind}: {sorted(missing)}")
    try:
        return cls(**params)
    except DomainError as exc:
        raise ModelSpecError(f"invalid {section} parameters for {kind}: {exc}") from exc


def model_from_dict(d) -> BivariateModel:
    """Parse the strict JSON object {"marginal_x", "marginal_y", "copula"}."""
    if not isinstance(d, dict):
        raise ModelSpecError(f"model specification must be an object, got {type(d).__name__}")
    expected = {"marginal_x", "marginal_y", "copula"}
    unknown = set(d) - expected
    if unknown:
        raise ModelSpecError(f"unknown model keys: {sorted(unknown)}")
    missing = expected - set(d)
    if missing:
        raise ModelSpecError(f"missing model keys: {sorted(missing)}")
    return BivariateModel(
        marginal_x=_component_from_dict("marginal_x", d["marginal_x"], _MARGINAL_REGISTRY),
        marginal_y=_component_from_dict("marginal_y", d["marginal_y"], _MARGINAL_REGISTRY),
        copula=_component_from_dict("copula", d["copula"], _COPULA_REGISTRY),
    )
