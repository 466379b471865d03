"""Bivariate distribution models.

A :class:`BivariateModel` couples two marginal families through a copula.
Everything downstream (quantile curves, reliability functions,
reconstructions) only needs four ingredients from the model:

* marginal quantiles ``Q(u)`` and their derivatives,
* partial integrals of the quantile function (``int_0^u Q`` and
  ``int_0^u z Q(z) dz``), used for mean-residual-life quantities,
* orthant probabilities in the four quadrant directions,
* conditional quantiles of one component given the other lies below
  (or above) a threshold.

Both built-in copulas (independence and the one-parameter θ family
``C(u, v) = uv(1 + θ(1-u)(1-v))``) have conditional CDFs of the quadratic
form ``v + c·v(1-v)``, so conditional quantiles invert in closed form.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, fields

import numpy as np

from .errors import BoundaryError, ConvergenceError, DegenerateConditioningError, DomainError, ModelSpecError
from .numerics import (NumericConfig, clip_prob, require_choice, require_keys, require_numbers, require_probs,
                       require_real)

Axis = str  #: "x" or "y"
Sense = str  #: "le" (conditioning on U <= u), "ge" (U >= u), "eq" (U = u, sampling only)

_PUBLIC_SENSES = ("le", "ge")
_SENSES = ("le", "ge", "eq")  #: a copula takes all three


class _Family:
    """A named parametric family; subclasses are frozen dataclasses."""

    kind: str

    def describe(self) -> str:
        params = ",".join(f"{f.name}={getattr(self, f.name):g}" for f in fields(self))  # type: ignore[arg-type]
        return f"{self.kind}({params})" if params else self.kind


# ---------------------------------------------------------------------------
# Marginal families
# ---------------------------------------------------------------------------


#: The marginal kernels; every family holds its own copy of each, wrapped by :func:`_on_1d`.
KERNELS = ("quantile", "quantile_deriv", "cdf", "quantile_integral", "weighted_quantile_integral",
           "quantile_gap_integral", "weighted_quantile_gap_integral")


def _on_1d(body):
    """``body`` run on its argument as a 1-d float array, its result reshaped to the argument's shape."""

    @functools.wraps(body)
    def kernel(self, u):
        u = np.asarray(u, dtype=float)
        return body(self, u.reshape(-1)).reshape(u.shape)[()]

    return kernel


class Marginal(_Family, ABC):
    """A univariate family with strictly increasing CDF on an interval.

    ``quantile``/``quantile_deriv`` assume arguments already clipped to the
    open interval; the model-level operations do the clipping and boundary
    checks.  Each kernel of :data:`KERNELS` computes on its argument as a
    1-d float array and returns the argument's shape (a numpy scalar at 0-d),
    so a 0-d call is a one-point grid: it equals the grid value bit for bit.
    The kernels are the one source of the numbers a family reports: its
    ``support`` is ``(Q(0), Q(1))`` and its ``mean`` is ``int_0^1 Q``, each
    read once at construction, as is ``has_finite_mean``; ``inf`` marks an
    unbounded side or a tail without a mean.  Each parameter is kept as the
    positive float ``require_real`` returns before a kernel reads it.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._plain_gaps = all(getattr(cls, n) is getattr(Marginal, n) for n in KERNELS[-2:])  # Marginal's gap forms
        for name in KERNELS:
            body = getattr(cls, name)  # inherited gap forms too: each family holds all seven in its __dict__
            if not getattr(body, "__isabstractmethod__", False):
                setattr(cls, name, _on_1d(body))

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, require_real(f.name, getattr(self, f.name), DomainError, positive=True))
        with np.errstate(all="ignore"):  # an unbounded side or a tail without a mean reads inf
            low, high = self.quantile(np.array([0.0, 1.0]))
            mean = self.quantile_integral(1.0)
        object.__setattr__(self, "support", (float(low), float(high)))
        object.__setattr__(self, "mean", float(mean))
        object.__setattr__(self, "has_finite_mean", math.isfinite(mean))

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
        return u * self.quantile(u) - self.quantile_integral(u)

    def weighted_quantile_gap_integral(self, u):
        """``int_0^u 2 z (Q(u) - Q(z)) dz`` (equals ``u^2 Q(u) - 2 int_0^u z Q``)."""
        return u * u * self.quantile(u) - 2.0 * self.weighted_quantile_integral(u)


@dataclass(frozen=True)
class Uniform01(Marginal):
    """Standard uniform; the identity quantile function."""

    kind = "Uniform01"

    def quantile(self, u):
        return u + 0.0

    def cdf(self, x):
        return np.clip(x, 0.0, 1.0)

    def quantile_deriv(self, u):
        return np.ones_like(u)

    def quantile_integral(self, u):
        return 0.5 * u * u

    def weighted_quantile_integral(self, u):
        return u**3 / 3.0


@dataclass(frozen=True)
class Exponential(Marginal):
    """Exponential with the given rate; Q(u) = -ln(1-u)/rate."""

    rate: float
    kind = "Exponential"

    def quantile(self, u):
        return -np.log1p(-u) / self.rate

    def cdf(self, x):
        return np.where(x > 0.0, -np.expm1(-self.rate * np.maximum(x, 0.0)), 0.0)

    def quantile_deriv(self, u):
        return 1.0 / (self.rate * (1.0 - u))

    def quantile_integral(self, u):
        # antiderivative of -ln(1-z) is (1-z)ln(1-z) + z
        om = 1.0 - u
        return (om * np.log(np.maximum(om, 1e-300)) + u) / self.rate

    def weighted_quantile_integral(self, u):
        om = 1.0 - u
        log_om = np.log(np.maximum(om, 1e-300))
        return (0.5 * (1.0 - u * u) * log_om + 0.5 * u + 0.25 * u * u) / self.rate

    @staticmethod
    def _log_tail_series(u, drop: int):
        """sum_{n >= drop+1} u**n / n, i.e. -ln(1-u) minus its first ``drop`` terms."""
        total = np.zeros_like(u)
        term = u ** (drop + 1)
        for n in range(drop + 1, drop + 12):
            total += term / n
            term = term * u
        return total

    def quantile_gap_integral(self, u):
        # closed form (-ln(1-u) - u) loses all digits as u -> 0, so below 0.01 the series replaces it
        small = u < 0.01
        gap = -np.log1p(-u) - u
        gap[small] = self._log_tail_series(u[small], drop=1)
        return gap / self.rate

    def weighted_quantile_gap_integral(self, u):
        small = u < 0.01
        gap = -np.log1p(-u) - u - 0.5 * u * u
        gap[small] = self._log_tail_series(u[small], drop=2)
        return gap / self.rate


@dataclass(frozen=True)
class Pareto(Marginal):
    """Pareto on [scale, inf); CDF(x) = 1 - (scale/x)**shape."""

    scale: float
    shape: float
    kind = "Pareto"

    def quantile(self, u):
        return self.scale * (1.0 - u) ** (-1.0 / self.shape)

    def cdf(self, x):
        inside = x > self.scale
        ratio = self.scale / np.maximum(x, self.scale)
        return np.where(inside, 1.0 - ratio**self.shape, 0.0)

    def quantile_deriv(self, u):
        b = 1.0 / self.shape
        return self.scale * b * (1.0 - u) ** (-b - 1.0)

    @staticmethod
    def _one_minus_power_integral(u, k):
        # int_0^u (1-z)**(k-1) dz; at k = 0 the power is 1/(1-z)
        if k == 0.0:
            return -np.log1p(-u)
        return (1.0 - (1.0 - u) ** k) / k

    def quantile_integral(self, u):
        # k = 1 - 1/shape as (shape - 1)/shape: shape - 1 is exact near 1, so int_0^1 Q = scale/k is the mean to an ulp
        return self.scale * self._one_minus_power_integral(u, (self.shape - 1.0) / self.shape)

    def weighted_quantile_integral(self, u):
        # z(1-z)**-b = (1-z)**-b - (1-z)**(1-b), b = 1/shape
        return self.scale * (self._one_minus_power_integral(u, (self.shape - 1.0) / self.shape)
                             - self._one_minus_power_integral(u, (2.0 * self.shape - 1.0) / self.shape))

    def _gap_series(self, u, weighted: bool):
        """Binomial-series gaps: Q/scale = sum C_n u**n with C_n rising in b."""
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
        # u Q(u) - int_0^u Q cancels near 0 because Q(0) = scale > 0, so below 0.05 the series replaces it
        small = u < 0.05
        gap = u * self.quantile(u) - self.quantile_integral(u)
        gap[small] = self._gap_series(u[small], weighted=False)
        return gap

    def weighted_quantile_gap_integral(self, u):
        small = u < 0.05
        gap = u * u * self.quantile(u) - 2.0 * self.weighted_quantile_integral(u)
        gap[small] = self._gap_series(u[small], weighted=True)
        return gap


_EPS = float(np.finfo(float).eps)
_WEIGHTED_SERIES_SPLIT = 1.0  #: t = -ln(1-u) below which the Weibull weighted integral sums its series
_MAX_TERMS = 1024  #: step cap of the P(a, x) loops; a = 171.6, the largest a Weibull admits, takes 539


@functools.lru_cache(maxsize=64)
def _gamma_p_constants(a: float) -> tuple[int, float, tuple[float, ...]]:
    """P(a, x)'s fraction depth, scale K and series coefficients; lengths as converged at x = 3(a+1)."""
    x = 3.0 * (a + 1.0)
    term, total, terms = 1.0, 1.0, 0
    while term > _EPS * total and terms < _MAX_TERMS:
        terms += 1
        term *= x / (a + terms)
        total += term
    b, c, d, delta, depth = x + 1.0 - a, math.inf, 1.0 / (x + 1.0 - a), 0.0, 0
    while abs(delta - 1.0) > _EPS and depth < _MAX_TERMS:  # modified Lentz
        depth, b = depth + 1, b + 2.0
        d = 1.0 / (depth * (a - depth) * d + b)
        c = b + depth * (a - depth) / c
        delta = c * d
    if term > _EPS * total or abs(delta - 1.0) > _EPS:
        raise ConvergenceError(f"incomplete gamma P(a, x) did not converge in {_MAX_TERMS} steps at a = {a!r}")
    k = (math.pow(a, a / 2) * math.exp(-a / 2) / math.sqrt(math.gamma(a))) ** 2
    return depth, k, tuple(np.cumprod(x / (a + np.arange(1.0, terms + 1.0)))[::-1].tolist())


def _regularized_gamma_p(a: float, x):
    """P(a, x) = γ(a, x)/Γ(a) for a scalar a > 0 and x >= 0 (inf allowed), any shape.

    The series ``sum_n x^n / ((a+1)...(a+n))`` in Horner form below x = 3(a+1), the continued
    fraction for Q = 1 - P from its tail above (Numerical Recipes §6.2), each to a length set by a
    alone.  Both scale by ``x^a e^-x / Γ(a) = K w^a``, ``K = a^a e^-a / Γ(a)``, ``w = (x/a) e^(1-x/a) <= 1``.
    """
    x = np.asarray(x, dtype=float)
    split, (depth, k, coeffs) = 3.0 * (a + 1.0), _gamma_p_constants(a)
    p = np.where(x == math.inf, 1.0, math.nan)
    below, above = x < split, (x >= split) & (x < math.inf)
    xs, xc = x[below], x[above]
    y, total = xs / split, np.zeros_like(xs)
    for coeff in coeffs if xs.size else ():
        total += coeff
        total *= y
    # rounding over hundreds of terms can lift the series a few ulps above 1 at large a
    p[below] = np.minimum(k / a * (xs / a * np.exp(1.0 - xs / a)) ** a * (total + 1.0), 1.0)
    f = xc + (2.0 * depth + 1.0 - a)
    for m in range(depth if xc.size else 0, 0, -1):
        f = xc + (2.0 * m - 1.0 - a + m * (a - m) / f)
    p[above] = 1.0 - k * (xc / a * np.exp(1.0 - xc / a)) ** a / f
    return p


@functools.lru_cache(maxsize=64)
def _weighted_series(a: float) -> tuple[float, ...]:
    """``(1 - 2^k) / (k! (a+k))`` for k = 40 down to 1: the Weibull weighted integral's Horner coefficients."""
    return tuple((1.0 - 2.0**k) / (math.factorial(k) * (a + k)) for k in range(40, 0, -1))


@dataclass(frozen=True)
class Weibull(Marginal):
    """Weibull with scale/shape; Q(u) = scale * (-ln(1-u))**(1/shape)."""

    scale: float
    shape: float
    kind = "Weibull"

    def __post_init__(self):
        shape = require_real("shape", self.shape, DomainError, positive=True)
        if 1.0 / shape > 170.62:  # Γ(1 + 1/shape), which the mean reads, overflows
            raise DomainError(f"Weibull shape {shape!r} is below 0.00586: gamma(1 + 1/shape) overflows")
        super().__post_init__()

    def quantile(self, u):
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)

    def cdf(self, x):
        z = (np.maximum(x, 0.0) / self.scale) ** self.shape
        return np.where(x > 0.0, -np.expm1(-z), 0.0)

    def quantile_deriv(self, u):
        t = -np.log1p(-u)
        c = 1.0 / self.shape
        return self.scale * c * t ** (c - 1.0) / (1.0 - u)

    def quantile_integral(self, u):
        # substitute t = -ln(1-z): int_0^T t**(1/shape) e**-t dt; u = 1 maps to T = inf
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            t = -np.log1p(-u)
        return self.scale * math.gamma(a) * _regularized_gamma_p(a, t)

    def weighted_quantile_integral(self, u):
        # int_0^T t**(a-1) (e**-t - e**-2t) dt: P(a, t) - 2**-a P(a, 2t) cancels like t as u -> 0, so below
        # the split sum t**a sum_{k>=1} (-t)**k (1 - 2**k) / (k! (a+k)), whose terms round off before k = 40
        a = 1.0 + 1.0 / self.shape
        with np.errstate(divide="ignore"):
            t = -np.log1p(-u)
        small = t < _WEIGHTED_SERIES_SPLIT
        out = np.empty_like(t)
        at_t, at_2t = _regularized_gamma_p(a, np.stack([t[~small], 2.0 * t[~small]]))
        out[~small] = self.scale * math.gamma(a) * (at_t - 2.0**-a * at_2t)
        ts = t[small]
        neg_ts, total = -ts, np.zeros_like(ts)
        for coeff in _weighted_series(a) if ts.size else ():
            total += coeff
            total *= neg_ts
        out[small] = self.scale * ts**a * total
        return out


_MARGINAL_REGISTRY: dict[str, type] = {cls.kind: cls for cls in (Uniform01, Exponential, Pareto, Weibull)}


# ---------------------------------------------------------------------------
# Copulas
# ---------------------------------------------------------------------------


def _quad_inv(p, c):
    """Root in [0, 1] of v + c*v*(1-v) = p, stable for c of either sign."""
    p = np.asarray(p, dtype=float)
    c = np.asarray(c, dtype=float)
    disc = (1.0 + c) ** 2 - 4.0 * c * p
    return 2.0 * p / (1.0 + c + np.sqrt(np.maximum(disc, 0.0)))


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

    def cond_quantile(self, sense: Sense, u, p):
        return _quad_inv(p, self.cond_linear_coeff(sense, u))


@dataclass(frozen=True)
class IndependenceCopula(Copula):
    kind = "Independence"

    def cdf(self, u, v):
        return np.asarray(u, dtype=float) * np.asarray(v, dtype=float)

    def cond_linear_coeff(self, sense, u):
        require_choice("sense", sense, _SENSES)
        return np.zeros_like(np.asarray(u, dtype=float))

    def cond_quantile(self, sense, u, p):
        # _quad_inv at c = 0 computes 2p / (1 + 1), which is p exactly
        require_choice("sense", sense, _SENSES)
        p = np.asarray(p, dtype=float)
        return np.broadcast_to(p, np.broadcast_shapes(np.shape(u), p.shape))


@dataclass(frozen=True)
class FGMCopula(Copula):
    """One-parameter family uv(1 + theta(1-u)(1-v)), theta in [-1, 1]."""

    theta: float
    kind = "FGM"

    def __post_init__(self):
        theta = require_real("theta", self.theta, DomainError)
        if not -1.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [-1, 1], got {theta!r}")
        object.__setattr__(self, "theta", theta)

    def cdf(self, u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        return u * v * (1.0 + self.theta * (1.0 - u) * (1.0 - v))

    def cond_linear_coeff(self, sense, u):
        u = np.asarray(u, dtype=float)
        if require_choice("sense", sense, _SENSES) == "le":
            return self.theta * (1.0 - u)
        if sense == "ge":
            return -self.theta * u
        return self.theta * (1.0 - 2.0 * u)


_COPULA_REGISTRY: dict[str, type] = {cls.kind: cls for cls in (IndependenceCopula, FGMCopula)}


# ---------------------------------------------------------------------------
# Directions and the model
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Direction:
    """Orthant direction (eps1, eps2); -1 selects {<= threshold}, +1 {>=}."""

    eps1: int
    eps2: int

    def __post_init__(self):
        if any(isinstance(e, (bool, np.bool_)) or e not in (-1, 1) for e in (self.eps1, self.eps2)):
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
        return self.marginal_x if require_choice("axis", axis, ("x", "y")) == "x" else self.marginal_y


# ---------------------------------------------------------------------------
# Operations
# ---------------------------------------------------------------------------


def marginal_quantile(model: BivariateModel, axis: Axis, u, cfg: NumericConfig | None = None):
    """Marginal quantile Q(u); strictly increasing in u.

    Exact endpoints are honoured (every built-in support starts at a finite
    point), except that u = 1 raises :class:`BoundaryError` when the support
    is unbounded above; interior arguments are clipped to
    ``[eps_boundary, 1 - eps_boundary]``.
    """
    fam = model.marginal(axis)
    arr = require_probs("u", u, closed=True)
    scalar = arr.ndim == 0
    if math.isinf(fam.support[1]) and np.any(arr == 1.0):
        raise BoundaryError(f"u = 1 requests the upper endpoint of an unbounded support ({fam.kind})")
    interior = (arr > 0.0) & (arr < 1.0)
    clipped = np.where(interior, clip_prob(arr, cfg), arr)
    out = fam.quantile(clipped)
    return float(out) if scalar else out


def orthant_prob(model: BivariateModel, direction: Direction, x, y):
    """Probability of the direction-selected quadrant anchored at (x, y)."""
    F = model.marginal_x.cdf(require_numbers("x", x))
    G = model.marginal_y.cdf(require_numbers("y", y))
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
    sense = require_choice("sense", sense, _PUBLIC_SENSES)
    arr = require_probs("conditioning_u", conditioning_u, closed=True)
    if sense == "le" and np.any(arr == 0.0):
        raise DegenerateConditioningError("conditioning event {X <= Q_X(0)} has probability zero")
    if sense == "ge" and np.any(arr == 1.0):
        raise DegenerateConditioningError("conditioning event {X >= Q_X(1)} has probability zero")
    return sense, clip_prob(arr, cfg)


def conditional_quantile(
    model: BivariateModel, sense: Sense, conditioning_u, p, cfg: NumericConfig | None = None
):
    """Unique y whose CDF given {X <= Q_X(u)} (``le``) or {X >= Q_X(u)} (``ge``) equals p.

    Q_Y at the exact closed-form root of the copula's quadratic conditional at the clipped ``conditioning_u`` and ``p``.
    """
    sense, uc = _validated_conditioning(sense, conditioning_u, cfg)
    parr = require_probs("p", p, closed=True)
    scalar = parr.ndim == 0 and np.ndim(conditioning_u) == 0
    out = model.marginal_y.quantile(model.copula.cond_quantile(sense, uc, clip_prob(parr, cfg)))
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
    cls = registry.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ModelSpecError(f"unknown {section} kind {kind!r}; expected one of {sorted(registry)}")
    params = {k: v for k, v in d.items() if k != "kind"}
    expected = {f.name for f in fields(cls)}
    require_keys(f"{section} keys for {kind}", params, expected, expected, ModelSpecError)
    try:
        return cls(**params)
    except DomainError as exc:
        raise ModelSpecError(f"invalid {section} parameters for {kind}: {exc}") from exc


def model_from_dict(d) -> BivariateModel:
    """Parse the strict JSON object {"marginal_x", "marginal_y", "copula"}."""
    if not isinstance(d, dict):
        raise ModelSpecError(f"model specification must be an object, got {type(d).__name__}")
    sections = {"marginal_x": _MARGINAL_REGISTRY, "marginal_y": _MARGINAL_REGISTRY, "copula": _COPULA_REGISTRY}
    require_keys("model keys", d, sections, sections, ModelSpecError)
    return BivariateModel(**{name: _component_from_dict(name, d[name], kinds) for name, kinds in sections.items()})
