"""Independent oracle implementations used to pin expected test values.

Everything here deliberately avoids the production code paths: plain
bisection instead of the closed-form conditional inverse, dense trapezoid
sums instead of Simpson, np.roots instead of the stabilized quadratic
formula, 40-digit mpmath instead of the numpy incomplete-gamma kernel.  Tests compare the library against values these oracles produce
(frozen as literals where the spec states them).
"""

import mpmath
import numpy as np


def bisect(fn, lo, hi, iters=200):
    """Sign-change bisection for increasing fn; independent of the library."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def trapezoid(fn, a, b, n=200_001):
    z = np.linspace(a, b, n)
    return float(np.trapezoid(fn(z), z))


def central_diff(fn, t, h=1e-6):
    return (fn(t + h) - fn(t - h)) / (2.0 * h)


def fgm_cdf(u, v, theta):
    return u * v * (1.0 + theta * (1.0 - u) * (1.0 - v))


def fgm_cond_le_quantile_roots(p, u, theta):
    """Invert the conditional CDF with np.roots (independent branch selection)."""
    a = theta * (1.0 - u)
    roots = np.roots([-a, 1.0 + a, -p]) if a != 0.0 else np.array([p])
    real = roots[np.isreal(roots)].real
    inside = real[(real >= -1e-12) & (real <= 1.0 + 1e-12)]
    assert len(inside) >= 1
    return float(np.clip(inside[0], 0.0, 1.0))


# Frozen constants, each verified by the oracle functions above in the tests
PHI_HALF = 0.38196601125010515  # root of 1.5 v - 0.5 v^2 = 0.5, equals (3 - sqrt 5)/2
SQRT5 = 2.23606797749979
FGM_M2_HALF = 0.2696723314583159  # 2 * int_{1/2}^1 phi - phi(1/2), phi(z) = (3 - sqrt(9-8z))/2
FGM_ETA2_HALF = 0.2002710206251927  # phi(1/2) - 2 * int_0^{1/2} phi
EXP_ETA1_HALF = 0.3862943611198906  # ln 2 - 2 * ((1/2) ln(1/2) + 1/2)
LN2 = 0.6931471805599453


def fgm_phi_closed(z):
    """phi for theta=1, uniforms, conditioning u=1/2: root of 1.5v - .5v^2 = z."""
    return (3.0 - np.sqrt(9.0 - 8.0 * z)) / 2.0


def empirical_curve_by_mask(xs, ys, p, eps1, eps2, us, min_cond_n=30):
    """The mask-and-sort empirical curve: per grid point, mask x, copy, fully sort.

    Returns the (u, x, y) rows, or raises ValueError with the library's
    insufficient-mass message text.
    """
    xs_sorted = np.sort(xs)

    def inf_quantile(sorted_values, q):
        n = len(sorted_values)
        idx = int(np.ceil(q * n)) - 1
        return float(sorted_values[min(max(idx, 0), n - 1)])

    points = np.empty((len(us), 3))
    for i, u in enumerate(us):
        x_hat = inf_quantile(xs_sorted, u)
        sub = ys[xs <= x_hat] if eps1 < 0 else ys[xs > x_hat]
        if len(sub) < min_cond_n:
            raise ValueError(
                f"conditioning subsample at u = {u} has {len(sub)} points "
                f"(< min_cond_n = {min_cond_n})"
            )
        base = p / u if eps1 < 0 else p / (1.0 - u)
        q = base if eps2 < 0 else 1.0 - base
        points[i] = (u, x_hat, inf_quantile(np.sort(sub), float(q)))
    return points


def regularized_gamma_p(a, x, digits=40):
    """P(a, x) = gamma(a, x)/Gamma(a) by mpmath at ``digits`` significant digits, as a float."""
    with mpmath.workdps(digits):
        return float(mpmath.gammainc(mpmath.mpf(a), 0, mpmath.mpf(x), regularized=True))


def weibull_integrals(scale, shape, u, digits=40):
    """(mean, int_0^u Q, int_0^u z Q) of a Weibull by mpmath, from the closed forms in gamma(a, t)."""
    with mpmath.workdps(digits):
        a = 1 + 1 / mpmath.mpf(shape)
        t = -mpmath.log1p(-mpmath.mpf(u))
        lower = lambda x: mpmath.gammainc(a, 0, x)  # noqa: E731
        g = mpmath.mpf(scale) * mpmath.gamma(a)
        return float(g), float(scale * lower(t)), float(scale * (lower(t) - 2**-a * lower(2 * t)))
