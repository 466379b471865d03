"""Independent oracle implementations used to pin expected test values.

Everything here deliberately avoids the production code paths: plain
bisection instead of the closed-form conditional inverse, dense trapezoid
sums instead of Simpson, np.roots instead of the stabilized quadratic
formula.  Tests compare the library against values these oracles produce
(frozen as literals where the spec states them).
"""

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
CLIPPED_LOG_INTEGRAL = 13.815510557964274  # -ln(1e-6)


def fgm_phi_closed(z):
    """phi for theta=1, uniforms, conditioning u=1/2: root of 1.5v - .5v^2 = z."""
    return (3.0 - np.sqrt(9.0 - 8.0 * z)) / 2.0
