"""Independent oracle implementations used to pin expected test values.

Everything here deliberately avoids the production code paths: plain
bisection instead of the closed-form conditional inverse, dense trapezoid
sums instead of Boole's rule, np.roots instead of the stabilized quadratic
formula, 40-digit mpmath instead of the numpy incomplete-gamma kernel.  Tests compare the library against values these oracles produce
(frozen as literals where the spec states them).  The ``*_per_call``
functions are the exception: they repeat the library's arithmetic with every
mesh and constant rebuilt on each call, so the cached ones must match them
bit for bit.  So are the ``*_unblocked`` functions: the library's sampling and
curve kernels evaluated on whole arrays at once, with the quadratic
conditional inverse written out, which the block-by-block fills must match
bit for bit.
"""

import math

import mpmath
import numpy as np

from bivquant import curves, models
from bivquant.numerics import clip_prob


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


def fgm_cond_cdf(sense, u, v, theta):
    """CDF of V given U <= u (``le``) or U >= u (``ge``), from the joint CDF; C(1, v) = v."""
    if sense == "le":
        return fgm_cdf(u, v, theta) / u
    return (v - fgm_cdf(u, v, theta)) / (1.0 - u)


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


def pareto_phi_mrl_and_mean(scale, shape, theta, u0, p, digits=50):
    """(MRL of phi at p, mean of phi) by mpmath, for a Pareto Y under FGM(theta) given {X <= Q_X(u0)}.

    phi(p) = Q_Y(v) at the root v of v + c v (1-v) = p, c = theta (1 - u0); substituting s = v + c v (1-v),
    int_v^1 phi = s int_0^T t**-b (1 + c - 2c (1-t)) dt with T = 1 - v and b = 1/shape, a sum of powers of T.
    """
    with mpmath.workdps(digits):
        scale, b, p = mpmath.mpf(scale), 1 / mpmath.mpf(shape), mpmath.mpf(p)
        c = mpmath.mpf(theta) * (1 - mpmath.mpf(u0))
        v = 2 * p / (1 + c + mpmath.sqrt((1 + c) ** 2 - 4 * c * p))

        def to_one(t):  # int_w^1 of Q_Y (1 + c - 2cw) dw, w = 1 - t
            j0, j1 = t ** (1 - b) / (1 - b), t ** (1 - b) / (1 - b) - t ** (2 - b) / (2 - b)
            return scale * ((1 + c) * j0 - 2 * c * j1)

        return float(to_one(1 - v) / (1 - p) - scale * (1 - v) ** -b), float(to_one(mpmath.mpf(1)))


def uniform_phi_hazard_and_reversed_mrl(theta, u0, p, digits=50):
    """(hazard, reversed MRL) of phi at p by mpmath, for a Uniform01 Y under FGM(theta) given {X <= Q_X(u0)}.

    phi(p) is the root v of v + c v (1-v) = p, c = theta (1 - u0), so phi' = 1 / (1 + c (1 - 2v)); substituting
    s = w + c w (1-w), int_0^p (phi(p) - phi) ds = int_0^v (v - w) (1 + c - 2cw) dw = (1 + c) v**2 / 2 - c v**3 / 3.
    """
    with mpmath.workdps(digits):
        p, c = mpmath.mpf(p), mpmath.mpf(theta) * (1 - mpmath.mpf(u0))
        v = 2 * p / (1 + c + mpmath.sqrt((1 + c) ** 2 - 4 * c * p))
        return float((1 + c * (1 - 2 * v)) / (1 - p)), float(((1 + c) * v**2 / 2 - c * v**3 / 3) / p)


def integrate_per_call_mesh(f, ts, end, cfg, grade=6.0):
    """The cumulative Boole sums of ``numerics.integrate``, with the graded mesh rebuilt on every call.

    The same arithmetic, node order and summation order as the library, but no cached mesh: a
    linspace in rho, then the distance ``rho**grade`` and the weight of every node, mesh and t
    nodes alike, in one array; each half's coefficients laid down quad by quad, and each t's
    quad end found among all of them.
    """
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    m = 2 * int(cfg.quad_points)
    rho = np.linspace(cfg.sing_clip ** (1.0 / grade), 0.5 ** (1.0 / grade), m + 1)
    # Boole's 2h/45 (7, 32, 12, 32, 7) on each quad from the half's endpoint, Simpson's h/3 (1, 4, 1) on a lone pair
    coeff, ends, below_end = np.zeros(m + 1), [0], {0: 0.0}
    for start in range(0, m, 4):
        rule = (7.0, 32.0, 12.0, 32.0, 7.0) if start + 4 <= m else (7.5, 30.0, 7.5)
        coeff[start : start + len(rule)] += rule
        ends.append(start + len(rule) - 1)
        below_end[ends[-1]] = rule[-1]
    ends = np.array(ends)
    near_dist, far_dist = (ts, 1.0 - ts) if end == 0.0 else (1.0 - ts, ts)
    far = near_dist > 0.5
    rho_t = np.clip(np.where(far, far_dist, near_dist) ** (1.0 / grade), rho[0], rho[-1])
    k = ends[np.argmin(np.abs(rho[ends][None, :] - rho_t[:, None]), axis=1)]  # the nearest quad end, the lower on a tie
    k_near, k_far = (m, int(k[far].min())) if far.any() else (int(k.max()), m + 1)
    nodes = np.concatenate([rho[: k_near + 1], rho[k_far:], 0.5 * (rho[k] + rho_t), rho_t])
    on_far = np.concatenate([np.zeros(k_near + 1, bool), np.ones(m + 1 - k_far, bool), far, far])
    dist, weight = nodes**grade, grade * nodes ** (grade - 1.0)
    sign = 1.0 - 2.0 * end
    z = np.where(on_far, (1.0 - end) - sign * dist, end + sign * dist)
    unit = 2.0 * (rho[1] - rho[0]) / 45.0
    span = np.where(far, rho[k] - rho_t, rho_t - rho[k]) / 6.0
    rule = np.concatenate([unit * coeff[: k_near + 1], unit * coeff[k_far:], 4.0 * span, span])
    g = np.asarray(f(z), dtype=float) * (rule * weight)
    n = ts.size
    prefix = np.cumsum(np.concatenate([[0.0], g[: k_near + 1], g[k_near + 1 : -2 * n][::-1]]))
    # the quad end's share of its coefficient on the side already summed
    summed = np.array([below_end[e] if not is_far else coeff[e] - below_end[e] for e, is_far in zip(k, far)])
    factor = (summed + span / unit) / coeff[k]
    at_end = g[np.where(far, k_near + 1 + k - k_far, k)]
    return prefix[np.where(far, 2 * m + 1 - k, k)] + factor * at_end + g[-2 * n : -n] + g[-n:]


def gamma_p_per_call(a, x, eps=float(np.finfo(float).eps)):
    """The library's P(a, x) kernel with its lengths, scale and series coefficients recomputed per call."""
    x = np.asarray(x, dtype=float)
    split = 3.0 * (a + 1.0)
    term, total, terms = 1.0, 1.0, 0
    while term > eps * total:
        terms += 1
        term *= split / (a + terms)
        total += term
    b, c, d, delta, depth = split + 1.0 - a, math.inf, 1.0 / (split + 1.0 - a), 0.0, 0
    while abs(delta - 1.0) > eps:
        depth, b = depth + 1, b + 2.0
        d = 1.0 / (depth * (a - depth) * d + b)
        c = b + depth * (a - depth) / c
        delta = c * d
    k = (math.pow(a, a / 2) * math.exp(-a / 2) / math.sqrt(math.gamma(a))) ** 2
    p = np.where(x == math.inf, 1.0, math.nan)
    below, above = x < split, (x >= split) & (x < math.inf)
    xs, xc = x[below], x[above]
    y, total = xs / split, np.zeros_like(xs)
    for coeff in np.cumprod(split / (a + np.arange(1.0, terms + 1.0)))[::-1] if xs.size else ():
        total += coeff
        total *= y
    p[below] = np.minimum(k / a * (xs / a * np.exp(1.0 - xs / a)) ** a * (total + 1.0), 1.0)
    f = xc + (2.0 * depth + 1.0 - a)
    for m in range(depth if xc.size else 0, 0, -1):
        f = xc + (2.0 * m - 1.0 - a + m * (a - m) / f)
    p[above] = 1.0 - k * (xc / a * np.exp(1.0 - xc / a)) ** a / f
    return p


def weibull_weighted_per_call(scale, shape, u):
    """The library's Weibull ``int_0^u z Q``, its 40 series coefficients built per call from ``math.factorial``."""
    a = 1.0 + 1.0 / shape
    with np.errstate(divide="ignore"):
        t = -np.log1p(-np.asarray(u, dtype=float))
    small = t < 1.0
    out = np.empty_like(t)
    at_t, at_2t = gamma_p_per_call(a, np.stack([t[~small], 2.0 * t[~small]]))
    out[~small] = scale * math.gamma(a) * (at_t - 2.0**-a * at_2t)
    ts, total = t[small], 0.0
    for k in range(40, 0, -1):
        total = (total + (1.0 - 2.0**k) / (math.factorial(k) * (a + k))) * -ts
    out[small] = scale * ts**a * total
    return out


def _cond_quantile_unblocked(copula, sense, u, p):
    """The root of v + c v (1 - v) = p by the stabilized formula, for every copula alike."""
    c = np.asarray(copula.cond_linear_coeff(sense, u), dtype=float)
    p = np.asarray(p, dtype=float)
    disc = (1.0 + c) ** 2 - 4.0 * c * p
    return 2.0 * p / (1.0 + c + np.sqrt(np.maximum(disc, 0.0)))


def sample_unblocked(model, n, seed, cfg=None):
    """``estimation.sample``'s pairs from whole-array draws, inverse and quantiles, column-stacked."""
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    w = rng.random(n)
    v = _cond_quantile_unblocked(model.copula, "eq", u, w)
    xs = model.marginal_x.quantile(clip_prob(u, cfg))
    ys = model.marginal_y.quantile(clip_prob(v, cfg))
    return np.column_stack([xs, ys])


def curve_points_unblocked(model, p, direction, n_points, cfg=None):
    """``curves.curve_points``'s (u, x, y) rows, every column computed over the whole u-grid."""
    lo, hi = curves.admissible_interval(p, direction)
    us = np.linspace(lo, hi, n_points)
    xs = model.marginal_x.quantile(clip_prob(us, cfg))
    sense, qs = curves.conditional_args(p, direction, us)
    v = _cond_quantile_unblocked(model.copula, sense, clip_prob(us, cfg), clip_prob(qs, cfg))
    return np.column_stack([us, xs, model.marginal_y.quantile(v)])


def level_residuals_unblocked(model, curve):
    """``curves.level_residuals`` from one orthant-probability call over the whole curve."""
    probs = models.orthant_prob(model, curve.direction, curve.x, curve.y)
    return np.abs(np.asarray(probs, dtype=float) - curve.p)
