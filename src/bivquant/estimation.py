"""Seeded sampling and empirical counterparts of the analytic quantities.

Sampling draws (U, W) uniforms, inverts the conditional-on-U copula
distribution (quadratic, closed form) to get V, and pushes both through
the marginal quantiles.  The stream is fully determined by the seed, so
regenerating a :class:`SampleSet` is byte-identical.

Empirical quantiles are the inf-type (lower) sample quantiles, matching
the definition the analytic quantile function uses: of m values, the order
statistic at index clamp(ceil(q m) - 1, 0, m - 1), read by selection.

:func:`empirical_curve` sorts x once and carries y along: {X <= x̂} is a
prefix and {X > x̂} the suffix of that order, split at
``searchsorted(x_sorted, x̂, "right")`` so tied x fall on the side ``<=``
and ``>`` put them.  The y values are ranked once and the ranks cut into
chunks of ⌈√n⌉; walking the grid in the order the conditioning set grows,
each step adds the new positions to per-chunk counts, finds the chunk that
holds the wanted order statistic and scans only that chunk.  G grid points
on n pairs cost O(n log n + G·√n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import models
from .curves import QuantileCurve, conditional_args
from .errors import DomainError, InsufficientMassError
from .numerics import NumericConfig, clip_prob

#: Smallest conditioning subsample accepted by the empirical estimators.
MIN_COND_N = 30


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n pairs drawn from a model, with the provenance needed to regenerate them."""

    pairs: np.ndarray  # shape (n, 2)
    seed: int
    n: int
    model_tag: str

    @property
    def x(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.pairs[:, 1]


def sample(
    model: models.BivariateModel, n: int, seed: int, cfg: NumericConfig | None = None
) -> SampleSet:
    """Draw n pairs; identical (model, n, seed) yields bit-identical output."""
    if int(n) != n or n < 1:
        raise DomainError(f"n must be an integer >= 1, got {n!r}")
    rng = np.random.default_rng(int(seed))
    u = rng.random(int(n))
    w = rng.random(int(n))
    v = model.copula.cond_quantile("eq", u, w)
    xs = model.marginal_x.quantile(clip_prob(u, cfg))
    ys = model.marginal_y.quantile(clip_prob(v, cfg))
    return SampleSet(
        pairs=np.column_stack([xs, ys]),
        seed=int(seed),
        n=int(n),
        model_tag=model.describe(),
    )


def _inf_index(q, m):
    """Sorted index of the inf-type q-quantile of m values: smallest with empirical CDF >= q.

    Elementwise over arrays of q and m.
    """
    return np.clip(np.ceil(np.multiply(q, m)).astype(np.intp) - 1, 0, np.subtract(m, 1))


def _select_in_prefixes(values: np.ndarray, sizes: np.ndarray, js: np.ndarray) -> np.ndarray:
    """out[i] = the js[i]-th smallest of values[:sizes[i]], for nondecreasing sizes.

    The prefixes are nested, so each position is counted once, when its
    prefix first takes it in, into the chunk of its rank.
    """
    n = len(values)
    by_rank = np.argsort(values)  # position of the r-th smallest value
    values_sorted = values[by_rank]
    width = isqrt(n - 1) + 1  # ceil(sqrt(n))
    n_chunks = (n - 1) // width + 1
    chunk_of = np.empty(n, dtype=np.intp)
    chunk_of[by_rank] = np.arange(n) // width
    counts = np.zeros(n_chunks, dtype=np.intp)
    out = np.empty(len(sizes))
    counted = 0
    for i, (size, j) in enumerate(zip(sizes.tolist(), js.tolist())):
        counts += np.bincount(chunk_of[counted:size], minlength=n_chunks)
        counted = size
        below = np.cumsum(counts)
        c = int(np.searchsorted(below, j, "right"))  # first chunk whose running count exceeds j
        r = j - int(below[c - 1]) if c else j  # rank of the wanted value among the chunk's members
        lo = c * width
        members = by_rank[lo : lo + width]
        out[i] = values_sorted[lo + np.flatnonzero(members < size)[r]]
    return out


def empirical_curve(
    sample_set: SampleSet,
    p: float,
    direction: models.Direction,
    u_grid,
) -> QuantileCurve:
    """Empirical curve: sample quantiles replace Q_X and the conditional quantile."""
    p = float(p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0,1), got {p}")
    us = np.asarray(u_grid, dtype=float)
    if us.ndim != 1 or len(us) == 0 or not np.all(np.diff(us) > 0):
        raise DomainError("u_grid must be a nonempty strictly increasing 1-d sequence")
    if not (0.0 < us[0] and us[-1] < 1.0):  # increasing, so a NaN or inf shows at an end
        raise DomainError(f"u_grid must lie in (0,1), got values from {us[0]} to {us[-1]}")
    if direction.eps1 < 0 and us[0] <= p:
        raise DomainError(f"direction {direction} requires u > p, got u = {us[0]}, p = {p}")
    if direction.eps1 > 0 and us[-1] >= 1.0 - p:
        raise DomainError(f"direction {direction} requires u < 1 - p, got u = {us[-1]}, p = {p}")

    order = np.argsort(sample_set.x)
    xs_sorted = sample_set.x[order]
    if np.isnan(xs_sorted[-1]):  # sorted last; a NaN x lies on neither side of any x-hat
        raise DomainError("sample x values must not be NaN")

    n = len(xs_sorted)
    x_hat = xs_sorted[_inf_index(us, n)]
    k = np.searchsorted(xs_sorted, x_hat, "right")
    prefix = direction.eps1 < 0
    sizes = k if prefix else n - k
    short = np.flatnonzero(sizes < MIN_COND_N)
    if len(short):
        i = short[0]
        raise InsufficientMassError(
            f"conditioning subsample at u = {us[i]} has {sizes[i]} points "
            f"(< min_cond_n = {MIN_COND_N})"
        )
    _, q = conditional_args(p, direction, us)
    js = _inf_index(q, sizes)
    ys_by_x = sample_set.y[order]
    if prefix:
        ys = _select_in_prefixes(ys_by_x, sizes, js)
    else:  # a suffix of the x order is a prefix of the reversed order, growing as u falls
        ys = _select_in_prefixes(ys_by_x[::-1], sizes[::-1], js[::-1])[::-1]
    return QuantileCurve(p=p, direction=direction, points=np.column_stack([us, x_hat, ys]))


def empirical_mrl_first(sample_set: SampleSet, u: float) -> float:
    """Mean exceedance over the empirical u-quantile of the first component."""
    u = float(u)
    if not 0.0 < u < 1.0:
        raise DomainError(f"u must lie in (0,1), got {u}")
    j = _inf_index(u, len(sample_set.x))
    x_hat = float(np.partition(sample_set.x, j)[j])
    exceed = sample_set.x[sample_set.x > x_hat]  # sample order: np.mean's sum depends on it
    if len(exceed) < MIN_COND_N:
        raise InsufficientMassError(
            f"only {len(exceed)} exceedances above the u = {u} quantile "
            f"(< min_cond_n = {MIN_COND_N})"
        )
    return float(np.mean(exceed) - x_hat)
