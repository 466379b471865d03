"""Seeded sampling and empirical counterparts of the analytic quantities.

Sampling draws (U, W) uniforms, inverts the conditional-on-U copula
distribution (quadratic, closed form) to get V, and pushes both through
the marginal quantiles.  The stream is fully determined by the seed, so
the same (model, n, seed) gives a byte-identical :class:`SampleSet`.
:func:`sample_blocks` is the one code that draws: it yields the pairs as
(rows, 2) blocks of :data:`~bivquant.numerics.BLOCK` rows, each drawn and
checked finite when it is read, so every temporary stays cache-sized and a
quantile that overflows is reported by its block.  :func:`sample` fills a
column-major (n, 2) array from them; the CLI writes them straight to CSV.
U is the first n doubles of the seed's PCG64 stream and W the next n, read
by a second generator advanced n draws (``random`` takes one 64-bit draw
per double), so the pairs are the ones whole-array draws give.

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
on n pairs cost O(n log n + G·√n).  The x order and sorted x are dropped
once y is carried and the split taken, before the y ranking allocates.
The u-grid passes :func:`bivquant.curves.require_admissible`, as analytic
curve points do.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import models
from .curves import QuantileCurve, conditional_args, require_admissible
from .errors import DomainError, InsufficientMassError
from .numerics import (NumericConfig, blocks, clip_prob, require_finite, require_integer, require_numbers,
                       require_prob)

#: Smallest conditioning subsample accepted by the empirical estimators.
MIN_COND_N = 30


@dataclass(frozen=True, eq=False)
class SampleSet:
    """n >= 1 finite (x, y) pairs, drawn by :func:`sample` or read from a sample file.

    The pairs are kept column-major, so ``x`` and ``y`` are contiguous.
    """

    pairs: np.ndarray  # shape (n, 2)

    def __post_init__(self):
        pairs = np.asfortranarray(require_numbers("sample pairs", self.pairs))
        if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 1:
            raise DomainError(f"sample pairs must have shape (n, 2) with n >= 1, got {pairs.shape}")
        if not np.isfinite(pairs).all():
            raise DomainError("sample pairs must be finite")
        object.__setattr__(self, "pairs", pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    @property
    def x(self) -> np.ndarray:
        return self.pairs[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.pairs[:, 1]


def sample_blocks(
    model: models.BivariateModel, n: int, seed: int, cfg: NumericConfig | None = None
) -> Iterator[np.ndarray]:
    """The pairs of :func:`sample` as (rows, 2) blocks of at most :data:`~bivquant.numerics.BLOCK` rows.

    ``n`` and ``seed`` are checked here; each block is drawn, and its
    quantiles checked finite, only when the iterator reaches it.
    """
    n, seed = require_integer("n", n, 1), require_integer("seed", seed, 0, None)
    u_stream, w_stream = np.random.default_rng(seed), np.random.default_rng(seed)
    w_stream.bit_generator.advance(n)  # w is the stream's second n doubles
    fx, fy = model.marginal_x, model.marginal_y

    def draw(part: slice) -> np.ndarray:
        size = min(part.stop, n) - part.start
        u, w = u_stream.random(size), w_stream.random(size)
        v = model.copula.cond_quantile("eq", u, w)
        x = require_finite(fx.quantile, clip_prob(u, cfg), what="sampled x", family=fx)
        y = require_finite(fy.quantile, clip_prob(v, cfg), what="sampled y", family=fy)
        return np.column_stack([x, y])

    return map(draw, blocks(n))


def sample(
    model: models.BivariateModel, n: int, seed: int, cfg: NumericConfig | None = None
) -> SampleSet:
    """Draw n pairs; identical (model, n, seed) yields bit-identical output."""
    drawn = sample_blocks(model, n, seed, cfg)  # checks n and seed before the pairs are allocated
    pairs = np.empty((int(n), 2), order="F")
    for part, block in zip(blocks(len(pairs)), drawn):
        pairs[part] = block
    return SampleSet(pairs)


def _inf_index(q, m):
    """Sorted index of the inf-type q-quantile of m values: smallest with empirical CDF >= q.

    Elementwise over arrays of q and m.
    """
    return np.clip(np.ceil(np.multiply(q, m)).astype(np.intp) - 1, 0, np.subtract(m, 1))


def _select_in_prefixes(values: np.ndarray, sizes: np.ndarray, js: np.ndarray) -> np.ndarray:
    """out[i] = the js[i]-th smallest of values[:sizes[i]], for nondecreasing sizes.

    The prefixes are nested, so each position is counted once, when its
    prefix first takes it in, into the chunk of its rank.  The answer is
    read at its position through the rank order, so no sorted copy of the
    values is made.
    """
    n = len(values)
    by_rank = np.argsort(values)  # position of the r-th smallest value
    width = isqrt(n - 1) + 1  # ceil(sqrt(n))
    n_chunks = (n - 1) // width + 1
    chunk_of = np.empty(n, dtype=np.intp)
    whole = n // width * width  # ranks in full chunks: a (chunks, width) view, filled by broadcasting
    chunk_of[by_rank[:whole].reshape(-1, width)] = np.arange(n // width)[:, None]
    chunk_of[by_rank[whole:]] = n // width
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
        out[i] = values[members[np.flatnonzero(members < size)[r]]]
    return out


def empirical_curve(
    sample_set: SampleSet,
    p: float,
    direction: models.Direction,
    u_grid,
) -> QuantileCurve:
    """Empirical curve: sample quantiles replace Q_X and the conditional quantile."""
    p, us = require_admissible(p, direction, u_grid)
    order = np.argsort(sample_set.x)
    xs_sorted = sample_set.x[order]
    n = len(xs_sorted)
    x_hat = xs_sorted[_inf_index(us, n)]
    k = np.searchsorted(xs_sorted, x_hat, "right")
    ys_by_x = sample_set.y[order]
    del order, xs_sorted  # the selection below needs neither
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
    if prefix:
        ys = _select_in_prefixes(ys_by_x, sizes, js)
    else:  # a suffix of the x order is a prefix of the reversed order, growing as u falls
        ys = _select_in_prefixes(ys_by_x[::-1], sizes[::-1], js[::-1])[::-1]
    return QuantileCurve(p=p, direction=direction, points=np.column_stack([us, x_hat, ys]))


def empirical_mrl_first(sample_set: SampleSet, u: float) -> float:
    """Mean exceedance over the empirical u-quantile of the first component."""
    u = require_prob("u", u)
    j = _inf_index(u, len(sample_set.x))
    x_hat = float(np.partition(sample_set.x, j)[j])
    exceed = sample_set.x[sample_set.x > x_hat]  # sample order: np.mean's sum depends on it
    if len(exceed) < MIN_COND_N:
        raise InsufficientMassError(
            f"only {len(exceed)} exceedances above the u = {u} quantile "
            f"(< min_cond_n = {MIN_COND_N})"
        )
    return float(np.mean(exceed) - x_hat)
