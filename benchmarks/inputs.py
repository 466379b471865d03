"""Seeded model specifications for the benchmark workloads.

Every workload draws its models from the workload seed alone, with the
standard-library generator, so the same seed gives the same JSON files on
any machine.  A pool has a fixed layout of marginal families and copulas;
the seed jitters each parameter inside one cell of a stratified grid over
its range.  The pool therefore covers each range evenly on every seed, and
a pool's mix of cheap and costly models stays the same from seed to seed.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict

FAMILIES = ("Uniform01", "Exponential", "Pareto", "Weibull")

#: Parameter ranges of ``verify-sweep`` and ``monte-carlo``.  Pareto shape
#: spans both sides of 1 (infinite and finite mean) and the (1, 2) band where
#: the identity gate misses; Weibull shape runs from below 1 to above 3,
#: where the hazard round trips miss.  Do not narrow them: the gate misses
#: they expose are part of the baseline.
FULL_RANGES = {
    "Exponential.rate": (0.5, 2.0),
    "Pareto.scale": (0.5, 2.0),
    "Pareto.shape": (0.5, 4.5),
    "Weibull.scale": (0.5, 2.0),
    "Weibull.shape": (0.5, 5.0),
    "FGM.theta": (-1.0, 1.0),
}

#: ``cli-batch`` measures process start, parsing and serialization, and its
#: acceptance rule is exit 0 on every op, so its single model is drawn away
#: from the known gate misses, which ``verify-sweep`` keeps in view.
CLI_RANGES = {
    **FULL_RANGES,
    "Pareto.shape": (2.5, 4.5),
    "Weibull.shape": (0.7, 2.5),
}

PARAMS = {
    "Uniform01": (),
    "Exponential": ("rate",),
    "Pareto": ("scale", "shape"),
    "Weibull": ("scale", "shape"),
    "Independence": (),
    "FGM": ("theta",),
}


def _spread_order(n: int) -> list[int]:
    """A fixed order of n cells in which consecutive picks land far apart."""
    return sorted(range(n), key=lambda i: (i * 0.6180339887498949) % 1.0)


def draw_pool(layout, seed: int, tag: str, ranges=FULL_RANGES) -> list[dict]:
    """Model specs for ``layout``, a list of ``(family_x, family_y, copula)``.

    The k-th use of a parameter across the pool takes the cell
    ``_spread_order(n)[k]`` of n equal cells over its range, where n counts
    the uses, and the seed places it inside that cell.
    """
    rng = random.Random(f"{tag}:{seed}")
    uses = Counter()
    for fx, fy, cop in layout:
        for kind in (fx, fy, cop):
            uses.update(f"{kind}.{p}" for p in PARAMS[kind])
    cells = {}
    for key, n in sorted(uses.items()):
        lo, hi = ranges[key]
        width = (hi - lo) / n
        cells[key] = [lo + (cell + rng.random()) * width for cell in _spread_order(n)]
    taken = defaultdict(int)

    def component(kind):
        d = {"kind": kind}
        for p in PARAMS[kind]:
            key = f"{kind}.{p}"
            d[p] = round(cells[key][taken[key]], 6)
            taken[key] += 1
        return d

    return [
        {"marginal_x": component(fx), "marginal_y": component(fy), "copula": component(cop)}
        for fx, fy, cop in layout
    ]


#: 32 models: every ordered pair of families, once with each copula.
VERIFY_LAYOUT = [
    (FAMILIES[i % 4], FAMILIES[(i // 4) % 4], "Independence" if i < 16 else "FGM")
    for i in range(32)
]

#: 8 models, each X family twice, each paired with a different Y family.
MC_LAYOUT = [
    (FAMILIES[i % 4], FAMILIES[(i + 1 + i // 4) % 4], "FGM" if i % 2 else "Independence")
    for i in range(8)
]

CLI_LAYOUT = [("Weibull", "Pareto", "FGM")]
