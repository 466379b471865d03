import functools
import importlib.util
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from bivquant import (
    BivariateModel,
    Exponential,
    FGMCopula,
    IndependenceCopula,
    Pareto,
    Uniform01,
    Weibull,
)
from bivquant.numerics import BLOCK

# every property test replays the same examples on every run; each keeps its own max_examples
settings.register_profile("bivquant", derandomize=True, deadline=None)
settings.load_profile("bivquant")

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def traced_peak_mib(fn, *args):
    """Peak traced memory of one call above what was allocated before it, in MiB."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


@functools.cache
def bench_module(name: str):
    """``benchmarks/<name>.py``, loaded read-only."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_inputs():
    """``benchmarks/inputs.py``: the model pools and parameter ranges."""
    return bench_module("inputs")


@pytest.fixture
def indep_uniform():
    return BivariateModel(Uniform01(), Uniform01(), IndependenceCopula())


@pytest.fixture
def indep_exp():
    return BivariateModel(Exponential(1.0), Exponential(1.0), IndependenceCopula())


@pytest.fixture
def fgm_uniform():
    return BivariateModel(Uniform01(), Uniform01(), FGMCopula(theta=1.0))


@pytest.fixture
def indep_pareto():
    return BivariateModel(Pareto(1.0, 1.0), Pareto(1.0, 1.0), IndependenceCopula())


@pytest.fixture
def heavy_pareto():
    return BivariateModel(Pareto(1.0, 0.5), Exponential(1.0), IndependenceCopula())


def mixed_models():
    """A spread of dependence/marginal combinations for sweep-style tests."""
    return [
        BivariateModel(Uniform01(), Uniform01(), IndependenceCopula()),
        BivariateModel(Exponential(1.0), Exponential(0.5), IndependenceCopula()),
        BivariateModel(Pareto(1.0, 2.0), Weibull(1.0, 2.0), IndependenceCopula()),
        BivariateModel(Uniform01(), Uniform01(), FGMCopula(1.0)),
        BivariateModel(Exponential(1.0), Uniform01(), FGMCopula(-1.0)),
        BivariateModel(Weibull(1.0, 1.5), Pareto(1.0, 3.0), FGMCopula(0.5)),
    ]


#: One model per marginal family on x, the next family on y, for each built-in copula.
_FAMILIES = [Uniform01(), Exponential(0.7), Pareto(1.3, 2.2), Weibull(1.5, 0.8)]
BLOCK_MODELS = [
    BivariateModel(fam, _FAMILIES[(i + 1) % 4], copula)
    for copula in (IndependenceCopula(), FGMCopula(-0.6))
    for i, fam in enumerate(_FAMILIES)
]
#: Sizes around the edges of the block-by-block fills.
BLOCK_SIZES = [1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5]


def bits(a):
    """The float64 array as its raw 64-bit patterns, for bit-for-bit comparison."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)
