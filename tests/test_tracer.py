"""Smoke test of the benchmark tracer against the package it wraps.

``benchmarks/spans.py`` wraps functions by name (``numerics.integrate``
among them), so a rename in the package would otherwise only show up as a
failing ``--trace 1`` benchmark run.
"""

import importlib.util
from pathlib import Path

import numpy as np

import bivquant
from bivquant import BivariateModel, Exponential, FGMCopula, Weibull, numerics, reconstruction, reliability

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_names():
    """The functions the tracer swaps, at the attributes callers resolve them through."""
    return {
        "numerics.integrate": numerics.integrate,
        "reconstruction.integrate": reconstruction.integrate,
        "bivquant.integrate": bivquant.integrate,
        "reconstruction.round_trip": reconstruction.round_trip,
        "reliability.QUANTITIES": dict(reliability.QUANTITIES),
    }


def test_traced_round_trip_counts_one_quadrature_and_is_undone():
    originals = _traced_names()
    model = BivariateModel(Exponential(1.3), Weibull(1.1, 1.7), FGMCopula(-0.6))
    rec, undo = _load_spans().install()
    try:
        assert reconstruction.integrate is not originals["reconstruction.integrate"]
        reconstruction.round_trip(model, "rev-hazard", "second", 0.4, np.linspace(0.05, 0.99, 9))
    finally:
        undo()
    assert rec.calls["numerics"] == 1
    assert rec.integrand_points > 0
    assert rec.integrand_points == rec.points["reliability"]
    assert _traced_names() == originals
