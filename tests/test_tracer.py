"""Smoke test of the benchmark tracer against the package it wraps.

``benchmarks/spans.py`` wraps functions by name (``numerics.integrate``
among them), so a rename in the package would otherwise only show up as a
failing ``--trace 1`` benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np

import bivquant
from bivquant import (
    BivariateModel,
    Exponential,
    FGMCopula,
    Pareto,
    Uniform01,
    Weibull,
    cli,
    models,
    numerics,
    reconstruction,
    reliability,
)

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
    ts = np.linspace(0.05, 0.99, 9)
    try:
        assert reconstruction.integrate is not originals["reconstruction.integrate"]
        reconstruction.round_trip(model, "rev-hazard", "second", 0.4, ts)
    finally:
        undo()
    assert rec.calls["numerics"] == 1
    assert rec.integrand_points > 0
    # every read goes through reliability: the integrand's nodes, the level check that reads the offset at one
    # point, and the reference quantile on ts
    assert rec.points["reliability"] == rec.integrand_points + 1 + ts.size
    assert _traced_names() == originals


def test_traced_cli_loads_count_each_input_file_once(tmp_path):
    # cli.load_ms and cli.bytes_in of the benchmark come from these spans; main loads model and config
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"marginal_x": {"kind": "Uniform01"},
                                 "marginal_y": {"kind": "Exponential", "rate": 2.0},
                                 "copula": {"kind": "FGM", "theta": 0.5}}))
    draws = tmp_path / "draws.csv"
    runs = [
        (["sample", "--model", str(model), "--n", "200", "--seed", "3", "--out", str(draws)], 2, [model]),
        (["curve", "--model", str(model), "-p", "0.25", "--dir", "mm", "-n", "5", "--sample", str(draws),
          "--out", str(tmp_path / "curve.csv")], 3, [model, draws]),
    ]
    for argv, loads, read in runs:
        rec, undo = _load_spans().install()
        try:
            assert cli.main(argv) == 0
        finally:
            undo()
        assert (rec.calls["cli"], rec.calls["cli.load"], rec.errors["cli.load"]) == (1, loads, 0)
        assert rec.bytes_in == sum(path.stat().st_size for path in read)


def test_every_kernel_of_every_family_is_one_traced_call():
    # each family holds its own copy of every kernel, so the tracer names and counts each one
    grid = np.linspace(0.1, 0.9, 5)
    families = [Uniform01(), Exponential(1.3), Pareto(1.1, 2.4), Weibull(0.8, 1.7)]
    originals = {(type(fam), name): vars(type(fam))[name] for fam in families for name in models.KERNELS}
    for fam in families:
        for name in models.KERNELS:
            rec, undo = _load_spans().install()
            try:
                getattr(fam, name)(grid)
            finally:
                undo()
            assert rec.calls["models"] == 1, (fam, name)
            assert f"models.{type(fam).__name__}.{name}" in rec.func_time
    assert {key: vars(key[0])[key[1]] for key in originals} == originals


def test_every_reliability_component_is_one_traced_call():
    # the components are built by one factory; each must still be a public function the tracer wraps and names
    model = BivariateModel(Exponential(1.3), Weibull(1.1, 1.7), FGMCopula(-0.6))
    grid = np.linspace(0.1, 0.9, 5)
    originals = dict(reliability.QUANTITIES)
    for quantity, pair in originals.items():
        for index, component in enumerate(pair):
            assert getattr(reliability, component.__name__) is component
            args = (model, grid) if index == 0 else (model, 0.4, grid)
            rec, undo = _load_spans().install()
            try:
                reliability.QUANTITIES[quantity][index](*args)
            finally:
                undo()
            assert rec.calls["reliability"] == 1, (quantity, index)
            assert [name for name in rec.func_time if name.startswith("reliability.")] == [
                f"reliability.{component.__name__}"
            ]
    assert reliability.QUANTITIES == originals


def test_traced_verify_charges_each_component_to_reliability_once():
    # verify evaluates each component once on its node table, and each check integrates once
    model = BivariateModel(Weibull(1.3, 0.9), Pareto(1.1, 2.4), FGMCopula(0.4))
    reconstruction.verify(model)  # the node table is built outside the traced call
    rec, undo = _load_spans().install()
    try:
        records = reconstruction.verify(model)
    finally:
        undo()
    assert rec.calls["reliability"] == 2 and rec.errors["reliability"] == 0
    assert [name for name in rec.func_time if name.startswith("reliability.")] == ["reliability.all_quantities"]
    assert rec.calls["numerics"] == len(records) == len(reconstruction.CHECKS)
    assert rec.integrand_points > 0
    # the kernel work of this model, exactly: a change in it shows here, not only in a traced benchmark run
    assert rec.calls["models"] == 11
    assert rec.points["models"] == 83_747
