"""Every ``verify`` gate holds on the benchmark's model pools.

The models come from ``benchmarks/inputs.py``, loaded read-only: the 32
``verify-sweep`` models at seed 1 and the ``cli-batch`` model, plus one
near-miss model written out.  Only the MRL round trip and the identity of
an infinite-mean component may fail, and they must fail by name, so a gate
miss shows up here before it moves the benchmark's ``pass_rate``.  The
``verify`` transcript of each model must pass the benchmark's own
classifier (``benchmarks/classify.py``, loaded read-only), so a format it
cannot parse shows up here too.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from bivquant import (
    BivariateModel,
    DomainError,
    Exponential,
    FGMCopula,
    InfiniteMeanError,
    Pareto,
    cli,
    models,
    reconstruction,
    reliability,
)
from bivquant.numerics import DEFAULT_CONFIG

from conftest import bench_inputs, bench_module, bits


def _pool():
    inputs = bench_inputs()
    verify = inputs.draw_pool(inputs.VERIFY_LAYOUT, 1, "verify-sweep")
    (batch,) = inputs.draw_pool(inputs.CLI_LAYOUT, 1, "cli-batch", inputs.CLI_RANGES)
    return {**{f"verify-sweep-{i:02d}": spec for i, spec in enumerate(verify)}, "cli-batch": batch}


#: Seed 6, model 10 of the ``verify-sweep`` pool, written out.  X's Pareto shape just above 1 puts
#: ``identity-first`` at 4.1e-7 with the default 1024 quad_points.  Boole's rule reads 3.6e-7 at 512 and
#: 5.6e-6 (6x its tolerance) at 256; composite Simpson read 4.9e-7 at 2048, 8.6e-7 at 1024 and 7.06e-6 at 512.
PARETO_NEAR_ONE = {
    "marginal_x": {"kind": "Pareto", "scale": 0.751872, "shape": 1.006823},
    "marginal_y": {"kind": "Pareto", "scale": 1.910374, "shape": 4.343249},
    "copula": {"kind": "Independence"},
}
POOL = {**_pool(), "pareto-near-one": PARETO_NEAR_ONE}


@pytest.mark.parametrize("name", list(POOL))
def test_every_gate_holds(name):
    model = models.model_from_dict(POOL[name])
    infinite = {
        "first": not model.marginal_x.has_finite_mean,
        "second": not model.marginal_y.has_finite_mean,
    }
    for record in reconstruction.verify(model):
        component = record.name.rsplit("-", 1)[1]
        if infinite[component] and record.name.startswith(("mrl-roundtrip", "identity")):
            assert not record.passed and record.residuals is None and "infinite mean" in record.note, record.name
        else:
            assert record.passed, (record.name, record.max_residual, record.tol)


@pytest.mark.parametrize("name", list(POOL))
def test_classifier_accepts_the_transcript(tmp_path, name):
    (tmp_path / "model.json").write_text(json.dumps(POOL[name]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(["verify", "--model", str(tmp_path / "model.json")])
    assert err.getvalue() == ""
    assert bench_module("classify").classify_verify(POOL[name], rc, out.getvalue()) == ("pass", "")


class TestCheckTable:
    NAMES = [
        f"{quantity}-roundtrip-{component}"
        for quantity in ("hazard", "mrl", "rev-hazard", "rev-mrl")
        for component in ("first", "second")
    ] + ["identity-first", "identity-second"]

    def test_rows_in_output_order(self):
        assert [check.name for check in reconstruction.CHECKS] == self.NAMES
        assert {check.tol for check in reconstruction.CHECKS[:8]} == {reconstruction.ROUND_TRIP_TOL}
        assert {check.tol for check in reconstruction.CHECKS[8:]} == {reconstruction.IDENTITY_TOL}
        # the inverse maps integrate from 0, the identity from 1: verify's node table holds each check's plan
        assert [check.end for check in reconstruction.CHECKS] == [0.0] * 8 + [1.0] * 2

    def test_grids_are_read_only(self):
        for check in reconstruction.CHECKS:
            with pytest.raises(ValueError):
                check.ts[0] = 0.5

    #: Every pool model, one FGM model whose X has no mean, one whose supports start at an int scale, and one
    #: whose X quantile derivative overflows near 1: ``verify``'s node table reaches 1 - sing_clip there, the
    #: round trips do not, so its checks run one by one.
    DIRECT = {
        **POOL,
        "fgm-pareto-exponential": BivariateModel(Pareto(1.2, 0.9), Exponential(0.7), FGMCopula(-0.6)),
        "pareto-int-scales": BivariateModel(Pareto(1, 3.0), Pareto(2, 2.5), FGMCopula(0.3)),
        "pareto-overflowing-near-one": BivariateModel(Pareto(1.0, 0.02), Exponential(1.0), FGMCopula(0.5)),
    }

    @pytest.mark.parametrize("name", list(DIRECT))
    def test_records_equal_the_direct_calls(self, name):
        # verify evaluates each component once on a shared node table; each record must equal its direct call
        model = self.DIRECT[name]
        if isinstance(model, dict):
            model = models.model_from_dict(model)
        u0 = 0.5
        records = reconstruction.verify(model)
        assert [r.name for r in records] == self.NAMES
        for record in records:
            quantity, _, component = record.name.rpartition("-")
            if quantity == "identity":
                ts = np.arange(1, 34) / 34.0

                def direct():
                    return reconstruction.hazard_mrl_identity_residual(model, component, u0, ts)
            else:
                quantity = quantity.removesuffix("-roundtrip")
                ts = np.linspace(*reconstruction.INVERSE_MAPS[quantity].t_range, 17)

                def direct():
                    rec, ref = reconstruction.round_trip(model, quantity, component, u0, ts)
                    return rec - ref

            assert np.array_equal(bits(record.ts), bits(ts)), record.name
            if record.residuals is None:
                with pytest.raises(InfiniteMeanError) as exc:
                    direct()
                assert record.note == str(exc.value) and not record.passed
            else:
                assert np.array_equal(bits(record.residuals), bits(direct())), record.name
                assert record.note == ""
        infinite = (not model.marginal_x.has_finite_mean) + (not model.marginal_y.has_finite_mean)
        assert sum(r.residuals is None for r in records) == 2 * infinite

    @pytest.mark.parametrize("residuals", [[1e-9, np.nan], [np.nan, 1e-9]], ids=["nan-last", "nan-first"])
    def test_nan_residual_fails(self, residuals):
        record = reconstruction.CheckResult("check", 1e-6, np.array([0.2, 0.4]), np.array(residuals))
        assert np.isnan(record.max_residual)
        assert not record.passed

    def test_other_errors_propagate(self):
        # the error of the first check, as its own call raises it
        overflowing = BivariateModel(Exponential(1e-310), Exponential(1.0), FGMCopula(0.5))
        first = reconstruction.CHECKS[0]
        with pytest.raises(DomainError, match="overflows") as direct:
            first.residual(reconstruction._reader(overflowing, first.component, 0.5, None))
        with pytest.raises(DomainError) as exc:
            reconstruction.verify(overflowing)
        assert str(exc.value) == str(direct.value)

    def test_a_table_error_runs_the_checks_one_by_one(self, monkeypatch):
        # the node table reaches 1 - sing_clip, where this X's quantile derivative overflows
        model = self.DIRECT["pareto-overflowing-near-one"]
        nodes, _ = reconstruction._node_table(DEFAULT_CONFIG)
        with pytest.raises(DomainError, match="overflows"):
            reliability.all_quantities(model, "first", 0.5, nodes)
        evaluated, all_quantities = [], reliability.all_quantities

        def counted(model, component, conditioning_u, p, *args):
            evaluated.append((component, p is nodes))
            return all_quantities(model, component, conditioning_u, p, *args)

        monkeypatch.setattr(reliability, "all_quantities", counted)
        records = reconstruction.verify(model)
        # each component is evaluated once on the table; the one that raised there has an empty table, so each of
        # its reads is one all_quantities call at its check's positions
        assert [component for component, on_table in evaluated if on_table] == ["first", "second"]
        assert {component for component, on_table in evaluated if not on_table} == {"first"}
        assert [r.residuals is None for r in records] == [name.startswith(("mrl-roundtrip-first", "identity-first"))
                                                          for name in self.NAMES]
