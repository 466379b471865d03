"""Every ``verify`` gate holds on the benchmark's model pools.

The models come from ``benchmarks/inputs.py``, loaded read-only: the 32
``verify-sweep`` models at seed 1 and the ``cli-batch`` model, plus one
near-miss model written out.  Only the MRL round trip and the identity of
an infinite-mean component may fail, and they must fail by name, so a gate
miss shows up here before it moves the benchmark's ``pass_rate``.  The
``verify`` transcript of each model must pass the benchmark's own
classifier (``benchmarks/classify.py``, loaded read-only), so a format it
cannot parse shows up here too.

The gates themselves are pinned: the tolerances as literals, the verdict
at its edge through the records and the CLI, two models that miss a gate
today, and the texts of the mutation catalogue in ``mutants.py``.
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
    curves,
    models,
    reconstruction,
    reliability,
)
from bivquant.numerics import DEFAULT_CONFIG

import mutants
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
        check = record.check
        if infinite[check.component] and check.name.startswith(("mrl-roundtrip", "identity")):
            assert not record.passed and record.residuals is None and "infinite mean" in record.note, check.name
        else:
            assert record.passed, (check.name, record.max_residual, check.tol)


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
        assert [check.name for check in reconstruction.CHECKS] == self.NAMES  # test_literal_tolerances pins each tol
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
        assert all(r.check is check for r, check in zip(records, reconstruction.CHECKS, strict=True))
        for record in records:
            quantity, _, component = record.check.name.rpartition("-")
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

            assert np.array_equal(bits(record.check.ts), bits(ts)), record.check.name
            if record.residuals is None:
                with pytest.raises(InfiniteMeanError) as exc:
                    direct()
                assert record.note == str(exc.value) and not record.passed
            else:
                assert np.array_equal(bits(record.residuals), bits(direct())), record.check.name
                assert record.note == ""
        infinite = (not model.marginal_x.has_finite_mean) + (not model.marginal_y.has_finite_mean)
        assert sum(r.residuals is None for r in records) == 2 * infinite

    @pytest.mark.parametrize("residuals", [[1e-9, np.nan], [np.nan, 1e-9]], ids=["nan-last", "nan-first"])
    def test_nan_residual_fails(self, residuals):
        record = reconstruction.CheckResult(reconstruction.CHECKS[-1], np.array(residuals))
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


def test_literal_tolerances():
    # the numbers the gates promise, as literals: comparing a row with the constant it was built from hides a looser one
    assert (reconstruction.ROUND_TRIP_TOL, reconstruction.IDENTITY_TOL, curves.CURVE_TOL) == (1e-4, 1e-6, 1e-6)
    assert [check.tol for check in reconstruction.CHECKS] == [1e-4] * 8 + [1e-6] * 2


def _reaching(check, worst: float) -> np.ndarray:
    """Residuals on ``check.ts`` whose largest magnitude is ``worst``, reached by a negative residual."""
    residuals = np.full(check.ts.shape, 0.5 * worst)
    residuals[1] = -worst
    return residuals


EXP_SPEC = {
    "marginal_x": {"kind": "Exponential", "rate": 1.0},
    "marginal_y": {"kind": "Exponential", "rate": 1.0},
    "copula": {"kind": "Independence"},
}


@pytest.mark.parametrize("above", [False, True], ids=["at-tol", "above-tol"])
@pytest.mark.parametrize("row", [0, len(reconstruction.CHECKS) - 1], ids=lambda i: reconstruction.CHECKS[i].name)
class TestVerdictEdge:
    """A record passes with its largest |residual| at its row's ``tol`` and fails one ulp above it."""

    def test_records(self, row, above):
        check = reconstruction.CHECKS[row]
        worst = np.nextafter(check.tol, np.inf) if above else check.tol
        record = reconstruction.CheckResult(check, _reaching(check, worst))
        assert record.max_residual == worst
        assert record.passed == (not above)

    def test_cli(self, tmp_path, monkeypatch, capsys, row, above):
        # every other row sits at its tol; one ulp above it still prints as the tol, so only the verdict differs
        checks = reconstruction.CHECKS
        worst = [np.nextafter(c.tol, np.inf) if above and i == row else c.tol for i, c in enumerate(checks)]
        records = [reconstruction.CheckResult(c, _reaching(c, w)) for c, w in zip(checks, worst)]
        monkeypatch.setattr(reconstruction, "verify", lambda model, cfg: records)
        (tmp_path / "model.json").write_text(json.dumps(EXP_SPEC))
        rc = cli.main(["verify", "--model", str(tmp_path / "model.json")])
        status = ["FAIL" if above and i == row else "PASS" for i in range(len(checks))]
        assert capsys.readouterr().out.splitlines() == [
            f"{c.name}: max_residual={c.tol:.9g} tol={c.tol:.9g} {s}" for c, s in zip(checks, status)
        ] + ["max residual over all checks: 0.0001", f"verify: {'FAIL' if above else 'PASS'}"]
        assert rc == (1 if above else 0)


#: Y's Pareto shape -> the ``identity-second`` residual of X Exponential(1), Y Pareto(2, shape), FGM theta = 1: two
#: models that miss that gate, and no other, as measured.
REAL_MISSES = {1.01: 1.968e-4, 1.05: 2.29e-5}


@pytest.mark.parametrize("shape", list(REAL_MISSES))
def test_a_real_miss_fails_by_name(tmp_path, capsys, shape):
    spec = {**EXP_SPEC, "marginal_y": {"kind": "Pareto", "scale": 2.0, "shape": shape},
            "copula": {"kind": "FGM", "theta": 1.0}}
    records = reconstruction.verify(models.model_from_dict(spec))
    assert [r.check.name for r in records if not r.passed] == ["identity-second"]
    assert records[-1].max_residual == pytest.approx(REAL_MISSES[shape], rel=1e-3)
    (tmp_path / "model.json").write_text(json.dumps(spec))
    rc = cli.main(["verify", "--model", str(tmp_path / "model.json")])
    lines = capsys.readouterr().out.splitlines()
    assert [line.rsplit(" ", 1)[1] for line in lines[:-2]] == ["PASS"] * 9 + ["FAIL"]
    assert lines[-3].startswith("identity-second: ") and lines[-1] == "verify: FAIL"
    assert rc == 1


def test_the_mutant_catalogue_matches_the_source():
    # each text occurs once in the source the catalogue mutates, so a change that moves gate code moves its mutant
    assert len({m.name for m in mutants.CATALOGUE}) == len(mutants.CATALOGUE)
    for m in mutants.CATALOGUE:
        assert (mutants.SRC / "bivquant" / m.file).read_text().count(m.text) == 1, m.name
        assert m.replacement != m.text and (mutants.ROOT / m.test.split("::")[0]).is_file(), m.name
