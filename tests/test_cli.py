import contextlib
import copy
import csv
import io
import json
import re
import struct
import xml.etree.ElementTree as ET
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from bivquant import cli, curves, estimation, models, reconstruction, reliability
from bivquant.cli import load_sample_csv, main
from bivquant.errors import BivquantError, DomainError, ModelSpecError
from bivquant.numerics import NumericConfig, integrate

from conftest import bench_inputs, traced_peak_mib

EXP_MODEL = {
    "marginal_x": {"kind": "Exponential", "rate": 1.0},
    "marginal_y": {"kind": "Exponential", "rate": 1.0},
    "copula": {"kind": "Independence"},
}
PARETO_MODEL = {
    "marginal_x": {"kind": "Pareto", "scale": 1.0, "shape": 1.0},
    "marginal_y": {"kind": "Pareto", "scale": 1.0, "shape": 1.0},
    "copula": {"kind": "Independence"},
}
HEAVY_MODEL = {
    "marginal_x": {"kind": "Pareto", "scale": 1.0, "shape": 0.5},
    "marginal_y": {"kind": "Exponential", "rate": 1.0},
    "copula": {"kind": "Independence"},
}
FGM_MODEL = {
    "marginal_x": {"kind": "Uniform01"},
    "marginal_y": {"kind": "Uniform01"},
    "copula": {"kind": "FGM", "theta": 1.0},
}


@pytest.fixture
def model_file(tmp_path):
    def write(spec, name="model.json"):
        path = tmp_path / name
        path.write_text(json.dumps(spec))
        return str(path)

    return write


def read_rows(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


class TestCurveCommand:
    def test_pareto_product_law_and_svg(self, tmp_path, model_file):
        out = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        rc = main(["curve", "--model", model_file(PARETO_MODEL), "-p", "0.5", "--dir", "++",
                   "-n", "200", "--out", str(out), "--svg", str(svg)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 200
        assert list(rows[0]) == ["u", "x", "y", "orthant_prob_residual"]
        worst = max(abs(float(r["x"]) * float(r["y"]) - 2.0) for r in rows)
        assert worst <= 1e-6
        tree = ET.parse(svg)  # well-formed XML
        polylines = [e for e in tree.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 1

    def test_residual_column_small(self, tmp_path, model_file):
        out = tmp_path / "curve.csv"
        rc = main(["curve", "--model", model_file(FGM_MODEL), "-p", "0.25", "--dir", "+-",
                   "--out", str(out)])
        assert rc == 0
        assert max(float(r["orthant_prob_residual"]) for r in read_rows(out)) <= 1e-6

    def test_json_format(self, tmp_path, model_file):
        out = tmp_path / "curve.json"
        rc = main(["curve", "--model", model_file(FGM_MODEL), "-p", "0.25", "--dir", "mm",
                   "--format", "json", "-n", "7", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["p"] == 0.25
        assert payload["direction"] == "--"
        assert len(payload["points"]) == 7

    def test_byte_identical_reruns(self, tmp_path, model_file):
        spec = model_file(FGM_MODEL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["curve", "--model", spec, "-p", "0.3", "--dir", "++",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_level_exit_2(self, tmp_path, model_file, capsys):
        rc = main(["curve", "--model", model_file(EXP_MODEL), "-p", "1.5", "--dir", "++",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "p must lie in (0,1)" in capsys.readouterr().err

    def test_missing_model_exit_3(self, tmp_path):
        rc = main(["curve", "--model", str(tmp_path / "nope.json"), "-p", "0.5",
                   "--dir", "++", "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_malformed_model_exit_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["curve", "--model", str(bad), "-p", "0.5", "--dir", "++",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3

    def test_unknown_model_key_exit_3(self, tmp_path, model_file, capsys):
        spec = dict(EXP_MODEL)
        spec["extra"] = 1
        rc = main(["curve", "--model", model_file(spec), "-p", "0.5", "--dir", "++",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        # parameters must be real numbers, rejected at parse time, not in arithmetic
        bad_params = [
            ("marginal_x", {"kind": "Exponential", "rate": "abc"}),
            ("marginal_x", {"kind": "Exponential", "rate": None}),
            ("marginal_x", {"kind": "Exponential", "rate": True}),
            ("copula", {"kind": "FGM", "theta": "0.5"}),
        ]
        for section, component in bad_params:
            spec = dict(EXP_MODEL, **{section: component})
            rc = main(["curve", "--model", model_file(spec), "-p", "0.5", "--dir", "++",
                       "--out", str(tmp_path / "x.csv")])
            assert rc == 3, component
            assert "must be a real number" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["verify"], ["sample", "--n", "10", "--seed", "1"]])
    def test_weibull_shape_whose_gamma_overflows_exit_3(self, tmp_path, model_file, capsys, command):
        spec = dict(EXP_MODEL, marginal_x={"kind": "Weibull", "scale": 1.0, "shape": 0.005})
        rc = main([*command, "--model", model_file(spec), "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        # the bound is a parameter error like any other, so the line names its section
        assert err == ("error: invalid marginal_x parameters for Weibull: "
                       "Weibull shape 0.005 is below 0.00586: gamma(1 + 1/shape) overflows\n")

    def test_usage_error_exit_2(self, tmp_path, model_file):
        rc = main(["curve", "--model", model_file(EXP_MODEL), "--dir", "++",
                   "--out", str(tmp_path / "x.csv")])  # missing -p
        assert rc == 2


class TestFieldCommand:
    def test_exponential_first_column_constant(self, tmp_path, model_file):
        out = tmp_path / "field.csv"
        rc = main(["field", "--model", model_file(EXP_MODEL), "--kind", "hazard",
                   "--grid", "9", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 81
        assert all(abs(float(r["first"]) - 1.0) <= 1e-9 for r in rows)
        assert all(r["kind"] == "hazard" for r in rows)

    def test_independence_second_equals_marginal(self, tmp_path, model_file):
        out = tmp_path / "field.csv"
        rc = main(["field", "--model", model_file(EXP_MODEL), "--kind", "mrl",
                   "--grid", "5", "--out", str(out)])
        assert rc == 0
        assert all(abs(float(r["second"]) - 1.0) <= 1e-9 for r in read_rows(out))

    def test_fgm_hazard_second_value(self, tmp_path, model_file):
        out = tmp_path / "field.csv"
        rc = main(["field", "--model", model_file(FGM_MODEL), "--kind", "hazard",
                   "--grid", "9", "--out", str(out)])
        assert rc == 0
        rows = [r for r in read_rows(out) if r["u"] == "0.5" and r["p_cond"] == "0.5"]
        assert len(rows) == 1
        assert float(rows[0]["second"]) == pytest.approx(2.23607, abs=1e-5)

    @pytest.mark.parametrize("kind", ["hazard", "mrl", "rev-hazard", "rev-mrl"])
    def test_broadcast_equals_per_u_loop(self, tmp_path, model_file, monkeypatch, kind):
        spec = {"marginal_x": {"kind": "Weibull", "scale": 1.2, "shape": 0.8},
                "marginal_y": {"kind": "Pareto", "scale": 1.0, "shape": 2.5},
                "copula": {"kind": "FGM", "theta": -0.7}}
        monkeypatch.setattr(cli, "_NUMBER", "%r")  # every bit in the CSV
        out = tmp_path / "field.csv"
        assert main(["field", "--model", model_file(spec), "--kind", kind, "--grid", "7",
                     "--out", str(out)]) == 0
        rows = read_rows(out)
        # the per-u loop: one first_fn call and one row of seconds per u
        model = models.model_from_dict(spec)
        first_fn, second_fn = reliability.QUANTITIES[kind]
        probs = np.arange(1, 8) / 8.0
        assert [(float(r["u"]), float(r["p_cond"])) for r in rows] == [(u, p) for u in probs for p in probs]
        seconds = np.concatenate([second_fn(model, u, probs) for u in probs])
        assert np.array_equal([float(r["second"]) for r in rows], seconds)
        # a vector call may differ from scalar calls in the last bit
        firsts = [float(first_fn(model, u)) for u in probs for _ in probs]
        assert np.allclose([float(r["first"]) for r in rows], firsts, rtol=1e-12, atol=0.0)

    def test_boundary_error_is_one_line(self, tmp_path, model_file, capsys):
        # every u of the grid lies inside eps_boundary; the message names the first
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"numerics": {"eps_boundary": 0.2, "sing_clip": 0.2}}))
        rc = main(["field", "--model", model_file(EXP_MODEL), "--kind", "hazard", "--grid", "12",
                   "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: u = {1 / 13!r} lies outside")

    def test_empty_grid_exit_2(self, tmp_path, model_file, capsys):
        out = tmp_path / "x.csv"
        rc = main(["field", "--model", model_file(EXP_MODEL), "--kind", "hazard", "--grid", "0", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: grid must be an integer >= 1, got 0\n"
        assert not out.exists()

    def test_infinite_mean_usage_error(self, tmp_path, model_file):
        rc = main(["field", "--model", model_file(HEAVY_MODEL), "--kind", "mrl",
                   "--grid", "3", "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [["field", "--kind", "hazard"], ["sample", "--n", "10"]],
                             ids=["field", "sample"])
    def test_format_belongs_to_curve_only(self, tmp_path, model_file, argv):
        # only curve writes JSON; elsewhere --format would be silently ignored
        out = tmp_path / "x.csv"
        rc = main([*argv, "--model", model_file(EXP_MODEL), "--format", "json", "--out", str(out)])
        assert rc == 2
        assert not out.exists()


class TestReconstructCommand:
    @pytest.mark.parametrize("kind", ["hazard", "mrl", "rev-hazard", "rev-mrl"])
    def test_round_trip_error_column(self, tmp_path, model_file, kind):
        out = tmp_path / "recon.csv"
        rc = main(["reconstruct", "--model", model_file(EXP_MODEL), "--kind", kind,
                   "--component", "first", "--grid", "9", "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert list(rows[0]) == ["t", "reconstructed", "reference", "abs_error"]
        assert max(float(r["abs_error"]) for r in rows) <= 1e-4

    def test_empty_grid_exit_2(self, tmp_path, model_file, capsys):
        out = tmp_path / "recon.csv"
        rc = main(["reconstruct", "--model", model_file(EXP_MODEL), "--kind", "hazard",
                   "--grid", "0", "--out", str(out)])
        assert rc == 2
        assert "grid must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_conditioning_u_checked_for_first_component(self, tmp_path, model_file, capsys):
        out = tmp_path / "recon.csv"
        rc = main(["reconstruct", "--model", model_file(FGM_MODEL), "--kind", "hazard",
                   "--component", "first", "--conditioning-u", "1.5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: conditioning_u must lie in (0,1), got 1.5\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-0.0", "1"])
    @pytest.mark.parametrize("component", ["first", "second"])
    def test_conditioning_u_exact_endpoint(self, tmp_path, model_file, capsys, component, value):
        out = tmp_path / "recon.csv"
        rc = main(["reconstruct", "--model", model_file(FGM_MODEL), "--kind", "hazard",
                   "--component", component, "--conditioning-u", value, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: conditioning_u must lie in (0,1), got {float(value)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["hazard", "mrl", "rev-hazard", "rev-mrl"])
    def test_stdout_is_clean_csv(self, model_file, capsys, kind):
        rc = main(["reconstruct", "--model", model_file(EXP_MODEL), "--kind", kind, "--grid", "5"])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert lines[0] == "t,reconstructed,reference,abs_error"
        assert len(lines) == 1 + 5 and all(len(line.split(",")) == 4 for line in lines)

    def test_conditioning_u_inside_eps_boundary(self, model_file, capsys):
        rc = main(["reconstruct", "--model", model_file(FGM_MODEL), "--kind", "hazard",
                   "--component", "second", "--conditioning-u", "1e-12"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: conditioning_u = 1e-12 lies outside the clipped interval")
        assert err.count("\n") == 1

    def test_second_component(self, tmp_path, model_file):
        out = tmp_path / "recon.csv"
        rc = main(["reconstruct", "--model", model_file(FGM_MODEL), "--kind", "hazard",
                   "--component", "second", "--conditioning-u", "0.5", "--grid", "5",
                   "--out", str(out)])
        assert rc == 0
        assert max(float(r["abs_error"]) for r in read_rows(out)) <= 1e-4


class TestVerifyCommand:
    def test_exponential_model_passes(self, tmp_path, model_file, capsys):
        out = tmp_path / "resid.csv"
        rc = main(["verify", "--model", model_file(EXP_MODEL), "--out", str(out)])
        captured = capsys.readouterr().out
        assert rc == 0
        assert "verify: PASS" in captured
        # the check list comes from the component registry; pin names and order
        assert [line.split(":")[0] for line in captured.splitlines()] == [
            "hazard-roundtrip-first",
            "hazard-roundtrip-second",
            "mrl-roundtrip-first",
            "mrl-roundtrip-second",
            "rev-hazard-roundtrip-first",
            "rev-hazard-roundtrip-second",
            "rev-mrl-roundtrip-first",
            "rev-mrl-roundtrip-second",
            "identity-first",
            "identity-second",
            "max residual over all checks",
            "verify",
        ]
        rows = read_rows(out)
        assert list(rows[0]) == ["check", "t", "residual"]
        assert {r["check"] for r in rows} == {"identity-first", "identity-second"}
        assert max(abs(float(r["residual"])) for r in rows) <= 1e-6

    def test_heavy_pareto_fails_named(self, tmp_path, model_file, capsys):
        rc = main(["verify", "--model", model_file(HEAVY_MODEL)])
        captured = capsys.readouterr().out
        assert rc == 1
        assert "infinite mean" in captured
        # hazard-based checks still pass
        for line in captured.splitlines():
            if "hazard" in line and "roundtrip" in line:
                assert line.endswith("PASS")

    @pytest.mark.parametrize("order", [(1e-9, np.nan), (np.nan, 1e-9)], ids=["nan-last", "nan-first"])
    def test_nan_residual_fails_the_run(self, model_file, monkeypatch, capsys, order):
        ts = np.array([0.5])
        records = [reconstruction.CheckResult(f"check-{i}", 1e-6, ts, np.array([x])) for i, x in enumerate(order)]
        monkeypatch.setattr(reconstruction, "verify", lambda model, cfg: records)
        rc = main(["verify", "--model", model_file(EXP_MODEL)])
        lines = capsys.readouterr().out.splitlines()
        assert rc == 1
        assert lines[-2:] == ["max residual over all checks: nan", "verify: FAIL"]

    def test_phi_level_below_eps_boundary_is_read_as_it_is(self, tmp_path, model_file, capsys):
        # at eps_boundary = sing_clip = 1e-3 the first nodes sit at p = 1e-3, where phi's level v is about p / 1.5 under
        # FGM(1) at u0 = 0.5; read there, not at eps_boundary, the reversed-MRL round trip passes (identity-second
        # misses at this clip either way: the endpoint tail)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"numerics": {"eps_boundary": 1e-3, "sing_clip": 1e-3}}))
        main(["verify", "--model", model_file({**EXP_MODEL, "copula": {"kind": "FGM", "theta": 1.0}}),
              "--config", str(cfgfile)])
        (line,) = [x for x in capsys.readouterr().out.splitlines() if x.startswith("rev-mrl-roundtrip-second:")]
        assert line.endswith(" PASS"), line

    def test_verify_deterministic(self, tmp_path, model_file, capsys):
        spec = model_file(EXP_MODEL)
        main(["verify", "--model", spec])
        first = capsys.readouterr().out
        main(["verify", "--model", spec])
        assert capsys.readouterr().out == first


class TestRowFormat:
    """The writers' "%.9g" templates print each value as format(v, ".9g") does."""

    @settings(max_examples=2000)
    @given(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.integers(0, 2**64 - 1).map(lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]),
        )
    )
    @example(0.0)
    @example(-0.0)
    @example(float("nan"))
    @example(float("inf"))
    @example(float("-inf"))
    @example(5e-324)
    @example(-2.2250738585072009e-308)
    @example(1.7976931348623157e308)
    @example(123456789.5)
    def test_percent_g_matches_fmt(self, v):
        assert "%.9g" % v == format(v, ".9g")
        assert "%.9g" % np.float64(v) == format(v, ".9g")
        assert cli._row(2) % (v, v) == f"{cli._fmt(v)},{cli._fmt(v)}"


class TestSampleCommand:
    def test_deterministic_bytes(self, tmp_path, model_file):
        spec = model_file(FGM_MODEL)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["sample", "--model", spec, "--n", "500", "--seed", "9",
                         "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[0] == "x,y"

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049, 2500, 8191, 8192, 8193, 3 * 8192 + 5])
    def test_rows_are_the_sample_set(self, tmp_path, model_file, n):
        # the writer converts 1,024 rows at a time of draws that reach it in blocks of 8,192; stdout and the file
        # are the pairs printed value by value either way
        pairs = estimation.sample(models.model_from_dict(FGM_MODEL), n, 9).pairs
        expected = "x,y\n" + "".join("%.9g,%.9g\n" % (x, y) for x, y in pairs.tolist())
        argv = ["sample", "--model", model_file(FGM_MODEL), "--n", str(n), "--seed", "9"]
        assert _run(argv) == (0, expected, "")
        out = tmp_path / "s.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()

    @pytest.mark.parametrize("existing", [None, b"kept\n"], ids=["no-file", "file"])
    def test_late_block_overflow_writes_nothing(self, tmp_path, model_file, existing):
        # the first draw that overflows is row 30,160, in block 4 of 13: found by the check pass, before any write
        spec = {"marginal_x": {"kind": "Pareto", "scale": 1e300, "shape": 0.5},
                "marginal_y": {"kind": "Uniform01"}, "copula": {"kind": "Independence"}}
        out = tmp_path / "s.csv"
        if existing is not None:
            out.write_bytes(existing)
        rc, text, err = _run(["sample", "--model", model_file(spec), "--n", "100000", "--seed", "1",
                              "--out", str(out)])
        assert (rc, text) == (2, "")
        assert err == "error: sampled x is not finite: the quantile of Pareto(scale=1e+300,shape=0.5) overflows\n"
        if existing is None:
            assert not out.exists()
        else:
            assert out.read_bytes() == existing
        assert _run(["sample", "--model", model_file(spec), "--n", "100000", "--seed", "1"]) == (2, "", err)

    def test_zero_n_exit_2(self, tmp_path, model_file):
        rc = main(["sample", "--model", model_file(FGM_MODEL), "--n", "0", "--seed", "1",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_fgm_correlation(self, tmp_path, model_file):
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", model_file(FGM_MODEL), "--n", "100000",
                     "--seed", "1", "--out", str(out)]) == 0
        data = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.corrcoef(data[:, 0], data[:, 1])[0, 1] == pytest.approx(1 / 3, abs=0.01)


class TestCsvWriter:
    """Every CSV table goes through one writer, which streams its rows 1,024 at a time."""

    @pytest.mark.parametrize("command", [
        ["curve", "-p", "0.25", "--dir", "mm", "-n", "1500"],
        ["field", "--kind", "mrl", "--grid", "5"],
        ["reconstruct", "--kind", "rev-hazard", "--component", "second", "--grid", "9"],
        ["sample", "--n", "2049", "--seed", "4"],
    ], ids=lambda command: command[0])
    def test_stdout_bytes_equal_file_bytes(self, tmp_path, model_file, command):
        argv = [command[0], "--model", model_file(FGM_MODEL), *command[1:]]
        rc, text, err = _run(argv)
        assert (rc, err) == (0, "")
        out = tmp_path / "out.csv"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == text.encode()

    @pytest.mark.parametrize("command, bound_mib", [
        (["sample", "--n", "100000", "--seed", "1"], 1.0),
        (["sample", "--n", "400000", "--seed", "1"], 1.0),
        (["curve", "-p", "0.25", "--dir", "mm", "-n", "20000"], 2.5),
    ], ids=["sample", "sample-4e5", "curve"])
    def test_traced_peak(self, tmp_path, model_file, command, bound_mib):
        # sample draws block by block into the CSV, flat in n: 0.67 (1e5) and 0.75 (4e5) MiB, where the whole pairs
        # held before the write read 2.1 and 7.0; curve streams its table, 1.5; as joined text: 11.5 and 4.0
        argv = [command[0], "--model", model_file(FGM_MODEL), *command[1:], "--out", str(tmp_path / "o.csv")]
        assert main(argv) == 0  # the first call builds per-family constants; keep them out of the peak
        assert traced_peak_mib(main, argv) < bound_mib


def _polyline(svg: str) -> str:
    return re.search(r'<polyline [^>]*points="([^"]*)"', svg).group(1)


def _polyline_reference(curve) -> str:
    """The per-point rule: each point scaled into the 800x600 plot on its own, "%.9g,%.9g", joined by spaces."""
    x_lo, x_hi, y_lo, y_hi = float(curve.x.min()), float(curve.x.max()), float(curve.y.min()), float(curve.y.max())
    x_pad, y_pad = 0.05 * (x_hi - x_lo) or 0.5, 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi, y_lo, y_hi = x_lo - x_pad, x_hi + x_pad, y_lo - y_pad, y_hi + y_pad
    return " ".join("%.9g,%.9g" % (60.0 + (a - x_lo) / (x_hi - x_lo) * 720.0, 20.0 + (y_hi - b) / (y_hi - y_lo) * 535.0)
                    for a, b in zip(curve.x.tolist(), curve.y.tolist()))


def _points_reference(curve) -> list:
    return [[float(a), float(b), float(c)] for a, b, c in curve.points]


class TestOneRowFormatter:
    """CSV tables, ``verify --out`` and the SVG polyline share one row formatter; each prints its per-row rule,
    on both sides of its 1,024-row chunks."""

    @pytest.mark.parametrize("n", [2, 1023, 1024, 1025, 2000])
    def test_curve_svg_and_json(self, tmp_path, model_file, n):
        svg, out = tmp_path / "curve.svg", tmp_path / "curve.json"
        assert main(["curve", "--model", model_file(PARETO_MODEL), "-p", "0.3", "--dir", "+-", "-n", str(n),
                     "--format", "json", "--out", str(out), "--svg", str(svg)]) == 0
        curve = curves.curve_points(models.model_from_dict(PARETO_MODEL), 0.3, models.Direction(1, -1), n)
        assert _polyline(svg.read_text()) == _polyline_reference(curve)
        assert out.read_text() == json.dumps(
            {"direction": "+-", "p": 0.3, "points": _points_reference(curve)}, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2000])
    def test_flat_x_range_takes_the_half_pad(self, n):
        # x = 2.5 everywhere, so the x axis runs 2 .. 3; one point (which no CLI grid makes) is flat in y too
        us = np.linspace(0.1, 0.9, n)
        curve = curves.QuantileCurve(0.3, models.Direction(1, -1), np.column_stack([us, np.full(n, 2.5), 1.0 / us]))
        svg = cli.render_curve_svg(curve)
        assert _polyline(svg) == _polyline_reference(curve)
        assert 'font-size="11">2</text>' in svg and 'font-size="11">3</text>' in svg
        assert curve.to_dict()["points"] == _points_reference(curve)

    @pytest.mark.parametrize("spec", [EXP_MODEL, FGM_MODEL], ids=["exponential", "fgm"])
    def test_verify_out_rows(self, tmp_path, model_file, capsys, spec):
        out = tmp_path / "resid.csv"
        assert main(["verify", "--model", model_file(spec), "--out", str(out)]) == 0
        records = [r for r in reconstruction.verify(models.model_from_dict(spec)) if r.name.startswith("identity-")]
        assert [r.name for r in records if r.residuals is not None] == ["identity-first", "identity-second"]
        rows = ["%s,%.9g,%.9g\n" % (r.name, t, x) for r in records for t, x in zip(r.ts, r.residuals)]
        assert out.read_text() == "check,t,residual\n" + "".join(rows)


class TestSampleDrivenCurve:
    def test_empirical_curve_from_sample_csv(self, tmp_path, model_file):
        spec = model_file(FGM_MODEL)
        draws = tmp_path / "draws.csv"
        assert main(["sample", "--model", spec, "--n", "100000", "--seed", "1",
                     "--out", str(draws)]) == 0
        out = tmp_path / "emp.csv"
        rc = main(["curve", "--model", spec, "-p", "0.25", "--dir", "mm", "-n", "25",
                   "--sample", str(draws), "--out", str(out)])
        assert rc == 0
        rows = read_rows(out)
        assert len(rows) == 25
        # empirical points carry the level only up to sampling noise
        assert max(float(r["orthant_prob_residual"]) for r in rows) <= 0.02

    def test_bad_sample_file(self, tmp_path, model_file, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("x,y,z\n1,2,3\n")
        rc = main(["curve", "--model", model_file(FGM_MODEL), "-p", "0.25", "--dir", "mm",
                   "--sample", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        bad.write_text("x,y\n0.1,0.2\nnan,0.5\n0.3,0.4\n")
        rc = main(["curve", "--model", model_file(FGM_MODEL), "-p", "0.25", "--dir", "mm",
                   "--sample", str(bad), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("row", ["0.3,abc", "0.3"], ids=["non-numeric", "one-column"])
    def test_unparsable_sample_is_one_error(self, tmp_path, model_file, capsys, row):
        path = tmp_path / "s.csv"
        path.write_text(f"x,y\n0.1,0.2\n{row}\n")
        out = tmp_path / "o.csv"
        rc = main(["curve", "--model", model_file(FGM_MODEL), "-p", "0.25", "--dir", "mm",
                   "--sample", str(path), "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: sample file {str(path)!r} is not a two-column CSV: ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_header_only_sample_is_one_error(self, tmp_path, model_file, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("x,y\n")
        rc = main(["curve", "--model", model_file(FGM_MODEL), "-p", "0.25", "--dir", "mm",
                   "--sample", str(empty), "--out", str(tmp_path / "o.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "has no rows" in err

    @pytest.mark.parametrize("points", [-5, 0, 1])
    @pytest.mark.parametrize("with_sample", [False, True], ids=["model", "sample"])
    def test_too_few_points_exit_2(self, tmp_path, model_file, capsys, points, with_sample):
        sample = tmp_path / "s.csv"
        sample.write_text("x,y\n0.1,0.2\n0.3,0.4\n")
        extra = ["--sample", str(sample)] if with_sample else []
        out = tmp_path / "o.csv"
        rc = main(["curve", "--model", model_file(FGM_MODEL), "-p", "0.25", "--dir", "mm",
                   "-n", str(points), *extra, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: n_points must be an integer >= 2, got {points}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_load_sample_csv_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "s.csv"
        path.write_text(f"x,y\n0.1,0.2\n0.3,{value}\n")
        with pytest.raises(ModelSpecError, match="non-finite"):
            load_sample_csv(str(path))


class TestOneParserPerProcess:
    def test_output_survives_usage_error_and_help(self, model_file, capsys):
        model = model_file(FGM_MODEL)
        field = ["field", "--model", model, "--kind", "mrl", "--grid", "5"]
        assert main(field) == 0
        first = capsys.readouterr()
        assert main(["field", "--model", model, "--kind", "nope"]) == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert main(["--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: bivquant")
        assert main(field) == 0
        assert capsys.readouterr() == first  # stdout and stderr, byte for byte
        assert first.out.count("\n") == 26 and first.err == ""
        assert cli.build_parser() is cli.build_parser()


class TestConfigFile:
    def test_numerics_override(self, tmp_path, model_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"numerics": {"quad_points": 512}}))
        out = tmp_path / "curve.csv"
        rc = main(["curve", "--model", model_file(EXP_MODEL), "-p", "0.5", "--dir", "++",
                   "--config", str(cfgfile), "--out", str(out)])
        assert rc == 0

    def test_override_keeps_reconstruction_clip(self, tmp_path, model_file):
        # overrides land on the one package default, so bumping quad_points
        # keeps its clip and the endpoint tail
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"numerics": {"quad_points": 4096}}))
        out = tmp_path / "recon.csv"
        rc = main(["reconstruct", "--model", model_file(EXP_MODEL), "--kind", "rev-mrl",
                   "--component", "first", "--grid", "7", "--config", str(cfgfile),
                   "--out", str(out)])
        assert rc == 0
        assert max(float(r["abs_error"]) for r in read_rows(out)) <= 1e-6

    def test_unknown_numerics_key_exit_3(self, tmp_path, model_file):
        cfgfile = tmp_path / "cfg.json"
        # diff_step was a key of the removed central-difference kernel
        for overrides in ({"panels": 512}, {"diff_step": 1e-5}, {"quad_points": "abc"},
                          {"quad_points": True}):
            cfgfile.write_text(json.dumps({"numerics": overrides}))
            rc = main(["curve", "--model", model_file(EXP_MODEL), "-p", "0.5", "--dir", "++",
                       "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
            assert rc == 3, overrides

    def test_quad_points_above_bound_exit_3(self, tmp_path, model_file, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("no integral may run on a rejected config")

        monkeypatch.setattr(reconstruction, "integrate", never)
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"numerics": {"quad_points": 65538}}))
        rc = main(["reconstruct", "--model", model_file(EXP_MODEL), "--kind", "hazard",
                   "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
        assert rc == 3
        assert "must be at most 65536" in capsys.readouterr().err

    def test_clip_below_eps_boundary_exit_3(self, tmp_path, model_file, capsys):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"numerics": {"sing_clip": 1e-12}}))
        rc = main(["verify", "--model", model_file(EXP_MODEL), "--config", str(cfgfile)])
        assert rc == 3
        assert "must be >= eps_boundary" in capsys.readouterr().err

    def test_unknown_top_key_exit_3(self, tmp_path, model_file):
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"tolerances": {}}))
        rc = main(["curve", "--model", model_file(EXP_MODEL), "-p", "0.5", "--dir", "++",
                   "--config", str(cfgfile), "--out", str(tmp_path / "x.csv")])
        assert rc == 3


EXP_SECTION = EXP_MODEL["marginal_x"]


class TestStrictObjects:
    """A model or config object of the wrong type, kind or keys is one exit-3 line that names the fault exactly."""

    @pytest.mark.parametrize(
        "model, config, line",
        [
            ([1, 2], None, "model specification must be an object, got list"),
            (dict(EXP_MODEL, extra=1, zeta=2), None, "unknown model keys: ['extra', 'zeta']"),
            ({"marginal_x": EXP_SECTION}, None, "missing model keys: ['copula', 'marginal_y']"),
            (dict(EXP_MODEL, copula=[1]), None, "copula must be an object, got list"),
            (dict(EXP_MODEL, marginal_y={"rate": 1.0}), None, "marginal_y is missing the 'kind' key"),
            (dict(EXP_MODEL, marginal_x={"kind": "Gamma", "rate": 1.0}), None,
             "unknown marginal_x kind 'Gamma'; expected one of ['Exponential', 'Pareto', 'Uniform01', 'Weibull']"),
            (dict(EXP_MODEL, marginal_x=dict(EXP_SECTION, shape=2.0)), None,
             "unknown marginal_x keys for Exponential: ['shape']"),
            (dict(EXP_MODEL, marginal_y={"kind": "Pareto"}), None,
             "missing marginal_y keys for Pareto: ['scale', 'shape']"),
            (dict(EXP_MODEL, copula={"kind": "FGM"}), None, "missing copula keys for FGM: ['theta']"),
            (dict(EXP_MODEL, copula={"kind": "FGM", "theta": "0.5"}), None,
             "invalid copula parameters for FGM: theta must be a real number, got '0.5'"),
            ({"marginal_x": EXP_SECTION, "extra": 1}, None, "unknown model keys: ['extra']"),
            (dict(EXP_MODEL, marginal_x={"kind": "Pareto", "scale": 1.0, "rate": 1.0}), None,
             "unknown marginal_x keys for Pareto: ['rate']"),
            (EXP_MODEL, [1], "config file must hold a JSON object"),
            (EXP_MODEL, {"numerics": {}, "tolerances": {}}, "unknown config keys: ['tolerances']"),
            (EXP_MODEL, {"numerics": [1]}, "'numerics' must be an object"),
            (EXP_MODEL, {"numerics": {"panels": 512, "diff_step": 1e-5}},
             "unknown numerics keys: ['diff_step', 'panels']"),
        ],
        ids=["model-not-object", "unknown-model-keys", "missing-model-keys", "section-not-object",
             "section-without-kind", "unknown-kind", "unknown-section-keys", "missing-section-keys", "missing-copula-keys",
             "parameter-not-real", "unknown-and-missing-model-keys", "unknown-and-missing-section-keys",
             "config-not-object", "unknown-config-key", "numerics-not-object", "unknown-numerics-keys"],
    )
    def test_one_exact_error_line(self, tmp_path, model, config, line):
        (tmp_path / "model.json").write_text(json.dumps(model))
        out_file = tmp_path / "out.csv"
        argv = [*SAMPLE_ONE, "--model", str(tmp_path / "model.json"), "--out", str(out_file)]
        if config is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert _run(argv) == (3, "", f"error: {line}\n")
        assert not out_file.exists()


def _run(argv):
    """Exit code, stdout and stderr of one in-process ``main`` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


EXP_BYTES = json.dumps(EXP_MODEL).encode()
BIG = b"1" + b"0" * 400  # a JSON integer no float can hold


TINY_X = EXP_BYTES.replace(b'"rate": 1.0', b'"rate": 1e-310', 1)  # its X quantiles overflow
#: Its X quantiles stay finite (about 1e307), but the MRL and reversed-MRL maps' own arithmetic overflows.
SMALL_X = EXP_BYTES.replace(b'"rate": 1.0', b'"rate": 1e-307', 1)
SAMPLE_ONE = ["sample", "--n", "1"]
HUGE_COUNT = "100000000000000000000"


class TestMalformedInputs:
    """Each ends in one named error line and exit 2 or 3, never a traceback, and writes no file."""

    @pytest.mark.parametrize(
        "model, config, command, expected",
        [
            (EXP_BYTES.replace(b"Independence", "Indépendance".encode("latin-1")), None, SAMPLE_ONE, 3),
            (EXP_BYTES, '{"numerics": {}, "note": "é"}'.encode("latin-1"), SAMPLE_ONE, 3),
            (EXP_BYTES.replace(b'"kind": "Exponential"', b'"kind": ["Exponential"]', 1), None, SAMPLE_ONE, 3),
            (EXP_BYTES.replace(b'"rate": 1.0', b'"rate": ' + BIG, 1), None, SAMPLE_ONE, 3),
            (EXP_BYTES, b'{"numerics": {"quad_points": ' + BIG + b"}}", SAMPLE_ONE, 3),
            (EXP_BYTES, None, [*SAMPLE_ONE, "--seed", "-1"], 2),
            (TINY_X, None, [*SAMPLE_ONE, "--n", "3"], 2),
            (TINY_X, None, ["curve", "-p", "0.25", "--dir", "pm", "-n", "3"], 2),
            (TINY_X, None, ["verify"], 2),
            (TINY_X, None, ["field", "--kind", "hazard"], 2),
            (TINY_X, None, ["field", "--kind", "rev-hazard"], 2),
            (TINY_X, None, ["field", "--kind", "rev-mrl"], 2),
            (TINY_X, None, ["reconstruct", "--kind", "hazard"], 2),
            (TINY_X, None, ["reconstruct", "--kind", "rev-mrl"], 2),
            (SMALL_X, None, ["reconstruct", "--kind", "mrl", "--component", "first"], 2),
            (SMALL_X, None, ["reconstruct", "--kind", "rev-mrl", "--component", "first"], 2),
            (EXP_BYTES, b'{"numerics": {"eps_boundary": 0.7, "sing_clip": 0.7}}', [*SAMPLE_ONE, "--n", "3"], 3),
            (EXP_BYTES, b'{"numerics": {"eps_boundary": 0.4, "sing_clip": 0.6}}', ["verify"], 3),
            # the outer endpoint-tail probe, 64 * sing_clip, at 1/2, at 1 and past 1
            (EXP_BYTES, b'{"numerics": {"sing_clip": 0.0078125}}', ["verify"], 3),
            (EXP_BYTES, b'{"numerics": {"sing_clip": 0.015625}}', ["verify"], 3),
            (EXP_BYTES, b'{"numerics": {"sing_clip": 0.02}}', ["reconstruct", "--kind", "hazard"], 3),
            # a count above numerics.MAX_COUNT, which numpy would refuse in its own words
            (EXP_BYTES, None, ["sample", "--n", HUGE_COUNT], 2),
            (EXP_BYTES, None, ["curve", "-p", "0.25", "--dir", "mm", "-n", HUGE_COUNT], 2),
            (EXP_BYTES, None, ["reconstruct", "--kind", "hazard", "--grid", HUGE_COUNT], 2),
            (EXP_BYTES, None, ["field", "--kind", "hazard", "--grid", HUGE_COUNT], 2),
        ],
        ids=["non-utf8-model", "non-utf8-config", "list-kind", "huge-model-parameter",
             "huge-numerics-field", "negative-seed", "overflowing-draws", "overflowing-curve",
             "overflowing-verify", "overflowing-hazard-field", "overflowing-rev-hazard-field",
             "overflowing-rev-mrl-field", "overflowing-hazard-reconstruct", "overflowing-rev-mrl-reconstruct",
             "overflowing-mrl-integrand", "overflowing-rev-mrl-tail", "empty-clip-interval", "empty-mesh",
             "tail-probe-at-half", "tail-probe-at-one", "tail-probe-past-one", "huge-sample-n", "huge-curve-n",
             "huge-reconstruct-grid", "huge-field-grid"],
    )
    def test_one_error_line(self, tmp_path, model, config, command, expected):
        (tmp_path / "model.json").write_bytes(model)
        out_file = tmp_path / "out.csv"
        argv = [command[0], "--model", str(tmp_path / "model.json"), *command[1:], "--out", str(out_file)]
        if config is not None:
            (tmp_path / "cfg.json").write_bytes(config)
            argv += ["--config", str(tmp_path / "cfg.json")]
        rc, out, err = _run(argv)
        assert (rc, out) == (expected, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "command, owner, name",
        [
            (["curve", "-p", "0.25", "--dir", "mm", "-n", "1000000000000"], cli.curves, "curve_points"),
            (["sample", "--n", "1000000000000"], cli.estimation, "sample_blocks"),
            (["field", "--kind", "hazard", "--grid", "1000000"], reliability.QUANTITIES, "hazard"),
        ],
        ids=["curve", "sample", "field"],
    )
    @pytest.mark.parametrize(
        "message, line",
        [("", "out of memory"), ("Unable to allocate 7.28 TiB for an array", "Unable to allocate 7.28 TiB for an array")],
        ids=["bare", "numpy"],
    )
    def test_memory_error_is_one_line(self, tmp_path, monkeypatch, command, owner, name, message, line):
        # the callee raises as an allocation too large for the machine would; no test asks for one
        def out_of_memory(*args):
            raise MemoryError(message)

        if isinstance(owner, dict):
            monkeypatch.setitem(owner, name, (out_of_memory, out_of_memory))
        else:
            monkeypatch.setattr(owner, name, out_of_memory)
        (tmp_path / "model.json").write_bytes(EXP_BYTES)
        out_file = tmp_path / "out.csv"
        rc, out, err = _run([command[0], "--model", str(tmp_path / "model.json"), *command[1:], "--out", str(out_file)])
        assert (rc, out, err) == (2, "", f"error: {line}\n")
        assert not out_file.exists()


#: Values no spec or config field takes as they stand, or takes only at its edge.
JUNK = st.sampled_from(
    [None, True, "Exponential", [1.0], {}, {"kind": "FGM"}, 0, -1.0, float("nan"), 10**400, -(10**400)]
).map(copy.deepcopy)

#: Valid specs to break: the benchmark's seed-1 ``verify-sweep`` pool, every parameter inside FULL_RANGES.
SPECS = st.sampled_from(bench_inputs().draw_pool(bench_inputs().VERIFY_LAYOUT, 1, "verify-sweep"))


@st.composite
def _json_file(draw, payload, faults):
    """``payload`` after ``faults`` structural faults, as JSON text, maybe cut short or with a non-UTF-8 byte.

    A fault sets a key to junk, drops it, adds an unknown one, or replaces the whole payload.
    """
    payload = copy.deepcopy(payload)
    for _ in range(faults):
        if not isinstance(payload, dict) or draw(st.integers(0, 9)) == 0:
            payload = draw(JUNK)
            continue
        node = draw(st.sampled_from([payload, *(v for v in payload.values() if isinstance(v, dict))]))
        fault = draw(st.sampled_from(["junk", "junk", "drop", "add"]))
        if fault == "add" or not node:
            node["extra"] = draw(JUNK)
        elif fault == "drop":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node[draw(st.sampled_from(sorted(node)))] = draw(JUNK)
    text = json.dumps(payload).encode()
    ending = draw(st.sampled_from(["whole", "whole", "whole", "cut", "latin-1"]))
    if ending == "cut":
        return text[: draw(st.integers(0, len(text) - 1))]
    return text + b" \xe9" if ending == "latin-1" else text


class TestMalformedFuzz:
    @settings(max_examples=90, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_exit_0_or_one_error_line(self, tmp_path, data):
        spec = data.draw(SPECS)
        config = {"numerics": {"eps_boundary": 1e-10, "quad_points": 64, "sing_clip": 1e-7}}
        model_faults, config_faults = data.draw(st.sampled_from([(1, 0), (2, 0), (0, 1), (0, 2), (1, 1)]))
        (tmp_path / "model.json").write_bytes(data.draw(_json_file(spec, model_faults)))
        (tmp_path / "cfg.json").write_bytes(data.draw(_json_file(config, config_faults)))
        rc, _, err = _run(["sample", "--model", str(tmp_path / "model.json"), "--n", "1",
                           "--config", str(tmp_path / "cfg.json")])
        if rc == 0:
            assert err == ""
        else:
            assert rc == 3 and err.startswith("error: ") and err.count("\n") == 1, (rc, err)

    @settings(max_examples=10)
    @given(spec=SPECS, others=st.lists(st.sampled_from([0, -7, None, (), (1, "a"), "extra", "kind"]), unique=True))
    @pytest.mark.parametrize("key", [2, None, ("kind",)], ids=["int", "None", "tuple"])
    @pytest.mark.parametrize("place", [None, "marginal_x", "marginal_y", "copula"], ids=str)
    def test_keys_json_cannot_spell_are_one_spec_error(self, place, key, spec, others):
        # an int, None or tuple key, at the top or in a section, alone or beside other keys: JSON cannot write these,
        # a library caller can, and each ends in the named error of an unknown key
        spec = copy.deepcopy(spec)
        node = spec if place is None else spec[place]
        node.update((k, 1.0) for k in [key, *others] if k != "kind" or place is None)
        with pytest.raises(ModelSpecError, match=r"^unknown (model|\w+) keys( for \w+)?: \["):
            models.model_from_dict(spec)


_CHOICE_MODEL = models.BivariateModel(models.Exponential(1.0), models.Weibull(1.2, 1.5), models.FGMCopula(0.4))

#: Every library call that takes a string choice, with valid arguments around the one under test.
CHOICE_CALLS = {
    "marginal_quantile.axis": lambda v: models.marginal_quantile(_CHOICE_MODEL, v, 0.3),
    "BivariateModel.marginal.axis": lambda v: _CHOICE_MODEL.marginal(v),
    "conditional_quantile.sense": lambda v: models.conditional_quantile(_CHOICE_MODEL, v, 0.5, 0.3),
    "FGMCopula.cond_linear_coeff.sense": lambda v: models.FGMCopula(0.4).cond_linear_coeff(v, 0.5),
    "IndependenceCopula.cond_quantile.sense": lambda v: models.IndependenceCopula().cond_quantile(v, 0.5, 0.3),
    "all_quantities.component": lambda v: reliability.all_quantities(_CHOICE_MODEL, v, 0.5, 0.3),
    "all_quantities.names": lambda v: reliability.all_quantities(_CHOICE_MODEL, "second", 0.5, 0.3, None, (v,)),
    "all_quantities.names-after-a-name":
        lambda v: reliability.all_quantities(_CHOICE_MODEL, "first", None, 0.3, None, ("quantile", v)),
    "hazard_mrl_identity_residual.component":
        lambda v: reconstruction.hazard_mrl_identity_residual(_CHOICE_MODEL, v, 0.5, 0.3),
    "ComponentFunction.kind": lambda v: reconstruction.ComponentFunction(v, lambda z: z, 1.0),
    "component_from_model.kind": lambda v: reconstruction.component_from_model(_CHOICE_MODEL, v),
    "round_trip.quantity": lambda v: reconstruction.round_trip(_CHOICE_MODEL, v, "first", 0.5, [0.3]),
    "round_trip.component": lambda v: reconstruction.round_trip(_CHOICE_MODEL, "hazard", v, 0.5, [0.3]),
}

#: Malformed string choices: arrays (which compare elementwise), a list, a dict, None and a number.
BAD_CHOICES = [np.array(["x", "y"]), np.array([1, 2]), ["first"], {}, None, 3]


class TestLibraryChoiceFuzz:
    """Every malformed string choice of the library ends in a named error, as the CLI's inputs do."""

    @pytest.mark.parametrize("value", BAD_CHOICES, ids=repr)
    @pytest.mark.parametrize("call", list(CHOICE_CALLS))
    def test_bad_choice_is_a_bivquant_error(self, call, value):
        with pytest.raises(BivquantError, match=" must be one of "):
            CHOICE_CALLS[call](value)


_LL = models.Direction(-1, -1)

#: Malformed value arguments of the library (counts, seeds, one-number probabilities, a level grid that does not pair
#: with p, None alone or in a list), each with the exact message of its DomainError.
VALUE_CALLS = {
    "sample.seed-none": (lambda: estimation.sample(_CHOICE_MODEL, 100, None), "seed must be an integer >= 0, got None"),
    "sample.n-list": (lambda: estimation.sample(_CHOICE_MODEL, [3], 1), "n must be an integer >= 1, got [3]"),
    "curve_points.n_points-none": (lambda: curves.curve_points(_CHOICE_MODEL, 0.2, _LL, None),
                                   "n_points must be an integer >= 2, got None"),
    "uniform_grid.n_points-none": (lambda: curves.uniform_grid(0.2, _LL, None),
                                   "n_points must be an integer >= 2, got None"),
    "sample.n-above-ceiling": (lambda: estimation.sample(_CHOICE_MODEL, 2**60, 1),
                               "n must be at most 9007199254740992, got 1152921504606846976"),
    "curve_points.n_points-above-ceiling": (lambda: curves.curve_points(_CHOICE_MODEL, 0.3, _LL, 2**63),
                                            "n_points must be at most 9007199254740992, got 9223372036854775808"),
    "curve_points.p-list": (lambda: curves.curve_points(_CHOICE_MODEL, [0.2, 0.3], _LL, 5),
                            "p must be one number, got shape (2,)"),
    "admissible_interval.p-list": (lambda: curves.admissible_interval([0.2, 0.3], _LL),
                                   "p must be one number, got shape (2,)"),
    "require_admissible.p-list": (lambda: curves.require_admissible([0.2, 0.3], _LL, [0.5]),
                                  "p must be one number, got shape (2,)"),
    "uniform_grid.p-list": (lambda: curves.uniform_grid([0.2, 0.3], _LL, 5), "p must be one number, got shape (2,)"),
    "empirical_mrl_first.u-list": (
        lambda: estimation.empirical_mrl_first(estimation.sample(_CHOICE_MODEL, 100, 1), [0.2, 0.3]),
        "u must be one number, got shape (2,)"),
    "curve_from_conditional.u-list": (lambda: curves.curve_from_conditional(_CHOICE_MODEL, 0.2, _LL, [0.5, 0.6]),
                                      "u_grid must be one number, got shape (2,)"),
    "hazard_first.u-none": (lambda: reliability.hazard_first(_CHOICE_MODEL, None),
                            "u must be a number or an array of numbers, got None"),
    "hazard_first.u-none-in-list": (lambda: reliability.hazard_first(_CHOICE_MODEL, [0.3, None]),
                                    "u must be a number or an array of numbers, got [0.3, None]"),
    "all_quantities.mean-none": (
        lambda: reliability.all_quantities(_CHOICE_MODEL, "second", None, 0.5, None, ("mean",)),
        "conditioning_u must be a number or an array of numbers, got None"),
    "hazard_second.levels": (lambda: reliability.hazard_second(_CHOICE_MODEL, [0.4, 0.6], [0.3, 0.5, 0.7]),
                             "conditioning_u of shape (2,) does not broadcast against p_cond of shape (3,)"),
    "reversed_mrl_second.levels": (
        lambda: reliability.reversed_mrl_second(_CHOICE_MODEL, [0.4, 0.6], [0.3, 0.5, 0.7]),
        "conditioning_u of shape (2,) does not broadcast against p_cond of shape (3,)"),
    "all_quantities.levels": (lambda: reliability.all_quantities(_CHOICE_MODEL, "second", np.full((2, 2), 0.5), ()),
                              "conditioning_u of shape (2, 2) does not broadcast against p_cond of shape (0,)"),
}


@pytest.mark.parametrize("call", list(VALUE_CALLS))
def test_malformed_library_value_is_one_domain_error(call):
    fn, message = VALUE_CALLS[call]
    with pytest.raises(DomainError) as info:
        fn()
    assert str(info.value) == message



#: Malformed numeric arguments: no number (a string spelling one too), a number no float holds or a complex one, an
#: array of strings, None inside a list, a shape no argument takes, and numbers outside every range; and a Fraction,
#: a real that only a parameter kept as its float computes with.
BAD_NUMBERS = [None, "x", "0.5", b"x", {}, object(), slice(1), 10**400, -(10**400), 0.5 + 0j, np.array(["a"]),
               [0.3, None], [[0.3]], [], float("nan"), float("inf"), -1, Fraction(1, 3)]

_HAZARD1 = reconstruction.ComponentFunction("hazard1", lambda z: np.ones_like(z))
_MRL1 = reconstruction.ComponentFunction("mrl1", lambda z: np.ones_like(z), 1.0)
_SAMPLE = estimation.sample(_CHOICE_MODEL, 200, 1)


def _finite(value):
    assert np.isfinite(value), f"returned {value!r}"  # not a BivquantError, so the fuzz reports it
    return value


def _sample_and_component(marginal=models.Exponential(1.0), copula=models.FGMCopula(0.4), cfg=None):
    """A sample and the second component of a model of ``marginal`` on both axes: a parameter kept as anything but a
    float fails here, past its constructor."""
    model = models.BivariateModel(marginal, marginal, copula)
    return estimation.sample(model, 5, 1, cfg).pairs, reliability.all_quantities(model, "second", 0.5, 0.3, cfg)


#: Library calls with valid arguments, and the numeric or string arguments the fuzz replaces, one at a time; the
#: object-typed ones (model, direction, sample set, component, config) stay duck-typed and out of its scope.
FUZZ_CALLS = {
    "marginal_quantile": (models.marginal_quantile, dict(model=_CHOICE_MODEL, axis="x", u=0.3)),
    "conditional_quantile": (models.conditional_quantile,
                             dict(model=_CHOICE_MODEL, sense="le", conditioning_u=0.5, p=0.3)),
    "orthant_prob": (models.orthant_prob, dict(model=_CHOICE_MODEL, direction=_LL, x=0.5, y=0.5)),
    "Exponential": (models.Exponential, dict(rate=1.0)),
    "Pareto": (models.Pareto, dict(scale=1.0, shape=2.0)),
    "Weibull": (models.Weibull, dict(scale=1.0, shape=2.0)),
    "FGMCopula": (models.FGMCopula, dict(theta=0.4)),
    "Direction": (models.Direction, dict(eps1=-1, eps2=1)),
    "Direction.from_string": (models.Direction.from_string, dict(s="--")),
    "NumericConfig": (NumericConfig, dict(eps_boundary=1e-9, quad_points=64, sing_clip=1e-7)),
    "Exponential.run": (lambda rate: _sample_and_component(models.Exponential(rate)), dict(rate=1.0)),
    "Pareto.run": (lambda scale, shape: _sample_and_component(models.Pareto(scale, shape)),
                   dict(scale=1.0, shape=3.0)),
    "Weibull.run": (lambda scale, shape: _sample_and_component(models.Weibull(scale, shape)),
                    dict(scale=1.0, shape=2.0)),
    "FGMCopula.run": (lambda theta: _sample_and_component(copula=models.FGMCopula(theta)), dict(theta=0.4)),
    "NumericConfig.run": (
        lambda eps_boundary, quad_points, sing_clip: _sample_and_component(
            cfg=NumericConfig(eps_boundary, quad_points, sing_clip)),
        dict(eps_boundary=1e-9, quad_points=64, sing_clip=1e-7)),
    "integrate": (integrate, dict(f=np.sin, ts=[0.3, 0.6], end=0.0)),
    "admissible_interval": (curves.admissible_interval, dict(p=0.2, direction=_LL)),
    "uniform_grid": (curves.uniform_grid, dict(p=0.2, direction=_LL, n_points=5)),
    "curve_points": (curves.curve_points, dict(model=_CHOICE_MODEL, p=0.2, direction=_LL, n_points=5)),
    "curve_from_conditional": (curves.curve_from_conditional, dict(model=_CHOICE_MODEL, p=0.2, direction=_LL, u=0.5)),
    "sample": (estimation.sample, dict(model=_CHOICE_MODEL, n=5, seed=1)),
    "QuantileCurve+level_residuals": (  # a curve is read past its constructor, as a kept parameter is
        lambda p, points: curves.level_residuals(_CHOICE_MODEL, curves.QuantileCurve(p, _LL, points)),
        dict(p=0.2, points=[[0.3, 1.0, 2.0], [0.5, 1.5, 1.0]])),
    "SampleSet": (estimation.SampleSet, dict(pairs=_SAMPLE.pairs)),
    "empirical_curve": (estimation.empirical_curve, dict(sample_set=_SAMPLE, p=0.2, direction=_LL, u_grid=[0.5, 0.7])),
    "empirical_mrl_first": (estimation.empirical_mrl_first, dict(sample_set=_SAMPLE, u=0.3)),
    "all_quantities": (reliability.all_quantities,
                       dict(model=_CHOICE_MODEL, component="second", conditioning_u=0.5, p=0.3)),
    "hazard_first": (reliability.hazard_first, dict(model=_CHOICE_MODEL, u=0.3)),
    "mrl_second": (reliability.mrl_second, dict(model=_CHOICE_MODEL, conditioning_u=0.5, p=0.3)),
    "all_quantities.mean": (
        lambda model, conditioning_u: reliability.all_quantities(model, "second", conditioning_u, 0.5, None, ("mean",)),
        dict(model=_CHOICE_MODEL, conditioning_u=0.5)),
    "ComponentFunction": (reconstruction.ComponentFunction, dict(kind="mrl1", eval=np.ones_like, mean_hint=1.0)),
    "component_from_model": (reconstruction.component_from_model,
                             dict(model=_CHOICE_MODEL, kind="mrl2", conditioning_u=0.5)),
    "quantile_from_hazard": (reconstruction.quantile_from_hazard, dict(f=_HAZARD1, t=0.3)),
    "quantile_from_mrl": (reconstruction.quantile_from_mrl, dict(f=_MRL1, t=0.3)),
    "ComponentFunction+quantile_from_mrl": (  # the mean hint is read only by the map; a non-finite one never enters
        lambda kind, mean_hint: reconstruction.quantile_from_mrl(
            reconstruction.ComponentFunction(kind, np.ones_like, mean_hint), 0.3), dict(kind="mrl1", mean_hint=1.0)),
    "quantile_from_mrl.finite": (  # a hint that enters is finite, and so is the map's value
        lambda mean_hint: _finite(reconstruction.quantile_from_mrl(
            reconstruction.ComponentFunction("mrl1", np.ones_like, mean_hint), 0.3)), dict(mean_hint=1.0)),
    "round_trip": (reconstruction.round_trip,
                   dict(model=_CHOICE_MODEL, quantity="hazard", component="second", conditioning_u=0.5, ts=[0.3])),
    "hazard_mrl_identity_residual": (reconstruction.hazard_mrl_identity_residual,
                                     dict(model=_CHOICE_MODEL, component="second", conditioning_u=0.5, t=0.3)),
}
_OBJECT_TYPED = {"model", "direction", "sample_set", "f", "eval"}


def _returned_floats(value):
    """The float arrays a call returned: itself, or those of a tuple's items, a dict's values, curve points or pairs."""
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (tuple, list)):
        return [arr for item in value for arr in _returned_floats(item)]
    arr = np.asarray(getattr(value, "points", getattr(value, "pairs", value)))
    return [arr] if arr.dtype.kind == "f" else []


class TestMalformedNumberFuzz:
    """Derandomized: each numeric or string argument of each call takes every value of BAD_NUMBERS in turn, and each
    call returns only finite floats or raises a BivquantError; any other exception, a numpy warning included, fails."""

    @pytest.mark.parametrize("call, name", [(call, name) for call, (_, kwargs) in FUZZ_CALLS.items()
                                            for name in kwargs if name not in _OBJECT_TYPED])
    def test_bivquant_error_or_a_value(self, call, name):
        fn, kwargs = FUZZ_CALLS[call]
        raw = []
        for value in BAD_NUMBERS:
            try:
                returned = fn(**{**kwargs, name: value})
            except BivquantError:
                continue
            except Exception as exc:  # the finding: an error of any other kind
                raw.append(f"{value!r}: {type(exc).__name__}: {exc}")
                continue
            if not all(np.isfinite(arr).all() for arr in _returned_floats(returned)):
                raw.append(f"{value!r}: returned {returned!r}")
        assert raw == []

    @pytest.mark.parametrize("value", [True, np.True_], ids=["bool", "np.bool_"])
    @pytest.mark.parametrize("call, name", [(call, name) for call, (_, kwargs) in FUZZ_CALLS.items()
                                            for name in kwargs if name not in _OBJECT_TYPED])
    def test_a_bool_is_not_a_number(self, call, name, value):
        # numpy and int() read True as 1, so a count, seed, sign, end or grid would take it as one
        fn, kwargs = FUZZ_CALLS[call]
        with pytest.raises(BivquantError):
            fn(**{**kwargs, name: value})
