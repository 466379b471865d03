import csv
import json
import struct
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bivquant import cli, estimation, models, reconstruction, reliability
from bivquant.cli import load_sample_csv, main
from bivquant.errors import ModelSpecError

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
        assert err.count("\n") == 1 and "Weibull shape 0.005 is below 0.00586" in err

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
        assert "grid must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_conditioning_u_checked_for_first_component(self, tmp_path, model_file, capsys):
        out = tmp_path / "recon.csv"
        rc = main(["reconstruct", "--model", model_file(FGM_MODEL), "--kind", "hazard",
                   "--component", "first", "--conditioning-u", "1.5", "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == "error: conditioning_u must lie in (0,1), got 1.5\n"
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

    def test_rows_are_the_sample_set(self, tmp_path, model_file):
        # 2,500 rows span three conversion blocks; each row is the pair printed value by value
        out = tmp_path / "s.csv"
        assert main(["sample", "--model", model_file(FGM_MODEL), "--n", "2500", "--seed", "9",
                     "--out", str(out)]) == 0
        pairs = estimation.sample(models.model_from_dict(FGM_MODEL), 2500, 9).pairs
        expected = ["x,y", *(f"{cli._fmt(x)},{cli._fmt(y)}" for x, y in pairs)]
        assert out.read_text().splitlines() == expected

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
