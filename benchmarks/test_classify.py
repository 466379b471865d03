"""Tests of the benchmark's op classifier and import-profile parser.

Run from the repository root with ``python -m pytest benchmarks/test_classify.py``;
they need neither ``bivquant`` nor numpy.
"""

from __future__ import annotations

import classify
import importprof

FINITE = {
    "marginal_x": {"kind": "Pareto", "scale": 1.0, "shape": 1.2},
    "marginal_y": {"kind": "Exponential", "rate": 1.0},
    "copula": {"kind": "Independence"},
}
INFINITE_X = {**FINITE, "marginal_x": {"kind": "Pareto", "scale": 1.0, "shape": 0.8}}

ROUND_TRIPS = ("hazard", "mrl", "rev-hazard", "rev-mrl")


def transcript(fail=(), notes=(), verdict=None):
    lines = []
    names = [f"{k}-roundtrip-{c}" for k in ROUND_TRIPS for c in ("first", "second")]
    names += ["identity-first", "identity-second"]
    for name in names:
        tol = "1e-06" if name.startswith("identity") else "0.0001"
        if name in notes:
            lines.append(f"{name}: FAIL (marginal X (Pareto(scale=1,shape=0.8)) has infinite mean; "
                         "mean residual life is undefined)")
        elif name in fail:
            lines.append(f"{name}: max_residual=5.2 tol={tol} FAIL")
        else:
            lines.append(f"{name}: max_residual=1.5e-09 tol={tol} PASS")
    failed = bool(fail or notes)
    lines.append("max residual over all checks: 5.2" if fail else "max residual over all checks: 1.5e-09")
    lines.append(f"verify: {verdict or ('FAIL' if failed else 'PASS')}")
    return "\n".join(lines) + "\n"


def test_clean_finite_mean_transcript_passes():
    assert classify.classify_verify(FINITE, 0, transcript()) == (classify.PASS, "")


def test_hand_made_failing_transcript_is_a_gate_miss():
    status, reason = classify.classify_verify(FINITE, 1, transcript(fail=("identity-first",)))
    assert status == classify.GATE
    assert "identity-first 5.2 > 1e-06" in reason


def test_infinite_mean_model_passes_only_with_its_named_mrl_failures():
    expected = ("mrl-roundtrip-first", "identity-first")
    assert classify.classify_verify(INFINITE_X, 1, transcript(notes=expected))[0] == classify.PASS
    extra = classify.classify_verify(INFINITE_X, 1, transcript(notes=expected, fail=("hazard-roundtrip-first",)))
    assert extra[0] == classify.GATE and "hazard-roundtrip-first" in extra[1]
    status, reason = classify.classify_verify(INFINITE_X, 0, transcript())
    assert status == classify.ERROR and "identity-first" in reason


def test_malformed_or_inconsistent_transcripts_are_errors():
    assert classify.classify_verify(FINITE, 2, "")[0] == classify.ERROR
    assert classify.classify_verify(FINITE, 0, "Traceback (most recent call last):\n")[0] == classify.ERROR
    assert classify.classify_verify(FINITE, 0, transcript(verdict="FAIL"))[0] == classify.ERROR
    assert classify.classify_verify(FINITE, 0, transcript(fail=("mrl-roundtrip-second",)))[0] == classify.ERROR


def test_gate_ratios_skip_checks_without_a_residual():
    ratios = classify.gate_ratios(transcript(notes=("mrl-roundtrip-first",)))
    assert len(ratios) == 9
    assert max(ratios) == 1.5e-09 / 1e-06


def test_monte_carlo_bounds():
    assert classify.classify_monte_carlo(1e-16, 0.004, 100_000, 1e-6, 3.0, [1.0])[0] == classify.PASS
    assert classify.classify_monte_carlo(2e-6, 0.004, 100_000, 1e-6, 3.0, [1.0])[0] == classify.ERROR
    assert classify.classify_monte_carlo(1e-16, 0.01, 100_000, 1e-6, 3.0, [1.0])[0] == classify.ERROR
    assert classify.classify_monte_carlo(1e-16, 0.004, 100_000, 1e-6, 3.0, [float("nan")])[0] == classify.ERROR


def test_cli_verdicts():
    assert classify.classify_cli(0, "", "abc", None) == (classify.PASS, "")
    assert classify.classify_cli(0, "", "abc", "abc") == (classify.PASS, "")
    assert classify.classify_cli(0, "", "abc", "abd")[0] == classify.ERROR
    assert classify.classify_cli(3, "error: bad model\n", None, None)[0] == classify.ERROR
    assert classify.classify_cli(0, "Traceback (most recent call last):\n", "abc", None)[0] == classify.ERROR


def test_importtime_tree_charges_nested_numpy_to_scipy():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |         numpy.core",
        "import time:      2000 |       3000 |       numpy",
        "import time:       500 |        500 |           numpy.f2py",
        "import time:      4000 |       4500 |         scipy.special",
        "import time:       100 |       4600 |       bivquant.models",
        "import time:       300 |       7900 |     bivquant",
    ])
    assert importprof.parse_importtime(text) == {"bivquant": 7.9, "numpy": 3.0, "scipy": 4.5}
