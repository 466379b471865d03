"""A catalogue of mutants of the gate code, the CSV row formatter and the package's exports, each with the test that
must kill it.

A mutant is one exact text of one file under ``src/bivquant`` and its
replacement: a looser tolerance, a verdict that forgives, a check grid or
an estimator bent a little, a number laid out a little wrong, or a public
name read from the wrong module.  Run::

    python tests/mutants.py [NAME ...]

For each mutant (or each one whose name is given) the script copies
``src/`` into a temporary directory, applies the replacement there and
runs the tier-1 suite (``pytest`` over ``tests`` and ``benchmarks``)
against the copy in a child process, stopping at the first failure, twice: as is, and with ``test_golden`` deselected, as on a
platform where its digests skip.  A third child runs the mutant's own
test alone.  It prints each mutant's first failing test per run, and
exits 1 if a mutant survives a run or its own test does not fail.  A killed
mutant takes a few seconds per run, a survivor a whole tier-1 run.

Every text occurs exactly once in its file (``test_gates.py`` checks it),
so a change that moves gate code updates this catalogue with it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_TEST = "tests/test_golden.py::test_cli_output_matches_golden_digests"


class Mutant(NamedTuple):
    name: str
    file: str  #: relative to ``src/bivquant``
    text: str
    replacement: str
    test: str  #: a test id that must fail under the mutant


_PASSED = "self.residuals is not None and self.max_residual <= self.check.tol"
_TAIL = "tail = inner * inner / (outer - inner) if outer > inner else 0.0"
_GATES, _RECON = "tests/test_gates.py::", "tests/test_reconstruction.py::"
_DIRECT = _GATES + "TestCheckTable::test_records_equal_the_direct_calls"
_LITERAL = _GATES + "test_literal_tolerances"
_EMPIRICAL_MRL = "tests/test_estimation.py::TestEmpiricalMrl::test_equals_sorted_order_statistic"
_ROWS = "tests/test_cli.py::TestVectorisedRows::"

CATALOGUE = (
    *(Mutant(f"verdict-{k}x-tol", "reconstruction.py", _PASSED, _PASSED.replace("<= self", f"<= {k} * self"),
             _GATES + "TestVerdictEdge::test_records") for k in (2, 10, 1000)),
    Mutant("curve-tol-1e-5", "curves.py", "CURVE_TOL = 1e-6", "CURVE_TOL = 1e-5", _LITERAL),
    Mutant("identity-tol-1e-5", "reconstruction.py", "IDENTITY_TOL = 1e-6", "IDENTITY_TOL = 1e-5", _LITERAL),
    Mutant("round-trip-tol-1e-3", "reconstruction.py", "ROUND_TRIP_TOL = 1e-4", "ROUND_TRIP_TOL = 1e-3", _LITERAL),
    Mutant("tail-dropped", "reconstruction.py", "result = values[:-2] + tail", "result = values[:-2]",
           _RECON + "TestHazardMap::test_constant_hazard_recovers_exponential"),
    Mutant("tail-halved", "reconstruction.py", _TAIL, _TAIL.replace("tail = ", "tail = 0.5 * "),
           _RECON + "TestHazardMap::test_constant_hazard_recovers_exponential"),
    Mutant("divergence-ratio-1.5", "reconstruction.py", "if inner > 1.02 * outer", "if inner > 1.5 * outer",
           _RECON + "TestReversedMaps::test_divergence_verdict_on_power_integrand"),
    Mutant("nan-residual-passes", "reconstruction.py", "float(np.max(np.abs(self.residuals)))",
           "float(np.nanmax(np.abs(self.residuals)))", _GATES + "TestCheckTable::test_nan_residual_fails"),
    Mutant("exit-0-on-fail", "cli.py", "return 0 if all_pass else 1", "return 0", _GATES + "TestVerdictEdge::test_cli"),
    Mutant("level-residual-halved", "curves.py", "out[part] = np.abs(probs - curve.p)",
           "out[part] = 0.5 * np.abs(probs - curve.p)",
           "tests/test_curves.py::TestBlockedCurves::test_match_unblocked_bit_for_bit"),
    Mutant("u0-0.45", "reconstruction.py", "VERIFY_CONDITIONING_U = 0.5", "VERIFY_CONDITIONING_U = 0.45", _DIRECT),
    Mutant("round-trip-grid-16", "reconstruction.py", "np.linspace(*inverse.t_range, 17)",
           "np.linspace(*inverse.t_range, 16)", _DIRECT),
    Mutant("identity-grid-33", "reconstruction.py", "np.arange(1, 34) / 34.0", "np.arange(1, 33) / 33.0", _DIRECT),
    Mutant("probe-ratio-16", "reconstruction.py", "probe = np.array([8.0 * c, 64.0 * c])",
           "probe = np.array([16.0 * c, 256.0 * c])",
           _RECON + "TestEndpointTail::test_tail_that_overflows_is_one_error"),
    Mutant("identity-weight", "reconstruction.py", 'return (1.0 - ts) * read("mrl", ts)',
           'return (1.0 - ts) * (1.0 + 1e-7) * read("mrl", ts)',
           _RECON + "TestIdentity::test_uniform_analytic_both_sides"),
    Mutant("empirical-mrl-bias-2pc", "estimation.py", "return float(np.mean(exceed) - x_hat)",
           "return float((np.mean(exceed) - x_hat) * 1.02)", _EMPIRICAL_MRL),
    Mutant("empirical-mrl-ge", "estimation.py", "sample_set.x[sample_set.x > x_hat]",
           "sample_set.x[sample_set.x >= x_hat]", _EMPIRICAL_MRL),
    Mutant("empirical-mrl-rank-50", "estimation.py", "x_hat = float(np.partition(sample_set.x, j)[j])",
           "x_hat = float(np.partition(sample_set.x, j + 50)[j + 50])", _EMPIRICAL_MRL),
    Mutant("row-kernel-margin-0", "_rowtext.py", "_MARGIN = 3.4e-7", "_MARGIN = 0.0", _ROWS + "test_dyadic_ties"),
    Mutant("row-kernel-fixed-from-1e-5", "_rowtext.py", "fixed = -4 <= x < 9", "fixed = -5 <= x < 9",
           _ROWS + "test_powers_of_ten"),
    Mutant("row-kernel-exponent-one-digit", "_rowtext.py", 'b"e%+03d" % x', 'b"e%+d" % x', _ROWS + "test_powers_of_ten"),
    Mutant("row-kernel-slot-unclipped", "_rowtext.py", 'xi = xi_table.take(top, mode="clip")', "xi = xi_table.take(top)",
           _ROWS + "test_named_doubles"),
    Mutant("export-from-wrong-module", "__init__.py", '"numerics": ("NumericConfig", "integrate"),',
           '"numerics": ("NumericConfig",), "reliability": ("integrate",),',
           "tests/test_api.py::test_every_public_name_resolves"),
)


def _pytest(src: Path, args: list[str]) -> tuple[int, str]:
    """Exit code and the first FAILED or ERROR line of pytest on ``args``, with ``src`` first on the path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider", *args]
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    first = next((line for line in proc.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode, first.split(" - ")[0] or f"exit {proc.returncode}"


def run(mutant: Mutant) -> bool:
    """Apply ``mutant`` to a copy of ``src/``, print its three runs, and say whether it was killed in all."""
    with tempfile.TemporaryDirectory(prefix="bivquant-mutant-") as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = src / "bivquant" / mutant.file
        path.write_text(path.read_text().replace(mutant.text, mutant.replacement, 1))
        tier1 = ["--continue-on-collection-errors"]
        runs = {
            "tier-1": _pytest(src, tier1),
            "no golden": _pytest(src, [*tier1, "--deselect", GOLDEN_TEST]),
            "own test": _pytest(src, [mutant.test]),
        }
    killed = all(rc in (1, 2) for rc, _ in runs.values())  # a test failed, or an error stopped collection
    print(f"{'killed ' if killed else 'SURVIVES'} {mutant.name}")
    for label, (rc, first) in runs.items():
        print(f"    {label:9s} {first if rc else 'all passed'}")
    return killed


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in CATALOGUE}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    survivors = [m.name for m in CATALOGUE if (not names or m.name in names) and not run(m)]
    print(f"{len(survivors)} survivor(s)" + (f": {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
