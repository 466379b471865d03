"""One verdict per benchmark operation.

A verdict is ``(status, reason)`` with ``status`` one of:

* ``"pass"``: the op met its workload's acceptance rule;
* ``"gate"``: ``verify`` ran to completion and reported a numerical gate it
  missed.  The op counts as failed, but the program's report is well formed
  and consistent, so the run stays ``correct``;
* ``"error"``: anything else that went wrong: a crash, a traceback, an exit
  code outside the contract, malformed output, output bytes that differ
  from the first op with the same argv, or a Monte Carlo result outside
  its bound.  Any such op makes the run incorrect.
"""

from __future__ import annotations

import math
import re

PASS, GATE, ERROR = "pass", "gate", "error"

_CHECK_RE = re.compile(r"^(?P<name>[a-z0-9-]+): max_residual=(?P<res>\S+) tol=(?P<tol>\S+) (?P<status>PASS|FAIL)$")
_NOTE_RE = re.compile(r"^(?P<name>[a-z0-9-]+): FAIL \((?P<note>.*)\)$")
_SUMMARY_RE = re.compile(r"^max residual over all checks: \S+$")
_VERDICT_RE = re.compile(r"^verify: (?P<status>PASS|FAIL)$")


def parse_verify(transcript: str):
    """Check rows ``(name, residual | None, tol | None, passed)`` and the final verdict.

    Raises :class:`ValueError` on a line that is not part of the ``verify``
    transcript format.
    """
    checks, verdict = [], None
    for line in transcript.splitlines():
        if m := _CHECK_RE.match(line):
            checks.append((m["name"], float(m["res"]), float(m["tol"]), m["status"] == "PASS"))
        elif m := _NOTE_RE.match(line):
            checks.append((m["name"], None, None, False))
        elif m := _VERDICT_RE.match(line):
            verdict = m["status"] == "PASS"
        elif not _SUMMARY_RE.match(line):
            raise ValueError(f"unexpected verify line {line!r}")
    if verdict is None or not checks:
        raise ValueError("verify transcript has no checks or no final verdict")
    return checks, verdict


def infinite_mean_axes(spec: dict) -> tuple[str, ...]:
    """Components whose marginal has no mean: ``first`` for X, ``second`` for Y."""
    axes = []
    for component, key in (("first", "marginal_x"), ("second", "marginal_y")):
        marginal = spec[key]
        if marginal["kind"] == "Pareto" and marginal["shape"] <= 1.0:
            axes.append(component)
    return tuple(axes)


def classify_verify(spec: dict, exit_code: int, transcript: str):
    """Verdict of one ``verify`` op on the model ``spec``.

    A finite-mean model passes only with exit 0 and every check PASS.  An
    infinite-mean model passes only with exit 1, where exactly the MRL
    round trip and the identity check of each infinite-mean component FAIL
    by name and every other check, hazards included, passes.
    """
    if exit_code not in (0, 1):
        return ERROR, f"exit code {exit_code}"
    try:
        checks, verdict = parse_verify(transcript)
    except ValueError as exc:
        return ERROR, str(exc)
    failed = {name for name, _, _, passed in checks if not passed}
    if verdict != (not failed) or exit_code != (0 if verdict else 1):
        return ERROR, f"verdict {verdict} inconsistent with exit {exit_code} and checks {sorted(failed)}"
    axes = infinite_mean_axes(spec)
    expected = {f"{kind}-{c}" for c in axes for kind in ("mrl-roundtrip", "identity")}
    missing = expected - failed
    if missing:
        return ERROR, f"infinite-mean checks did not fail: {sorted(missing)}"
    misses = [
        f"{name} {res:.3g} > {tol:.3g}" if res is not None else f"{name} (no residual)"
        for name, res, tol, passed in checks
        if not passed and name not in expected
    ]
    if misses:
        return GATE, "gate miss: " + "; ".join(misses)
    return PASS, ""


def gate_ratios(transcript: str) -> list[float]:
    """residual / tol of every check that reported a residual."""
    try:
        checks, _ = parse_verify(transcript)
    except ValueError:
        return []
    return [res / tol for _, res, tol, _ in checks if res is not None]


def classify_monte_carlo(analytic_residual: float, empirical_residual: float, n: int,
                         curve_tol: float, k: float, mrl_values) -> tuple[str, str]:
    """Analytic curve within ``curve_tol``; empirical curve within ``k / sqrt(n)``."""
    if not analytic_residual <= curve_tol:
        return ERROR, f"analytic level residual {analytic_residual:.3g} > {curve_tol:.3g}"
    bound = k / math.sqrt(n)
    if not empirical_residual <= bound:
        return ERROR, f"empirical level residual {empirical_residual:.3g} > {k:g}/sqrt({n}) = {bound:.3g}"
    bad = [v for v in mrl_values if not (math.isfinite(v) and v > 0.0)]
    if bad:
        return ERROR, f"empirical MRL not finite and positive: {bad}"
    return PASS, ""


def classify_cli(exit_code: int, stderr: str, digest: str | None, reference: str | None):
    """Exit 0, no traceback, and output bytes identical to the first op with this argv.

    ``digest`` hashes the op's stdout and output files; ``reference`` is the
    digest of the first op with the same argv in the run, or ``None``.
    """
    if exit_code != 0:
        return ERROR, f"exit code {exit_code}: {stderr.strip()[-200:]}"
    if "Traceback (most recent call last)" in stderr:
        return ERROR, "traceback on stderr"
    if reference is not None and digest != reference:
        return ERROR, "output bytes differ from the first op with the same argv"
    return PASS, ""
