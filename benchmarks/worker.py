"""One benchmark worker: a fresh interpreter that sets up one workload and times it.

Run by ``run.py``, never directly by a user::

    python3 benchmarks/worker.py --workload W --seed S --seconds T --trace 0|1 \
        --mode setup|run --result FILE

The worker's cwd is the repository root and ``src`` is on ``PYTHONPATH``.
Set-up is ``import bivquant`` (for the in-process workloads), input
generation and one untimed warm-up op; the worker notes ``time.monotonic()``
when it is done, which ``run.py`` compares with the time it started the
worker.  ``--mode setup`` stops there.  ``--mode run`` then runs a closed
loop, one op at a time, in whole passes over the workload's op list.  The
number of passes comes from ``--seconds`` and the workload's baseline pass
time (``passes_for``), not from the speed of the code under test.  With
``--trace 1`` it runs the loop twice on half the passes each, untraced and
then traced, and reports per-layer figures from the traced half.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import classify
import inputs

WORK = Path(".bench_work")

#: Level of every curve the workloads draw.
LEVEL = 0.25
#: Monte Carlo sample size, empirical-curve grid and analytic curve size.
MC_N = 100_000
MC_GRID = 200
MC_CURVE_POINTS = 100_000
MC_MRL_U = (0.25, 0.5, 0.75)
#: Bound on the empirical curve's level residual, in units of 1/sqrt(n).
#: The residual is a sampling error of an orthant probability, a maximum of
#: 200 Brownian-bridge-like deviations; over 24 models and all four
#: directions the largest seen was 1.33/sqrt(n).
MC_K = 3.0
#: A ``cli-batch`` child that runs longer than this is killed; the op fails.
CLI_OP_TIMEOUT_S = 60
#: The four orthant directions, spelled so that argparse accepts them.
DIRECTIONS = ("mm", "pm", "mp", "pp")


def _write_json(path: Path, obj):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def _output_paths(argv):
    return [argv[i + 1] for i, a in enumerate(argv[:-1]) if a in ("--out", "--svg")]


def _digest(stdout: bytes, argv) -> tuple[str, int]:
    h = hashlib.sha256(stdout)
    size = len(stdout)
    for path in _output_paths(argv):
        data = Path(path).read_bytes()
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def _replay(argv) -> str:
    return "PYTHONPATH=src python3 -m bivquant.cli " + " ".join(argv)


def _in_process(cli, argv):
    """``cli.main(argv)`` with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Workloads.  Each has ``ops`` (one pass), ``run_op(op)`` returning
# ``(status, reason)``, ``describe()`` for the results file, and
# ``PASS_SECONDS``: a fixed round figure for the wall time of one untraced
# pass, as measured for the baseline on 2 shared vCPUs with Python 3.11.
# Changing it changes the ops in a run, so the baseline must be measured
# again after any change to it.
# ---------------------------------------------------------------------------


class VerifySweep:
    """``cli.main(["verify", ...])`` in-process over a 32-model pool."""

    PASS_SECONDS = 4.5

    def __init__(self, seed: int):
        import bivquant.cli

        self.cli = bivquant.cli
        self.dir = WORK / "verify-sweep"
        self.specs = inputs.draw_pool(inputs.VERIFY_LAYOUT, seed, "verify-sweep")
        self.ops = []
        for i, spec in enumerate(self.specs):
            path = self.dir / f"model-{i:02d}.json"
            _write_json(path, spec)
            self.ops.append((spec, ["verify", "--model", str(path), "--out", str(self.dir / "verify.csv")]))
        self.transcripts = []
        self.bytes_out = 0

    def run_op(self, op):
        spec, argv = op
        code, stdout, _ = _in_process(self.cli, argv)
        self.transcripts.append(stdout)
        self.bytes_out += len(stdout.encode()) + os.path.getsize(argv[-1])
        return classify.classify_verify(spec, code, stdout)

    def describe(self):
        return [{"model": spec, "replay": _replay(argv)} for spec, argv in self.ops]


class MonteCarlo:
    """Sample, empirical curve, empirical MRL and a large analytic curve, in-process."""

    PASS_SECONDS = 2.4

    def __init__(self, seed: int):
        import bivquant.curves
        import bivquant.estimation
        import bivquant.models
        import numpy

        self.np = numpy
        self.curves, self.estimation, self.models = bivquant.curves, bivquant.estimation, bivquant.models
        self.dir = WORK / "monte-carlo"
        self.specs = inputs.draw_pool(inputs.MC_LAYOUT, seed, "monte-carlo")
        self.ops = []
        for i, spec in enumerate(self.specs):
            path = self.dir / f"model-{i:02d}.json"
            _write_json(path, spec)
            model = self.models.model_from_dict(spec)
            direction = DIRECTIONS[i % 4]
            self.ops.append((spec, str(path), model, direction, seed * 1000 + i))
        self.transcripts = []
        self.bytes_out = 0

    def run_op(self, op):
        _, _, model, name, sample_seed = op
        curves, estimation = self.curves, self.estimation
        direction = self.models.Direction.from_string(name)
        draws = estimation.sample(model, MC_N, sample_seed)
        lo, hi = curves.admissible_interval(LEVEL, direction)
        empirical = estimation.empirical_curve(draws, LEVEL, direction, self.np.linspace(lo, hi, MC_GRID))
        empirical_residual = float(curves.level_residuals(model, empirical).max())
        mrl = [estimation.empirical_mrl_first(draws, u) for u in MC_MRL_U]
        analytic = curves.curve_points(model, LEVEL, direction, MC_CURVE_POINTS)
        analytic_residual = float(curves.level_residuals(model, analytic).max())
        return classify.classify_monte_carlo(
            analytic_residual, empirical_residual, MC_N, curves.CURVE_TOL, MC_K, mrl
        )

    def describe(self):
        return [
            {
                "model": spec,
                "direction": direction,
                "sample_seed": sample_seed,
                "replay": _replay(["sample", "--model", path, "--n", str(MC_N), "--seed", str(sample_seed)])
                + f" > draws.csv && PYTHONPATH=src python3 -m bivquant.cli curve --model {path}"
                f" -p {LEVEL} --dir {direction} --sample draws.csv",
            }
            for spec, path, _, direction, sample_seed in self.ops
        ]


class CliBatch:
    """A fixed mix of six subcommands, one ``python -m bivquant.cli`` process per op.

    With ``in_process`` the same argv go through ``cli.main`` instead; the
    traced run uses that, since spans cannot cross into a child process.
    """

    PASS_SECONDS = 4.3

    def __init__(self, seed: int, in_process: bool):
        self.dir = WORK / "cli-batch"
        (self.spec,) = inputs.draw_pool(inputs.CLI_LAYOUT, seed, "cli-batch", inputs.CLI_RANGES)
        model = str(self.dir / "model.json")
        _write_json(Path(model), self.spec)
        d = str(self.dir)
        m = ["--model", model]
        self.ops = [
            ("sample", ["sample", *m, "--n", "100000", "--seed", str(seed), "--out", f"{d}/draws.csv"]),
            ("curve-sample", ["curve", *m, "-p", str(LEVEL), "--dir", "mm", "--sample", f"{d}/draws.csv",
                              "--out", f"{d}/empirical.csv"]),
            ("verify", ["verify", *m, "--out", f"{d}/verify.csv"]),
            ("curve-svg", ["curve", *m, "-p", str(LEVEL), "--dir", "pp", "-n", "2000", "--out", f"{d}/curve.csv",
                           "--svg", f"{d}/curve.svg"]),
            ("field", ["field", *m, "--kind", "hazard", "--grid", "99", "--out", f"{d}/field.csv"]),
            ("reconstruct", ["reconstruct", *m, "--kind", "mrl", "--component", "second",
                             "--out", f"{d}/reconstruct.csv"]),
        ]
        self.in_process = in_process
        if in_process:
            import bivquant.cli

            self.cli = bivquant.cli
        self.reference = {}
        self.transcripts = []
        self.bytes_out = 0

    def run_op(self, op):
        name, argv = op
        if self.in_process:
            code, stdout, stderr = _in_process(self.cli, argv)
            stdout = stdout.encode()
        else:
            done = subprocess.run(
                [sys.executable, "-m", "bivquant.cli", *argv], capture_output=True, check=False,
                timeout=CLI_OP_TIMEOUT_S,
            )
            code, stdout, stderr = done.returncode, done.stdout, done.stderr.decode(errors="replace")
        if name == "verify":
            self.transcripts.append(stdout.decode())
        digest, size = _digest(stdout, argv) if code == 0 else (None, 0)
        self.bytes_out += size
        key = tuple(argv)
        verdict = classify.classify_cli(code, stderr, digest, self.reference.get(key))
        self.reference.setdefault(key, digest)
        return verdict

    def describe(self):
        return [{"op": name, "model": self.spec, "replay": _replay(argv)} for name, argv in self.ops]


def make_workload(name: str, seed: int, in_process: bool):
    if name == "verify-sweep":
        return VerifySweep(seed)
    if name == "monte-carlo":
        return MonteCarlo(seed)
    if name == "cli-batch":
        return CliBatch(seed, in_process)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Timed loop
# ---------------------------------------------------------------------------


def passes_for(workload, seconds: float) -> int:
    """Whole passes that fill about ``seconds`` at the baseline's speed.

    The count is fixed by the workload and ``seconds`` alone, so a run of
    faster or slower code times the same ops, and ``latency_tail_ms`` is read
    at the same percentile.
    """
    return max(1, round(seconds / workload.PASS_SECONDS))


def timed_loop(workload, passes: int):
    """``passes`` whole passes over ``workload.ops``."""
    latencies, failures = [], []
    start = time.perf_counter()
    for _ in range(passes):
        for index, op in enumerate(workload.ops):
            t0 = time.perf_counter()
            try:
                status, reason = workload.run_op(op)
            except Exception as exc:  # a crash of the program under test is a recorded verdict
                status, reason = classify.ERROR, f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - t0)
            if status != classify.PASS:
                failures.append({"op": index, "status": status, "reason": reason})
    return {"latencies_s": latencies, "wall_s": time.perf_counter() - start, "failures": failures}


def layer_metrics(rec, workload, ops: int) -> dict:
    """Per-op figures of the traced loop, named ``<layer>.<metric>``."""
    calls, points, errors, self_ms = rec.calls, rec.points, rec.errors, rec.self_time

    def per_op(x):
        return x / ops

    def ms(seconds):
        return seconds * 1000.0 / ops

    ratios = [r for t in workload.transcripts for r in classify.gate_ratios(t)]
    m = {
        "cli.calls": per_op(calls["cli"]),
        "cli.self_ms": ms(self_ms["cli"]),
        "cli.load_ms": ms(sum(v for k, v in rec.func_time.items() if k.startswith("cli.load_"))),
        "cli.bytes_out": per_op(workload.bytes_out),
        "cli.bytes_in": per_op(rec.bytes_in),
        "numerics.integrate_calls": per_op(calls["numerics"]),
        "numerics.integrand_points": per_op(rec.integrand_points),
        "numerics.self_ms": ms(self_ms["numerics"]),
        "reliability.calls": per_op(calls["reliability"]),
        "reliability.points": per_op(points["reliability"]),
        "reliability.points_per_call": points["reliability"] / calls["reliability"] if calls["reliability"] else 0.0,
        "reliability.self_ms": ms(self_ms["reliability"]),
        "reconstruction.calls": per_op(calls["reconstruction"]),
        "reconstruction.self_ms": ms(self_ms["reconstruction"]),
        "reconstruction.gate_ratio_median": statistics.median(ratios) if ratios else 0.0,
        "models.calls": per_op(calls["models"]),
        "models.points": per_op(points["models"]),
        "models.self_ms": ms(self_ms["models"]),
        "curves.calls": per_op(calls["curves"]),
        "curves.points": per_op(points["curves"]),
        "curves.self_ms": ms(self_ms["curves"]),
        "estimation.calls": per_op(calls["estimation"]),
        "estimation.pairs": per_op(points["estimation"]),
        "estimation.sample_ms": ms(rec.func_time["estimation.sample"]),
        "estimation.empirical_curve_ms": ms(rec.func_time["estimation.empirical_curve"]),
        "estimation.empirical_mrl_ms": ms(rec.func_time["estimation.empirical_mrl_first"]),
    }
    for layer in ("cli", "numerics", "reliability", "reconstruction", "models", "curves", "estimation"):
        m[f"{layer}.errors"] = per_op(errors[layer])
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    in_process = args.workload != "cli-batch" or bool(args.trace)

    workload = make_workload(args.workload, args.seed, in_process)
    warm = workload.run_op(workload.ops[0])
    ready = time.monotonic()
    result = {"ready_monotonic": ready, "warmup": list(warm)}
    if args.mode == "run":
        workload.transcripts.clear()
        workload.bytes_out = 0
        passes = passes_for(workload, args.seconds / 2.0 if args.trace else args.seconds)
        loops = [timed_loop(workload, passes)]
        if args.trace:
            import spans

            workload.transcripts.clear()
            workload.bytes_out = 0
            rec, uninstall = spans.install()
            try:
                loops.append(timed_loop(workload, passes))
            finally:
                uninstall()
            traced = loops[1]
            result["layers"] = layer_metrics(rec, workload, len(traced["latencies_s"]))
            untraced_rate = len(loops[0]["latencies_s"]) / loops[0]["wall_s"]
            traced_rate = len(traced["latencies_s"]) / traced["wall_s"]
            result["layers"]["trace.overhead_ratio"] = untraced_rate / traced_rate
        result.update(
            loops=loops,
            # cli-batch: ru_maxrss of the largest child, i.e. the maximum over the ops
            peak_rss_mb=resource.getrusage(
                resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
            ).ru_maxrss / 1024.0,
            ops=workload.describe(),
        )
    _write_json(Path(args.result), result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
