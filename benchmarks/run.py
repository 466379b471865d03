"""Layered benchmark of ``bivquant``: one command, three workloads.

Usage, from the repository root::

    python3 benchmarks/run.py --workload verify-sweep --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20

``--workload`` is ``verify-sweep``, ``monte-carlo``, ``cli-batch`` or
``all``.  With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the per-layer ones.  The code under
test is ``src/bivquant``, run from source with ``src`` on ``PYTHONPATH``.
Every op gets a verdict (see ``classify.py``).  The run prints a table, the
path of a results file under ``.bench_work/results`` that lists the model
specs, the op mix, a replay command per op and every failed op, and as its
last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import importprof

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("verify-sweep", "monte-carlo", "cli-batch")

#: Fresh interpreters whose set-up time ``setup_s`` takes the median of.
SETUP_SAMPLES = 5
#: Interpreters per figure in the import profile.
IMPORT_RUNS = 5
#: Samples a tail latency must leave beyond it.
TAIL_BEYOND = 10
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170


def _worker(args, workload: str, mode: str, env: dict) -> tuple[dict, float]:
    """Run one worker; returns its result and its set-up time in seconds."""
    result = ROOT / ".bench_work" / "results" / f"{workload}-worker.json"
    result.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--mode", mode, "--result", str(result),
    ]
    start = time.monotonic()
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=WORKER_TIMEOUT_S)
    data = json.loads(result.read_text(encoding="utf-8"))
    return data, data["ready_monotonic"] - start


def tail_latency(sorted_ms: list[float]) -> tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it: (value, percentile)."""
    n = len(sorted_ms)
    index = max(n - TAIL_BEYOND - 1, 0)
    return sorted_ms[index], 100.0 * index / max(n - 1, 1)


def end_to_end(loop: dict, setup_samples: list[float], peak_rss_mb: float) -> tuple[dict, dict]:
    """End-to-end metric values, and the facts recorded next to them."""
    latencies = sorted(s * 1000.0 for s in loop["latencies_s"])
    n = len(latencies)
    failed = len(loop["failures"])
    tail, percentile = tail_latency(latencies)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": n / loop["wall_s"],
        "latency_p50_ms": statistics.median(latencies),
        "latency_tail_ms": tail,
        "peak_rss_mb": peak_rss_mb,
        "pass_rate": 1.0 - failed / n,
    }
    facts = {
        "error_rate": failed / n,
        "samples": n,
        "latency_tail_percentile": percentile,
        "setup_samples": len(setup_samples),
    }
    return metrics, facts


def src_loc() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((ROOT / "src" / "bivquant").glob("*.py")))


def run_workload(args, workload: str, env: dict) -> dict:
    setup_samples = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setup_samples.append(_worker(args, workload, "setup", env)[1])
    data, setup = _worker(args, workload, "run", env)
    setup_samples.append(setup)
    loops = data["loops"]
    failures = [f for loop in loops for f in loop["failures"]]
    failed = len(failures)
    if data["warmup"][0] != "pass":
        failures.append({"op": 0, "status": data["warmup"][0], "reason": "warm-up: " + data["warmup"][1]})
    for f in failures:
        f.update(workload=workload, **data["ops"][f["op"]])
    attempted = sum(len(loop["latencies_s"]) for loop in loops)
    if args.trace:
        metrics = {**data["layers"], **importprof.profile(env, IMPORT_RUNS), "src.loc": src_loc()}
        facts = {"samples": attempted}
    else:
        metrics, facts = end_to_end(loops[0], setup_samples, data["peak_rss_mb"])
    return {
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": all(f["status"] != "error" for f in failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "facts": facts,
        "setup_samples_s": setup_samples,
        "mix": data["ops"],
        "failures": failures,
    }


def _table(results: list[dict], metric_specs: list[dict]) -> str:
    names = [m["name"] for m in metric_specs]
    units = {m["name"]: m["unit"] for m in metric_specs}
    lines = []
    if results[0]["trace"]:
        for r in results:
            lines.append(f"{r['workload']} (traced, {r['attempted']} ops)")
            lines.extend(f"  {n:34s} {r['metrics'][n]:14.6g} {units[n]}" for n in names)
        return "\n".join(lines)
    fact_names = ("error_rate [ratio]",)
    header = ["workload"] + [f"{n} [{units[n]}]" for n in names] + list(fact_names) + ["ops", "tail pct"]
    rows = [header]
    for r in results:
        facts = r["facts"]
        rows.append(
            [r["workload"]]
            + [f"{r['metrics'][n]:.6g}" for n in names]
            + [f"{facts[f.split()[0]]:.6g}" for f in fact_names]
            + [str(facts["samples"]), f"p{facts['latency_tail_percentile']:.1f}"]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    return "\n".join("  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bivquant" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bivquant sources under {ROOT / 'src'}; run from a full checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_specs = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # compile the sources once, so no timed interpreter pays for writing bytecode
    subprocess.run([sys.executable, "-c", "import bivquant.cli"], cwd=ROOT, env=env, check=True)

    results = []
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(args, workload, env)
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            sys.stderr.write(f"error: {workload} worker failed: {exc}\n")
            return 1
        missing = [m["name"] for m in metric_specs if m["name"] not in result["metrics"]]
        if missing:
            sys.stderr.write(f"error: {workload} did not measure {missing}\n")
            return 1
        path = ROOT / ".bench_work" / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
        result["results_file"] = str(path.relative_to(ROOT))
        results.append(result)

    print(_table(results, metric_specs))
    for r in results:
        print(f"results: {r['results_file']}")
    for r in results:
        print(json.dumps({
            "correct": r["correct"],
            "attempted": r["attempted"],
            "failed": r["failed"],
            "metrics": {
                m["name"]: {"value": r["metrics"][m["name"]], "unit": m["unit"]} for m in metric_specs
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
