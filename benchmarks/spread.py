"""Run the benchmark on ten seeds and report each metric's spread.

Usage, from the repository root::

    python3 benchmarks/spread.py --workload cli-batch
    python3 benchmarks/spread.py --workload all --sets 2 --traced --baseline benchmarks/BASELINE.json

A set is one run on each of the seeds 1..10.  For every end-to-end metric
the spread of a set is the distance between the first and third quartile of
its per-run values (``statistics.quantiles(n=4)``) as a share of their
median, printed next to the metric's bound from ``BENCHMARK.json``.  With
``--sets 2`` the second set runs right after the first on the same code,
and the shift of each median from the first set to the second is printed
next to the bound as well.  ``--baseline`` writes every set (per-run values,
medians, quartiles, op counts, tail percentiles and the failing ops per
seed), the median shifts, the traced runs and a note on the software the
figures were measured with.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

#: Runs in a set, one per seed 1..RUNS.
RUNS = 10


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, check=True, capture_output=True, text=True,
    )
    line = json.loads(done.stdout.strip().splitlines()[-1])
    results = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    details = json.loads(results.read_text(encoding="utf-8"))
    return line, details


def run_set(workload: str, spec: dict) -> dict:
    runs = []
    for seed in range(1, RUNS + 1):
        line, details = run_once(workload, seed, spec["run_seconds"])
        runs.append({
            "correct": line["correct"],
            "attempted": line["attempted"],
            "failed": line["failed"],
            "failing_ops": sorted({f["op"] for f in details["failures"]}),
            "latency_tail_percentile": details["facts"]["latency_tail_percentile"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()},
        })
        print(f"{workload} seed {seed}: " + " ".join(
            f"{k}={v:.5g}" for k, v in runs[-1]["metrics"].items()), flush=True)
    summary = {}
    for metric in spec["end_to_end"]:
        values = [r["metrics"][metric["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
        summary[metric["name"]] = {
            "unit": metric["unit"], "median": median, "q1": q1, "q3": q3, "spread": spread,
            "bound": metric["bound"], "values": values,
        }
        flag = "ok" if spread < metric["bound"] / 3 else ("within bound" if spread <= metric["bound"] else "WIDE")
        print(f"  {workload:12s} {metric['name']:16s} median {median:10.5g} {metric['unit']:6s} "
              f"spread {spread:.4f} bound {metric['bound']} {flag}")
    return {
        "metrics": summary,
        "ops_per_run": [r["attempted"] for r in runs],
        "failed_per_run": [r["failed"] for r in runs],
        "failing_ops_per_run": [r["failing_ops"] for r in runs],
        "latency_tail_percentile_per_run": [r["latency_tail_percentile"] for r in runs],
        "correct": all(r["correct"] for r in runs),
    }


def median_shifts(first: dict, later: dict, spec: dict) -> dict:
    """How much worse each median got from ``first`` to ``later``, as a share of the first."""
    shifts = {}
    for metric in spec["end_to_end"]:
        a = first["metrics"][metric["name"]]["median"]
        b = later["metrics"][metric["name"]]["median"]
        worse = (b - a) if metric["better"] == "lower" else (a - b)
        shifts[metric["name"]] = worse / a
    return shifts


def note() -> str:
    versions = ", ".join(f"{p} {importlib.metadata.version(p)}" for p in ("numpy", "scipy"))
    return (
        f"Python {platform.python_version()}, {versions}, {os.cpu_count()} CPUs. "
        "Each set is one run per seed 1..10; the sets ran back to back on the same code."
    )


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*names, "all"), required=True)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--baseline", default=None, help="write every set to this JSON file")
    parser.add_argument("--traced", action="store_true", help="add one traced run (seed 1) per workload")
    args = parser.parse_args(argv)

    baseline = {"run_seconds": spec["run_seconds"], "runs": RUNS, "note": note(), "workloads": {}}
    for workload in names if args.workload == "all" else [args.workload]:
        sets = [run_set(workload, spec) for _ in range(args.sets)]
        entry = {"sets": sets}
        if args.sets == 2:
            entry["median_shift"] = median_shifts(sets[0], sets[1], spec)
            for metric in spec["end_to_end"]:
                shift = entry["median_shift"][metric["name"]]
                flag = "ok" if shift <= metric["bound"] else "WORSE THAN BOUND"
                print(f"  {workload:12s} {metric['name']:16s} second median worse by {shift:+.4f} "
                      f"bound {metric['bound']} {flag}")
        if args.traced:
            line, _ = run_once(workload, 1, spec["run_seconds"], trace=1)
            entry["traced"] = {"seed": 1, "ops": line["attempted"], "metrics": line["metrics"]}
        baseline["workloads"][workload] = entry
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
