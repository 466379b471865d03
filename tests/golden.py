"""Golden digests of CLI runs, checked by ``test_golden.py``.

A case is one or more ``bivquant`` commands run in-process through
``cli.main`` in an empty working directory that holds only ``model.json``
(and ``cfg.json`` when the case names a config).  Its digest is one
sha256, cut to 32 hex digits, over each command's exit code, stdout,
stderr and every file its ``--out``/``--svg`` names.  ``golden_cli.json`` stores the input texts,
one digest per case id, and the fingerprint of the platform that made
them: the last bits of numpy's ``log`` and ``pow`` follow its version and
its enabled CPU dispatch features.

A case id reads ``<model>[+<config>]: <args>[ ; <args>]``; every command
gets ``--model model.json`` (and ``--config cfg.json``) appended.  Input
files are written as latin-1, so an input can hold a non-UTF-8 byte.

Run as a script to rewrite ``golden_cli.json``::

    PYTHONPATH=src python tests/golden.py

It re-digests the cases already in the file and prints each case whose
digest changed.  Without the file it first builds the cases: the
``verify-sweep`` models of seeds 1-2 and the ``cli-batch`` models of seeds 1-3 from
``benchmarks/inputs.py``, and the malformed inputs of
``test_cli.py::TestMalformedInputs::test_one_error_line``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

from bivquant import cli

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
POOL_SEEDS = (1, 2)  #: seeds of the ``verify-sweep`` pools; more would pass the 2 s budget
CLI_SEEDS = (1, 2, 3)
KINDS = ("hazard", "mrl", "rev-hazard", "rev-mrl")
DIRECTIONS = ("mm", "pm", "mp", "pp")


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)],
    }


def fingerprint_drift(recorded: dict) -> str:
    """How this platform differs from ``recorded``; empty when it matches."""
    here = fingerprint()
    drift = [f"{key} {recorded[key]} here {here[key]}" for key in ("python", "numpy") if recorded[key] != here[key]]
    if recorded["cpu_dispatch"] != here["cpu_dispatch"]:
        missing = sorted(set(recorded["cpu_dispatch"]) - set(here["cpu_dispatch"]))
        extra = sorted(set(here["cpu_dispatch"]) - set(recorded["cpu_dispatch"]))
        drift.append(f"CPU dispatch features missing here {missing}, only here {extra}")
    return "; ".join(drift)


def _digest(case: str, inputs: dict[str, str]) -> str:
    """Run ``case`` in the current, empty directory and empty it again; the sha256 of what it showed."""
    names, _, commands = case.partition(": ")
    model, _, config = names.partition("+")
    files = {"model.json": inputs[model]} | ({"cfg.json": inputs[config]} if config else {})
    for name, text in files.items():
        Path(name).write_bytes(text.encode("latin-1"))
    h = hashlib.sha256()
    for command in commands.split(" ; "):
        argv = command.split(" ") + ["--model", "model.json"] + (["--config", "cfg.json"] if config else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        h.update(f"exit {rc}\n".encode())
        shown = [("stdout", out.getvalue().encode()), ("stderr", err.getvalue().encode())]
        for flag, path in zip(argv, argv[1:]):
            if flag in ("--out", "--svg"):
                shown.append((path, Path(path).read_bytes() if os.path.exists(path) else None))
        for label, data in shown:
            h.update(f"{label} absent\n".encode() if data is None else f"{label} {len(data)}\n".encode() + data)
    for name in os.listdir():
        os.remove(name)
    return h.hexdigest()[:32]


def digests(golden: dict) -> dict[str, str]:
    """The digest of every case of ``golden``, each run in the same temporary working directory."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            return {case: _digest(case, golden["inputs"]) for case in golden["cases"]}
        finally:
            os.chdir(here)


def build() -> dict:
    """The inputs and case ids, each with an empty digest."""
    sys.path.insert(0, str(GOLDEN.parent))
    from conftest import bench_inputs
    from test_cli import TestMalformedInputs

    inputs_module = bench_inputs()
    inputs, cases = {}, []
    pool_runs = (
        ["verify --out out.csv"]
        + [f"field --kind {kind} --out out.csv" for kind in KINDS]
        + [f"reconstruct --kind {kind} --component {c} --out out.csv" for kind in KINDS for c in ("first", "second")]
    )
    curve_runs = [f"curve -p 0.5 --dir {d} --out out.csv" for d in DIRECTIONS]
    for seed in POOL_SEEDS:
        pool = inputs_module.draw_pool(inputs_module.VERIFY_LAYOUT, seed, "verify-sweep")
        for i, spec in enumerate(pool):
            inputs[f"vs{seed}-{i:02d}"] = json.dumps(spec)
            # curves on the first pool only, for the same budget
            cases += [f"vs{seed}-{i:02d}: {run}" for run in pool_runs + (curve_runs if seed == POOL_SEEDS[0] else [])]
    for seed in CLI_SEEDS:
        (spec,) = inputs_module.draw_pool(inputs_module.CLI_LAYOUT, seed, "cli-batch", inputs_module.CLI_RANGES)
        inputs[f"cb{seed}"] = json.dumps(spec)
        cases += [f"cb{seed}: {run}" for run in pool_runs + curve_runs] + [
            f"cb{seed}: {run}"
            for run in (
                "verify",
                f"sample --n 20 --seed {seed}",
                "curve -p 0.3 --dir pp -n 40 --format json --out out.json --svg out.svg",
                f"sample --n 500 --seed {seed} --out draws.csv ; curve -p 0.5 --dir mm --sample draws.csv",
                "field --kind hazard --grid 0 --out out.csv",
                "reconstruct --kind hazard --grid 0 --out out.csv",
            )
        ]
    # the malformed inputs of test_one_error_line, as its parametrize mark lists them
    (mark,) = [m for m in TestMalformedInputs.test_one_error_line.pytestmark if m.name == "parametrize"]
    for name, (model, config, command, _) in zip(mark.kwargs["ids"], mark.args[1]):
        inputs[name] = model.decode("latin-1")
        if config is not None:
            inputs[f"{name}-cfg"] = config.decode("latin-1")
        names = name + (f"+{name}-cfg" if config is not None else "")
        cases.append(f"{names}: {' '.join(command)} --out out.csv")
    return {"inputs": inputs, "cases": dict.fromkeys(cases, "")}


def main() -> int:
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else build()
    fresh = digests(golden)
    changed = [case for case, d in fresh.items() if golden["cases"][case] not in ("", d)]
    golden["fingerprint"], golden["cases"] = fingerprint(), fresh
    ordered = {key: golden[key] for key in ("fingerprint", "inputs", "cases")}
    GOLDEN.write_text(json.dumps(ordered, indent=1, ensure_ascii=True) + "\n")
    print(f"wrote {len(fresh)} digests to {GOLDEN.name}; {len(changed)} changed")
    for case in changed:
        print(f"  {case}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
