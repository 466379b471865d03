"""Import-time profile of ``bivquant`` from ``python -X importtime``.

``import.python_ms`` is the wall time of a bare ``python -c pass``.  The
other figures come from the ``-X importtime`` tree of ``import bivquant``:
``import.bivquant_ms`` is the cumulative time of the ``bivquant`` entry, and
``import.numpy_ms``/``import.scipy_ms`` are the cumulative times of the
outermost ``numpy``/``scipy`` entries, wherever in the tree they occur.  A
module one package drags in from the other (``scipy.special`` imports
``numpy.f2py``) is charged to the package that imported it.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

FAMILIES = ("numpy", "scipy")


def parse_importtime(text: str) -> dict:
    """Millisecond totals from one ``-X importtime`` stderr transcript.

    The transcript lists each module after the modules it imported, indented
    two spaces per nesting level, so a line's children are the lines one
    level deeper that precede it.
    """
    pending: dict[int, list] = {}
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative_us, label = line.split(":", 1)[1].split("|")
        label = label[1:]
        depth = (len(label) - len(label.lstrip(" "))) // 2
        node = (label.strip(), int(cumulative_us), pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    totals = {"bivquant": 0.0, **{f: 0.0 for f in FAMILIES}}

    def walk(node, inside_family: bool):
        name, cumulative_us, children = node
        family = name.split(".")[0]
        if name == "bivquant":
            totals["bivquant"] += cumulative_us / 1000.0
        if family in FAMILIES and not inside_family:
            totals[family] += cumulative_us / 1000.0
        for child in children:
            walk(child, inside_family or family in FAMILIES)

    for roots in pending.values():
        for root in roots:
            walk(root, False)
    return totals


def profile(env: dict, runs: int) -> dict:
    """Medians over ``runs`` fresh interpreters, as ``import.*`` metrics in ms."""
    bare, trees = [], []
    for _ in range(runs):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append((time.perf_counter() - start) * 1000.0)
        done = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import bivquant"],
            env=env, check=True, capture_output=True, text=True,
        )
        trees.append(parse_importtime(done.stderr))
    return {
        "import.python_ms": statistics.median(bare),
        "import.numpy_ms": statistics.median(t["numpy"] for t in trees),
        "import.scipy_ms": statistics.median(t["scipy"] for t in trees),
        "import.bivquant_ms": statistics.median(t["bivquant"] for t in trees),
    }
