"""Batch command-line surface.

Subcommands: ``curve``, ``field``, ``reconstruct``, ``verify``, ``sample``.
Exit codes: 0 success, 1 verification failure, 2 usage error (an output
too large to allocate among them; ``sample`` allocates no n-row output),
3 I/O or model-specification error.
All outputs (CSV, JSON, SVG, reports) are byte-identical across re-runs
for identical inputs; numbers are serialized with 9 significant digits in CSV.

:func:`main` loads the model and numerics config and hands both to the
subcommand.  Every row of numbers goes through one row formatter, :func:`_rows`:
the CSV tables of :func:`_write_csv` (``verify --out``'s too, the check name
in the template) and the SVG polyline.  ``sample`` never holds its n pairs: it reads
:func:`bivquant.estimation.sample_blocks` to the end once, so a draw that
overflows is one error before any output, then draws the same blocks again
into the writer.
``verify`` formats the records of :func:`bivquant.reconstruction.verify`;
the check names, grids and tolerances live in
:data:`bivquant.reconstruction.CHECKS` alone.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import curves, estimation, models, reconstruction, reliability
from .errors import BivquantError, ConfigError, ModelSpecError
from .numerics import NumericConfig, require_integer, require_keys


#: Every serialized number: 9 significant digits ("%.9g" % v == format(v, ".9g")).
_NUMBER = "%.9g"


def _fmt(x) -> str:
    return _NUMBER % float(x)


def _row(n_numbers: int) -> str:
    """%-template of n comma-separated numbers."""
    return ",".join([_NUMBER] * n_numbers)


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _load_json(path: str, what: str, error: type[BivquantError]):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except ValueError as exc:  # JSONDecodeError, and UnicodeDecodeError for a non-UTF-8 file
        raise error(f"{what} file {path!r} is not valid JSON: {exc}") from exc


def load_model(path: str) -> models.BivariateModel:
    return models.model_from_dict(_load_json(path, "model", ModelSpecError))


def load_numeric_config(path: str | None) -> NumericConfig | None:
    """Apply a strict {"numerics": {...}} override file onto the package defaults."""
    if path is None:
        return None
    payload = _load_json(path, "config", ConfigError)
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    require_keys("config keys", payload, {"numerics"}, (), ConfigError)
    overrides = payload.get("numerics", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'numerics' must be an object")
    require_keys("numerics keys", overrides, {f.name for f in fields(NumericConfig)}, (), ConfigError)
    return NumericConfig(**overrides)


def load_sample_csv(path: str) -> estimation.SampleSet:
    """Read an 'x,y' sample CSV back into a SampleSet."""
    try:
        with warnings.catch_warnings():
            # a header-only file is reported below, as one error
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise ModelSpecError(f"sample file {path!r} is not a two-column CSV: {exc}") from exc
    if data.size == 0:
        raise ModelSpecError(f"sample file {path!r} has no rows")
    if data.shape[1] != 2:
        raise ModelSpecError(f"sample file {path!r} must have exactly two columns (x,y)")
    if not np.isfinite(data).all():
        raise ModelSpecError(f"sample file {path!r} holds a non-finite value")
    return estimation.SampleSet(data)


def _write(path: str | None, chunks):
    """Write the strings of ``chunks`` in turn to the file at ``path``, or to stdout when it is None."""
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(chunks)


def _rows(table, template: str):
    """``template % row`` for each row of the 2-d float ``table``, joined 1,024 rows at a time.

    Filled once per row from ``tolist()`` floats, a template prints what _fmt
    prints per value at about half the cost.  The chunks bound memory: a whole
    1e5-row sample would hold about 12 MB as floats and 10 MB as joined text.
    """
    for start in range(0, len(table), 1024):
        yield "".join([template % tuple(row) for row in table[start : start + 1024].tolist()])


def _write_csv(path: str | None, header: str, tables):
    """The header, then one line per row of each (2-d float table, row template) pair of ``tables`` in turn.

    ``tables`` may be an iterator, read one table at a time while writing.
    """
    def lines():
        yield header + "\n"
        for table, template in tables:
            yield from _rows(table, template + "\n")

    _write(path, lines())


# ---------------------------------------------------------------------------
# SVG rendering (hand-emitted polyline plot; no plotting dependency)
# ---------------------------------------------------------------------------


def render_curve_svg(curve: curves.QuantileCurve) -> str:
    width, height = 800, 600
    xs, ys = curve.x, curve.y
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    x_pad = 0.05 * (x_hi - x_lo) or 0.5
    y_pad = 0.05 * (y_hi - y_lo) or 0.5
    x_lo, x_hi = x_lo - x_pad, x_hi + x_pad
    y_lo, y_hi = y_lo - y_pad, y_hi + y_pad

    ml, mr, mt, mb = 60.0, 20.0, 20.0, 45.0
    pw, ph = width - ml - mr, height - mt - mb

    scaled = np.column_stack([ml + (xs - x_lo) / (x_hi - x_lo) * pw, mt + (y_hi - ys) / (y_hi - y_lo) * ph])
    pts = "".join(_rows(scaled, " " + _row(2)))[1:]  # "x,y" pairs joined by single spaces
    legend = f"p={_fmt(curve.p)}, direction={curve.direction}"
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{_fmt(ml)}" y1="{_fmt(mt)}" x2="{_fmt(ml)}" y2="{_fmt(height - mb)}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_fmt(ml)}" y1="{_fmt(height - mb)}" x2="{_fmt(width - mr)}" '
        f'y2="{_fmt(height - mb)}" stroke="black" stroke-width="1"/>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{pts}"/>',
        f'<text x="{_fmt(ml + pw / 2)}" y="{_fmt(height - 8)}" text-anchor="middle" '
        f'font-size="14">x</text>',
        f'<text x="{_fmt(18.0)}" y="{_fmt(mt + ph / 2)}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {_fmt(mt + ph / 2)})">y</text>',
        f'<text x="{_fmt(ml)}" y="{_fmt(height - mb + 16)}" text-anchor="middle" '
        f'font-size="11">{_fmt(x_lo)}</text>',
        f'<text x="{_fmt(width - mr)}" y="{_fmt(height - mb + 16)}" text-anchor="middle" '
        f'font-size="11">{_fmt(x_hi)}</text>',
        f'<text x="{_fmt(ml - 6)}" y="{_fmt(height - mb)}" text-anchor="end" '
        f'font-size="11">{_fmt(y_lo)}</text>',
        f'<text x="{_fmt(ml - 6)}" y="{_fmt(mt + 10)}" text-anchor="end" '
        f'font-size="11">{_fmt(y_hi)}</text>',
        f'<text x="{_fmt(width - mr)}" y="{_fmt(mt + 14)}" text-anchor="end" '
        f'font-size="13">{legend}</text>',
        "</svg>",
    ]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_curve(args, model, cfg) -> int:
    direction = models.Direction.from_string(args.dir)
    if args.sample:
        grid = curves.uniform_grid(args.level, direction, args.points)  # the grid curve_points takes
        curve = estimation.empirical_curve(load_sample_csv(args.sample), args.level, direction, grid)
    else:
        curve = curves.curve_points(model, args.level, direction, args.points, cfg)
    residuals = curves.level_residuals(model, curve)
    if args.format == "csv":
        _write_csv(args.out, "u,x,y,orthant_prob_residual", [(np.column_stack([curve.points, residuals]), _row(4))])
    else:
        _write(args.out, [json.dumps(curve.to_dict(), sort_keys=True, indent=2) + "\n"])
    if args.svg:
        _write(args.svg, [render_curve_svg(curve)])
    return 0


def cmd_field(args, model, cfg) -> int:
    first_fn, second_fn = reliability.QUANTITIES[args.kind]
    require_integer("grid", args.grid, 1)
    probs = np.arange(1, args.grid + 1) / (args.grid + 1.0)
    firsts = first_fn(model, probs, cfg)
    # one row of seconds per conditioning level u
    seconds = second_fn(model, probs[:, None], probs[None, :], cfg)
    g = args.grid  # row-major over (u, p_cond)
    table = np.column_stack([np.repeat(probs, g), np.tile(probs, g), np.repeat(firsts, g), seconds.ravel()])
    _write_csv(args.out, "u,p_cond,first,second,kind", [(table, f"{_row(4)},{args.kind}")])
    return 0


def cmd_reconstruct(args, model, cfg) -> int:
    require_integer("grid", args.grid, 1)
    ts = np.linspace(*reconstruction.INVERSE_MAPS[args.kind].t_range, args.grid)
    rec, ref = reconstruction.round_trip(model, args.kind, args.component, args.conditioning_u, ts, cfg)
    table = np.column_stack([ts, rec, ref, np.abs(rec - ref)])
    _write_csv(args.out, "t,reconstructed,reference,abs_error", [(table, _row(4))])
    return 0


def cmd_verify(args, model, cfg) -> int:
    records = reconstruction.verify(model, cfg)
    for r in records:
        if r.residuals is None:
            sys.stdout.write(f"{r.name}: FAIL ({r.note})\n")
        else:
            status = "PASS" if r.passed else "FAIL"
            sys.stdout.write(f"{r.name}: max_residual={_fmt(r.max_residual)} tol={_fmt(r.tol)} {status}\n")
    all_pass = all(r.passed for r in records)
    checked = [r.max_residual for r in records if r.residuals is not None]
    worst = float(np.max(checked)) if checked else float("nan")  # NaN if any residual is NaN
    sys.stdout.write(f"max residual over all checks: {_fmt(worst)}\n")
    sys.stdout.write(f"verify: {'PASS' if all_pass else 'FAIL'}\n")
    if args.out:  # the identity residuals, one row per t
        identities = [r for check, r in zip(reconstruction.CHECKS, records)
                      if check.quantity is None and r.residuals is not None]
        _write_csv(args.out, "check,t,residual",
                   [(np.column_stack([r.ts, r.residuals]), f"{r.name},{_row(2)}") for r in identities])
    return 0 if all_pass else 1


def cmd_sample(args, model, cfg) -> int:
    # the check pass draws every block and keeps none: a draw that overflows is raised before a byte is written
    for _ in estimation.sample_blocks(model, args.n, args.seed, cfg):
        pass
    _write_csv(args.out, "x,y", ((block, _row(2)) for block in estimation.sample_blocks(model, args.n, args.seed, cfg)))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, shared by every :func:`main` call; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="bivquant",
        description="Bivariate quantile curves and quantile-curve reliability analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--model", required=True, help="model specification JSON file")
    common.add_argument("--out", default=None, help="output file (default: stdout)")
    common.add_argument("--config", default=None, help="numerics override JSON file")

    p_curve = sub.add_parser("curve", parents=[common], help="emit one quantile curve")
    p_curve.add_argument("-p", "--level", type=float, required=True)
    p_curve.add_argument("--dir", choices=("--", "+-", "-+", "++", "mm", "pm", "mp", "pp"),
                         required=True,
                         help="orthant direction; mm/pm/mp/pp spell the sign pairs for "
                              "values the shell or argparse would eat ('--', '-+')")
    p_curve.add_argument("-n", "--points", type=int, default=200)
    p_curve.add_argument("--format", choices=("csv", "json"), default="csv")
    p_curve.add_argument("--svg", default=None, help="also write an SVG polyline plot")
    p_curve.add_argument("--sample", default=None,
                         help="sample CSV (x,y header): emit the empirical curve instead")

    p_field = sub.add_parser("field", parents=[common], help="emit a reliability field grid")
    p_field.add_argument("--kind", choices=tuple(reliability.QUANTITIES), required=True)
    p_field.add_argument("--grid", type=int, default=9)

    p_recon = sub.add_parser("reconstruct", parents=[common],
                             help="rebuild a quantile function from a reliability component")
    p_recon.add_argument("--kind", choices=tuple(reliability.QUANTITIES), required=True)
    p_recon.add_argument("--component", choices=reconstruction.COMPONENTS, default="first")
    p_recon.add_argument("--conditioning-u", type=float, default=0.5)
    p_recon.add_argument("--grid", type=int, default=33)

    sub.add_parser("verify", parents=[common],
                   help="run all round trips and the hazard/MRL identity")

    p_sample = sub.add_parser("sample", parents=[common], help="draw a seeded sample CSV")
    p_sample.add_argument("--n", type=int, required=True)
    p_sample.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "curve": cmd_curve,
    "field": cmd_field,
    "reconstruct": cmd_reconstruct,
    "verify": cmd_verify,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        model, cfg = load_model(args.model), load_numeric_config(args.config)
        return _COMMANDS[args.command](args, model, cfg)
    except (ModelSpecError, ConfigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BivquantError as exc:  # usage errors and numerical breakdowns
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError as exc:  # an output too large to allocate: a usage error, not a failed check
        sys.stderr.write(f"error: {str(exc) or 'out of memory'}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
