"""Batch command-line surface.

Subcommands: ``curve``, ``field``, ``reconstruct``, ``verify``, ``sample``.
Exit codes: 0 success, 1 verification failure, 2 usage error, 3 I/O or
model-specification error.  All outputs (CSV, JSON, SVG, reports) are
byte-identical across re-runs for identical inputs; numbers are
serialized with 9 significant digits in CSV.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields

import numpy as np

from . import curves, estimation, models, reconstruction, reliability
from .errors import BivquantError, ConfigError, DomainError, InfiniteMeanError, ModelSpecError
from .numerics import NumericConfig

ROUND_TRIP_TOL = 1e-4
IDENTITY_TOL = 1e-6
VERIFY_CONDITIONING_U = 0.5


#: Every serialized number: 9 significant digits ("%.9g" % v == format(v, ".9g")).
_NUMBER = "%.9g"


def _fmt(x) -> str:
    return _NUMBER % float(x)


def _row(n_numbers: int) -> str:
    """%-template of n comma-separated numbers.

    Filled once per row from ``tolist()`` floats, it prints what _fmt prints
    per value at about half the cost.
    """
    return ",".join([_NUMBER] * n_numbers)


def _float_rows(table: np.ndarray):
    """Rows of a 2-d array as lists of floats, converted 1,024 rows at a time.

    A whole-table ``tolist()`` of a 1e5-row sample would hold about 12 MB of
    float objects at once.
    """
    for start in range(0, len(table), 1024):
        yield from table[start : start + 1024].tolist()


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def load_model(path: str) -> models.BivariateModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelSpecError(f"model file {path!r} is not valid JSON: {exc}") from exc
    return models.model_from_dict(payload)


def load_numeric_config(path: str | None) -> NumericConfig | None:
    """Apply a strict {"numerics": {...}} override file onto the package defaults."""
    if path is None:
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(payload) - {"numerics"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    overrides = payload.get("numerics", {})
    if not isinstance(overrides, dict):
        raise ConfigError("'numerics' must be an object")
    allowed = {f.name for f in fields(NumericConfig)}
    bad = set(overrides) - allowed
    if bad:
        raise ConfigError(f"unknown numerics keys: {sorted(bad)}")
    return NumericConfig(**overrides)


def load_sample_csv(path: str, model_tag: str = "") -> estimation.SampleSet:
    """Read an 'x,y' sample CSV back into a SampleSet (seed unknown: -1)."""
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
    return estimation.SampleSet(pairs=data, seed=-1, n=data.shape[0], model_tag=model_tag)


def _write_text(path: str | None, text: str):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _csv(header: str, rows) -> str:
    return "\n".join([header, *rows]) + "\n"


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

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * pw

    def sy(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * ph

    pts = " ".join(f"{_fmt(sx(a))},{_fmt(sy(b))}" for a, b in zip(xs, ys))
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


def cmd_curve(args) -> int:
    model = load_model(args.model)
    cfg = load_numeric_config(args.config)
    direction = models.Direction.from_string(args.dir)
    # the rule of curves.curve_points, applied to the --sample path too
    if args.points < 2:
        raise DomainError(f"n_points must be an integer >= 2, got {args.points!r}")
    if args.sample:
        draws = load_sample_csv(args.sample, model.describe())
        lo, hi = curves.admissible_interval(args.level, direction)
        grid = np.linspace(lo, hi, args.points)
        curve = estimation.empirical_curve(draws, args.level, direction, grid)
    else:
        curve = curves.curve_points(model, args.level, direction, args.points, cfg)
    residuals = curves.level_residuals(model, curve)
    if args.format == "csv":
        template = _row(4)
        table = np.column_stack([curve.points, residuals])
        rows = (template % (u, x, y, r) for u, x, y, r in _float_rows(table))
        _write_text(args.out, _csv("u,x,y,orthant_prob_residual", rows))
    else:
        _write_text(args.out, json.dumps(curve.to_dict(), sort_keys=True, indent=2) + "\n")
    if args.svg:
        _write_text(args.svg, render_curve_svg(curve))
    return 0


def cmd_field(args) -> int:
    model = load_model(args.model)
    cfg = load_numeric_config(args.config)
    first_fn, second_fn = reliability.QUANTITIES[args.kind]
    if args.grid < 1:
        raise DomainError(f"grid must be >= 1, got {args.grid}")
    probs = np.arange(1, args.grid + 1) / (args.grid + 1.0)
    firsts = first_fn(model, probs, cfg)
    # one row of seconds per conditioning level u
    seconds = second_fn(model, probs[:, None], probs[None, :], cfg)
    template, ps = _row(4) + ",%s", probs.tolist()
    rows = (
        template % (u, p, first, s, args.kind)
        for u, first, row in zip(ps, firsts.tolist(), seconds)
        for p, s in zip(ps, row.tolist())
    )
    _write_text(args.out, _csv("u,p_cond,first,second,kind", rows))
    return 0


def cmd_reconstruct(args) -> int:
    model = load_model(args.model)
    cfg = load_numeric_config(args.config)
    if args.grid < 1:
        raise DomainError(f"grid must be >= 1, got {args.grid}")
    ts = np.linspace(*reconstruction.INVERSE_MAPS[args.kind][1], args.grid)
    rec, ref = reconstruction.round_trip(model, args.kind, args.component, args.conditioning_u, ts, cfg)
    template = _row(4)
    rows = (
        template % (t, a, b, abs(a - b))
        for t, a, b in zip(ts.tolist(), rec.tolist(), ref.tolist())
    )
    _write_text(args.out, _csv("t,reconstructed,reference,abs_error", rows))
    return 0


def _verification_checks(model, cfg):
    """Round trips plus the hazard/MRL identity; one result row per check."""
    u0 = VERIFY_CONDITIONING_U
    results = []
    for quantity, component in reconstruction.KIND_OF:
        name = f"{quantity}-roundtrip-{component}"
        ts = np.linspace(*reconstruction.INVERSE_MAPS[quantity][1], 17)
        try:
            rec, ref = reconstruction.round_trip(model, quantity, component, u0, ts, cfg)
            max_res = float(max(np.abs(rec - ref)))
            results.append((name, max_res, ROUND_TRIP_TOL, max_res <= ROUND_TRIP_TOL, "", None))
        except InfiniteMeanError as exc:
            results.append((name, None, ROUND_TRIP_TOL, False, str(exc), None))
    ts = np.arange(1, 34) / 34.0
    for component in reconstruction.COMPONENTS:
        name = f"identity-{component}"
        try:
            residuals = reconstruction.hazard_mrl_identity_residual(model, component, u0, ts, cfg)
            max_res = float(max(np.abs(residuals)))
            results.append((name, max_res, IDENTITY_TOL, max_res <= IDENTITY_TOL, "", list(zip(ts, residuals))))
        except InfiniteMeanError as exc:
            results.append((name, None, IDENTITY_TOL, False, str(exc), None))
    return results


def cmd_verify(args) -> int:
    model = load_model(args.model)
    cfg = load_numeric_config(args.config)
    results = _verification_checks(model, cfg)
    for name, max_res, tol, passed, note, _ in results:
        if max_res is None:
            sys.stdout.write(f"{name}: FAIL ({note})\n")
        else:
            status = "PASS" if passed else "FAIL"
            sys.stdout.write(f"{name}: max_residual={_fmt(max_res)} tol={_fmt(tol)} {status}\n")
    all_pass = all(passed for _, _, _, passed, _, _ in results)
    worst = max((r for _, r, _, _, _, _ in results if r is not None), default=float("nan"))
    sys.stdout.write(f"max residual over all checks: {_fmt(worst)}\n")
    sys.stdout.write(f"verify: {'PASS' if all_pass else 'FAIL'}\n")
    if args.out:
        rows, template = [], "%s," + _row(2)
        for name, _, _, _, _, residuals in results:
            if residuals is not None:
                rows.extend(template % (name, t, r) for t, r in residuals)
        _write_text(args.out, _csv("check,t,residual", rows))
    return 0 if all_pass else 1


def cmd_sample(args) -> int:
    model = load_model(args.model)
    cfg = load_numeric_config(args.config)
    sample_set = estimation.sample(model, args.n, args.seed, cfg)
    template = _row(2)
    rows = (template % (x, y) for x, y in _float_rows(sample_set.pairs))
    _write_text(args.out, _csv("x,y", rows))
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
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
        return _COMMANDS[args.command](args)
    except (ModelSpecError, ConfigError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except BivquantError as exc:  # usage errors and numerical breakdowns
        sys.stderr.write(f"error: {exc}\n")
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
