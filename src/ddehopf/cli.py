"""Command-line front end.

Subcommands
-----------
hopf      locate the bifurcation point and print the null-space bases
expand    compute the series coefficients (delay/period table + profiles)
solve     amplitude parameter, period and extrema at one delay
residual  relative defect of the reconstructed orbit in the model equation
diagram   oscillation extrema over a delay grid
validate  expansion vs reference integration (residual + phase-aligned error)

Outputs are CSV (with units in the header row), JSON, or a minimal SVG
polyline plot; repeated runs with the same configuration produce identical
bytes.  Model parameters can be overridden from a JSON config file
{"model": ..., "params": {...}, "hopf_hint": {"omega": ..., "lambda": ...}};
command-line flags take precedence over the file, the file over defaults.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ddeint as di
from . import models as mdl
from .bifurcation import find_hopf, null_bases
from .orbit import (bifurcation_diagram, orbit_extrema, reconstruct,
                    residual)
from .errors import (BelowBifurcationError, ComparisonError, DdeHopfError,
                     HopfError, IntegrationError, ModelError, NewtonError,
                     NoRealRootError, ResonanceError, SolvabilityError,
                     SteadyStateError)
from .expansion import Z0_SCALES, expand

EXIT_MODEL = 3
EXIT_HOPF = 4
EXIT_SOLVABILITY = 5
EXIT_EPSILON = 6
EXIT_VALIDATION = 7

_EXIT_CODES = (
    ((ModelError, NewtonError), EXIT_MODEL),
    ((HopfError, ResonanceError), EXIT_HOPF),
    ((SolvabilityError,), EXIT_SOLVABILITY),
    ((BelowBifurcationError, NoRealRootError), EXIT_EPSILON),
    ((IntegrationError, SteadyStateError, ComparisonError), EXIT_VALIDATION),
)


def _fmt(x) -> str:
    return repr(float(x))


def _cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    return str(v)


def _emit(path, text):
    """Write text to the file at path, or to stdout when path is empty."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(path, header, rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(v) for v in row))
    _emit(path, "\n".join(lines) + "\n")


def _write_json(path, obj):
    _emit(path, json.dumps(obj, indent=2) + "\n")


def _write_svg(path, series, title):
    """Minimal polyline plot: series is a list of (label, xs, ys)."""
    width, height, margin = 640, 480, 50.0
    xs_all = np.concatenate([np.asarray(s[1], dtype=float) for s in series])
    ys_all = np.concatenate([np.asarray(s[2], dtype=float) for s in series])
    x0, x1 = float(np.min(xs_all)), float(np.max(xs_all))
    y0, y1 = float(np.min(ys_all)), float(np.max(ys_all))
    xspan = (x1 - x0) or 1.0
    yspan = (y1 - y0) or 1.0
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#8c564b",
               "#e377c2"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.6g}" y="20" text-anchor="middle" '
        f'font-size="14">{title}</text>',
        f'<rect x="{margin:.6g}" y="{margin:.6g}" '
        f'width="{width - 2 * margin:.6g}" height="{height - 2 * margin:.6g}" '
        'fill="none" stroke="black"/>',
        f'<text x="{margin:.6g}" y="{height - margin / 4:.6g}" '
        f'font-size="11">x: [{x0:.6g}, {x1:.6g}]  y: [{y0:.6g}, {y1:.6g}]</text>',
    ]
    for idx, (label, xs, ys) in enumerate(series):
        pts = []
        for x, y in zip(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)):
            px = margin + (x - x0) / xspan * (width - 2 * margin)
            py = height - margin - (y - y0) / yspan * (height - 2 * margin)
            pts.append(f"{px:.2f},{py:.2f}")
        color = palette[idx % len(palette)]
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'points="{" ".join(pts)}"/>')
        parts.append(f'<text x="{width - margin + 4:.6g}" '
                     f'y="{margin + 14 * (idx + 1):.6g}" font-size="11" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    _emit(path, "\n".join(parts) + "\n")


def build_model(args) -> mdl.DdeModel:
    cfg = {}
    if args.params:
        with open(args.params, encoding="utf-8") as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict) \
                or not set(cfg) <= {"model", "params", "hopf_hint"}:
            raise ModelError(f"{args.params}: expected a JSON object with "
                             'keys "model", "params" and "hopf_hint"')
    name = args.model or cfg.get("model")
    if not isinstance(name, str) or name not in mdl.BUILTIN_MODELS:
        raise ModelError(
            f"unknown model {name!r}; choose one of {sorted(mdl.BUILTIN_MODELS)}")
    model = mdl.BUILTIN_MODELS[name](cfg.get("params"))
    if cfg.get("hopf_hint") is not None:
        model.hopf_hint = mdl._hopf_hint(cfg["hopf_hint"])
    return model


def _parse_grid(spec: str):
    try:
        a, b, n = spec.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise ModelError(f"bad --lambda-grid {spec!r}, expected a:b:n") from exc
    if n < 2:
        raise ModelError("--lambda-grid needs at least 2 points")
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ModelError(f"--lambda-grid bounds must be finite, got {spec!r}")
    return np.linspace(a, b, n)


# -- subcommand bodies -------------------------------------------------------------


def _orbit_at_delay(args):
    """(model, orbit): the configured model's orbit at the --lambda delay."""
    if not np.isfinite(args.lam):
        raise ModelError(f"--lambda must be finite, got {args.lam!r}")
    model = build_model(args)
    result = expand(model, args.order, z0_scale=args.z0_scale)
    return model, reconstruct(result, args.lam)


def cmd_hopf(args) -> int:
    model = build_model(args)
    hp = find_hopf(model)
    bases = null_bases(model, hp)
    obj = hp.to_dict()
    obj["v_basis"] = [bases.v1.to_dict(), bases.v2.to_dict()]
    obj["w_basis"] = [bases.w1.to_dict(), bases.w2.to_dict()]
    _write_json(args.out, obj)
    return 0


def cmd_expand(args) -> int:
    model = build_model(args)
    result = expand(model, args.order, z0_scale=args.z0_scale)
    series_rows = [(j, result.lambda_hats[j], result.T_hats[j])
                   for j in range(result.order + 1)]
    coef_rows = result.coefficient_table()
    if args.format == "json":
        obj = {
            "model": model.name,
            "order": result.order,
            "omega0": result.omega0,
            "conventions": result.conventions,
            "lambda_hats": result.lambda_hats.tolist(),
            "T_hats": result.T_hats.tolist(),
            "coefficients": [result.Z[j].to_dict()
                             for j in range(result.order + 1)],
        }
        _write_json(args.out, obj)
        return 0
    series_header = ["order", "lambda_hat [dimensionless]",
                     "T_hat [dimensionless]"]
    coef_header = ["order", "harmonic", "component", "cos", "sin"]
    coef_rows = [(j, k, model.state_labels[i], c, s)
                 for (j, k, i, c, s) in coef_rows]
    if args.out:
        stem = args.out[:-4] if args.out.endswith(".csv") else args.out
        _write_csv(stem + "_series.csv", series_header, series_rows)
        _write_csv(stem + "_coefficients.csv", coef_header, coef_rows)
    else:
        _write_csv(None, series_header, series_rows)
        _write_csv(None, coef_header, coef_rows)
    return 0


def cmd_solve(args) -> int:
    model, orbit = _orbit_at_delay(args)
    extrema = orbit_extrema(orbit)
    unit = model.time_unit
    if args.format == "svg":
        ts = np.linspace(0.0, orbit.period, 512)
        vals = orbit.evaluate(ts)
        series = [(model.state_labels[i], ts, vals[:, i])
                  for i in range(model.dim)]
        _write_svg(args.out, series,
                   f"{model.name} orbit, delay {orbit.lam:g} {unit}")
        return 0
    if args.format == "json":
        obj = {
            "lambda": orbit.lam,
            "eps": orbit.eps,
            "period": orbit.period,
            "order": orbit.order,
            "equilibrium": orbit.equilibrium.tolist(),
            "extrema": {model.state_labels[i]: list(extrema[i])
                        for i in range(model.dim)},
        }
        _write_json(args.out, obj)
    else:
        header = [f"lambda [{unit}]", "eps", f"period [{unit}]", "order",
                  "component", "min", "max"]
        rows = [(orbit.lam, orbit.eps, orbit.period, orbit.order,
                 model.state_labels[i], extrema[i][0], extrema[i][1])
                for i in range(model.dim)]
        _write_csv(args.out, header, rows)
    return 0


def cmd_residual(args) -> int:
    model, orbit = _orbit_at_delay(args)
    r_r = residual(orbit, args.samples)
    unit = model.time_unit
    if args.format == "json":
        _write_json(args.out, {"lambda": orbit.lam, "order": args.order,
                               "eps": orbit.eps, "r_r": r_r})
    else:
        _write_csv(args.out, [f"lambda [{unit}]", "order", "eps", "r_r"],
                   [(orbit.lam, args.order, orbit.eps, r_r)])
    return 0


def cmd_diagram(args) -> int:
    grid = _parse_grid(args.lambda_grid)
    model = build_model(args)
    result = expand(model, args.order, z0_scale=args.z0_scale)
    rows = bifurcation_diagram(result, grid)
    unit = model.time_unit
    if args.format == "svg":
        series = []
        ok = [r for r in rows if not r["error"]]
        for i in range(model.dim):
            xs = [r["lambda"] for r in ok]
            series.append((f"{model.state_labels[i]} min", xs,
                           [r["components"][i][0] for r in ok]))
            series.append((f"{model.state_labels[i]} max", xs,
                           [r["components"][i][1] for r in ok]))
        _write_svg(args.out, series, f"{model.name} oscillation extrema")
        return 0
    if args.format == "json":
        _write_json(args.out, rows)
        return 0
    header = [f"lambda [{unit}]", "component", "min", "max", "eps",
              "residual_flag"]
    flat = []
    for r in rows:
        if r["error"]:
            flat.append((r["lambda"], "error", "", "", "", r["error"]))
            continue
        for i in range(model.dim):
            flag = "extrapolated" if r["extrapolated"] else "ok"
            flat.append((r["lambda"], model.state_labels[i],
                         r["components"][i][0], r["components"][i][1],
                         r["eps"], flag))
    _write_csv(args.out, header, flat)
    return 0


def cmd_validate(args) -> int:
    model, orbit = _orbit_at_delay(args)
    r_r = residual(orbit, args.samples)
    e_r, align, _ = di.cross_validate(orbit, rtol=args.rtol, atol=args.atol)
    unit = model.time_unit
    row = {
        "lambda": orbit.lam,
        "order": args.order,
        "r_r": r_r,
        "e_r": e_r,
        "period_expansion": orbit.period,
        "period_numeric": align.period_est,
    }
    if args.format == "json":
        _write_json(args.out, row)
    else:
        _write_csv(args.out,
                   [f"lambda [{unit}]", "order", "r_r", "e_r",
                    f"period_expansion [{unit}]", f"period_numeric [{unit}]"],
                   [tuple(row.values())])
    return 0


# -- argument parsing ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddehopf",
        description="Series expansions of periodic orbits at Hopf "
                    "bifurcations of single-delay DDE systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats, order=True, lam=False):
        p.add_argument("--model", choices=sorted(mdl.BUILTIN_MODELS),
                       help="built-in model name")
        p.add_argument("--params", metavar="FILE.json",
                       help="JSON model configuration file")
        p.add_argument("--out", metavar="PATH", default=None,
                       help="output path (stdout when omitted)")
        p.add_argument("--format", choices=formats, default=formats[0])
        if order:
            p.add_argument("--order", type=int, default=8,
                           help="expansion order N (default 8)")
            p.add_argument("--z0-scale", dest="z0_scale", default="paper",
                           choices=tuple(Z0_SCALES),
                           help="normalization of the order-0 profile")
        if lam:
            p.add_argument("--lambda", dest="lam", type=float, required=True,
                           help="delay value (model time units)")

    p = sub.add_parser("hopf", help="locate the Hopf point")
    common(p, ("json",), order=False)
    p.set_defaults(func=cmd_hopf)

    p = sub.add_parser("expand", help="compute series coefficients")
    common(p, ("csv", "json"))
    p.set_defaults(func=cmd_expand)

    p = sub.add_parser("solve", help="orbit at one delay")
    common(p, ("csv", "json", "svg"), lam=True)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("residual", help="orbit defect in the model equation")
    common(p, ("csv", "json"), lam=True)
    p.add_argument("--samples", type=int, default=2048)
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("diagram", help="extrema over a delay grid")
    common(p, ("csv", "json", "svg"))
    p.add_argument("--lambda-grid", dest="lambda_grid", required=True,
                   metavar="a:b:n", help="grid start:stop:count")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("validate", help="expansion vs reference integration")
    common(p, ("csv", "json"), lam=True)
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-9)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DdeHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                return code
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
