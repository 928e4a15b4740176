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
bytes.  Each ``cmd_*`` computes its results and returns their renderings: a
mapping from each of its formats to a function that returns the text
(``expand``'s CSV renders a mapping of file suffixes to its two tables).
``main`` calls the one that ``--format`` names and alone writes it, to
``--out`` or to stdout.

Model parameters can be overridden from a JSON config file
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
from .bifurcation import find_hopf
from .orbit import (ReconstructedOrbit, bifurcation_diagram, orbit_extrema,
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


def _cell(v) -> str:
    return repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)


def _emit(path, rendering):
    """Write a rendering to the file at path, or to stdout when path is
    empty.  A mapping of file suffixes to texts (``expand``'s two CSV
    tables) gives one file per suffix, named after path with ``.csv``
    stripped, or all its texts in turn on stdout."""
    if isinstance(rendering, dict):
        for suffix, text in rendering.items():
            _emit(path and path.removesuffix(".csv") + suffix, text)
    elif path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(rendering)
    else:
        sys.stdout.write(rendering)


def _csv(header, rows) -> str:
    return "".join(",".join(map(_cell, r)) + "\n" for r in [header, *rows])


def _json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _svg(series, title) -> str:
    """Minimal polyline plot: series is a list of (label, xs, ys).  A series
    without points is left out; with none left, only the frame is drawn."""
    width, height, margin = 640, 480, 50.0
    series = [(label, np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
              for label, xs, ys in series if len(xs)]
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
    ]
    if series:
        xs_all = np.concatenate([s[1] for s in series])
        ys_all = np.concatenate([s[2] for s in series])
        x0, x1 = float(np.min(xs_all)), float(np.max(xs_all))
        y0, y1 = float(np.min(ys_all)), float(np.max(ys_all))
        xspan = (x1 - x0) or 1.0
        yspan = (y1 - y0) or 1.0
        parts.append(f'<text x="{margin:.6g}" y="{height - margin / 4:.6g}" '
                     f'font-size="11">x: [{x0:.6g}, {x1:.6g}]  '
                     f'y: [{y0:.6g}, {y1:.6g}]</text>')
    for idx, (label, xs, ys) in enumerate(series):
        pts = []
        for x, y in zip(xs, ys):
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
    return "\n".join(parts) + "\n"


_TIME_KEYS = ("lambda", "period_expansion", "period_numeric")


def _record(model, row) -> dict:
    """Renderings of one result row: a JSON object, or a one-row CSV whose
    time-valued columns carry the model's time unit."""
    header = [f"{key} [{model.time_unit}]" if key in _TIME_KEYS else key
              for key in row]
    return {"json": lambda: _json(row),
            "csv": lambda: _csv(header, [row.values()])}


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
    return model, ReconstructedOrbit(result, args.lam)


def cmd_hopf(args) -> dict:
    model = build_model(args)
    hp = find_hopf(model)
    return {"json": lambda: _json({
        **hp.to_dict(),
        "v_basis": [hp.v1.to_dict(), hp.v2.to_dict()],
        "w_basis": [hp.w1.to_dict(), hp.w2.to_dict()],
    })}


def cmd_expand(args) -> dict:
    model = build_model(args)
    result = expand(model, args.order, z0_scale=args.z0_scale)
    orders = range(result.order + 1)
    return {
        "csv": lambda: {
            "_series.csv": _csv(
                ["order", "lambda_hat [dimensionless]", "T_hat [dimensionless]"],
                [(j, result.lambda_hats[j], result.T_hats[j]) for j in orders]),
            "_coefficients.csv": _csv(
                ["order", "harmonic", "component", "cos", "sin"],
                [(j, k, model.state_labels[i], c, s)
                 for (j, k, i, c, s) in result.coefficient_table()]),
        },
        "json": lambda: _json({
            "model": model.name,
            "order": result.order,
            "omega0": result.hopf.omega0,
            "conventions": result.conventions,
            "lambda_hats": result.lambda_hats.tolist(),
            "T_hats": result.T_hats.tolist(),
            "coefficients": [result.Z[j].to_dict() for j in orders],
        }),
    }


def cmd_solve(args) -> dict:
    model, orbit = _orbit_at_delay(args)
    unit, labels = model.time_unit, model.state_labels
    ts = np.linspace(0.0, orbit.period, 512)
    return {
        "csv": lambda: _csv(
            [f"lambda [{unit}]", "eps", f"period [{unit}]", "order",
             "component", "min", "max"],
            [(orbit.lam, orbit.eps, orbit.period, orbit.order, label, lo, hi)
             for label, (lo, hi) in zip(labels, orbit_extrema(orbit))]),
        "json": lambda: _json({
            "lambda": orbit.lam,
            "eps": orbit.eps,
            "period": orbit.period,
            "order": orbit.order,
            "equilibrium": orbit.equilibrium.tolist(),
            "extrema": {label: list(ext)
                        for label, ext in zip(labels, orbit_extrema(orbit))},
        }),
        "svg": lambda: _svg(
            list(zip(labels, [ts] * model.dim, orbit.evaluate(ts).T)),
            f"{model.name} orbit, delay {orbit.lam:g} {unit}"),
    }


def cmd_residual(args) -> dict:
    model, orbit = _orbit_at_delay(args)
    return _record(model, {"lambda": orbit.lam, "order": args.order,
                           "eps": orbit.eps,
                           "r_r": residual(orbit)})


def cmd_diagram(args) -> dict:
    grid = _parse_grid(args.lambda_grid)
    model = build_model(args)
    result = expand(model, args.order, z0_scale=args.z0_scale)
    rows = bifurcation_diagram(result, grid)
    labels = model.state_labels
    ok = [r for r in rows if not r["error"]]
    return {
        "csv": lambda: _csv(
            [f"lambda [{model.time_unit}]", "component", "min", "max", "eps",
             "residual_flag"],
            [line for r in rows for line in (
                [(r["lambda"], "error", "", "", "", r["error"])] if r["error"]
                else [(r["lambda"], label, lo, hi, r["eps"],
                       "extrapolated" if r["extrapolated"] else "ok")
                      for label, (lo, hi) in zip(labels, r["components"])])]),
        "json": lambda: _json(rows),
        "svg": lambda: _svg(
            [(f"{label} {end}", [r["lambda"] for r in ok],
              [r["components"][i][k] for r in ok])
             for i, label in enumerate(labels)
             for k, end in enumerate(("min", "max"))],
            f"{model.name} oscillation extrema"),
    }


def cmd_validate(args) -> dict:
    model, orbit = _orbit_at_delay(args)
    # keep no reference to the trajectory: residual's sample tables are
    # then built after it is freed, below the integration's peak memory
    e_r, align = di.cross_validate(orbit, rtol=args.rtol, atol=args.atol)[:2]
    return _record(model, {"lambda": orbit.lam, "order": args.order,
                           "r_r": residual(orbit), "e_r": e_r,
                           "period_expansion": orbit.period,
                           "period_numeric": align.period_est})


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
    p.set_defaults(func=cmd_residual)

    p = sub.add_parser("diagram", help="extrema over a delay grid")
    common(p, ("csv", "json", "svg"))
    p.add_argument("--lambda-grid", dest="lambda_grid", required=True,
                   metavar="a:b:n", help="grid start:stop:count")
    p.set_defaults(func=cmd_diagram)

    p = sub.add_parser("validate", help="expansion vs reference integration")
    common(p, ("csv", "json"), lam=True)
    p.add_argument("--rtol", type=float, default=1e-9)
    p.add_argument("--atol", type=float, default=1e-9)
    p.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _emit(args.out, args.func(args)[args.format]())
        return 0
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
