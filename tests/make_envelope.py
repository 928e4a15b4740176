"""Record the rounding envelopes of two expansions and a diagram into
``tests/data/``.

For the car-following model at order 20 (z0 scale "msq") and the epidemic
model at order 14 ("paper"), expand once with the default parameters, the
reference, and then once with each model parameter moved one ulp up and
once one ulp down: 2P further runs (12 and 10).  Per order j, the envelope
of lh_j and of Th_j is the largest |change| over those runs, and the
envelope of Z_j is the largest change of any of its coefficients.  A later
change of the program whose every output stays within a small multiple of
this envelope cannot be told apart from rounding the inputs; the helper in
``tests/envelope.py`` checks that.

The epidemic model's order-14 diagram on 200 delays from 95 to 150 days is
recorded the same way: per row, the envelope of eps, of the residual and of
each component's min and max is the largest |change| over the 10 runs.

Run from the repository root, outside the test suite (about 20 s):

    PYTHONPATH=src python tests/make_envelope.py

It writes ``tests/data/envelope-<model>-n<order>-<z0 scale>.json``, which
holds the reference in the layout of ``ddehopf expand --format json``
(``lambda_hats``, ``T_hats``, ``coefficients``) and the three envelopes, and
``tests/data/envelope-diagram-sir-n14.json``, which holds the reference
rows in the layout of ``ddehopf diagram --format json`` and the four
envelopes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from envelope import diagram_columns

from ddehopf import models
from ddehopf.expansion import expand
from ddehopf.orbit import bifurcation_diagram

CASES = (("ndde", models.make_ndde, 20, "msq"),
         ("sir", models.make_sir, 14, "paper"))
DIAGRAM = ("sir", models.make_sir, 14, "paper", (95.0, 150.0, 200))
DATA = Path(__file__).resolve().parent / "data"


def moved_models(make):
    """The model with each parameter moved one ulp up, then one ulp down."""
    for name, value in make().params.items():
        for direction in (np.inf, -np.inf):
            yield make({name: float(np.nextafter(value, direction))})


def _header(model, order, z0_scale) -> dict:
    return {"model": model.name, "order": order, "z0_scale": z0_scale,
            "params": model.params, "runs": 2 * len(model.params)}


def record(make, order, z0_scale) -> dict:
    ref = expand(make(), order, z0_scale)
    env = {"lambda_hats": np.zeros(order + 1), "T_hats": np.zeros(order + 1),
           "Z": np.zeros(order + 1)}
    for model in moved_models(make):
        run = expand(model, order, z0_scale)
        for key in ("lambda_hats", "T_hats"):
            change = np.abs(np.subtract(getattr(run, key), getattr(ref, key)))
            env[key] = np.maximum(env[key], change)
        env["Z"] = np.maximum(env["Z"], [
            (a - b).max_abs() for a, b in zip(run.Z, ref.Z, strict=True)])
    return {
        **_header(ref.model, order, z0_scale),
        "lambda_hats": np.asarray(ref.lambda_hats).tolist(),
        "T_hats": np.asarray(ref.T_hats).tolist(),
        "coefficients": [{"dim": Z.dim, "degree": Z.degree,
                          "const": Z.const.tolist(), "cos": Z.cos.tolist(),
                          "sin": Z.sin.tolist()} for Z in ref.Z],
        "envelope": {key: value.tolist() for key, value in env.items()},
    }


def record_diagram(make, order, z0_scale, grid) -> dict:
    lams = np.linspace(*grid)
    model = make()
    rows = bifurcation_diagram(expand(model, order, z0_scale), lams)
    ref = diagram_columns(rows)
    env = {key: np.zeros_like(value) for key, value in ref.items()}
    for moved in moved_models(make):
        run = diagram_columns(
            bifurcation_diagram(expand(moved, order, z0_scale), lams))
        for key in env:
            env[key] = np.maximum(env[key], np.abs(run[key] - ref[key]))
    return {**_header(model, order, z0_scale), "grid": list(grid),
            "rows": rows,
            "envelope": {key: value.tolist() for key, value in env.items()}}


def write(path: Path, data: dict):
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")
    print(f"wrote {path}")


def main():
    for name, make, order, z0_scale in CASES:
        write(DATA / f"envelope-{name}-n{order}-{z0_scale}.json",
              record(make, order, z0_scale))
    name, make, order, z0_scale, grid = DIAGRAM
    write(DATA / f"envelope-diagram-{name}-n{order}.json",
          record_diagram(make, order, z0_scale, grid))


if __name__ == "__main__":
    main()
