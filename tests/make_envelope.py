"""Record the rounding envelope of two expansions into ``tests/data/``.

For the car-following model at order 20 (z0 scale "msq") and the epidemic
model at order 14 ("paper"), expand once with the default parameters, the
reference, and then once with each model parameter moved one ulp up and
once one ulp down: 2P further runs (12 and 10).  Per order j, the envelope
of lh_j and of Th_j is the largest |change| over those runs, and the
envelope of Z_j is the largest change of any of its coefficients.  A later
change of the program whose every output stays within a small multiple of
this envelope cannot be told apart from rounding the inputs; the helper in
``tests/envelope.py`` checks that.

Run from the repository root, outside the test suite (about 15 s):

    PYTHONPATH=src python tests/make_envelope.py

It writes ``tests/data/envelope-<model>-n<order>-<z0 scale>.json``, which
holds the reference in the layout of ``ddehopf expand --format json``
(``lambda_hats``, ``T_hats``, ``coefficients``) and the three envelopes.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ddehopf import models
from ddehopf.expansion import expand

CASES = (("ndde", models.make_ndde, 20, "msq"),
         ("sir", models.make_sir, 14, "paper"))
DATA = Path(__file__).resolve().parent / "data"


def record(make, order, z0_scale) -> dict:
    ref = expand(make(), order, z0_scale)
    env = {"lambda_hats": np.zeros(order + 1), "T_hats": np.zeros(order + 1),
           "Z": np.zeros(order + 1)}
    for name, value in ref.model.params.items():
        for direction in (np.inf, -np.inf):
            moved = float(np.nextafter(value, direction))
            run = expand(make({name: moved}), order, z0_scale)
            for key in ("lambda_hats", "T_hats"):
                change = np.abs(np.subtract(getattr(run, key),
                                            getattr(ref, key)))
                env[key] = np.maximum(env[key], change)
            env["Z"] = np.maximum(env["Z"], [
                (a - b).max_abs() for a, b in zip(run.Z, ref.Z, strict=True)])
    return {
        "model": ref.model.name, "order": order, "z0_scale": z0_scale,
        "params": ref.model.params,
        "runs": 2 * len(ref.model.params),
        "lambda_hats": np.asarray(ref.lambda_hats).tolist(),
        "T_hats": np.asarray(ref.T_hats).tolist(),
        "coefficients": [{"dim": Z.dim, "degree": Z.degree,
                          "const": Z.const.tolist(), "cos": Z.cos.tolist(),
                          "sin": Z.sin.tolist()} for Z in ref.Z],
        "envelope": {key: value.tolist() for key, value in env.items()},
    }


def main():
    for name, make, order, z0_scale in CASES:
        path = DATA / f"envelope-{name}-n{order}-{z0_scale}.json"
        path.write_text(json.dumps(record(make, order, z0_scale)) + "\n",
                        encoding="utf-8")
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
