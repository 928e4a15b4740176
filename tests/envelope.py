"""Check an expansion or a diagram against a recorded rounding envelope,
for tests only.

``tests/make_envelope.py`` records, per order j, how far lh_j, Th_j and the
coefficients of Z_j move when one model parameter moves by one ulp, and per
diagram row how far eps, the residual and each component's min and max
move.  An entry x of a result passes when

    |x - ref| <= K * envelope + floor,

where ref is the recorded reference.  For an expansion the floor is
FLOOR_ULPS ulps of the order's scale, max(|lh_j|, |Th_j|, max|Z_j|) of the
reference; it covers entries that no parameter moves: the exact 2*pi of
Th_0 and the structural zeros lh_1 and Th_1.  For Z_j the change is the
largest change of any coefficient.  For a diagram the floor is FLOOR_ULPS
ulps of the column's scale, its largest |ref| over the rows; it covers the
exact zeros of eps and the residual on the equilibrium branch.
"""

import json
from pathlib import Path

import numpy as np

from ddehopf.trigpoly import TrigPoly

K = 4.0
FLOOR_ULPS = 4
DATA = Path(__file__).resolve().parent / "data"


def load_envelope(name: str) -> dict:
    """The record ``tests/data/envelope-<name>.json``."""
    return json.loads((DATA / f"envelope-{name}.json").read_text(
        encoding="utf-8"))


def envelope_ratios(result, record) -> list:
    """(order, quantity, |change| / (K * envelope + floor)) for lh_j, Th_j
    and Z_j at every order of the record; every ratio must be at most 1."""
    env = record["envelope"]
    rows = []
    for j, data in enumerate(record["coefficients"]):
        ref_Z = TrigPoly(data["const"], data["cos"], data["sin"])
        ref_lh, ref_Th = record["lambda_hats"][j], record["T_hats"][j]
        floor = FLOOR_ULPS * np.spacing(
            max(abs(ref_lh), abs(ref_Th), ref_Z.max_abs()))
        changes = {"lambda_hats": abs(result.lambda_hats[j] - ref_lh),
                   "T_hats": abs(result.T_hats[j] - ref_Th),
                   "Z": (result.Z[j] - ref_Z).max_abs()}
        rows += [(j, key, float(change / (K * env[key][j] + floor)))
                 for key, change in changes.items()]
    return rows


def assert_same_case(result, record):
    """The expansion has the recorded model, parameters, order and z0
    scale."""
    assert (result.model.name, result.order,
            result.conventions["z0_mode"], result.model.params) == (
        record["model"], record["order"], record["z0_scale"], record["params"])


def assert_within_envelope(result, record):
    """The result is the recorded expansion up to K times its rounding
    envelope plus the floor, entry by entry."""
    assert_same_case(result, record)
    outside = [row for row in envelope_ratios(result, record) if row[2] > 1.0]
    assert not outside, f"outside the rounding envelope: {outside}"


def diagram_columns(rows) -> dict:
    """The checked columns of diagram rows as arrays: eps and residual per
    row, and each component's min and max per row and component."""
    extrema = np.array([row["components"] for row in rows], dtype=float)
    return {"eps": np.array([row["eps"] for row in rows]),
            "residual": np.array([row["residual"] for row in rows]),
            "min": extrema[..., 0], "max": extrema[..., 1]}


def diagram_ratios(rows, record) -> list:
    """(row, column, |change| / (K * envelope + floor)) for eps, the
    residual and each component's min and max ("min 0", ...) of every row
    of the record; every ratio must be at most 1."""
    ref, got = diagram_columns(record["rows"]), diagram_columns(rows)
    out = []
    for key, env in record["envelope"].items():
        floor = FLOOR_ULPS * np.spacing(np.max(np.abs(ref[key]), axis=0))
        ratio = np.abs(got[key] - ref[key]) / (K * np.asarray(env) + floor)
        names = ([key] if ratio.ndim == 1
                 else [f"{key} {i}" for i in range(ratio.shape[1])])
        out += [(i, name, float(r))
                for i, line in enumerate(ratio.reshape(len(ref[key]), -1))
                for name, r in zip(names, line, strict=True)]
    return out


def assert_diagram_within_envelope(result, rows, record):
    """The diagram ``rows`` swept from the expansion ``result`` are the
    recorded ones: the same delays, flags and errors, and every checked
    column within K times its rounding envelope plus the floor."""
    assert_same_case(result, record)
    assert [(r["lambda"], r["extrapolated"], r["error"]) for r in rows] == [
        (r["lambda"], r["extrapolated"], r["error"]) for r in record["rows"]]
    outside = [row for row in diagram_ratios(rows, record) if row[2] > 1.0]
    assert not outside, f"outside the rounding envelope: {outside}"
