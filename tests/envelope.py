"""Check an expansion against a recorded rounding envelope, for tests only.

``tests/make_envelope.py`` records, per order j, how far lh_j, Th_j and the
coefficients of Z_j move when one model parameter moves by one ulp.  An
entry x of a result passes when

    |x - ref| <= K * envelope + floor,

where ref is the recorded reference and the floor is FLOOR_ULPS ulps of the
order's scale, max(|lh_j|, |Th_j|, max|Z_j|) of the reference.  The floor
covers entries that no parameter moves: the exact 2*pi of Th_0 and the
structural zeros lh_1 and Th_1.  For Z_j the change is the largest change
of any coefficient.
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


def assert_within_envelope(result, record):
    """The result is the recorded expansion up to K times its rounding
    envelope plus the floor, entry by entry."""
    assert (result.model.name, result.order,
            result.conventions["z0_mode"], result.model.params) == (
        record["model"], record["order"], record["z0_scale"], record["params"])
    outside = [row for row in envelope_ratios(result, record) if row[2] > 1.0]
    assert not outside, f"outside the rounding envelope: {outside}"
