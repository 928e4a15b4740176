"""The digests of ``tools/bits.py``, on a small synthetic expansion result
and trajectory, and its envelope summary, on the recorded references."""

import copy
import hashlib
from types import SimpleNamespace

import envelope
import numpy as np
import pytest
from conftest import TOOLS, load

from ddehopf.trigpoly import TrigPoly

bits = load(TOOLS / "bits.py")


def result(z1_cos):
    """An order-1 result of dim 1 whose Z_1 has the cosine ``z1_cos``."""
    return SimpleNamespace(
        lambda_hats=np.array([1.5, 0.0]), T_hats=np.array([2 * np.pi, 0.0]),
        Z=[TrigPoly([0.0], [[1.0]], [[0.0]]),
           TrigPoly([0.25], [[z1_cos]], [[-0.5]])])


def test_the_digest_covers_every_byte_in_order():
    h = hashlib.sha256()
    for j, Z in enumerate(result(0.0).Z):
        h.update(np.float64([1.5, 0.0][j]).tobytes()
                 + np.float64([2 * np.pi, 0.0][j]).tobytes())
        for part in (Z.const, Z.cos, Z.sin):
            h.update(repr(part.shape).encode() + part.tobytes())
    assert bits.digest(result(0.0)) == h.hexdigest()


def test_the_sign_of_a_zero_changes_the_digest():
    assert bits.digest(result(0.0)) != bits.digest(result(-0.0))
    assert bits.digest(result(0.0)) == bits.digest(result(0.0))


def trajectory(y_last):
    """Three knots of dim 2 whose last state has first component ``y_last``."""
    return SimpleNamespace(
        ts=np.array([0.0, 0.5, 1.0]),
        ys=np.array([[1.0, 0.0], [0.5, 0.25], [y_last, 0.5]]),
        coeffs=np.arange(28.0).reshape(2, 7, 2))


def test_the_trajectory_digest_covers_every_byte_in_order():
    traj = trajectory(0.0)
    h = hashlib.sha256()
    for part in (traj.ts, traj.ys, traj.coeffs):
        h.update(repr(part.shape).encode() + part.tobytes())
    assert bits.trajectory_digest(traj) == h.hexdigest()
    assert bits.trajectory_digest(traj) != bits.trajectory_digest(
        trajectory(-0.0))


def recorded(record):
    """The reference held by an envelope record: its diagram rows, or its
    expansion as a result."""
    if "rows" in record:
        return copy.deepcopy(record["rows"])
    return SimpleNamespace(
        lambda_hats=np.array(record["lambda_hats"]),
        T_hats=np.array(record["T_hats"]),
        Z=[TrigPoly(c["const"], c["cos"], c["sin"])
           for c in record["coefficients"]])


@pytest.mark.parametrize("name", bits.ENVELOPE_RECORDS)
def test_the_envelope_summary_reads_0_on_a_record_and_2_on_a_moved_entry(
        name):
    record = envelope.load_envelope(name)
    assert bits.largest_ratio(record, recorded(record)) == 0.0
    # move an exact zero of the reference (lh_1 of an expansion, eps of the
    # first diagram row, on the equilibrium branch) by 2 * (K*envelope +
    # floor), so the moved value is exactly that amount
    got = recorded(record)
    if "rows" in record:
        floor = envelope.FLOOR_ULPS * np.spacing(
            max(abs(row["eps"]) for row in record["rows"]))
        bound = envelope.K * record["envelope"]["eps"][0] + floor
        assert got[0]["eps"] == 0.0
        got[0]["eps"] += 2.0 * bound
    else:
        floor = envelope.FLOOR_ULPS * np.spacing(max(
            abs(record["lambda_hats"][1]), abs(record["T_hats"][1]),
            got.Z[1].max_abs()))
        bound = envelope.K * record["envelope"]["lambda_hats"][1] + floor
        assert got.lambda_hats[1] == 0.0
        got.lambda_hats[1] += 2.0 * bound
    assert bits.largest_ratio(record, got) == 2.0


def test_an_artifact_on_one_side_only_differs():
    # a subcommand or workload that one tree lacks shows as DIFFERENT
    lines = bits.compare({"a": "0" * 64, "b": "1" * 64},
                         {"a": "0" * 64, "c": "2" * 64})
    assert [(line.split()[0], line.split()[-1]) for line in lines] == [
        ("a", "same"), ("b", "DIFFERENT"), ("c", "DIFFERENT")]
    assert lines[1].split()[2] == lines[2].split()[1] == "None"
