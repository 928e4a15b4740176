"""The ``repr`` of each result and value type, on the seeded car-following
cross-validation at lambda = 1.4."""

import re

import pytest

from ddehopf.epsseries import EpsSeries
from ddehopf.trigpoly import TrigPoly


@pytest.mark.parametrize("build, pattern", [
    (lambda run: run[0].expansion.hopf,
     r"HopfPoint\(omega0=1\.14238, lambda0=1\.30787\)"),
    (lambda run: run[0].expansion.model, r"DdeModel\('ndde', dim=2\)"),
    (lambda run: run[0],
     r"ReconstructedOrbit\(lam=1\.4, eps=0\.738\d*, period=5\.9\d*, "
     r"order=8\)"),
    (lambda run: run[3], r"Trajectory\(lam=1\.4, t=\[0\.0, \d+\.\d+\], "
                         r"knots=\d+\)"),
    (lambda run: run[2], r"Alignment\(t0=\d+\.?\d*, period=5\.9\d*\)"),
    (lambda run: EpsSeries([1.0, 2.0]), r"EpsSeries\(order=1, scalar\)"),
    (lambda run: EpsSeries(run[0].expansion.Z[:3]),
     r"EpsSeries\(order=2, trig dim=2\)"),
    (lambda run: TrigPoly.zero(2), r"TrigPoly\(dim=2, degree=0\)"),
], ids=["HopfPoint", "DdeModel", "ReconstructedOrbit", "Trajectory",
        "Alignment", "EpsSeries-scalar", "EpsSeries-trig", "TrigPoly"])
def test_repr(ndde14, build, pattern):
    assert re.fullmatch(pattern, repr(build(ndde14)))
