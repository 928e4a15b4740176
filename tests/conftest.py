import time
from pathlib import Path

import numpy as np
import pytest

from ddehopf import ddeint, expansion, models, orbit

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(path: Path):
    """``bench_pairs.load`` of the tool ``path``, with ``tools/`` on the
    import path while it runs, as a tool's script has it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(TOOLS))
        import bench_pairs
        return bench_pairs.load(path)


@pytest.fixture(scope="session")
def ndde():
    return models.make_ndde()


@pytest.fixture(scope="session")
def sir():
    return models.make_sir()


@pytest.fixture(scope="session")
def ndde_msq8(ndde):
    """Order-8 car-following expansion, mean-square normalization."""
    return expansion.expand(ndde, 8, z0_scale="msq")


class CrossValidation(tuple):
    """(orbit, e_r, alignment, trajectory) of one seeded ``cross_validate``
    run, with the wall time of that call in ``wall_time``."""


def _cross_validation(exp, lam):
    orb = orbit.ReconstructedOrbit(exp, lam)
    t0 = time.perf_counter()
    out = ddeint.cross_validate(orb)
    wall_time = time.perf_counter() - t0
    run = CrossValidation((orb, *out))
    run.wall_time = wall_time
    return run


@pytest.fixture(scope="session")
def ndde14(ndde_msq8):
    """The seeded car-following cross-validation at lambda = 1.4, order 8
    (msq): a ``CrossValidation``."""
    return _cross_validation(ndde_msq8, 1.4)


@pytest.fixture(scope="session")
def ndde_msq20(ndde):
    """Order-20 car-following expansion, mean-square normalization, with its
    wall time in ``wall_time``."""
    t0 = time.perf_counter()
    result = expansion.expand(ndde, 20, z0_scale="msq")
    result.wall_time = time.perf_counter() - t0
    return result


@pytest.fixture(scope="session")
def ndde_2pi5(ndde):
    """Order-5 car-following expansion, 2*pi normalization."""
    return expansion.expand(ndde, 5, z0_scale="paper")


@pytest.fixture(scope="session")
def sir_2pi8(sir):
    """Order-8 epidemic expansion, 2*pi normalization."""
    return expansion.expand(sir, 8, z0_scale="paper")


@pytest.fixture(scope="session")
def sir_2pi14(sir):
    """Order-14 epidemic expansion, 2*pi normalization."""
    return expansion.expand(sir, 14, z0_scale="paper")


@pytest.fixture(scope="session")
def sir120(sir_2pi8):
    """The seeded epidemic cross-validation at lambda = 120, order 8
    (paper): a ``CrossValidation``."""
    return _cross_validation(sir_2pi8, 120.0)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)
