"""Tests of the machine-speed probe.

    python3 -m pytest perfbench/tests -q
"""

import signal
import sys
import time
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import probe  # noqa: E402
import run  # noqa: E402
from ddehopf import expand, models  # noqa: E402


def _coefficients(result):
    parts = [result.lambda_hats, result.T_hats]
    for z in result.Z:
        parts += [z.const, z.cos.ravel(), z.sin.ravel()]
    return np.concatenate(parts)


def test_probed_expand_is_bitwise_identical():
    plain = _coefficients(expand(models.make_ndde(), 8, z0_scale="msq"))
    with probe.Probe() as p:
        probed = _coefficients(expand(models.make_ndde(), 8, z0_scale="msq"))
    assert p.in_body_s > 0.0
    assert np.array_equal(plain, probed)


def test_probe_samples_during_the_body_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with probe.Probe() as p:
        end = time.perf_counter() + 5 * probe.INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(p.samples) >= 4
    assert 0.0 < p.in_body_s <= sum(p.samples)


def test_short_body_is_topped_up_after_it():
    with probe.Probe() as p:
        pass
    report = p.report()
    assert report["probe_n"] == probe.MIN_SAMPLES
    assert report["probe_in_call_s"] == 0.0
    assert report["probe_mean_s"] > 0.0


def test_scaling_to_reference_speed():
    assert run.at_reference_speed(3.0, run.PROBE_REF_S) == 3.0
    assert run.at_reference_speed(3.0, 2 * run.PROBE_REF_S) == 1.5
