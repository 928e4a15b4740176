"""Machine-speed probe: a fixed piece of interpreter work, timed while a
measured call runs.

The CPU the benchmark was built on (2 vCPUs of a shared host) changes
speed by up to 2x in phases of seconds to minutes, each vCPU on its own.
A timed call of ``ddehopf`` slows down in step with this kernel of
small-array numpy and Python object work, which is what the jet arithmetic
of ``ddehopf`` is made of: over 12 back-to-back calls each of expand
(ndde, order 16) and diagram (sir, order 14), call time and mean probe
time correlated at 0.97 and 0.98.  ``run.py`` divides by the probe to
report times at one reference speed.

:class:`Probe` times the kernel from a SIGALRM handler every
``INTERVAL_S`` of wall time while a call runs (about 1 % of the call),
so the samples follow the phases the call ran in.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.1
MIN_SAMPLES = 5

_A = np.arange(1.0, 9.0)
_B = np.arange(2.0, 10.0)


def kernel():
    """About 1 to 1.5 ms of work: short convolutions, small lists and tuples,
    float arithmetic and dict stores."""
    acc = {}
    for i in range(150):
        c = np.convolve(_A, _B)
        terms = [(j, float(c[j % 15]) * 0.5) for j in range(12)]
        acc[i % 7] = sum(x for _, x in terms)
    return acc


def time_kernel() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


class Probe:
    """Context manager that samples the kernel's time during its body.

    ``in_body_s`` is the probe time spent inside the body, to be taken off
    the body's wall time.  On exit, samples taken after the body top the
    count up to ``MIN_SAMPLES``, for bodies shorter than a few intervals.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.in_body_s = 0.0
        self._old_handler = None

    def _tick(self, signum, frame):
        self.samples.append(time_kernel())

    def __enter__(self):
        for _ in range(3):  # warm-up
            kernel()
        self._old_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old_handler)
        self.in_body_s = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            self.samples.append(time_kernel())
        return False

    def report(self) -> dict:
        return {"probe_mean_s": sum(self.samples) / len(self.samples),
                "probe_n": len(self.samples),
                "probe_in_call_s": self.in_body_s}
