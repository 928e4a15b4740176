"""Evaluation of truncated series at a point, for tests only: the package
never evaluates an EpsSeries, so these oracles read ``s.coeffs`` directly.
``eval_batch`` keeps the one-formula ``TrigPoly.eval`` that the scalar path
and ``TrigPoly.sample`` must reproduce bit for bit."""

import numpy as np

from ddehopf.trigpoly import TrigPoly


def eval_series(s, eps: float):
    """Horner evaluation at eps; a float or a TrigPoly."""
    acc = s.coeffs[-1]
    for c in reversed(s.coeffs[:-1]):
        acc = c + acc * eps
    return acc


def eval_at(s, tau, eps: float):
    """Value of a trig series at (tau, eps)."""
    val = eval_series(s, eps)
    return val.eval(tau) if isinstance(val, TrigPoly) else val


def eval_batch(u: TrigPoly, tau) -> np.ndarray:
    """Values of u at the points of tau (a number counts as one point),
    shape (m, dim): an outer product of the points and the harmonic
    numbers, then one cos and one sin table multiplied into the
    coefficients."""
    t = np.atleast_1d(np.asarray(tau, dtype=float))
    out = np.tile(u.const, (t.shape[0], 1))
    if u.degree:
        kt = np.outer(t, np.arange(1, u.degree + 1))
        out = out + np.cos(kt) @ u.cos + np.sin(kt) @ u.sin
    return out
