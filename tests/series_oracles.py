"""Evaluation of truncated series at a point, for tests only: the package
never evaluates an EpsSeries, so these oracles read ``s.coeffs`` directly."""

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
