"""Reference DDE integrator (method of steps) and orbit cross-validation.

The integrator advances a single-delay system from a history on [-lam, 0]
(a constant state or a function of t) with the embedded Dormand-Prince 5(4)
pair, with the step capped at a quarter of the delay so every delayed lookup
lands in already-completed territory (or in the history).  Dense output is
the C1 cubic Hermite interpolant through the step endpoints, which keeps the
delayed-argument accuracy commensurate with the local step error.

The knots (t, y, y') are kept in preallocated arrays whose capacity doubles
when they fill up; ``Trajectory.ts``, ``ys`` and ``fs`` are views of the
filled rows.  Thanks to the step cap, the six delayed stage times of a step
all lie behind its start, so one ``searchsorted`` finds their segments and
one vectorised Hermite evaluation gives their states; lookups that reach the
history take it point by point.  The model rhs is called on Python floats.
The returned trajectory carries the last proposed step size, so ``extend``
continues it in place instead of restarting.

On top of it sit steady-state detection (upward equilibrium crossings of
the first component, bisected on the dense output, with period and peak-
amplitude convergence checks) and the phase-aligned relative error between
the numerical steady state and a reconstructed orbit.
"""

from __future__ import annotations

import numpy as np

from .errors import ComparisonError, IntegrationError, SteadyStateError
from .orbit import _bisect, _golden_max, _hermite

# Default tolerances of detect_steady_state, which cross_validate uses.
STEADY_TOL_AMP = 1e-6
STEADY_TOL_PER = 1e-6
# Times cross_validate extends an unsettled trajectory to twice its end.
MAX_DOUBLINGS = 2
# Points per period at which relative_error compares trajectory and orbit.
ERROR_SAMPLES = 1024

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200,
                187 / 2100, 1 / 40])


class Trajectory:
    """Dense numerical solution: cubic Hermite segments between the knots
    (t, y, y'), and the history at or before the first knot.

    A trajectory made by ``integrate`` keeps the step size its controller
    proposed last, so ``extend`` can continue it instead of restarting.
    ``stats`` counts the accepted and rejected steps, the rhs evaluations
    and the extensions, and holds the smallest and largest accepted step
    (``h_min``, ``h_max``; None before the first step).
    """

    def __init__(self, ts, ys, fs, lam, history):
        self._knots = tuple(np.array(a, dtype=float) for a in (ts, ys, fs))
        self._set_count(len(self._knots[0]))
        self.lam = float(lam)
        self.history = _history_function(history)
        self.stats = {"accepted": 0, "rejected": 0, "rhs_evals": 0,
                      "extensions": 0, "h_min": None, "h_max": None}
        self._resume = None  # (model, rtol, atol, next step) from integrate

    def _set_count(self, n):
        """Publish the first n rows of the knot storage as ts, ys and fs."""
        ts, ys, fs = self._knots
        self.ts, self.ys, self.fs = ts[:n], ys[:n], fs[:n]
        self.t_start = float(ts[0])
        self.t_end = float(ts[n - 1])

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    def _check_end(self, t):
        """Refuse lookups past the end (beyond a relative 1e-9) or at NaN."""
        t = np.atleast_1d(t)
        bad = t[~(t <= self.t_end + 1e-9 * max(1.0, abs(self.t_end)))]
        if bad.size:
            raise IntegrationError(
                f"lookup at t={bad[0]} beyond the trajectory end {self.t_end}")

    def value(self, t):
        """Dense-output state at t, a number or an array of any shape; the
        result has shape t.shape + (dim,)."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.reshape(-1)
        self._check_end(flat)
        out = _dense(np.minimum(flat, self.t_end), self.ts, self.ys, self.fs,
                     self.lam, self.history)
        return out.reshape(t_arr.shape + (self.dim,))

    def derivative(self, t):
        """Slope of the dense output; at or before the first knot, a central
        difference of the history over 1e-5 * max(1, lam) each side.  Like
        ``value``, it refuses t past the end or before the history."""
        tv = float(t)
        self._check_end(tv)
        if tv <= self.t_start:
            _check_history(tv, self.t_start, self.lam)
            d = 1e-5 * max(1.0, self.lam)
            return (np.asarray(self.history(tv + d), dtype=float)
                    - np.asarray(self.history(tv - d), dtype=float)) / (2 * d)
        tv = min(tv, self.t_end)
        ts = self.ts
        i = min(int(np.searchsorted(ts, tv, side="right")) - 1, len(ts) - 2)
        dt = ts[i + 1] - ts[i]
        s = (tv - ts[i]) / dt
        d00 = 6 * s * (s - 1) / dt
        d10 = (1 - 4 * s + 3 * s * s)
        d01 = -d00
        d11 = (3 * s * s - 2 * s)
        return (d00 * self.ys[i] + d10 * self.fs[i] + d01 * self.ys[i + 1]
                + d11 * self.fs[i + 1])

    def extend(self, t_end):
        """Continue the integration to t_end from the last knot and the step
        size proposed there; the knots up to the old end stay as they are,
        and if a step fails no knot is added."""
        if self._resume is None:
            raise IntegrationError(
                "only a trajectory made by integrate can be extended")
        if t_end <= self.t_end:
            raise IntegrationError(
                f"t_end={t_end} does not lie beyond the trajectory end "
                f"{self.t_end}")
        self._advance(t_end)
        self.stats["extensions"] += 1

    def _advance(self, t_end):
        """Dormand-Prince steps from the last knot up to t_end.  Accepted
        knots are written past the published ones, into storage that doubles
        when full, and published when the last step is done."""
        model, rtol, atol, h = self._resume
        lam, history, rhs = self.lam, self.history, model.rhs
        ts, ys, fs = self._knots
        n = len(self.ts)
        t_first = self.t_start
        t, y, f = self.t_end, self.ys[-1], self.fs[-1]
        h_max = lam / 4.0
        stats = self.stats
        n_stages = 7
        k = np.zeros((n_stages, model.dim))
        min_h_floor = 1e-14
        while t < t_end:
            h = min(h, h_max, t_end - t)
            if h < min_h_floor * max(1.0, abs(t)):
                raise IntegrationError(f"step size underflow at t={t}")
            k[0] = f
            # stage i looks up t + c_i * h - lam, behind t as h <= lam / 4
            delayed = t + _C[1:] * h - lam
            if delayed[0] > t_first:
                ydel = _hermite_knots(delayed, ts[:n], ys[:n], fs[:n])
            else:
                ydel = _dense(delayed, ts[:n], ys[:n], fs[:n], lam, history)
            ydel = ydel.tolist()
            try:
                for i in range(1, n_stages):
                    yi = y + h * (_A[i] @ k[:i])
                    k[i] = rhs(lam, yi.tolist(), ydel[i - 1])
            except ArithmeticError as exc:  # Python floats: 1/0, overflow
                raise IntegrationError(
                    f"model rhs failed near t={t}: {exc}") from exc
            stats["rhs_evals"] += n_stages - 1
            y5 = y + h * (_B5 @ k)
            y4 = y + h * (_B4 @ k)
            if not np.isfinite(y5).all():
                raise IntegrationError(f"non-finite state at t={t + h}")
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = float((np.abs(y5 - y4) / scale).max())
            if err <= 1.0:
                t += h
                y = y5
                f = k[6].copy()  # FSAL: last stage is f(t+h, y5)
                if n == len(ts):
                    ts, ys, fs = (np.concatenate((a, np.empty_like(a)))
                                  for a in (ts, ys, fs))
                ts[n], ys[n], fs[n] = t, y, f
                n += 1
                stats["accepted"] += 1
            else:
                stats["rejected"] += 1
            factor = 0.9 * (max(err, 1e-16)) ** (-0.2)
            h *= min(5.0, max(0.2, factor))
        self._knots = (ts, ys, fs)
        self._set_count(n)
        self._resume = (model, rtol, atol, h)
        steps = np.diff(self.ts)
        stats["h_min"] = float(steps.min())
        stats["h_max"] = float(steps.max())

    def __repr__(self):
        return (f"Trajectory(lam={self.lam}, t=[{self.t_start}, {self.t_end}], "
                f"knots={len(self.ts)})")


def _history_function(history):
    """The history as a function t -> state; a constant state is wrapped."""
    if callable(history):
        return history
    value = np.asarray(history, dtype=float).copy()
    return lambda t: value.copy()


def _check_history(t, t_first, lam):
    """Refuse a lookup before the history interval [t_first - lam, t_first]."""
    if t < t_first - lam - 1e-9 * max(1.0, lam):
        raise IntegrationError(
            f"delayed lookup at t={t} precedes the history interval")


def _hermite_knots(t, ts, ys, fs):
    """Hermite dense output of the knots at the times t (1-D, after ts[0],
    none past ts[-1]): one searchsorted finds every segment, as bisect_right
    would, and one vectorised evaluation gives shape (len(t), dim)."""
    i = np.minimum(ts.searchsorted(t, side="right") - 1, len(ts) - 2)
    j = i + 1
    return _hermite(t[:, None], ts[i][:, None], ts[j][:, None], ys[i], ys[j],
                    fs[i], fs[j])


def _dense(t, ts, ys, fs, lam, history):
    """Dense output of the knots at the times t (1-D, none past ts[-1]): the
    Hermite segments after the first knot, and, point by point, the history
    at or before it, no further back than lam."""
    inner = t > ts[0]
    out = np.empty((len(t), ys.shape[1]))
    out[inner] = _hermite_knots(t[inner], ts, ys, fs)
    for j in np.flatnonzero(~inner):
        tj = float(t[j])
        _check_history(tj, ts[0], lam)
        out[j] = history(tj)
    return out


class Alignment:
    """Phase anchor of a steady oscillation: crossing time and period, and
    the spreads of the last three periods and peak amplitudes that
    ``detect_steady_state`` accepted (None when not measured)."""

    def __init__(self, t0, period_est, period_spread=None,
                 amplitude_spread=None):
        self.t0 = float(t0)
        self.period_est = float(period_est)
        self.period_spread = period_spread
        self.amplitude_spread = amplitude_spread

    def __repr__(self):
        return f"Alignment(t0={self.t0:.6g}, period={self.period_est:.6g})"


def integrate(model, lam, history, t_end, rtol=1e-9, atol=1e-9) -> Trajectory:
    """Integrate on [0, t_end] from a history on [-lam, 0].

    ``history`` is a constant state or a callable t -> state; the solution
    starts from history(0).  The step size is error-controlled to
    (rtol, atol) and capped at lam/4 so delayed arguments always fall behind
    the current step.  The returned trajectory can be continued with
    ``Trajectory.extend``.
    """
    if t_end <= 0:
        raise IntegrationError("t_end must be positive")
    if not (1e-12 <= rtol <= 1e-3 and 1e-12 <= atol <= 1e-3):
        raise IntegrationError("tolerances must lie in [1e-12, 1e-3]")
    lam = float(lam)
    history = _history_function(history)
    y = np.asarray(history(0.0), dtype=float)
    if y.shape != (model.dim,):
        raise IntegrationError(f"history must give states of dim {model.dim}")
    ydel = np.asarray(history(-lam), dtype=float)
    try:
        f = np.array(model.rhs(lam, y.tolist(), ydel.tolist()), dtype=float)
    except ArithmeticError as exc:
        raise IntegrationError(f"model rhs failed at t=0: {exc}") from exc
    traj = Trajectory([0.0], [y], [f], lam, history)
    traj.stats["rhs_evals"] = 1
    traj._resume = (model, rtol, atol, min(lam / 4.0, t_end, 1e-2 * lam + 1e-12))
    traj._advance(t_end)
    return traj


# -- steady state ---------------------------------------------------------------


def _cycle_peak(traj, ts, d, level, i0, i1):
    """Peak |deviation| within one cycle, refined on the dense output.

    The knot values alone jitter with the step pattern; a short golden-
    section maximization of |x1(t) - level| around the knot maximum brings
    the estimate down to the interpolant accuracy."""
    seg = np.abs(d[i0:i1 + 1])
    k = i0 + int(np.argmax(seg))
    a = ts[max(k - 1, 0)]
    b = ts[min(k + 1, len(ts) - 1)]

    def f(t):
        return abs(float(traj.value(t)[0]) - level)

    return _golden_max(f, a, b, float(np.abs(d[k])), 25)


def detect_steady_state(traj: Trajectory, level=0.0, tol_amp=STEADY_TOL_AMP,
                        tol_per=STEADY_TOL_PER) -> Alignment:
    """Find the settled oscillation phase reference.

    Scans upward crossings of component 1 through ``level`` and bisects the
    last four on the dense output; steady state is declared when the last
    three period estimates agree to tol_per (relative) and the last three
    per-cycle peak amplitudes agree to tol_amp (absolute).  Returns the last
    crossing and the last period estimate.
    """
    d = traj.ys[:, 0] - level
    up = np.nonzero((d[:-1] <= 0.0) & (d[1:] > 0.0))[0]
    if len(up) < 6:
        raise SteadyStateError(
            f"only {len(up)} upward crossings found; trajectory too short "
            "or not oscillating")

    ts, x, dx = traj.ts, traj.ys[:, 0], traj.fs[:, 0]

    def crossing(i):
        # bisect the crossing on the one Hermite segment that holds it
        seg = (ts[i], ts[i + 1], x[i], x[i + 1], dx[i], dx[i + 1])
        return _bisect(lambda t: _hermite(t, *seg) - level, ts[i], ts[i + 1],
                       d[i])

    # only the last four crossings (three periods) are read
    crossings = [crossing(i) for i in up[-4:]]
    last_p = np.diff(crossings)
    last_a = np.array([_cycle_peak(traj, ts, d, level, up[i], up[i + 1])
                       for i in range(len(up) - 4, len(up) - 1)])
    p_spread = float(np.max(np.abs(np.diff(last_p))))
    a_spread = float(np.max(np.abs(np.diff(last_a))))
    if not (p_spread <= tol_per * float(np.mean(last_p))
            and a_spread <= tol_amp):
        raise SteadyStateError(
            f"oscillation not settled: period spread {p_spread:.3e}, "
            f"amplitude spread {a_spread:.3e}; integrate longer")
    return Alignment(crossings[-1], float(last_p[-1]), period_spread=p_spread,
                     amplitude_spread=a_spread)


# -- phase-aligned comparison -----------------------------------------------------


def _orbit_anchor(orbit) -> float:
    """Time in [0, period) where the orbit's first component crosses its
    equilibrium level upward.  The construction places a crossing at t = 0;
    if its slope is negative the other crossing of the fundamental is used."""
    if orbit.derivative(0.0)[0] > 0.0:
        return 0.0
    ts = np.linspace(0.0, orbit.period, 512, endpoint=False)
    d = orbit.deviation(ts)[:, 0]
    up = np.nonzero((d[:-1] <= 0.0) & (d[1:] > 0.0))[0]
    if len(up) == 0:
        raise ComparisonError("orbit has no upward equilibrium crossing")
    i = up[0]
    return _bisect(lambda t: float(orbit.deviation(t)[0]), ts[i], ts[i + 1], d[i])


def relative_error(orbit, traj: Trajectory, align: Alignment) -> float:
    """Sup-norm deviation between the settled trajectory and the orbit over
    one numerical period, both as deviations from the equilibrium, divided
    by the sup of the reference."""
    T = align.period_est
    if abs(orbit.period - T) > 0.05 * T:
        raise ComparisonError(
            f"period mismatch: orbit {orbit.period:.6g} vs numerical "
            f"{T:.6g}; refusing to compare")
    t0 = align.t0
    # Keep one full period inside the trajectory by stepping whole periods back.
    while t0 + T > traj.t_end and t0 - T >= traj.t_start:
        t0 -= T
    if t0 + T > traj.t_end:
        raise ComparisonError("trajectory too short after the anchor")
    t_a = _orbit_anchor(orbit)
    eq = orbit.equilibrium
    offs = np.linspace(0.0, T, ERROR_SAMPLES, endpoint=False)
    ref = traj.value(t0 + offs) - eq
    app = orbit.deviation(t_a + offs)
    return float(np.max(np.abs(ref - app)) / np.max(np.abs(ref)))


def cross_validate(orbit, rtol=1e-9, atol=1e-9, history=None, t_end=None):
    """Integrate the model at the orbit's delay and measure the phase-aligned
    error.  Returns (e_r, alignment, trajectory).

    The default history is the reconstructed orbit itself on [-lam, 0]
    (``orbit.evaluate``), so the integration starts close to the attracting
    cycle and the transient is short.  t_end defaults to 120 periods; while
    no steady state is detected, the same trajectory is extended to twice
    its end, at most MAX_DOUBLINGS times.
    """
    if history is None:
        history = orbit.evaluate
    if t_end is None:
        t_end = 120.0 * orbit.period
    level = float(orbit.equilibrium[0])
    last_exc = None
    traj = integrate(orbit.expansion.model, orbit.lam, history, t_end,
                     rtol=rtol, atol=atol)
    for doubling in range(MAX_DOUBLINGS + 1):
        if doubling:
            t_end *= 2.0
            traj.extend(t_end)
        try:
            align = detect_steady_state(traj, level=level)
        except SteadyStateError as exc:
            last_exc = exc
            continue
        return relative_error(orbit, traj, align), align, traj
    raise SteadyStateError(
        f"no steady state reached after extending t_end: {last_exc}")
