"""Reference DDE integrator (method of steps) and orbit cross-validation.

The integrator advances a single-delay system from a history on [-lam, 0]
(a constant state or a function of t) with DOP853, the explicit Runge-Kutta
method of order 8 by Dormand and Prince with its 5th- and 3rd-order error
estimators and its 7th-order continuous extension (Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, 2nd ed., sections II.5-II.6).  The
step is capped at a quarter of the delay, so every delayed lookup lands in
already-completed territory (or in the history).

Each segment between two knots keeps the seven extension vectors F0..F6 of
its step, and one nested evaluator

    y(t0 + x h) = y0 + x (F0 + (1-x) (F1 + x (F2 + (1-x) (F3 + ...)))),

serves the delayed lookups, ``Trajectory.value`` and the crossing
bisection.  With F3..F6 = 0 it is the cubic Hermite interpolant through
(t, y, y') at the two knots.  The extension costs three rhs calls per
accepted step, on top of the twelve per attempted step; with O(h^4) cubic
Hermite lookups instead, the error of the delayed values, not that of the
step, would limit the accuracy.

``integrate`` alone builds a trajectory, in one pass: the knots
(t, y) and the extension vectors go into arrays whose capacity doubles
when they fill up, and the ``Trajectory`` returned holds read-only views of
the filled rows.  Thanks to the step cap, the fifteen delayed stage times
of a step all lie behind its start, so one ``searchsorted`` finds their
segments and one evaluation of the extension over the flattened 15 * dim
values gives their states, the same bits as one lookup at a time; lookups
that reach the history take it point by point.  The model rhs is called on
Python floats.

A step costs mostly the fixed overhead of numpy calls on short vectors, so
the rows A[s, :s] and the nodes are made at import, the views k[:s] once
per call, |y| is carried over from the accepted step, and finiteness is
tested on the list the last stage passed to the rhs.  The stage
combinations and the error rows stay BLAS calls (``ndarray.dot`` reaches
the same dgemv as ``@``): summed in Python floats, left to right or in
FMA order, they round differently in over a quarter of the entries on
random data, which would move every knot.

On top of it sit steady-state detection (upward equilibrium crossings of
the first component, bisected on the dense output, with period and peak-
amplitude convergence checks) and the phase-aligned relative error between
the numerical steady state and a reconstructed orbit.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ComparisonError, IntegrationError, SteadyStateError
from .orbit import _bisect, _golden_max

# Tolerances of detect_steady_state.
STEADY_TOL_AMP = 1e-6
STEADY_TOL_PER = 1e-6
# Times cross_validate integrates again from t = 0 over twice the span.
MAX_DOUBLINGS = 2
# Points per period at which relative_error compares trajectory and orbit.
ERROR_SAMPLES = 1024


def _table(text):
    """Rows of a coefficient table written as text, rows separated by ';'
    and entries by blanks.  As text, the coefficients do not each become a
    syntax-tree node when the module is compiled (about 0.2 MB at the peak)."""
    return [[float(v) for v in row.split()] for row in text.split(";")]


# DOP853 tableau: the coefficients of Hairer's dop853.f (Hairer, Norsett &
# Wanner, section II.6), each as the shortest decimal that rounds to the same
# double.  Stages 1-11 are the method's; row 12 of A is the 8th-order weights
# B, so stage 12 is f at the new state (first same as last); stages 13-15 are
# the continuous extension's.
(_C,) = np.array(_table("""
    0.0 0.05260015195876773 0.0789002279381516 0.1183503419072274
    0.2816496580927726 0.3333333333333333 0.25 0.3076923076923077
    0.6512820512820513 0.6 0.8571428571428571 1.0 1.0 0.1 0.2
    0.7777777777777778"""))
_A = np.array([row + [0.0] * (16 - len(row)) for row in _table("""
    ;
    0.05260015195876773;
    0.0197250569845379 0.0591751709536137;
    0.02958758547680685 0.0 0.08876275643042054;
    0.2413651341592667 0.0 -0.8845494793282861 0.924834003261792;
    0.037037037037037035 0.0 0.0 0.17082860872947386 0.12546768756682242;
    0.037109375 0.0 0.0 0.17025221101954405 0.06021653898045596 -0.017578125;
    0.03709200011850479 0.0 0.0 0.17038392571223998 0.10726203044637328
    -0.015319437748624402 0.008273789163814023;
    0.6241109587160757 0.0 0.0 -3.3608926294469414 -0.868219346841726
    27.59209969944671 20.154067550477894 -43.48988418106996;
    0.47766253643826434 0.0 0.0 -2.4881146199716677 -0.590290826836843
    21.230051448181193 15.279233632882423 -33.28821096898486
    -0.020331201708508627;
    -0.9371424300859873 0.0 0.0 5.186372428844064 1.0914373489967295
    -8.149787010746927 -18.52006565999696 22.739487099350505 2.4936055526796523
    -3.0467644718982196;
    2.273310147516538 0.0 0.0 -10.53449546673725 -2.0008720582248625
    -17.9589318631188 27.94888452941996 -2.8589982771350235 -8.87285693353063
    12.360567175794303 0.6433927460157636;
    0.054293734116568765 0.0 0.0 0.0 0.0 4.450312892752409 1.8915178993145003
    -5.801203960010585 0.3111643669578199 -0.1521609496625161
    0.20136540080403034 0.04471061572777259;
    0.056167502283047954 0.0 0.0 0.0 0.0 0.0 0.25350021021662483
    -0.2462390374708025 -0.12419142326381637 0.15329179827876568
    0.00820105229563469 0.007567897660545699 -0.008298;
    0.03183464816350214 0.0 0.0 0.0 0.0 0.028300909672366776
    0.053541988307438566 -0.05492374857139099 0.0 0.0 -0.00010834732869724932
    0.0003825710908356584 -0.00034046500868740456 0.1413124436746325;
    -0.42889630158379194 0.0 0.0 0.0 0.0 -4.697621415361164 7.683421196062599
    4.06898981839711 0.3567271874552811 0.0 0.0 0.0 -0.0013990241651590145
    2.9475147891527724 -9.15095847217987""")])
_B = _A[12, :12]
# Stage s's row of A over stages 0..s-1, and the nodes of stages 1-15.
_ROWS = [_A[s, :s] for s in range(16)]
_NODES = _C[1:]
# The error estimators' weights over stages 0-11: the 5th-order one, and the
# 3rd-order one as B minus the 3rd-order weights (these are nonzero at stages
# 0, 8 and 11).
_E5, _B3 = np.array(_table("""
    0.01312004499419488 0.0 0.0 0.0 0.0 -1.2251564463762044 -0.4957589496572502
    1.6643771824549864 -0.35032884874997366 0.3341791187130175
    0.08192320648511571 -0.022355307863886294;
    0.2440944881889764 0.0 0.0 0.0 0.0 0.0 0.0 0.0 0.7338466882816118 0.0 0.0
    0.022058823529411766"""))
_E3 = _B - _B3
# Extension vectors F3..F6 = h * (_D @ k) over all sixteen stages.
_D = np.array(_table("""
    -8.428938276109013 0.0 0.0 0.0 0.0 0.5667149535193777 -3.0689499459498917
    2.38466765651207 2.117034582445028 -0.871391583777973 2.2404374302607883
    0.6315787787694688 -0.08899033645133331 18.148505520854727
    -9.194632392478356 -4.436036387594894;
    10.427508642579134 0.0 0.0 0.0 0.0 242.28349177525817 165.20045171727028
    -374.5467547226902 -22.113666853125306 7.733432668472264
    -30.674084731089398 -9.332130526430229 15.697238121770845
    -31.139403219565178 -9.35292435884448 35.81684148639408;
    19.985053242002433 0.0 0.0 0.0 0.0 -387.0373087493518 -189.17813819516758
    527.8081592054236 -11.57390253995963 6.8812326946963 -1.0006050966910838
    0.7777137798053443 -2.778205752353508 -60.19669523126412 84.32040550667716
    11.99229113618279;
    -25.69393346270375 0.0 0.0 0.0 0.0 -154.18974869023643 -231.5293791760455
    357.6391179106141 93.40532418362432 -37.45832313645163 104.0996495089623
    29.8402934266605 -43.53345659001114 96.32455395918828 -39.17726167561544
    -149.72683625798564"""))

class Trajectory:
    """Dense numerical solution, as ``integrate`` returns it: the knots
    (t, y) (``ts``, ``ys``), on each segment between them the continuous
    extension with its vectors F0..F6 (``coeffs``, shape (len(ts) - 1, 7,
    dim)), and the history at or before the first knot.  The arrays are
    read-only.

    ``stats`` counts the accepted and rejected steps and the rhs
    evaluations, and holds the smallest accepted step the controller chose
    (``h_min``: a last step shortened to land on t_end does not count, and
    the first step never is) and the largest accepted step (``h_max``).
    """

    def __init__(self, ts, ys, coeffs, lam, history, stats):
        for a in (ts, ys, coeffs):
            a.setflags(write=False)
        self.ts, self.ys, self.coeffs = ts, ys, coeffs
        self.t_start = float(ts[0])
        self.t_end = float(ts[-1])
        self.lam = lam
        self.history = history
        self.stats = stats

    @property
    def dim(self) -> int:
        return self.ys.shape[1]

    def value(self, t):
        """Dense-output state at t, a number or an array of any shape; the
        result has shape t.shape + (dim,).  Refuses t past the end (beyond a
        relative 1e-9), before the history, or NaN."""
        t_arr = np.asarray(t, dtype=float)
        flat = t_arr.reshape(-1)
        bad = flat[~(flat <= self.t_end + 1e-9 * self.t_end)]
        if bad.size:
            raise IntegrationError(
                f"lookup at t={bad[0]} beyond the trajectory end {self.t_end}")
        out = _dense(np.minimum(flat, self.t_end), self.ts, self.ys,
                     self.coeffs, self.lam, self.history)
        return out.reshape(t_arr.shape + (self.dim,))

    def __repr__(self):
        return (f"Trajectory(lam={self.lam}, t=[{self.t_start}, {self.t_end}], "
                f"knots={len(self.ts)})")


def _history_function(history):
    """The history as a function t -> state; a constant state is wrapped."""
    if callable(history):
        return history
    value = np.asarray(history, dtype=float).copy()
    return lambda t: value.copy()


def _hermite_part(h, dy, f0, f1):
    """F0, F1, F2 of a segment of length h with increment dy and end slopes
    f0, f1: alone (F3..F6 = 0) they make the cubic Hermite interpolant."""
    return dy, h * f0 - dy, 2 * dy - h * (f1 + f0)


def _extension(x, y0, F):
    """The dense output y0 + x (F0 + (1-x) (F1 + x (F2 + ...))) of a segment
    at x = (t - t0) / h in [0, 1], with F[0..6] its extension vectors.

    The arguments may be numbers or broadcasting arrays.  Only +, - and *
    are used, which round the same on numbers and arrays."""
    u = 1 - x
    q = F[6]
    for j in range(5, -1, -1):
        q = F[j] + (x if j % 2 else u) * q
    return y0 + x * q


def _segments(t, ts, ys, coeffs):
    """Dense output of the knots ts at the times t (1-D, after ts[0], none
    past ts[-1]): one searchsorted finds every segment, as bisect_right
    would, and one evaluation of the extension over the flattened
    len(t) * dim values gives shape (len(t), dim)."""
    i = np.minimum(ts.searchsorted(t, side="right") - 1, len(ts) - 2)
    x = (t - ts[i]) / (ts[i + 1] - ts[i])
    m, dim = len(t), ys.shape[1]
    flat = _extension(np.repeat(x, dim), ys[i].reshape(-1),
                      coeffs[i].transpose(1, 0, 2).reshape(7, m * dim))
    return flat.reshape(m, dim)


def _dense(t, ts, ys, coeffs, lam, history):
    """Dense output of the knots ts at the times t (1-D, none past ts[-1]):
    the segments after the first knot, and, point by point, the history at
    or before it, no further back than lam."""
    inner = t > ts[0]
    out = np.empty((len(t), ys.shape[1]))
    out[inner] = _segments(t[inner], ts, ys, coeffs)
    for j in np.flatnonzero(~inner):
        tj = float(t[j])
        if tj < ts[0] - lam - 1e-9 * lam:
            raise IntegrationError(
                f"delayed lookup at t={tj} precedes the history interval")
        out[j] = history(tj)
    return out


class Alignment:
    """Phase anchor of a steady oscillation: crossing time and period, and
    the spreads of the last three periods and peak amplitudes that
    ``detect_steady_state`` accepted."""

    def __init__(self, t0, period_est, period_spread, amplitude_spread):
        self.t0 = float(t0)
        self.period_est = float(period_est)
        self.period_spread = period_spread
        self.amplitude_spread = amplitude_spread

    def __repr__(self):
        return f"Alignment(t0={self.t0:.6g}, period={self.period_est:.6g})"


@np.errstate(over="ignore", invalid="ignore")
def integrate(model, lam, history, t_end, rtol=1e-9, atol=1e-9) -> Trajectory:
    """Integrate on [0, t_end] from a history on [-lam, 0].

    ``history`` is a constant state or a callable t -> state; the solution
    starts from history(0).  DOP853 steps are error-controlled to
    (rtol, atol) and capped at lam/4 so delayed arguments always fall behind
    the current step.  Accepted knots and their segments go into arrays
    whose capacity doubles when full; the trajectory returned holds views
    of the filled rows.  numpy's overflow and invalid-value warnings are off
    inside: a saturated rhs (exp overflowing to inf) may still give a finite
    slope, and a state that leaves the float range raises IntegrationError
    ("non-finite state").
    """
    lam = float(lam)
    if not 0.0 < lam < math.inf:
        raise IntegrationError(f"lam={lam} must be finite and positive")
    if not 0.0 < t_end < math.inf:
        raise IntegrationError(f"t_end={t_end} must be finite and positive")
    if not (1e-12 <= rtol <= 1e-3 and 1e-12 <= atol <= 1e-3):
        raise IntegrationError("tolerances must lie in [1e-12, 1e-3]")
    history = _history_function(history)
    rhs, dim = model.rhs, model.dim
    y = np.asarray(history(0.0), dtype=float)
    if y.shape != (dim,):
        raise IntegrationError(f"history must give states of dim {dim}")
    past = np.asarray(history(-lam), dtype=float).tolist()
    try:
        f = model.rhs_vector(lam, y.tolist(), past)
    except ArithmeticError as exc:
        raise IntegrationError(f"model rhs failed at t=0: {exc}") from exc
    ts, ys = np.zeros(1), y[None].copy()
    coeffs = np.zeros((1, 7, dim))
    n, t = 1, 0.0
    h = min(lam / 4.0, t_end, 1e-2 * lam + 1e-12)
    h_min, h_max = math.inf, lam / 4.0
    stats = {"accepted": 0, "rejected": 0, "rhs_evals": 1}
    k = np.zeros((16, dim))
    ks = [k[:s] for s in range(16)]  # ks[12]: the stages the error rows read
    abs_y = np.abs(y)

    def stages(first, last):
        """Stages first..last-1 into k; returns the last stage's state, as
        an array and as the list passed to the rhs."""
        try:
            for s in range(first, last):
                yi = y + h * _ROWS[s].dot(ks[s])
                yl = yi.tolist()
                k[s] = rhs(lam, yl, ydel[s - 1])
        except ArithmeticError as exc:  # Python floats: 1/0, overflow
            raise IntegrationError(
                f"model rhs failed near t={t}: {exc}") from exc
        stats["rhs_evals"] += last - first
        return yi, yl

    while t < t_end:
        h = min(h, h_max)
        clipped = t_end - t < h  # shortened to land on t_end
        if clipped:
            h = t_end - t
        if h < 1e-14 * max(lam, t):
            raise IntegrationError(f"step size underflow at t={t}")
        k[0] = f
        # stage s looks up t + c_s * h - lam, behind t as h <= lam / 4;
        # c_1 is the smallest node
        delayed = t + _NODES * h - lam
        if delayed[0] > 0.0:
            ydel = _segments(delayed, ts[:n], ys, coeffs)
        else:
            ydel = _dense(delayed, ts[:n], ys, coeffs, lam, history)
        ydel = ydel.tolist()
        y_new, yl = stages(1, 13)  # stage 12 is f(t + h, y_new)
        if not all(map(math.isfinite, yl)):
            raise IntegrationError(f"non-finite state at t={t + h}")
        abs_new = np.abs(y_new)
        scale = atol + rtol * np.maximum(abs_y, abs_new)
        e5, e3 = _E5.dot(ks[12]) / scale, _E3.dot(ks[12]) / scale
        n5, n3 = float(e5.dot(e5)), float(e3.dot(e3))
        den = n5 + 0.01 * n3
        err = h * n5 / math.sqrt(dim * den) if den > 0.0 else 0.0
        if err <= 1.0:
            stages(13, 16)
            if n == len(ts):
                ts, ys, coeffs = (np.concatenate((a, np.empty_like(a)))
                                  for a in (ts, ys, coeffs))
            row = coeffs[n - 1]
            row[0], row[1], row[2] = _hermite_part(h, y_new - y, f, k[12])
            row[3:] = h * _D.dot(k)
            t += h
            if not clipped:
                h_min = min(h_min, float(t - ts[n - 1]))
            y, f, abs_y = y_new, k[12].copy(), abs_new
            ts[n], ys[n] = t, y
            n += 1
            stats["accepted"] += 1
        else:
            stats["rejected"] += 1
        factor = 0.9 * max(err, 1e-16) ** -0.125
        h *= min(6.0, max(1.0 / 3.0, factor))
    stats["h_min"] = h_min
    stats["h_max"] = float(np.diff(ts[:n]).max())
    return Trajectory(ts[:n], ys[:n], coeffs[:n - 1], lam, history, stats)


# -- steady state ---------------------------------------------------------------


def _cycle_peak(traj, d, level, i0, i1):
    """Peak |deviation| within one cycle, refined on the dense output.

    The knot values alone jitter with the step pattern; a short golden-
    section maximization of |x1(t) - level| around the knot maximum brings
    the estimate down to the interpolant accuracy."""
    seg = np.abs(d[i0:i1 + 1])
    k = i0 + int(np.argmax(seg))
    ts = traj.ts
    a = ts[max(k - 1, 0)]
    b = ts[min(k + 1, len(ts) - 1)]

    def f(t):
        return abs(float(traj.value(t)[0]) - level)

    return _golden_max(f, a, b, float(np.abs(d[k])), 25)


def detect_steady_state(traj: Trajectory, level: float) -> Alignment:
    """Find the settled oscillation phase reference.

    Scans upward crossings of component 1 through ``level`` and bisects the
    last four on the dense output; steady state is declared when the last
    three period estimates agree to STEADY_TOL_PER (relative) and the last
    three per-cycle peak amplitudes agree to STEADY_TOL_AMP (absolute).
    Returns the last crossing and the last period estimate.
    """
    d = traj.ys[:, 0] - level
    up = np.nonzero((d[:-1] <= 0.0) & (d[1:] > 0.0))[0]
    if len(up) < 6:
        raise SteadyStateError(
            f"only {len(up)} upward crossings found; trajectory too short "
            "or not oscillating")

    ts, x, F = traj.ts, traj.ys[:, 0], traj.coeffs[:, :, 0]

    def crossing(i):
        # bisect the crossing on the one segment that holds it, in floats
        t0, h = float(ts[i]), float(ts[i + 1] - ts[i])
        x0, Fi = float(x[i]), F[i].tolist()
        return _bisect(lambda t: _extension((t - t0) / h, x0, Fi) - level,
                       ts[i], ts[i + 1], d[i])

    # only the last four crossings (three periods) are read
    crossings = [crossing(i) for i in up[-4:]]
    last_p = np.diff(crossings)
    last_a = np.array([_cycle_peak(traj, d, level, up[i], up[i + 1])
                       for i in range(len(up) - 4, len(up) - 1)])
    p_spread = float(np.max(np.abs(np.diff(last_p))))
    a_spread = float(np.max(np.abs(np.diff(last_a))))
    if not (p_spread <= STEADY_TOL_PER * float(np.mean(last_p))
            and a_spread <= STEADY_TOL_AMP):
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
    no steady state is detected, the model is integrated again from t = 0
    over twice the span, at most MAX_DOUBLINGS times.
    """
    if history is None:
        history = orbit.evaluate
    if t_end is None:
        t_end = 120.0 * orbit.period
    level = float(orbit.equilibrium[0])
    last_exc = None
    for doubling in range(MAX_DOUBLINGS + 1):
        traj = integrate(orbit.expansion.model, orbit.lam, history,
                         t_end * 2.0 ** doubling, rtol=rtol, atol=atol)
        try:
            align = detect_steady_state(traj, level=level)
        except SteadyStateError as exc:
            last_exc = exc
            continue
        return relative_error(orbit, traj, align), align, traj
    raise SteadyStateError(
        f"no steady state reached after doubling t_end: {last_exc}")
