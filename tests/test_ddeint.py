from bisect import bisect_right

import numpy as np
import pytest
from conftest import in_time_unit

from ddehopf import ddeint as di
from ddehopf import models as mdl
from ddehopf import orbit as ob
from ddehopf.errors import ComparisonError, IntegrationError, SteadyStateError


@pytest.fixture(scope="module")
def linear_model():
    # x'(t) = -x(t - pi/2): the characteristic equation r + e^(-r*lam) = 0
    # has the purely imaginary root i (verified below), giving a neutral
    # oscillation of period 2*pi = 4*lam.
    return mdl.DdeModel("lin", 1, {}, lambda lam, x, y: [-y[0]],
                        [0.0], (1.0, 1.5))


def _hermite_trajectory(ts, ys, fs, lam, history):
    """A trajectory through the knots (ts, ys, fs) whose segments hold the
    cubic Hermite interpolant (F3..F6 = 0)."""
    ts, ys, fs = (np.array(a, dtype=float) for a in (ts, ys, fs))
    coeffs = np.zeros((len(ts) - 1, 7, ys.shape[1]))
    coeffs[:, :3] = np.stack(di._hermite_part(
        np.diff(ts)[:, None], np.diff(ys, axis=0), fs[:-1], fs[1:]), axis=1)
    return di.Trajectory(ts, ys, coeffs, lam, di._history_function(history), {})


def _segment(knots, ys, coeffs, t):
    """Dense output at one time t after the first knot, the segment found by
    bisecting the knot times ``knots`` (a list)."""
    i = min(bisect_right(knots, t) - 1, len(knots) - 2)
    return di._extension((t - knots[i]) / (knots[i + 1] - knots[i]), ys[i],
                         coeffs[i])


# Order of each rooted tree up to order 5 and its density gamma: a
# Runge-Kutta method has order 5 when its weights b give b . Phi(t) =
# 1 / gamma(t) on each of them (Hairer, Norsett & Wanner, section II.2).
TREE_ORDER = np.array([1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5])
TREE_GAMMA = np.array([1, 2, 3, 6, 4, 8, 12, 24, 5, 10, 15, 30, 20, 20, 40,
                       60, 120])


def _elementary_weights(A, c):
    """Phi(t) of each tree in TREE_ORDER's order, one row per stage."""
    Ac, Ac2 = A @ c, A @ c ** 2
    AAc = A @ Ac
    return np.array([
        np.ones_like(c), c,
        c ** 2, Ac,
        c ** 3, c * Ac, Ac2, AAc,
        c ** 4, c ** 2 * Ac, c * Ac2, c * AAc, Ac ** 2, A @ c ** 3,
        A @ (c * Ac), A @ Ac2, A @ AAc])


class TestTableau:
    """The transcribed DOP853 coefficients, checked in numpy alone."""

    def test_row_sums_and_order_conditions(self):
        assert np.abs(di._A.sum(axis=1) - di._C).max() < 1e-14
        assert abs(di._B.sum() - 1.0) < 1e-15
        phi = _elementary_weights(di._A[:12, :12], di._C[:12])
        # the method itself and its 5th-order embedded weights hold through
        # order 5; the 3rd-order weights through order 3
        assert np.abs(phi @ di._B - 1.0 / TREE_GAMMA).max() < 1e-14
        assert np.abs(phi @ (di._B - di._E5) - 1.0 / TREE_GAMMA).max() < 1e-14
        third = TREE_ORDER <= 3
        assert np.abs((phi @ (di._B - di._E3) - 1.0 / TREE_GAMMA)[third]
                      ).max() < 1e-14

    def test_extension_order_conditions(self):
        # the weights of the dense output at x, over all sixteen stages, hold
        # through order 5 with x^order / gamma on the right
        b = np.zeros(16)
        b[:12] = di._B
        e0, e12 = np.eye(16)[0], np.eye(16)[12]
        F = [*di._hermite_part(1.0, b, e0, e12), *di._D]
        phi = _elementary_weights(di._A, di._C)
        for x in (0.1, 0.37, 0.5, 0.9):
            weights = di._extension(x, 0.0, F)
            assert np.abs(phi @ weights - x ** TREE_ORDER / TREE_GAMMA
                          ).max() < 1e-14

    def test_sine_history_stays_on_the_sine(self, linear_model):
        # sin t solves x'(t) = -x(t - pi/2) exactly; ten periods at the
        # default tolerances
        lam = np.pi / 2
        traj = di.integrate(linear_model, lam,
                            lambda t: np.array([np.sin(t)]), 40 * lam)
        t = np.linspace(0.0, 40 * lam, 5001)
        assert np.max(np.abs(traj.value(t)[:, 0] - np.sin(t))) < 1e-8


class TestExtension:
    def test_rounds_the_same_on_numbers_and_arrays(self):
        # the integrator evaluates the extension on arrays and the crossing
        # bisection on Python floats
        rng = np.random.default_rng(7)
        x = rng.random(10_000)
        y0, F = 0.8, rng.normal(size=7)
        whole = di._extension(x, y0, F)
        for xs, Fs in ((x, F), (x.tolist(), F.tolist())):
            one_by_one = [di._extension(xv, y0, Fs) for xv in xs]
            assert np.array_equal(whole, one_by_one)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 15])
    def test_segments_match_the_per_point_path(self, dim, m):
        # the flat evaluation over m * dim values gives the bits of the
        # extension at each point on its own, a time on the last knot
        # included (its segment is the last one, at x = 1)
        rng = np.random.default_rng(100 * dim + m)
        ts = np.cumsum(rng.uniform(0.1, 2.0, 12))
        ys = rng.normal(size=(12, dim))
        coeffs = rng.normal(size=(11, 7, dim)) * 10.0 ** rng.uniform(
            -5, 5, (11, 7, dim))
        t = rng.uniform(ts[0], ts[-1], m)
        t[-1] = ts[-1]
        expected = [_segment(ts.tolist(), ys, coeffs, tv) for tv in t.tolist()]
        got = di._segments(t, ts, ys, coeffs)
        assert got.shape == (m, dim) and np.array_equal(got, expected)


class TestStageArithmetic:
    """The step's stage combinations and error rows (``ndarray.dot`` on the
    rows and views made once) give the bytes of ``@`` on fresh slices, which
    both reach BLAS.  A numpy or BLAS upgrade that breaks this would move
    the integrator's bits."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_dot_on_made_rows_is_matmul_on_slices(self, dim):
        rng = np.random.default_rng(dim)
        k = np.zeros((16, dim))
        ks = [k[:s] for s in range(16)]
        for _ in range(300):
            k[:] = rng.choice([-1.0, 1.0], (16, dim)) * 10.0 ** rng.uniform(
                -5, 5, (16, dim))
            y = rng.normal(size=dim) * 10.0 ** rng.uniform(-5, 5)
            h = float(rng.uniform(1e-3, 30.0))
            for s in range(1, 16):
                assert (y + h * di._ROWS[s].dot(ks[s])).tobytes() == \
                    (y + h * (di._A[s, :s] @ k[:s])).tobytes()
            for row in (di._E5, di._E3):
                e = row.dot(ks[12]) / y
                assert e.tobytes() == ((row @ k[:12]) / y).tobytes()
                assert e.dot(e) == e @ e
            assert (h * di._D.dot(k)).tobytes() == (h * (di._D @ k)).tobytes()


def test_linear_characteristic_root():
    lam = np.pi / 2
    r = 1j * 1.0
    assert abs(r + np.exp(-r * lam)) < 1e-15


class TestIntegrate:
    def test_equilibrium_is_fixed_point(self, ndde):
        traj = di.integrate(ndde, 1.4, [0.0, 0.0], 50.0, rtol=1e-9, atol=1e-9)
        assert np.max(np.abs(traj.ys)) <= 1e-9

    def test_linear_neutral_oscillation(self, linear_model):
        lam = np.pi / 2
        traj = di.integrate(linear_model, lam, [1.0], 10 * 4 * lam)
        # crossing-based period over the last cycles
        al = di.detect_steady_state(traj, level=0.0)
        assert abs(al.period_est - 4 * lam) < 1e-3 * 4 * lam

    def test_ndde_converges_from_far_history(self, ndde):
        traj = di.integrate(ndde, 1.4, [20.0, 17.22], 1000.0)
        al = di.detect_steady_state(traj, level=0.0)
        assert al.t0 < 1000.0

    def test_step_cap_quarter_delay(self, ndde):
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], 30.0)
        assert np.max(np.diff(traj.ts)) <= 1.4 / 4 + 1e-12

    def test_bad_tolerances_rejected(self, ndde):
        with pytest.raises(IntegrationError):
            di.integrate(ndde, 1.4, [0.0, 0.0], 10.0, rtol=1e-2)

    @pytest.mark.parametrize("rtol,atol", [
        (1e-13, 1e-9), (1e-2, 1e-9), (1e-9, 1e-13), (1e-9, 1e-2)])
    def test_tolerances_ten_times_outside_are_rejected(self, ndde, rtol, atol):
        with pytest.raises(IntegrationError, match="tolerances must lie"):
            di.integrate(ndde, 1.4, [0.0, 0.0], 10.0, rtol=rtol, atol=atol)

    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    def test_tolerances_at_the_ends_are_accepted(self, ndde, tol):
        traj = di.integrate(ndde, 1.4, [0.1, 0.0], 1.0, rtol=tol, atol=tol)
        assert traj.t_end == 1.0

    def test_delay_and_end_must_be_finite_and_positive(self, ndde):
        inf, nan = float("inf"), float("nan")
        for lam in (inf, 0.0, -1.0, nan):
            with pytest.raises(IntegrationError, match="lam="):
                di.integrate(ndde, lam, [1.0, 0.0], 10.0)
        for t_end in (nan, inf, -inf, 0.0, -1.0):
            with pytest.raises(IntegrationError, match="t_end="):
                di.integrate(ndde, 1.4, [1.0, 0.0], t_end)

    def test_history_of_the_wrong_dim(self, ndde):
        with pytest.raises(IntegrationError,
                           match="history must give states of dim 2"):
            di.integrate(ndde, 1.4, [0.0], 10.0)

    def test_step_size_underflow(self):
        # x' = x^2 from x = 1 blows up at t = 1, before t_end = 2
        model = mdl.DdeModel("blow-up", 1, {}, lambda lam, x, y: [x[0] * x[0]],
                             [0.0], (1.0, 1.5))
        with pytest.raises(IntegrationError, match="step size underflow"):
            di.integrate(model, 1.0, [1.0], 2.0)

    def test_the_step_floor_near_t_0(self):
        # an rhs of alternating sign fails every error test, so each step is
        # cut to a third, from 0.01 lam + 1e-12 until below 1e-14 * max(lam,
        # t): 26 rejected steps of 12 rhs calls after the first call, in
        # any time unit
        calls = []

        def rhs(lam, x, y):
            calls.append(None)
            return [1e30 * (-1) ** len(calls)]

        model = mdl.DdeModel("jumps", 1, {}, rhs, [0.0], (1.0, 1.5))
        for lam in (1e-8, 1.0, 1e8):
            calls.clear()
            with pytest.raises(IntegrationError,
                               match="step size underflow at t=0.0"):
                di.integrate(model, lam, [0.0], lam)
            assert len(calls) == 1 + 12 * 26

    def test_dense_output_continuity(self, ndde):
        traj = di.integrate(ndde, 1.4, [5.0, 0.0], 40.0)
        for k in (len(traj.ts) // 3, len(traj.ts) // 2):
            t = traj.ts[k]
            eps = 1e-13 * (traj.ts[k] - traj.ts[k - 1])
            left = traj.value(t - eps)
            right = traj.value(t + eps)
            assert np.max(np.abs(left - right)) < 1e-9

    def test_interpolant_matches_knots(self, ndde):
        traj = di.integrate(ndde, 1.4, [5.0, 0.0], 20.0)
        for k in (10, len(traj.ts) // 2, len(traj.ts) - 1):
            assert np.max(np.abs(traj.value(traj.ts[k]) - traj.ys[k])) < 1e-12

    def test_hermite_reproduces_a_cubic(self):
        # the extension with F3..F6 = 0 is the cubic Hermite interpolant,
        # exact on cubics
        def p(t):
            return 0.5 * t ** 3 - 2.0 * t ** 2 + t - 3.0

        def dp(t):
            return 1.5 * t ** 2 - 4.0 * t + 1.0

        ts = [0.0, 0.3, 1.1, 2.0]
        for t in np.linspace(0.01, 1.99, 23):
            i = bisect_right(ts, t) - 1
            t0, t1 = ts[i], ts[i + 1]
            F = [*di._hermite_part(t1 - t0, p(t1) - p(t0), dp(t0), dp(t1)),
                 0.0, 0.0, 0.0, 0.0]
            x = (t - t0) / (t1 - t0)
            assert abs(di._extension(x, p(t0), F) - p(t)) < 1e-13

    def test_history_guard(self, ndde):
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], 10.0)
        with pytest.raises(IntegrationError):
            traj.value(-10.0)

    def test_history_guard_at_its_bound(self, ndde):
        # the history reaches back to -lam less 1e-9 * max(1, lam)
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], 10.0)
        assert np.array_equal(traj.value(-1.4 - 1e-10), [1.0, 0.0])
        with pytest.raises(IntegrationError, match="precedes the history"):
            traj.value(-1.4 - 1.4e-8)

    def test_value_guard_past_the_end(self, ndde):
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], 10.0)
        assert np.array_equal(traj.value(10.0), traj.ys[-1])
        with pytest.raises(IntegrationError):
            traj.value(10.5)

    def test_the_guards_in_a_fast_time_unit(self, ndde):
        # ndde in a time unit of 1e8: the slacks past the end and before
        # the history scale with the end and the delay
        c = 1e8
        traj = di.integrate(in_time_unit(ndde, c), 1.4 / c, [1.0, 0.0],
                            10.0 / c)
        with pytest.raises(IntegrationError, match="beyond the trajectory"):
            traj.value(10.0 / c * (1 + 1e-3))
        with pytest.raises(IntegrationError, match="precedes the history"):
            traj.value(-1.4 / c * (1 + 1e-3))

    def test_value_keeps_the_shape_of_its_argument(self, ndde):
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], 10.0)
        assert traj.value(np.array([])).shape == (0, 2)
        grid = np.linspace(-1.4, 10.0, 12).reshape(3, 4)
        block = traj.value(grid)
        assert block.shape == (3, 4, 2)
        assert np.array_equal(block.reshape(12, 2), traj.value(grid.ravel()))
        assert traj.value(5.0).shape == (2,)
        assert np.array_equal(traj.value([[5.0]])[0, 0], traj.value(5.0))
        with pytest.raises(IntegrationError):
            traj.value(np.array([1.0, np.nan]))

    def test_rhs_arithmetic_error_is_an_integration_error(self):
        # the rhs sees Python floats, so 1/0 raises instead of giving inf
        model = mdl.DdeModel("pole", 1, {}, lambda lam, x, y: [1.0 / y[0]],
                             [1.0], (1.0, 1.5))
        with pytest.raises(IntegrationError, match="t=0"):
            di.integrate(model, 1.0, [0.0], 5.0)

        def gap(t):  # nonzero at -lam and near 0, zero between
            return np.array([1.0 if t == -1.0 or t > -0.1 else 0.0])

        with pytest.raises(IntegrationError) as failed:
            di.integrate(model, 1.0, gap, 5.0)
        assert isinstance(failed.value.__cause__, ZeroDivisionError)

        # the first step (lam / 100, accepted: x' = 1 exactly) looks up
        # t = -0.999 only for its extension stage at c = 0.1
        def notch(t):
            return np.array([0.0 if -0.9991 < t < -0.9989 else 1.0])

        with pytest.raises(IntegrationError) as failed:
            di.integrate(model, 1.0, notch, 5.0)
        assert isinstance(failed.value.__cause__, ZeroDivisionError)


    def test_saturated_rhs_integrates(self, ndde):
        # exp overflows to inf in the saturated ndde rhs, and the
        # acceleration stays finite: the run completes without a warning
        traj = di.integrate(ndde, 1.4, [0.0, 600.0], 5.0)
        assert traj.t_end == 5.0 and np.isfinite(traj.ys).all()


class TestHistoryAndExtension:
    """Histories, step statistics, and what replaced extending a trajectory
    in place: integrating again from t = 0 over a longer span."""

    def test_callable_constant_history_is_bitwise(self, ndde):
        a = di.integrate(ndde, 1.4, [1.0, 0.0], 30.0)
        b = di.integrate(ndde, 1.4, lambda t: np.array([1.0, 0.0]), 30.0)
        for x, y in ((a.ts, b.ts), (a.ys, b.ys), (a.coeffs, b.coeffs)):
            assert np.array_equal(x, y)

    def test_value_follows_callable_history(self, ndde):
        def hist(t):
            return np.array([np.sin(t), 0.5 * np.cos(2 * t)])

        traj = di.integrate(ndde, 1.4, hist, 5.0)
        assert np.array_equal(traj.ys[0], hist(0.0))
        for t in (-1.4, -0.9, -0.2, 0.0):
            assert np.array_equal(traj.value(t), hist(t))
        with pytest.raises(IntegrationError):
            traj.value(-1.5)

    def test_step_size_stats(self, ndde):
        """h_min is the smallest accepted step the controller chose: the
        last step, shortened to land on t_end, does not count, however short
        it is.  The first step is never shortened (it is at most t_end), so
        h_min is always a number."""
        full = di.integrate(ndde, 1.4, [1.0, 0.0], 20.0)
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], float(full.ts[-2]) + 1e-4)
        steps = np.diff(traj.ts)
        assert steps[-1] < 2e-4 < steps[:-1].min()
        assert traj.stats["h_min"] == steps[:-1].min() > 0.0
        assert traj.stats["h_max"] == steps.max() <= 1.4 / 4.0 * (1 + 1e-12)
        one = di.integrate(ndde, 1.4, [1.0, 0.0], 1e-3)
        assert one.stats["h_min"] == one.stats["h_max"] == 1e-3
        assert one.stats["accepted"] == len(one.ts) - 1 == 1

    def test_extension_keeps_the_knots(self, ndde):
        # a longer span passes through the knots of a shorter one up to its
        # last step, the one shortened to land on its end; twelve rhs calls
        # per attempted step, three more per accepted one
        short = di.integrate(ndde, 1.4, [1.0, 0.0], 20.0)
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], 40.0)
        assert traj.t_start == 0.0 and traj.t_end == 40.0
        n = len(short.ts) - 1
        for x, y in ((traj.ts, short.ts), (traj.ys, short.ys),
                     (traj.coeffs, short.coeffs)):
            assert np.array_equal(x[:n - 1], y[:n - 1])
        for st, tr in ((traj.stats, traj), (short.stats, short)):
            assert st["accepted"] == len(tr.ts) - 1
            assert st["rhs_evals"] == (1 + 12 * (st["accepted"] + st["rejected"])
                                       + 3 * st["accepted"])

    def test_trajectory_is_read_only(self, ndde):
        traj = di.integrate(ndde, 1.4, [1.0, 0.0], 10.0)
        for a in (traj.ts, traj.ys, traj.coeffs):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_cross_validate_doubles_its_span(self, ndde, ndde_msq8):
        # a constant history and a short first span force one doubling, a
        # whole integration from t = 0 over twice the span
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.4)
        first = 12 * orbit.period  # settles between 15 and 20 periods
        start = orbit.evaluate(0.0)
        _, _, traj = di.cross_validate(orbit, history=start, t_end=first)
        assert traj.t_start == 0.0 and traj.t_end == 2 * first
        whole = di.integrate(ndde, 1.4, start, 2 * first)
        for x, y in ((traj.ts, whole.ts), (traj.ys, whole.ys),
                     (traj.coeffs, whole.coeffs)):
            assert np.array_equal(x, y)
        assert traj.stats == whole.stats

    def test_no_steady_state_after_the_doublings(self, ndde14):
        # two periods, doubled twice, are too few to settle
        orbit = ndde14[0]
        with pytest.raises(SteadyStateError,
                           match="no steady state reached after doubling"):
            di.cross_validate(orbit, t_end=2 * orbit.period)

    def test_seeded_error_is_settled(self, sir_2pi8):
        # near the onset a seeded run might stop while still close to its
        # seed; integrated over 480 periods it gives the same e_r (a constant
        # history reaches it only after about 960 periods)
        orbit = ob.ReconstructedOrbit(sir_2pi8, 108.0)
        e_r, _, _ = di.cross_validate(orbit)
        e_long, _, traj = di.cross_validate(orbit, t_end=480 * orbit.period)
        assert traj.t_end == 480 * orbit.period
        assert abs(e_long - e_r) <= 1e-3 * e_r

    def test_sir_settles_in_the_first_span(self, sir120):
        # seeded with the orbit, the sir integration at lambda = 120 needs no
        # second span (a constant history needed 480 periods)
        orbit, e_r, align, traj = sir120
        assert traj.t_end == 120 * orbit.period
        assert e_r < 0.007
        assert 0.0 <= align.period_spread <= 1e-6 * align.period_est
        assert 0.0 <= align.amplitude_spread <= 1e-6

    @pytest.mark.parametrize("run,stats,e_r,period_est", [
        ("sir120", (2762, 481, 47203), 0.0028185807726126173,
         211.8994915923613),
        ("ndde14", (2031, 0, 30466), 0.0006368652436470197,
         5.915873955669213)], ids=["sir120", "ndde14"])
    def test_seeded_runs_are_pinned(self, request, run, stats, e_r,
                                    period_est):
        # the step counts and results of the seeded runs as recorded: a
        # change of the step control (the 0.9 safety factor, say) moves them
        _, got, align, traj = request.getfixturevalue(run)
        assert tuple(traj.stats[key] for key in
                     ("accepted", "rejected", "rhs_evals")) == stats
        assert abs(got - e_r) <= 1e-12 * e_r
        assert abs(align.period_est - period_est) <= 1e-12 * period_est


class TestBatchedLookup:
    """The batched dense output (one searchsorted, one vectorised evaluation
    of the extension) gives the bits of the per-point path."""

    @staticmethod
    def _check(traj, seed):
        knots = traj.ts.tolist()
        rng = np.random.default_rng(seed)
        times = np.concatenate([
            rng.uniform(traj.t_start, traj.t_end, 300),
            traj.ts[rng.integers(0, len(traj.ts), 100)],  # on a knot
            traj.ts[:2], traj.ts[-2:],                   # first and last knots
            np.linspace(-traj.lam, 0.0, 9),               # history
        ])
        rng.shuffle(times)
        expected = np.array([
            traj.history(t) if t <= knots[0]
            else _segment(knots, traj.ys, traj.coeffs, t)
            for t in times.tolist()])
        assert np.array_equal(traj.value(times), expected)

    def test_ndde_seeded(self, ndde, ndde_msq8):
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.4)
        traj = di.integrate(ndde, 1.4, orbit.evaluate, 20 * orbit.period)
        self._check(traj, 1)

    def test_sir_at_120(self, sir120):
        self._check(sir120[3], 2)

    def test_stage_lookups_match_the_per_point_path(self, ndde, ndde_msq8,
                                                    monkeypatch):
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.4)
        batched = di.integrate(ndde, 1.4, orbit.evaluate, 10 * orbit.period)

        def per_point(t, ts, ys, coeffs):
            knots = ts.tolist()
            out = [_segment(knots, ys, coeffs, tv) for tv in t.tolist()]
            return np.array(out).reshape(len(t), ys.shape[1])

        monkeypatch.setattr(di, "_segments", per_point)
        single = di.integrate(ndde, 1.4, orbit.evaluate, 10 * orbit.period)
        for x, y in ((batched.ts, single.ts), (batched.ys, single.ys),
                     (batched.coeffs, single.coeffs)):
            assert np.array_equal(x, y)


class TestDetectSteadyState:
    def test_pure_sinusoid(self, linear_model):
        # build a synthetic trajectory holding exactly sin(t)
        ts = np.linspace(0.0, 16 * np.pi, 4001)
        traj = _hermite_trajectory(ts, np.sin(ts)[:, None], np.cos(ts)[:, None],
                                   1.0, np.zeros(1))
        al = di.detect_steady_state(traj, level=0.0)
        assert abs(al.period_est - 2 * np.pi) < 1e-9 * 2 * np.pi
        assert isinstance(al.period_spread, float)
        assert isinstance(al.amplitude_spread, float)
        assert 0.0 <= al.period_spread <= 1e-6 * al.period_est
        assert 0.0 <= al.amplitude_spread <= 1e-6

    def test_only_the_crossings_read_are_bisected(self, sir120, monkeypatch):
        orbit, _, align, traj = sir120
        level = float(orbit.equilibrium[0])
        # every upward crossing bisected, as the alignment reads them
        ts, x, F = traj.ts, traj.ys[:, 0], traj.coeffs[:, :, 0]
        d = x - level
        up = np.nonzero((d[:-1] <= 0.0) & (d[1:] > 0.0))[0]
        crossings = np.array([ob._bisect(
            lambda t, i=i: di._extension((t - ts[i]) / (ts[i + 1] - ts[i]),
                                         x[i], F[i]) - level,
            ts[i], ts[i + 1], d[i]) for i in up])
        periods = np.diff(crossings)
        last_a = [di._cycle_peak(traj, d, level, up[i], up[i + 1])
                  for i in range(len(up) - 4, len(up) - 1)]
        assert len(up) > 100
        expected = (crossings[-1], periods[-1],
                    np.max(np.abs(np.diff(periods[-3:]))),
                    np.max(np.abs(np.diff(last_a))))
        got = (align.t0, align.period_est, align.period_spread,
               align.amplitude_spread)
        assert np.array(got).tobytes() == np.array(expected).tobytes()
        bisected = []
        bisect = di._bisect

        def counted(*args):
            bisected.append(args[1])
            return bisect(*args)

        monkeypatch.setattr(di, "_bisect", counted)
        di.detect_steady_state(traj, level=level)
        assert len(bisected) == 4

    def test_a_drifting_period_is_refused(self):
        # the phase t + c t^2 / 2 with c = 1.6e-6 moves each period by 1.0e-5
        # of itself, ten times STEADY_TOL_PER, at a steady amplitude
        ts = np.linspace(0.0, 16 * np.pi, 4001)
        c = 1.6e-6
        phase = ts + 0.5 * c * ts ** 2
        traj = _hermite_trajectory(ts, np.sin(phase)[:, None],
                                   ((1.0 + c * ts) * np.cos(phase))[:, None],
                                   1.0, np.zeros(1))
        with pytest.raises(SteadyStateError,
                           match=r"period spread 6\.3\d*e-05, amplitude "
                                 r"spread \d\.\d*e-12"):
            di.detect_steady_state(traj, level=0.0)

    def test_constant_trajectory_fails(self, ndde):
        traj = di.integrate(ndde, 1.4, [0.0, 0.0], 60.0)
        with pytest.raises(SteadyStateError):
            di.detect_steady_state(traj, level=0.0)


class TestRelativeError:
    def test_trajectory_against_itself(self, ndde14):
        _, _, align, traj = ndde14

        class Shim:
            period = align.period_est
            equilibrium = np.zeros(2)

            @staticmethod
            def deviation(t):
                return traj.value(align.t0 - Shim.period + np.asarray(t))

            @staticmethod
            def derivative(t):  # central difference of the dense output
                d = 1e-6 * Shim.period
                return (Shim.deviation(t + d) - Shim.deviation(t - d)) / (2 * d)

        shifted = di.Alignment(align.t0 - align.period_est, align.period_est,
                               align.period_spread, align.amplitude_spread)
        err = di.relative_error(Shim, traj, shifted)
        assert err < 1e-12

    def test_period_guard(self, ndde_msq8, ndde):
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.4)
        traj = di.integrate(ndde, 1.4, list(orbit.evaluate(0.0)),
                            60 * orbit.period)
        bad = di.Alignment(orbit.period * 30, orbit.period * 1.2, 0.0, 0.0)
        with pytest.raises(ComparisonError):
            di.relative_error(orbit, traj, bad)

    def test_trajectory_shorter_than_a_period(self, ndde14):
        orbit = ndde14[0]
        traj = di.integrate(orbit.expansion.model, 1.4, orbit.evaluate,
                            0.5 * orbit.period)
        align = di.Alignment(0.2 * orbit.period, orbit.period, 0.0, 0.0)
        with pytest.raises(ComparisonError,
                           match="trajectory too short after the anchor"):
            di.relative_error(orbit, traj, align)

    def test_whole_period_shift_invariance(self, ndde14):
        orbit, e0, align, traj = ndde14
        back = di.Alignment(align.t0 - align.period_est, align.period_est,
                            align.period_spread, align.amplitude_spread)
        e1 = di.relative_error(orbit, traj, back)
        assert abs(e1 - e0) < 1e-6

    def test_period_cross_method_agreement(self, ndde14):
        orbit, _, align, _ = ndde14
        assert abs(align.period_est - orbit.period) < 1e-3 * orbit.period

    def test_sir_period_cross_method_agreement(self, sir_2pi8):
        # the measured period settles T_hat_2: this build's 0.24997 matches it
        # (8.2e-7 relative), the published 0.2400 puts it 1.8e-3 off
        orbit = ob.ReconstructedOrbit(sir_2pi8, 108.0)
        _, align, _ = di.cross_validate(orbit)
        measured = align.period_est
        assert abs(measured - orbit.period) <= 1e-5 * orbit.period
        dT = (0.2400 - sir_2pi8.T_hats[2]) * orbit.eps ** 2
        T_stated = (sir_2pi8.T_hat_of(orbit.eps) + dT) / sir_2pi8.hopf.omega0
        assert abs(measured - T_stated) > 1e-3 * T_stated

    def test_error_table_rows(self, ndde, ndde_msq8, sir, sir_2pi8):
        # remaining published order-8 rows, each within a factor of two
        cases = [
            (ndde_msq8, 1.8, 3.56),
            (sir_2pi8, 140.0, 2.93),
        ]
        for exp, lam, stated in cases:
            orbit = ob.ReconstructedOrbit(exp, lam)
            e_r, _, _ = di.cross_validate(orbit)
            assert stated / 2 < 100.0 * e_r < stated * 2, (lam, e_r)


class TestOrbitAnchor:
    """The scan-and-bisect fallback of ``_orbit_anchor``, for an orbit whose
    first component falls at t = 0."""

    @staticmethod
    def _stub(deviation, period=3.0):
        class Stub:
            @staticmethod
            def derivative(t):
                d = 1e-6 * period
                return (deviation(t + d) - deviation(t - d)) / (2 * d)

        Stub.period = period
        Stub.deviation = staticmethod(deviation)
        return Stub

    def test_falling_orbit_is_anchored_half_a_period_on(self):
        T = 3.0
        stub = self._stub(lambda t: -np.sin(2 * np.pi * np.asarray(t) / T
                                            )[..., None], T)
        assert stub.derivative(0.0)[0] < 0.0
        assert abs(di._orbit_anchor(stub) - T / 2) <= 4 * np.spacing(T)

    def test_no_upward_crossing_is_refused(self):
        stub = self._stub(lambda t: -np.ones(np.shape(t) + (1,)))
        with pytest.raises(ComparisonError, match="no upward"):
            di._orbit_anchor(stub)


class TestToleranceConvergence:
    def test_amplitude_stable_under_tolerance_halving(self, ndde, ndde_msq8):
        # the steady-state amplitude is the mean refined peak over the last
        # cycles; single-cycle peaks wobble at the local-error floor
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.4)

        def amplitude(tol, cycles=20):
            traj = di.integrate(ndde, 1.4, list(orbit.evaluate(0.0)),
                                240 * orbit.period, rtol=tol, atol=tol)
            al = di.detect_steady_state(traj, level=0.0)
            peaks = []
            for c in range(cycles):
                t1 = al.t0 - c * al.period_est
                ts = np.linspace(t1 - al.period_est, t1, 512, endpoint=False)
                vals = traj.value(ts)[:, 0]
                tt = ts[int(np.argmax(vals))]
                grid = np.linspace(tt - al.period_est / 512,
                                   tt + al.period_est / 512, 64)
                peaks.append(float(np.max(traj.value(grid)[:, 0])))
            return float(np.mean(peaks))

        a1, a2 = amplitude(1e-9), amplitude(5e-10)
        assert abs(a2 - a1) < 1e-6 * abs(a1)

    def test_sir_error_at_the_defaults_is_converged(self, sir120):
        orbit, e_r, _, _ = sir120
        tight, _, _ = di.cross_validate(orbit, rtol=1e-12, atol=1e-12)
        assert abs(e_r - tight) <= 1e-6 * tight
