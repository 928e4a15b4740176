import copy
import json
import weakref

import envelope
import numpy as np
import pytest
from envelope import (assert_diagram_within_envelope, diagram_ratios,
                      load_envelope)

from ddehopf import expansion as xp
from ddehopf import models as mdl
from ddehopf import orbit as ob
from ddehopf import trigpoly as tp
from ddehopf.errors import BelowBifurcationError, ModelError, NoRealRootError


class TestSolveEpsilon:
    def test_at_bifurcation(self, ndde_msq8):
        assert ob.solve_epsilon(ndde_msq8, ndde_msq8.hopf.lambda0) == 0.0

    def test_ndde_values(self, ndde_msq8):
        assert abs(ob.solve_epsilon(ndde_msq8, 1.4) - 0.7385) < 0.01

    def test_below_bifurcation(self, ndde_msq8):
        with pytest.raises(BelowBifurcationError):
            ob.solve_epsilon(ndde_msq8, 1.0)

    def test_just_below_the_bifurcation(self, ndde_msq8):
        # 1e-11 below lambda0 relative, ten times the margin 1e-12
        lam0 = ndde_msq8.hopf.lambda0
        with pytest.raises(BelowBifurcationError):
            ob.solve_epsilon(ndde_msq8, lam0 * (1.0 - 1e-11))

    def test_beyond_validity(self):
        # a folding delay polynomial that never reaches the target
        from types import SimpleNamespace
        stub = SimpleNamespace(
            lambda_hats=np.array([1.5, 0.0, 0.2, 0.0, -0.05]),
            hopf=SimpleNamespace(lambda0=1.5, omega0=1.0), order=4)
        with pytest.raises(NoRealRootError):
            ob.solve_epsilon(stub, 4.0)

    def test_root_that_misses_the_delay_equation(self, ndde_msq8,
                                                 monkeypatch):
        # a bisection that returns the bracket's low end is caught
        monkeypatch.setattr(ob, "_bisect", lambda f, a, b, fa: a)
        with pytest.raises(NoRealRootError, match="misses the delay equation"):
            ob.solve_epsilon(ndde_msq8, 1.4)

    def test_root_ten_times_the_bound_off(self, ndde_msq8, monkeypatch):
        # a bisection for the delay polynomial shifted by ten times the
        # bound 1e-12 * max(1, |target|) returns a root that misses it
        miss = 1e-11 * max(1.0, ndde_msq8.hopf.omega0 * 1.4)
        bisect = ob._bisect
        monkeypatch.setattr(ob, "_bisect", lambda f, a, b, fa: bisect(
            lambda e: f(e) - miss, a, b, fa - miss))
        with pytest.raises(NoRealRootError, match="misses the delay equation"):
            ob.solve_epsilon(ndde_msq8, 1.4)

    def test_subcritical_branch_cannot_seed(self):
        # x' = -y - y^3 bifurcates backwards: lh_2 < 0 leaves no orbit on the
        # far side of the bifurcation delay for the order-2 seed to find
        model = mdl.DdeModel("cubic", dim=1, params={},
                             rhs=lambda lam, x, y: [-y[0] - y[0] * y[0] * y[0]],
                             equilibrium_hint=[0.0], hopf_hint=(1.0, 1.5))
        exp = xp.expand(model, 4, z0_scale="msq")
        assert exp.lambda_hats[2] < 0.0
        with pytest.raises(NoRealRootError, match="cannot seed"):
            ob.solve_epsilon(exp, exp.hopf.lambda0 + 0.1)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_rejected(self, ndde_msq8, lam):
        with pytest.raises(ModelError, match="finite"):
            ob.solve_epsilon(ndde_msq8, lam)

    @pytest.mark.parametrize("lam", [1e300, 1.7e308])
    def test_overflowing_scan_is_no_root(self, ndde_msq8, lam):
        # the scan polynomial, or the seed of its interval, overflows
        with pytest.raises(NoRealRootError, match="overflows"):
            ob.solve_epsilon(ndde_msq8, lam)

    def test_a_numpy_delay_bisects_in_python_floats(self, sir_2pi8):
        # the order-2 root of a delay near the float range is finite, and
        # the bisection's sign products overflow to a signed inf without a
        # warning (numpy's warnings are errors here); the orbit's profile
        # overflows, a typed error, also as a row of a diagram
        order2 = sir_2pi8.truncated(2)
        lam = np.float64(1e299)
        eps = ob.solve_epsilon(order2, lam)
        assert type(eps) is float and eps == ob.solve_epsilon(order2, 1e299)
        with pytest.raises(NoRealRootError, match="profile .* overflows"):
            ob.ReconstructedOrbit(order2, lam)
        row, = ob.bifurcation_diagram(order2, np.array([lam]))
        assert row["error"].startswith("NoRealRootError: the orbit profile")

    def test_identity_on_delay_curve(self, ndde_msq8):
        for eps in np.linspace(0.05, 1.0, 12):
            lam = ndde_msq8.lambda_hat_of(eps) / ndde_msq8.hopf.omega0
            back = ob.solve_epsilon(ndde_msq8, lam)
            assert abs(back - eps) < 1e-10

    def test_bisected_polynomial_is_polyval_bit_for_bit(self, ndde_msq8,
                                                         monkeypatch):
        # the bisection's Horner loop runs on Python floats; every value it
        # gives must be np.polyval's on the same number
        brackets = []
        bisect = ob._bisect

        def recorded(f, a, b, fa):
            brackets.append((f, a, b))
            return bisect(f, a, b, fa)

        monkeypatch.setattr(ob, "_bisect", recorded)
        coeffs = ndde_msq8.lambda_hats[::-1]
        for lam in np.linspace(1.35, 1.8, 6):
            ob.solve_epsilon(ndde_msq8, lam)
            f, a, b = brackets.pop()
            target = ndde_msq8.hopf.omega0 * lam
            for e in [0.0, 0.5, 2.0, *np.linspace(a, b, 9).tolist()]:
                expected = float(np.polyval(coeffs, e)) - target
                assert np.float64(f(e)).tobytes() == \
                    np.float64(expected).tobytes()


class TestKernels:
    @pytest.mark.parametrize("f, a, b, root", [
        (np.cos, 0.0, 2.0, np.pi / 2),
        (lambda x: x ** 3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: 0.3 - x, 0.0, 1.0, 0.3),
    ])
    def test_bisect_monotone_bracket(self, f, a, b, root):
        assert abs(ob._bisect(f, a, b, f(a)) - root) <= 1e-15

    def test_bisect_returns_the_bytes_of_eighty_halvings(self):
        def halvings(f, a, b, fa):
            for _ in range(80):
                mid = 0.5 * (a + b)
                fm = f(mid)
                if fa * fm <= 0.0:
                    b = mid
                else:
                    a, fa = mid, fm
            return 0.5 * (a + b)

        rng = np.random.default_rng(11)
        cases = [(lambda x: 0.0, 0.2, 0.9),             # f = 0 everywhere
                 (lambda x: float("nan"), 0.2, 0.9),    # f NaN everywhere
                 (lambda x: x, -1.0, 1.0),              # a root at 0
                 (lambda x: -x, -3.0, 5e-324)]
        for _ in range(300):
            a = rng.uniform(-10.0, 10.0) * 10.0 ** rng.uniform(-8, 8)
            b = a + abs(a) * 10.0 ** rng.uniform(-17, 1)
            root = rng.uniform(a, b)
            slope = rng.choice([-1.0, 1.0])
            nan_from = rng.uniform(a, b)
            cases += [(lambda x, r=root, c=slope: c * (x - r), a, b),
                      (lambda x, r=root, z=nan_from: float("nan") if x > z
                       else x - r, a, b)]
        for f, a, b in cases:
            a, b = np.float64(a), np.float64(b)
            got, expected = ob._bisect(f, a, b, f(a)), halvings(f, a, b, f(a))
            assert type(got) is type(expected)
            assert np.float64(got).tobytes() == np.float64(expected).tobytes()

    def test_bisect_stops_at_adjacent_doubles(self):
        calls = []

        def f(x):
            calls.append(x)
            return 0.3 - x

        assert ob._bisect(f, 0.0, 1.0, f(0.0)) == pytest.approx(0.3, abs=1e-16)
        assert len(calls) - 1 <= 56

    def test_golden_max_is_a_float_not_below_its_seed(self):
        def f(x):
            return 1.0 - (x - 0.3) ** 2

        refined = ob._golden_max(f, 0.0, 1.0, np.float64(0.5), 3)
        assert type(refined) is float and 0.99 < refined <= 1.0
        kept = ob._golden_max(f, 0.0, 1.0, np.float64(2.0), 3)
        assert type(kept) is float and kept == 2.0


class TestOrbit:
    def test_zero_amplitude_is_equilibrium(self, sir_2pi8, sir):
        orbit = ob.ReconstructedOrbit(sir_2pi8, sir_2pi8.hopf.lambda0)
        eq = mdl.equilibrium(sir, sir_2pi8.hopf.lambda0)
        for t in (0.0, 13.7, 200.0):
            assert np.allclose(orbit.evaluate(t), eq, atol=1e-9)

    def test_periodicity(self, ndde_msq8):
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.5)
        ts = np.array([0.0, 0.9, 2.2, 4.8])
        drift = orbit.evaluate(ts + orbit.period) - orbit.evaluate(ts)
        assert np.max(np.abs(drift)) < 1e-12

    def test_delay_equation_residual(self, ndde_msq8):
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.6)
        lam_back = ndde_msq8.lambda_hat_of(orbit.eps) / ndde_msq8.hopf.omega0
        assert abs(lam_back - 1.6) < 1e-12 * 1.6

    def test_eps_positive_beyond_bifurcation(self, ndde_msq8):
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.45)
        assert orbit.eps > 0.0


class TestResidual:
    def test_ndde_even_orders(self, ndde_msq8):
        published = {2: 5.35, 4: 0.71, 6: 0.15, 8: 0.03}
        values = {}
        for N, expected in published.items():
            orbit = ob.ReconstructedOrbit(ndde_msq8.truncated(N), 1.4)
            r = 100.0 * ob.residual(orbit)
            values[N] = r
            assert r < 2.0 * expected and r > expected / 2.0, (N, r)
        # improvement on even orders
        assert values[8] < values[6] < values[4] < values[2]

    def test_sir_residual(self, sir_2pi8):
        orbit = ob.ReconstructedOrbit(sir_2pi8, 120.0)
        r = 100.0 * ob.residual(orbit)
        assert r < 0.4

    def test_zero_amplitude_has_zero_residual(self, sir_2pi8):
        # at the bifurcation delay eps = 0 and the profile is zero, so both
        # suprema vanish and the defect is the equilibrium's, below 1e-9
        orbit = ob.ReconstructedOrbit(sir_2pi8, sir_2pi8.hopf.lambda0)
        assert orbit.eps == 0.0
        assert ob.residual(orbit) == 0.0

    def test_zero_amplitude_off_the_equilibrium(self, sir_2pi8):
        # 1e-6 off the equilibrium the rhs is 9.4e-9, ten times the 1e-9 a
        # zero-amplitude orbit may leave: no relative defect exists
        orbit = ob.ReconstructedOrbit(sir_2pi8, sir_2pi8.hopf.lambda0)
        orbit.equilibrium = orbit.equilibrium + 1e-6
        assert ob.residual(orbit) == float("inf")

    def test_sample_floor(self, ndde_msq8):
        orbit = ob.ReconstructedOrbit(ndde_msq8, 1.4)
        with pytest.raises(ValueError):
            ob.residual(orbit, samples=100)

    @pytest.mark.parametrize("lam", [1e20, 1e50])
    def test_overflowing_model_is_no_root(self, ndde_msq8, lam):
        # the amplitude root exists, but the orbit's exp(...) overflows in
        # the ndde rhs; that is a typed error, not a warning and a number
        orbit = ob.ReconstructedOrbit(ndde_msq8.truncated(4), lam)
        with pytest.raises(NoRealRootError, match="overflows"):
            ob.residual(orbit)

    def test_residual_convention_invariant(self, ndde):
        from ddehopf.expansion import expand
        orbits = [ob.ReconstructedOrbit(expand(ndde, 4, z0), 1.5)
                  for z0 in ("msq", "paper")]
        r_msq, r_2pi = map(ob.residual, orbits)
        assert abs(r_msq - r_2pi) < 1e-10 * max(r_msq, 1e-30)


@pytest.fixture(scope="module")
def sir_diagram14(sir_2pi14):
    """The order-14 sir diagram on 200 delays from 95 to 150 days."""
    return ob.bifurcation_diagram(sir_2pi14, np.linspace(95.0, 150.0, 200))


class TestDiagram:
    @pytest.mark.parametrize("lam,flagged", [(1.65, False), (1.7, True)])
    def test_extrapolation_flag(self, ndde_msq8, lam, flagged):
        # the residuals here are 0.039 and 0.0545, either side of 0.05
        row = ob.bifurcation_diagram(ndde_msq8, [lam])[0]
        assert row["extrapolated"] is flagged
        assert (row["residual"] > 0.05) is flagged

    def test_equilibrium_branch_and_onset(self, ndde_msq8):
        lam0 = ndde_msq8.hopf.lambda0
        rows = ob.bifurcation_diagram(ndde_msq8, [1.1, lam0, 1.4, 1.6])
        assert not any(r["error"] for r in rows)
        below = rows[0]
        for lo, hi in below["components"]:
            assert lo == hi  # equilibrium branch
        at = rows[1]
        for lo, hi in at["components"]:
            assert abs(hi - lo) < 1e-9
        beyond = rows[2]
        assert beyond["eps"] > 0.5
        widths = [hi - lo for lo, hi in beyond["components"]]
        assert min(widths) > 0.5

    def test_continuation_just_past_the_onset(self, sir_2pi8):
        # the first point past lambda0 lies 0.1 steps beyond it, where a scan
        # continued from the previous point's eps would miss the next root;
        # every row equals the one-point sweep and the reversed sweep exactly
        lam0 = sir_2pi8.hopf.lambda0
        grid = lam0 + 0.1 + np.arange(-2.0, 4.0)
        rows = ob.bifurcation_diagram(sir_2pi8, grid)
        assert [r["error"] for r in rows] == [""] * len(grid)
        backward = ob.bifurcation_diagram(sir_2pi8, grid[::-1])[::-1]
        for r, b, lam in zip(rows, backward, grid):
            assert r == ob.bifurcation_diagram(sir_2pi8, [lam])[0]
            assert r == b

    def test_per_point_failure_recorded(self, ndde_msq8):
        # a negative delay has no equilibrium (lambda = 50 has an orbit)
        rows = ob.bifurcation_diagram(ndde_msq8, [1.4, -1.0, 1.5])
        assert rows[1]["error"] != ""
        assert not rows[0]["error"] and not rows[2]["error"]

    def test_fallback_failure_recorded(self, ndde_msq8):
        # a quartic delay polynomial with a fold near lambda = 1.9: past it
        # the scan from the order-2 seed finds no root, and that point's
        # error row leaves its neighbours untouched
        folded = copy.copy(ndde_msq8)
        lh = ndde_msq8.lambda_hats
        folded.lambda_hats = np.array([lh[0], 0.0, lh[2], 0.0, -0.01])
        with pytest.raises(NoRealRootError):
            ob.solve_epsilon(folded, 3.0)
        rows = ob.bifurcation_diagram(folded, [1.4, 3.0, 1.5])
        assert rows[1]["error"].startswith("NoRealRootError")
        assert rows[0]["eps"] > 0 and rows[2]["eps"] > 0
        assert not rows[0]["error"] and not rows[2]["error"]

    def test_programming_errors_propagate(self, ndde_msq8, monkeypatch):
        # only package errors become error rows; a bug stops the sweep
        def broken(orbit):
            raise TypeError("broken extrema")

        monkeypatch.setattr(ob, "orbit_extrema", broken)
        with pytest.raises(TypeError, match="broken extrema"):
            ob.bifurcation_diagram(ndde_msq8, [1.4, 1.5])

    def test_extrema_match_integrator_amplitude(self, ndde14):
        # peak-to-peak spread of the first component against the reference
        # integration at the smallest published delay
        orbit, _, align, traj = ndde14
        extrema = ob.orbit_extrema(orbit)
        width = extrema[0][1] - extrema[0][0]
        peak = extrema[0][1] - orbit.equilibrium[0]
        ts = align.t0 - align.period_est + np.linspace(
            0.0, align.period_est, 2048, endpoint=False)
        vals = traj.value(ts)[:, 0]
        width_num = float(np.max(vals) - np.min(vals))
        peak_num = float(np.max(vals)) - orbit.equilibrium[0]
        assert abs(peak - peak_num) < 0.002 * abs(peak_num)
        assert abs(width - width_num) < 0.005 * width_num

    def test_diagram_values_phase_invariant(self, ndde):
        # extrema are amplitudes only, so both normalizations agree
        from ddehopf.expansion import expand
        grid = [1.35, 1.45]
        a = ob.bifurcation_diagram(expand(ndde, 4, "msq"), grid)
        b = ob.bifurcation_diagram(expand(ndde, 4, "paper"), grid)
        for ra, rb in zip(a, b):
            assert np.allclose(ra["components"], rb["components"], atol=1e-9)

    def test_sweep_shares_the_grid_tables(self, sir_2pi14, monkeypatch):
        """The 200-point order-14 sir sweep builds two cos/sin tables (the
        512-point residual grid and the 1024-point extrema grid) per profile
        degree, not per orbit, and never holds more than two."""
        build = tp._grid_table
        alive = []  # weak references to the cos table of each build

        def counted(n, degree):
            assert sum(ref() is not None for ref in alive) <= 1
            cos, sin = build(n, degree)
            alive.append(weakref.ref(cos))
            return cos, sin

        tp._grid_tables.cache_clear()
        monkeypatch.setattr(tp, "_grid_table", counted)
        rows = ob.bifurcation_diagram(sir_2pi14, np.linspace(95.0, 150.0, 200))
        degrees = {sir_2pi14.orbit_profile(r["eps"]).degree
                   for r in rows if r["eps"] > 0}
        orbits = sum(1 for r in rows if r["eps"] > 0)
        assert orbits > 150
        assert len(alive) == 2 * len(degrees) < orbits / 10

    def test_within_the_rounding_envelope(self, sir_2pi14, sir_diagram14):
        # every row's eps, residual and extrema within K times the change
        # that moving one model parameter by an ulp makes
        # (tests/make_envelope.py records it)
        assert_diagram_within_envelope(sir_2pi14, sir_diagram14,
                                       load_envelope("diagram-sir-n14"))

    def test_the_envelope_refuses_what_rounding_cannot_explain(
            self, sir_2pi14):
        # the record's own rows with the eps of row 100 moved by K envelopes
        # pass and by 10 K envelopes are refused, and so are rows with an I
        # maximum scaled by 1 + 1e-12 or an equilibrium row given an
        # amplitude; the live expansion gives only the case, so this holds
        # wherever in its envelope the live sweep lies
        record = load_envelope("diagram-sir-n14")
        step = envelope.K * record["envelope"]["eps"][100]
        for factor, passes in ((1.0, True), (10.0, False)):
            moved = copy.deepcopy(record["rows"])
            moved[100]["eps"] += factor * step
            ratios = {(i, key): r
                      for i, key, r in diagram_ratios(moved, record)}
            assert (ratios[100, "eps"] <= 1.0) == passes
            assert max(ratios.values()) == ratios[100, "eps"]
        moved = copy.deepcopy(record["rows"])
        lo, hi = moved[150]["components"][1]
        moved[150]["components"][1] = (lo, (1.0 + 1e-12) * hi)
        with pytest.raises(AssertionError, match=r"\(150, 'max 1'"):
            assert_diagram_within_envelope(sir_2pi14, moved, record)
        moved = copy.deepcopy(record["rows"])
        moved[0]["eps"] = 1e-9
        with pytest.raises(AssertionError, match=r"\(0, 'eps'"):
            assert_diagram_within_envelope(sir_2pi14, moved, record)

    def test_sir_diagram_200_points_under_30s(self, sir):
        import time
        from ddehopf.expansion import expand
        res = expand(sir, 14)
        grid = np.linspace(95.0, 150.0, 200)
        t0 = time.perf_counter()
        rows = ob.bifurcation_diagram(res, grid)
        elapsed = time.perf_counter() - t0
        assert elapsed < 30.0
        assert not any(r["error"] for r in rows)
        assert sum(1 for r in rows if r["eps"] > 0) > 150
        # every row equals, bit for bit, the recorded reference row of the
        # same diagram, residual included (JSON keeps a float's every bit)
        assert json.loads(json.dumps(rows)) \
            == load_envelope("diagram-sir-n14")["rows"]
