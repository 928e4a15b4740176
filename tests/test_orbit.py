import copy
from pathlib import Path

import numpy as np
import pytest

from ddehopf import models as mdl
from ddehopf import orbit as ob
from ddehopf.errors import BelowBifurcationError, ModelError, NoRealRootError

DIAGRAM_REFERENCE = (Path(__file__).resolve().parents[1] / "perfbench"
                     / "reference" / "diagram-sir-n14.seed0.csv")


class TestSolveEpsilon:
    def test_at_bifurcation(self, ndde_msq8):
        assert ob.solve_epsilon(ndde_msq8, ndde_msq8.hopf.lambda0) == 0.0

    def test_ndde_values(self, ndde_msq8):
        assert abs(ob.solve_epsilon(ndde_msq8, 1.4) - 0.7385) < 0.01

    def test_below_bifurcation(self, ndde_msq8):
        with pytest.raises(BelowBifurcationError):
            ob.solve_epsilon(ndde_msq8, 1.0)

    def test_beyond_validity(self):
        # a folding delay polynomial that never reaches the target
        from types import SimpleNamespace
        stub = SimpleNamespace(
            lambda_hats=np.array([1.5, 0.0, 0.2, 0.0, -0.05]),
            hopf=SimpleNamespace(lambda0=1.5), omega0=1.0, order=4)
        with pytest.raises(NoRealRootError):
            ob.solve_epsilon(stub, 4.0)

    @pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
    def test_non_finite_delay_rejected(self, ndde_msq8, lam):
        with pytest.raises(ModelError, match="finite"):
            ob.solve_epsilon(ndde_msq8, lam)

    def test_identity_on_delay_curve(self, ndde_msq8):
        for eps in np.linspace(0.05, 1.0, 12):
            lam = ndde_msq8.lambda_of(eps)
            back = ob.solve_epsilon(ndde_msq8, lam)
            assert abs(back - eps) < 1e-10


class TestKernels:
    @pytest.mark.parametrize("f, a, b, root", [
        (np.cos, 0.0, 2.0, np.pi / 2),
        (lambda x: x ** 3 - 2.0, 1.0, 2.0, 2.0 ** (1.0 / 3.0)),
        (lambda x: 0.3 - x, 0.0, 1.0, 0.3),
    ])
    def test_bisect_monotone_bracket(self, f, a, b, root):
        assert abs(ob._bisect(f, a, b, f(a)) - root) <= 1e-15

    def test_golden_max_is_a_float_not_below_its_seed(self):
        def f(x):
            return 1.0 - (x - 0.3) ** 2

        refined = ob._golden_max(f, 0.0, 1.0, np.float64(0.5), 3)
        assert type(refined) is float and 0.99 < refined <= 1.0
        kept = ob._golden_max(f, 0.0, 1.0, np.float64(2.0), 3)
        assert type(kept) is float and kept == 2.0

    def test_hermite_rounds_the_same_on_numbers_and_arrays(self):
        # the integrator evaluates the interpolant on arrays and on numpy
        # scalars; (1 - s) ** 2 on a numpy scalar goes through C pow, which
        # differs from the array square in about 1 input of 1 000
        t = 0.3 + 1.4 * np.random.default_rng(7).random(10_000)
        knots = (0.3, 1.7, 0.8, -1.1, 0.4, 2.3)
        one_by_one = np.array([ob._hermite(tv, *knots) for tv in t])
        assert np.array_equal(ob._hermite(t, *knots), one_by_one)


class TestOrbit:
    def test_zero_amplitude_is_equilibrium(self, sir_2pi8, sir):
        orbit = ob.ReconstructedOrbit(sir_2pi8, sir_2pi8.hopf.lambda0, 0.0)
        eq = mdl.equilibrium(sir, sir_2pi8.hopf.lambda0)
        for t in (0.0, 13.7, 200.0):
            assert np.allclose(orbit.evaluate(t), eq, atol=1e-9)

    def test_periodicity(self, ndde_msq8):
        orbit = ob.reconstruct(ndde_msq8, 1.5)
        ts = np.array([0.0, 0.9, 2.2, 4.8])
        drift = orbit.evaluate(ts + orbit.period) - orbit.evaluate(ts)
        assert np.max(np.abs(drift)) < 1e-12

    def test_delay_equation_residual(self, ndde_msq8):
        orbit = ob.reconstruct(ndde_msq8, 1.6)
        lam_back = ndde_msq8.lambda_hat_of(orbit.eps) / ndde_msq8.omega0
        assert abs(lam_back - 1.6) < 1e-12 * 1.6

    def test_eps_positive_beyond_bifurcation(self, ndde_msq8):
        orbit = ob.reconstruct(ndde_msq8, 1.45)
        assert orbit.eps > 0.0


class TestResidual:
    def test_ndde_even_orders(self, ndde_msq8):
        published = {2: 5.35, 4: 0.71, 6: 0.15, 8: 0.03}
        values = {}
        for N, expected in published.items():
            orbit = ob.reconstruct(ndde_msq8.truncated(N), 1.4)
            r = 100.0 * ob.residual(orbit)
            values[N] = r
            assert r < 2.0 * expected and r > expected / 2.0, (N, r)
        # improvement on even orders
        assert values[8] < values[6] < values[4] < values[2]

    def test_sir_residual(self, sir_2pi8):
        orbit = ob.reconstruct(sir_2pi8, 120.0)
        r = 100.0 * ob.residual(orbit)
        assert r < 0.4

    def test_sample_floor(self, ndde_msq8):
        orbit = ob.reconstruct(ndde_msq8, 1.4)
        with pytest.raises(ValueError):
            ob.residual(orbit, samples=100)

    def test_residual_convention_invariant(self, ndde):
        from ddehopf.expansion import expand
        r_msq = ob.residual(ob.reconstruct(expand(ndde, 4, "msq"), 1.5))
        r_2pi = ob.residual(ob.reconstruct(expand(ndde, 4, "paper"), 1.5))
        assert abs(r_msq - r_2pi) < 1e-10 * max(r_msq, 1e-30)


class TestDiagram:
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

    def test_extrema_match_integrator_amplitude(self, ndde_msq8):
        # peak-to-peak spread of the first component against the reference
        # integration at the smallest published delay
        from ddehopf import ddeint as di
        orbit = ob.reconstruct(ndde_msq8, 1.4)
        extrema = ob.orbit_extrema(orbit)
        width = extrema[0][1] - extrema[0][0]
        peak = extrema[0][1] - orbit.equilibrium[0]
        _, align, traj = di.cross_validate(orbit)
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
        # every row equals, bit for bit, the recorded
        # `ddehopf diagram --model sir --order 14 --lambda-grid 95:150:200`
        lines = DIAGRAM_REFERENCE.read_text(encoding="utf-8").splitlines()[1:]
        assert len(lines) == 3 * len(rows)
        for k, line in enumerate(lines):
            lam, _, lo, hi, eps, flag = line.split(",")
            r = rows[k // 3]
            assert float(lam) == r["lambda"]
            assert (float(lo), float(hi)) == r["components"][k % 3]
            assert float(eps) == r["eps"]
            assert flag == ("extrapolated" if r["extrapolated"] else "ok")
