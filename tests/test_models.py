import copy

import numpy as np
import pytest

from ddehopf import epsseries as es
from ddehopf import expansion, orbit
from ddehopf import models as mdl
from ddehopf.epsseries import EpsSeries
from ddehopf.errors import ModelError, NewtonError


class TestEquilibrium:
    def test_ndde_origin_for_every_delay(self, ndde):
        for lam in (0.5, 1.3079, 2.0):
            assert np.allclose(mdl.equilibrium(ndde, lam), 0.0, atol=1e-12)

    def test_sir_endemic_at_120(self, sir):
        eq = mdl.equilibrium(sir, 120.0)
        assert np.allclose(eq, [0.5896, 10.01, 6.9344], atol=1.5e-3)
        g = sir.rhs(120.0, list(eq), list(eq))
        assert max(abs(v) for v in g) < 1e-11

    def test_sir_disease_free_state(self, sir):
        p = sir.params
        state = [0.0, p["P_max"], 0.0]
        dI, dS, dR = sir.rhs(120.0, state, state)
        assert dI == 0.0 and dR == 0.0
        # the stability condition ties births to deaths at full population
        births = p["mu"] * (1 + p["P_max"]) * p["P_max"] / (1 + p["P_max"])
        assert abs(births - p["mu"] * p["P_max"]) < 1e-15
        assert abs(dS) < 1e-15  # dS = births - mu*P_max exactly

    def test_negative_delay_rejected(self, ndde):
        with pytest.raises(NewtonError):
            mdl.equilibrium(ndde, -0.1)

    def test_nan_delay_rejected(self, ndde, sir):
        # the ndde rhs ignores the delay, so a NaN one must not fall through
        # to the Newton iteration and come back as the hint
        for model in (ndde, sir):
            with pytest.raises(NewtonError):
                mdl.equilibrium(model, float("nan"))


class TestSolvedOncePerDelay:
    def test_one_solve_per_distinct_delay(self, monkeypatch):
        # a fresh model, so that no earlier test has solved its delays yet
        model = mdl.make_sir()
        solved = []
        solve = mdl._solve_equilibrium

        def recorded(model_, lam):
            solved.append(lam)
            return solve(model_, lam)

        monkeypatch.setattr(mdl, "_solve_equilibrium", recorded)
        expansion.expand(model, 4, z0_scale="paper")
        assert solved and len(solved) == len(set(solved))
        x = mdl.equilibrium(model, 120)
        assert mdl.equilibrium(model, 120.0) is x
        P, Q = mdl.linearization(model, np.float64(120.0))
        assert mdl.linearization(model, 120.0)[0] is P
        assert solved.count(120.0) == 1
        # a copy may be given another hint, so it solves for itself
        mdl.equilibrium(copy.copy(model), 120.0)
        assert solved.count(120.0) == 2

    def test_oldest_solve_is_dropped_at_the_memo_size(self, monkeypatch):
        model = mdl.make_sir()
        solved = []
        solve = mdl._solve_equilibrium

        def recorded(model_, lam):
            solved.append(lam)
            return solve(model_, lam)

        monkeypatch.setattr(mdl, "_solve_equilibrium", recorded)
        monkeypatch.setattr(mdl, "EQ_MEMO_SIZE", 2)
        first, _, third = (mdl.equilibrium(model, lam)
                           for lam in (110.0, 120.0, 130.0))
        assert solved == [110.0, 120.0, 130.0]
        assert mdl.equilibrium(model, 130.0) is third
        assert solved == [110.0, 120.0, 130.0]
        again = mdl.equilibrium(model, 110.0)
        assert solved == [110.0, 120.0, 130.0, 110.0]
        assert again is not first and np.array_equal(again, first)
        for x in (first, third, again):
            with pytest.raises(ValueError):
                x[0] = 1.0

    def test_solves_of_the_benchmarked_runs(self, monkeypatch):
        # a count of Newton solves, each run on a fresh model: the order-20
        # ndde and order-14 sir expansions (whose equilibrium series read
        # the solve at their base delay and add none), and the 200-delay
        # sir diagram, one solve per delay
        solved, per_series = [], []
        solve = mdl._solve_equilibrium
        series = mdl.equilibrium_series

        def recorded(model, lam):
            solved.append(lam)
            return solve(model, lam)

        def counted(model, lam_series):
            before = len(solved)
            xs = series(model, lam_series)
            per_series.append(len(solved) - before)
            return xs

        monkeypatch.setattr(mdl, "_solve_equilibrium", recorded)
        monkeypatch.setattr(mdl, "equilibrium_series", counted)
        expansion.expand(mdl.make_ndde(), 20, z0_scale="msq")
        assert len(solved) == 17
        solved.clear()
        sir = expansion.expand(mdl.make_sir(), 14)
        assert len(solved) == 10 and per_series == [0] * 102
        solved.clear()
        orbit.bifurcation_diagram(sir, np.linspace(95.0, 150.0, 200))
        assert len(solved) == 200

    def test_results_are_read_only_and_unchanged(self, sir):
        x = mdl.equilibrium(sir, 110.0)
        assert np.array_equal(x, mdl._solve_equilibrium(sir, 110.0))
        P, Q = mdl.linearization(sir, 110.0)
        for a in (x, P, Q):
            with pytest.raises(ValueError):
                a[0] = 1.0
        Jx, Jy = mdl._jet_jacobians(sir, 110.0, x)
        assert np.array_equal(P, Jx) and np.array_equal(Q, Jy)


def jacobians_by_columns(model, lam, point):
    """(Jx, Jy) from 2n rhs calls: one probe per column and slot, each a
    scalar series with a 1.0 or 0.0 order-1 coefficient."""
    n = model.dim
    Jx = np.empty((n, n))
    Jy = np.empty((n, n))
    base = [float(v) for v in point]
    for j in range(n):
        probe = [EpsSeries([base[i], 1.0 if i == j else 0.0]) for i in range(n)]
        fixed = [EpsSeries([base[i], 0.0]) for i in range(n)]
        gx = model.rhs(lam, probe, fixed)
        gy = model.rhs(lam, fixed, probe)
        for i in range(n):
            Jx[i, j] = gx[i].coeffs[1] if isinstance(gx[i], EpsSeries) else 0.0
            Jy[i, j] = gy[i].coeffs[1] if isinstance(gy[i], EpsSeries) else 0.0
    return Jx, Jy


class TestJetJacobians:
    # both slots' probes ride on one rhs call as direction arrays; the
    # result must be that of one call per column and slot, bit for bit
    def points(self, model, lams):
        """(lam, point): the equilibria, the Newton start and an off-state
        point over the delays."""
        for lam in lams:
            eq = mdl.equilibrium(model, lam)
            for point in (eq, model.equilibrium_hint, 1.1 * eq + 0.05):
                yield lam, point

    def test_equal_to_one_call_per_column(self, ndde, sir):
        for model, lams in ((ndde, np.linspace(0.5, 2.5, 9)),
                            (sir, np.linspace(95.0, 150.0, 12))):
            for lam, point in self.points(model, lams):
                for J, ref in zip(mdl._jet_jacobians(model, lam, point),
                                  jacobians_by_columns(model, lam, point)):
                    assert J.tobytes() == ref.tobytes()

    def test_a_component_free_of_the_state(self):
        model = mdl.DdeModel("const", 2, {}, lambda lam, x, y: [y[1], 3.0],
                             [0.0, 0.0], (1.0, 1.0))
        Jx, Jy = mdl._jet_jacobians(model, 1.0, [0.5, -0.5])
        assert np.array_equal(Jx, np.zeros((2, 2)))
        assert np.array_equal(Jy, [[0.0, 1.0], [0.0, 0.0]])

    def test_one_rhs_call_per_jacobian(self, monkeypatch):
        jacobians = []
        jet_jacobians = mdl._jet_jacobians

        def counted_jacobians(model, lam, point):
            jacobians.append(lam)
            return jet_jacobians(model, lam, point)

        monkeypatch.setattr(mdl, "_jet_jacobians", counted_jacobians)
        for model in (mdl.make_ndde(), mdl.make_sir()):
            series_calls = []
            rhs = model.rhs

            def counted(lam, x, y, rhs=rhs):
                if isinstance(x[0], EpsSeries):
                    series_calls.append(lam)
                return rhs(lam, x, y)

            model.rhs = counted
            jacobians.clear()
            # the Newton solve of the equilibrium, then the linearization
            mdl.linearization(model, model.hopf_hint[1])
            assert len(jacobians) >= 2
            assert len(series_calls) == len(jacobians)


class TestRhsVector:
    # one point is the array of the rhs's numbers; a grid broadcasts and
    # stacks its components; a point must give its column of the grid
    def test_one_point_is_its_column_of_the_grid(self, ndde, sir):
        custom = mdl.DdeModel("half-constant", 2, {},
                              lambda lam, x, y: [y[1] - x[0], 0.25],
                              [0.0, 0.0], (1.0, 1.0))
        rng = np.random.default_rng(11)
        for model, lam in ((ndde, 1.4), (sir, 120.0), (custom, 1.0)):
            base = model.equilibrium_hint[:, None] + 0.5
            x, y = (base * (1.0 + 0.1 * rng.standard_normal((model.dim, 7)))
                    for _ in range(2))
            grid = model.rhs_vector(lam, x, y)
            assert grid.shape == (model.dim, 7)
            for k in range(7):
                for one in (model.rhs_vector(lam, x[:, k], y[:, k]),
                            model.rhs_vector(lam, list(x[:, k]),
                                             list(y[:, k]))):
                    assert one.shape == (model.dim,) and one.dtype == float
                    assert one.tobytes() == grid[:, k].tobytes()


def test_walks_and_keys_of_the_sir_expansion(monkeypatch):
    # a number times a scalar series is scaled outside the walk, so the
    # scalar sir jets walk far less than the 5,212 walks and 99,656 keys of
    # the promoted products (measured before the shortcut)
    counts = {"walks": 0, "keys": 0}
    walk, coef_key = es._walk, es._coef_key

    def counted_walk(*args):
        counts["walks"] += 1
        return walk(*args)

    def counted_key(c):
        counts["keys"] += 1
        return coef_key(c)

    monkeypatch.setattr(es, "_walk", counted_walk)
    monkeypatch.setattr(es, "_coef_key", counted_key)
    expansion.expand(mdl.make_sir(), 14, "paper")
    assert counts["walks"] <= 1578 and counts["keys"] <= 29024
    # one Jacobian: the products S*I of dI and dS and the quotient of the
    # births (11 walks before the shortcut)
    sir = mdl.make_sir()
    point = mdl.equilibrium(sir, 120.0)
    counts["walks"] = 0
    mdl._jet_jacobians(sir, 120.0, point)
    assert counts["walks"] == 3


class TestEquilibriumSeries:
    def test_constant_series(self, sir):
        lam_ser = EpsSeries([120.0, 0.0, 0.0])
        xs = mdl.equilibrium_series(sir, lam_ser)
        eq = mdl.equilibrium(sir, 120.0)
        for x, v in zip(xs, eq):
            assert abs(x.coeffs[0] - v) < 1e-10
            assert max(abs(c) for c in x.coeffs[1:]) < 1e-10

    def test_ndde_zero_every_order(self, ndde):
        xs = mdl.equilibrium_series(ndde, EpsSeries([1.5, 1.0, 0.0, 0.0]))
        for x in xs:
            assert max(abs(c) for c in x.coeffs) < 1e-12

    def test_a_converged_sweep_is_not_evaluated_again(self):
        # the ndde equilibrium is the origin at every delay, so the first
        # sweep's rhs is the residual of the series returned
        model = mdl.make_ndde()
        calls = []
        rhs = model.rhs

        def counted(lam, x, y):
            calls.append(lam)
            return rhs(lam, x, y)

        mdl.linearization(model, 1.5)
        model.rhs = counted
        mdl.equilibrium_series(model, EpsSeries([1.5, 1.0, 0.0, 0.0]))
        assert len(calls) == 1

    def test_out_of_sweeps_the_last_series_is_the_one_tested(self):
        # x' = lam^2 - x^3 - x on the delay series 1 + eps + ... + eps^8:
        # no sweep meets the 1e-14 early exit, so the rhs runs order + 2
        # times and its last call is the residual of the series returned
        model = mdl.DdeModel(
            "cubic", 1, {}, lambda lam, x, y: [lam * lam - x[0] * y[0] * x[0]
                                               - x[0]], [0.5], (1.0, 1.0))
        calls = []
        rhs = model.rhs

        def counted(lam, x, y):
            calls.append(x)
            return rhs(lam, x, y)

        mdl.linearization(model, 1.0)
        model.rhs = counted
        lam_ser = EpsSeries([1.0] * 9)
        xs = mdl.equilibrium_series(model, lam_ser)
        assert len(calls) == 10 and calls[-1] is xs
        res = max(abs(c) for c in rhs(lam_ser, xs, xs)[0].coeffs)
        assert 1e-14 < res <= 1e-10

    def test_large_converged_coefficients_are_not_refused(self):
        # x' = lam^2 - x^3 - x on the delay series 1 + 3*eps + ... + 3*eps^12:
        # the series' coefficients grow to about 2.8e4, and the rounding of
        # their products leaves a last residual of about 1.1e-7, which a
        # bound that does not grow with them refused
        model = mdl.DdeModel(
            "cubic", 1, {}, lambda lam, x, y: [lam * lam - x[0] * y[0] * x[0]
                                               - x[0]], [0.5], (1.0, 1.0))
        lam_ser = EpsSeries([1.0] + [3.0] * 12)
        xs = mdl.equilibrium_series(model, lam_ser)
        for eps in (1e-3, 1e-2):
            lam = np.polyval(lam_ser.coeffs[::-1], eps)
            x = 0.5
            for _ in range(50):
                x -= (x ** 3 + x - lam * lam) / (3 * x * x + 1)
            got = np.polyval(np.array(xs[0].coeffs[::-1], dtype=float), eps)
            assert abs(got - x) <= 1e-12 * abs(x)

    @pytest.mark.parametrize("factor", [3.0, 0.2])
    def test_a_wrong_jacobian_is_still_refused(self, sir, monkeypatch, factor):
        # Newton sweeps with a Jacobian off by this factor leave residuals of
        # about 3.4e-7 (3) and 1.8e5 (0.2) on the delay series
        # 120 + eps + 0.5*eps^2
        linearization = mdl.linearization

        def scaled(model, lam):
            return tuple(factor * J for J in linearization(model, lam))

        monkeypatch.setattr(mdl, "linearization", scaled)
        with pytest.raises(NewtonError):
            mdl.equilibrium_series(
                sir, EpsSeries([120.0, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0]))

    def test_sir_derivative_oracle(self, sir):
        xs = mdl.equilibrium_series(sir, EpsSeries([120.0, 1.0, 0.0]))
        h = 1e-4
        fd = (mdl.equilibrium(sir, 120.0 + h)
              - mdl.equilibrium(sir, 120.0 - h)) / (2 * h)
        ours = np.array([x.coeffs[1] for x in xs])
        assert np.max(np.abs(ours - fd)) < 1e-6


class TestLinearization:
    def test_ndde_closed_form(self, ndde):
        P, Q = mdl.linearization(ndde, 1.3079)
        p = ndde.params
        D = p["d"] * p["a"] * p["b"] / (p["a"] + p["b"])
        assert np.allclose(P, [[0.0, 1.0], [0.0, 0.0]], atol=1e-12)
        assert np.allclose(Q, [[0.0, 0.0], [-D, -D * p["K"]]], atol=1e-10)

    def test_ndde_numeric_value(self):
        D = 0.1124 * (2.0576 * 1.5677) / (2.0576 + 1.5677)
        assert abs(D - 0.1000) < 2e-5

    def test_finite_difference_oracle(self, ndde, sir):
        h = 1e-6
        for model, lam in ((ndde, 1.4), (sir, 110.0)):
            P, Q = mdl.linearization(model, lam)
            x = mdl.equilibrium(model, lam)
            n = model.dim
            for j in range(n):
                e = np.zeros(n)
                e[j] = h
                colP = (model.rhs_vector(lam, x + e, x)
                        - model.rhs_vector(lam, x - e, x)) / (2 * h)
                colQ = (model.rhs_vector(lam, x, x + e)
                        - model.rhs_vector(lam, x, x - e)) / (2 * h)
                assert np.max(np.abs(P[:, j] - colP)) < 1e-6
                assert np.max(np.abs(Q[:, j] - colQ)) < 1e-6

    def test_continuity_over_delay(self, sir):
        lams = np.linspace(105.0, 125.0, 9)
        mats = [np.hstack(mdl.linearization(sir, lam)) for lam in lams]
        step = lams[1] - lams[0]
        diffs = [np.max(np.abs(mats[i + 1] - mats[i]))
                 for i in range(len(mats) - 1)]
        deriv_scale = np.median(diffs) / step
        assert max(diffs) < 10.0 * deriv_scale * step


class TestSirR0:
    def test_table_value(self, sir):
        assert abs(mdl.sir_r0(sir.params) - 2.997) < 1e-3

    def test_zero_contagion(self):
        params = dict(mdl.SIR_DEFAULTS, beta=0.0)
        assert mdl.sir_r0(params) == 0.0

    def test_small_death_rate_limit(self):
        params = dict(mdl.SIR_DEFAULTS, mu=1e-12)
        limit = params["beta"] * params["P_max"] / params["alpha"]
        assert abs(mdl.sir_r0(params) - limit) < 1e-9


class TestSeriesConsistency:
    def test_series_order0_matches_real(self, ndde, sir):
        for model, lam in ((ndde, 1.4), (sir, 115.0)):
            x = mdl.equilibrium(model, lam) + 0.05
            series_args = [EpsSeries([float(v), 0.0]) for v in x]
            g_series = model.rhs(lam, series_args, series_args)
            g_real = model.rhs(lam, list(x), list(x))
            for gs, gr in zip(g_series, g_real):
                c0 = gs.coeffs[0] if isinstance(gs, EpsSeries) else gs
                assert abs(float(c0) - float(gr)) < 1e-12

    def test_trig_arguments_stay_finite(self, ndde, sir):
        from ddehopf.trigpoly import TrigPoly
        for model in (ndde, sir):
            n = model.dim
            lam0 = model.hopf_hint[1]
            lam = EpsSeries([lam0, 0.1, 0.0])
            wave = TrigPoly.harmonic(1, 1, cos_vec=[0.5], sin_vec=[-0.2])
            zero = TrigPoly.zero(1)
            eq = mdl.equilibrium(model, lam0)
            xs = [EpsSeries([TrigPoly.constant([eq[i]]), wave, zero])
                  for i in range(n)]
            g = model.rhs(lam, xs, xs)
            for gi in g:
                for c in gi.coeffs:
                    assert np.isfinite(c.max_abs())


def test_parameter_validation():
    with pytest.raises(ModelError):
        mdl.make_ndde({"a": -1.0})
    with pytest.raises(ModelError):
        mdl.make_sir({"f": 1.5})
