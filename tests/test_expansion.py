import contextlib
import copy
import functools
import re
from types import SimpleNamespace

import envelope
import numpy as np
import pytest
from envelope import assert_within_envelope, envelope_ratios, load_envelope

from ddehopf import bifurcation as bf
from ddehopf import cli
from ddehopf import epsseries as es
from ddehopf import expansion as xp
from ddehopf import models
from ddehopf import trigpoly as tp
from ddehopf.epsseries import EpsSeries
from ddehopf.errors import ResonanceError, SolvabilityError
from ddehopf.trigpoly import TrigPoly

TWO_PI = 2 * np.pi


@pytest.fixture(scope="module")
def ndde_hp(ndde):
    return bf.find_hopf(ndde)


@pytest.fixture(scope="module")
def sir_hp(sir):
    return bf.find_hopf(sir)


def memo_size(memo):
    """Entries of both generations of a memo."""
    return len(memo.current) + len(memo.previous)


def assert_matches_record(result, ref):
    """Orders 0..result.order equal, bit for bit, those of a recorded
    reference in the ``ddehopf expand --format json`` layout."""
    n = result.order + 1
    assert np.array_equal(result.lambda_hats, ref["lambda_hats"][:n])
    assert np.array_equal(result.T_hats, ref["T_hats"][:n])
    for Zj, data in zip(result.Z, ref["coefficients"][:n], strict=True):
        assert (Zj.dim, Zj.degree) == (data["dim"], data["degree"])
        assert np.array_equal(Zj.const, data["const"])
        assert np.array_equal(Zj.cos, np.reshape(data["cos"], Zj.cos.shape))
        assert np.array_equal(Zj.sin, np.reshape(data["sin"], Zj.sin.shape))


class TestAssembleRhs:
    def test_probe_matches_closed_form(self, ndde, ndde_hp, sir, sir_hp):
        for model, hp in ((ndde, ndde_hp), (sir, sir_hp)):
            Z0 = TWO_PI * hp.v2
            H0, R, S = xp.assemble_rhs(model, hp, [Z0],
                                       [hp.lambda_hat0], [TWO_PI])
            R_cf, S_cf = xp.closed_form_RS(model, hp, Z0)
            scale = max(1.0, R_cf.max_abs(), S_cf.max_abs())
            assert (R - R_cf).max_abs() < 1e-9 * scale
            assert (S - S_cf).max_abs() < 1e-9 * scale

    def test_quadratic_oracle_first_order(self, ndde, ndde_hp):
        # h_1 is the pure quadratic part of the rescaled rhs applied to the
        # order-0 profile; measure it by symmetric finite differences.
        hp = ndde_hp
        Z0 = TWO_PI * hp.v2
        H0, _, _ = xp.assemble_rhs(ndde, hp, [Z0], [hp.lambda_hat0], [TWO_PI])
        lam0, w0 = hp.lambda0, hp.omega0
        h = 1e-4
        for tau in np.linspace(0.0, 2 * np.pi, 17):
            a = Z0.eval(tau)
            b = Z0.shift(hp.lambda_hat0).eval(tau)
            plus = np.array(ndde.rhs(lam0, list(h * a), list(h * b)))
            minus = np.array(ndde.rhs(lam0, list(-h * a), list(-h * b)))
            quad = (plus + minus) / (2 * h * h * w0)
            assert np.max(np.abs(H0.eval(tau) - quad)) < 1e-6

    def test_affine_probing(self, ndde, ndde_hp):
        hp = ndde_hp
        Z0 = TWO_PI * hp.v2
        args = (ndde, hp, [Z0], [hp.lambda_hat0], [TWO_PI])
        H0 = xp.order_coefficient(*args, 0.0, 0.0)
        S = xp.order_coefficient(*args, 1.0, 0.0) - H0
        double = xp.order_coefficient(*args, 2.0, 0.0) - H0
        scale = max(1.0, S.max_abs())
        assert (double - 2.0 * S).max_abs() < 1e-10 * scale

    def test_first_order_solvable(self, ndde, ndde_hp):
        hp = ndde_hp
        Z0 = TWO_PI * hp.v2
        H0, R, S = xp.assemble_rhs(ndde, hp, [Z0], [hp.lambda_hat0], [TWO_PI])
        lam1, T1, h1 = xp.solve_order(H0, R, S, hp)
        for w in (hp.w1, hp.w2):
            assert abs(tp.inner(h1, w)) < 1e-10

    @pytest.mark.parametrize("case", ["ndde_msq20", "sir_2pi14"])
    def test_shared_probes_equal_separate_probes(self, case, request,
                                                 monkeypatch):
        # expand carries the memo from one order to the next; its result
        # must be that of an expand with no memo at all (three separate
        # order_coefficient calls per order), bit for bit, from fewer
        # polynomial products than sharing within each order alone.  At
        # every order the three probes sharing one memo, and at the top
        # order a standalone assemble_rhs, which opens none, must give the
        # memo-free probes' H0, R and S, bit for bit: the first from fewer
        # products, the second from as many
        result = request.getfixturevalue(case)
        products = []
        mul = tp.mul

        def counted(u, v):
            products.append(1)
            return mul(u, v)

        monkeypatch.setattr(tp, "mul", counted)
        args = (result.model, result.order, result.conventions["z0_mode"])
        carried = xp.expand(*args)
        carried_products = len(products)

        separate = []
        assemble = xp.assemble_rhs

        def recorded(*probe_args):
            products.clear()
            H0_R_S = assemble(*probe_args)
            separate.append((H0_R_S, len(products)))
            return H0_R_S

        # an expand whose memo is never opened: its probes share nothing
        monkeypatch.setattr(xp, "assemble_rhs", recorded)
        monkeypatch.setattr(xp, "_shared_coefficients",
                            lambda: contextlib.nullcontext(es._Generations()))
        bare = xp.expand(*args)
        monkeypatch.undo()
        monkeypatch.setattr(tp, "mul", counted)
        for name in ("lambda_hats", "T_hats"):
            assert (np.array(getattr(carried, name)).tobytes()
                    == np.array(getattr(bare, name)).tobytes())
        pairs = list(zip(carried.Z, bare.Z, strict=True))

        per_order = 0
        for j, (H0_R_S_bare, bare_products) in enumerate(separate, 1):
            inputs = (result.model, result.hopf, carried.Z[:j],
                      list(carried.lambda_hats[:j]),
                      list(carried.T_hats[:j]))
            products.clear()
            with es._shared_coefficients():
                H0_R_S = xp.assemble_rhs(*inputs)
            per_order += len(products)
            assert len(products) < bare_products
            pairs += zip(H0_R_S, H0_R_S_bare, strict=True)
        products.clear()
        pairs += zip(xp.assemble_rhs(*inputs), H0_R_S_bare, strict=True)
        assert len(products) == bare_products
        assert carried_products < per_order
        for p, q in pairs:
            for x, y in ((p.const, q.const), (p.cos, q.cos), (p.sin, q.sin)):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()

    def test_memo_is_emptied_when_the_rhs_raises(self, ndde):
        seen = []

        def rhs(lam, x, y):
            g = ndde.rhs(lam, x, y)
            if isinstance(lam, EpsSeries):  # the equilibrium series
                memo = es._memo.get()
                seen.append((memo, memo_size(memo)))
                raise RuntimeError("rhs failed")
            return g

        model = models.DdeModel("failing", 2, ndde.params, rhs,
                                ndde.equilibrium_hint, ndde.hopf_hint)
        with pytest.raises(RuntimeError):
            xp.expand(model, 2, z0_scale="msq")
        memo, size = seen[0]
        assert size > 0 and not memo_size(memo) and es._memo.get() is None

    def test_memo_spans_the_orders_and_keeps_two(self, ndde, monkeypatch):
        # expand keeps one memo across its orders and starts a generation
        # for each: while order j runs, the memo holds what order j-1 left
        # in its generation and what order j formed or reused, nothing
        # older; an entry formed at order j-2 or before is still carried
        # along when it is reused; and the memo is emptied when expand
        # returns and when the rhs raises part-way.  Entries are dated by
        # their running numbers
        memos, first, left = [], [], []
        assemble = xp.assemble_rhs

        def checked(*probe_args):
            memo = es._memo.get()
            memos.append(memo)
            first.append(memo.numbered)
            assert not memo.current
            assert memo.previous.keys() == (left[-1].keys() if left else set())
            H0_R_S = assemble(*probe_args)
            left.append({key: n for key, (n, _) in memo.current.items()})
            return H0_R_S

        monkeypatch.setattr(xp, "assemble_rhs", checked)
        xp.expand(ndde, 8, z0_scale="msq")
        memo = memos[0]
        assert len(memos) == 8 and all(m is memo for m in memos)
        assert any(min(left[i].values()) < first[i - 1]
                   for i in range(1, len(left)))
        assert not memo_size(memo) and es._memo.get() is None

        monkeypatch.undo()
        seen = []

        def rhs(lam, x, y):
            if isinstance(x[0], EpsSeries) and x[0].order == 4:  # order 3
                memo = es._memo.get()
                seen.append((memo, memo_size(memo)))
                raise RuntimeError("rhs failed")
            return ndde.rhs(lam, x, y)

        model = models.DdeModel("failing", 2, ndde.params, rhs,
                                ndde.equilibrium_hint, ndde.hopf_hint)
        with pytest.raises(RuntimeError):
            xp.expand(model, 5, z0_scale="msq")
        memo, size = seen[0]
        assert size > 0 and not memo_size(memo) and es._memo.get() is None


    def test_work_of_an_order_12_expand(self, ndde, monkeypatch):
        # a count of work, where a timer would be unreliable: the polynomial
        # products, delayed shifts and polynomial sums of one expand.  Each
        # coefficient is formed once per content, each column of Horner
        # partial sums of exp is extended in place as the orders grow, and
        # the shifted derivatives of a nonzero Z_k are formed once per entry
        # of the delayed state (the exact-zero top coefficient Z_j of the
        # probes has none); re-forming the whole Horner loop of exp and the
        # derivative/shift ladder at every probe took 1,284 products, 920
        # shifts and 10,388 sums, and forming the delay shift and the
        # delayed state to order j+1, one coefficient above what the rhs
        # reads, took 56 shifts and 5,392 sums, and forming the argument of
        # exp less its constant term as a series of its own, 306 more sums.
        # expand forms no closed-form R and S (2 shifts and 3 sums), which
        # stay a test-side reference
        counts = dict.fromkeys(("mul", "shift", "__add__"), 0)

        def counting(owner, name):
            method = getattr(owner, name)

            def counted(*args):
                counts[name] += 1
                return method(*args)
            monkeypatch.setattr(owner, name, counted)

        counting(tp, "mul")
        counting(TrigPoly, "shift")
        counting(TrigPoly, "__add__")
        xp.expand(ndde, 12, "msq")
        assert counts == {"mul": 1010, "shift": 50, "__add__": 4481}

    def test_the_delayed_state_stops_at_order_j(self, ndde, monkeypatch):
        # h_j is the rhs coefficient j+1, which reads eps*Z(tau - theta)
        # only through the delayed state's coefficients 0..j: each probe of
        # order j gives delayed_state a profile and a shift of order j
        orders = []
        delayed_state = xp.delayed_state

        def recorded(Z, theta):
            orders.append((Z.order, theta.order))
            return delayed_state(Z, theta)

        monkeypatch.setattr(xp, "delayed_state", recorded)
        xp.expand(ndde, 8)
        assert orders == [(j, j) for j in range(1, 9) for _ in range(3)]


class TestSolveOrder:
    def test_ndde_first_order_vanishes(self, ndde_msq8):
        assert abs(ndde_msq8.lambda_hats[1]) < 1e-9
        assert abs(ndde_msq8.T_hats[1]) < 1e-9

    def test_ndde_second_order(self, ndde_msq8):
        assert abs(ndde_msq8.lambda_hats[2] - 0.1666) < 1e-4
        assert abs(ndde_msq8.T_hats[2] - 0.7465) < 1e-4

    def test_sir_second_order(self, sir_2pi8):
        assert abs(sir_2pi8.lambda_hats[2] - 0.1500) < 1e-4
        # the period coefficient is validated against the measured orbit
        # period (see test_ddeint); its value is 0.2500 in this convention
        assert abs(sir_2pi8.T_hats[2] - 0.2500) < 1e-4

    def test_a_singular_first_order_raises(self, ndde, monkeypatch):
        # with S = 0 the 2x2 solvability system of order 1 is singular;
        # solve_order refuses it, and expand names the order
        assemble = xp.assemble_rhs

        def no_delay_direction(*args):
            H0, R, S = assemble(*args)
            return H0, R, TrigPoly.zero(S.dim)

        monkeypatch.setattr(xp, "assemble_rhs", no_delay_direction)
        with pytest.raises(SolvabilityError,
                           match=r"^order 1: solvability system is singular"):
            xp.expand(ndde, 3, z0_scale="msq")


class TestSolveParticular:
    def test_zero_rhs(self, ndde_hp):
        hp = ndde_hp
        out = xp.solve_particular(TrigPoly.zero(2), hp)
        assert out.max_abs() < 1e-12

    def test_operator_application_oracle(self, ndde_hp, rng):
        hp = ndde_hp
        # random inhomogeneity orthogonal to the adjoint null space: project out
        raw = TrigPoly(rng.standard_normal(2), rng.standard_normal((3, 2)),
                       rng.standard_normal((3, 2)))
        h = raw
        for w in (hp.w1, hp.w2):
            h = h + (-tp.inner(raw, w) / tp.inner(w, w)) * w
        z = xp.solve_particular(h, hp)
        taus = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        lhs = bf.critical_operator(z, hp).eval(taus)
        rhs = h.eval(taus)
        assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, h.max_abs())

    def test_zero_characteristic_root(self):
        # A + B singular: 0 is a characteristic root
        hp = SimpleNamespace(A=np.array([[1.0]]), B=np.array([[-1.0]]),
                             lambda_hat0=1.0)
        with pytest.raises(ResonanceError, match="zero characteristic root"):
            xp.solve_particular(TrigPoly([1.0]), hp)

    def test_resonant_second_harmonic(self):
        # x' = A x rotates at frequency 2, so 2i is a characteristic root
        hp = SimpleNamespace(A=np.array([[0.0, 2.0], [-2.0, 0.0]]),
                             B=np.zeros((2, 2)), lambda_hat0=1.0)
        h = TrigPoly([0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]],
                     [[0.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ResonanceError, match="harmonic 2 block"):
            xp.solve_particular(h, hp)


class TestFixHomogeneous:
    def test_already_satisfying(self, ndde_msq8):
        hp = ndde_msq8.hopf
        Z0 = ndde_msq8.Z[0]
        Z1 = ndde_msq8.Z[1]  # already satisfies both conditions
        fixed = xp.fix_homogeneous(Z1, Z0, hp)
        assert (fixed - Z1).max_abs() < 1e-10 * max(1.0, Z1.max_abs())

    def test_postconditions(self, ndde_msq8, rng):
        hp = ndde_msq8.hopf
        Z0 = ndde_msq8.Z[0]
        raw = TrigPoly(rng.standard_normal(2), rng.standard_normal((2, 2)),
                       rng.standard_normal((2, 2)))
        fixed = xp.fix_homogeneous(raw, Z0, hp)
        assert abs(fixed.eval(0.0)[0]) < 1e-12 * max(1.0, fixed.max_abs())
        assert abs(tp.inner(fixed, Z0)) < 1e-9


def perturbed_solvability_matrix(monkeypatch, factor=1.01):
    matrix = xp.solvability_matrix
    monkeypatch.setattr(xp, "solvability_matrix",
                        lambda R, S, hp: factor * matrix(R, S, hp))


def h_with_a_w1_component(monkeypatch, size=1.0):
    solve_order = xp.solve_order

    def solved(H0, R, S, hp):
        lam_j, T_j, h = solve_order(H0, R, S, hp)
        return lam_j, T_j, h + size * hp.w1

    monkeypatch.setattr(xp, "solve_order", solved)


def homogeneous_part_left_out(monkeypatch):
    monkeypatch.setattr(xp, "fix_homogeneous", lambda Z_hat, Z0, hp: Z_hat)


def phase_fixed_only(monkeypatch):
    # Z_hat is already orthogonal to N(L) (a minimum-norm solution), so the
    # fix adds a multiple of v1 + v2, chosen for Z^1(0) = 0 alone (v2 is a
    # pure sine there): its v2 part moves <Z, Z0> off zero
    def fixed(Z_hat, Z0, hp):
        u = hp.v1 + hp.v2
        return Z_hat + (-float(Z_hat.eval(0.0)[0]) / float(u.eval(0.0)[0])) * u

    monkeypatch.setattr(xp, "fix_homogeneous", fixed)


def homogeneous_part_plus(basis, size):
    """A fault: the fixed Z_j plus ``size`` times the null basis element
    ``basis``; v1 moves Z^1(0) alone (v1 is orthogonal to Z0), v2 moves
    <Z, Z0> alone (v2 is a pure sine in its first component)."""
    def fault(monkeypatch):
        fix = xp.fix_homogeneous
        monkeypatch.setattr(xp, "fix_homogeneous", lambda Z_hat, Z0, hp: (
            fix(Z_hat, Z0, hp) + size * getattr(hp, basis)))
    return fault


class TestInvariantChecks:
    # every hard check of an order fires when one step gives a wrong
    # result, and expand names the order.  The "-small" faults put the
    # checked quantity about ten times past its bound, so each check holds
    # its tolerance: on ndde (msq, order 2) <H0, w2> is 0.22 and <h, w2>
    # becomes 1.1e-9 against 1e-10; a unit of w1 leaves a first-harmonic
    # residual of 0.56, so 2e-8 of it leaves 1.1e-8 against 1e-9; v1(0)
    # is 0.37, so Z^1(0) becomes 1.1e-9 against 1e-10; <v2, Z0> is 2.5, so
    # <Z, Z0> becomes 1.0e-8 against 1.06e-9

    @pytest.mark.parametrize("fault,message", [
        (perturbed_solvability_matrix, "post-solve orthogonality violated"),
        (h_with_a_w1_component, "first-harmonic least-squares residual"),
        (homogeneous_part_left_out, r"phase condition Z\^1\(0\) = 0 violated"),
        (phase_fixed_only, "orthogonality <Z_j, Z0> = 0 violated"),
        (functools.partial(perturbed_solvability_matrix, factor=1 + 5e-9),
         "post-solve orthogonality violated"),
        (functools.partial(h_with_a_w1_component, size=2e-8),
         "first-harmonic least-squares residual"),
        (homogeneous_part_plus("v1", 3e-9),
         r"phase condition Z\^1\(0\) = 0 violated"),
        (homogeneous_part_plus("v2", 4e-9),
         "orthogonality <Z_j, Z0> = 0 violated")],
        ids=["solvability", "first-harmonic", "phase", "orthogonality",
             "solvability-small", "first-harmonic-small", "phase-small",
             "orthogonality-small"])
    def test_a_wrong_step_is_refused(self, ndde, monkeypatch, fault, message):
        fault(monkeypatch)
        with pytest.raises(SolvabilityError, match=rf"^order \d+: {message}"):
            xp.expand(ndde, 4, z0_scale="msq")

    def test_the_cli_exits_with_the_solvability_code(self, monkeypatch,
                                                      capsys):
        homogeneous_part_left_out(monkeypatch)
        assert cli.main(["expand", "--model", "ndde", "--order", "2"]) == 5
        out = capsys.readouterr()
        assert out.out == ""
        assert re.match(r"error: order \d+: phase condition", out.err)


class TestExpand:
    def test_ndde_series_table(self, ndde_msq8):
        lh = ndde_msq8.lambda_hats
        Th = ndde_msq8.T_hats
        published_lh = [1.4940, 0.0, 0.1666, 0.0, 0.0387, 0.0013]
        published_Th = [TWO_PI, 0.0, 0.7465, 0.0, 0.1814, 0.0056]
        for j in range(6):
            mine_l, mine_T = lh[j], Th[j]
            if j % 2 == 1:
                mine_l, mine_T = abs(mine_l), abs(mine_T)
            assert abs(mine_l - published_lh[j]) < 2e-3, f"lambda_hat[{j}]"
            assert abs(mine_T - published_Th[j]) < 2e-3, f"T_hat[{j}]"

    def test_ndde_coefficient_amplitudes(self, ndde_2pi5):
        # order-5 run in the 2*pi convention reproduces the published
        # per-order amplitude table; checked here for the first columns
        Z = ndde_2pi5.Z
        assert abs(abs(Z[0].sin[0, 0]) - 2.3349) < 5e-4
        assert abs(abs(Z[0].cos[0, 1]) - 2.6673) < 5e-4
        assert abs(abs(Z[1].const[0]) - 3.5250) < 5e-4
        amp21 = np.hypot(Z[1].cos[1, 0], Z[1].sin[1, 0])
        assert abs(amp21 - np.hypot(0.0295, 0.0561)) < 5e-4

    def test_order_one_gives_zero_coefficients(self, ndde, sir):
        for model, scale in ((ndde, "msq"), (sir, "paper")):
            res = xp.expand(model, 1, z0_scale=scale)
            assert abs(res.lambda_hats[1]) < 1e-9
            assert abs(res.T_hats[1]) < 1e-9

    def test_invariants(self, ndde_msq8):
        res = ndde_msq8
        hp = res.hopf
        assert abs(res.lambda_hats[0] - hp.omega0 * hp.lambda0) < 1e-9
        assert res.T_hats[0] == TWO_PI
        taus = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        for j in range(1, res.order + 1):
            Zj = res.Z[j]
            hj = res.h_list[j - 1]
            assert Zj.degree <= j + 1
            assert hj.degree <= j + 1
            zscale = max(1.0, Zj.max_abs())
            assert abs(Zj.eval(0.0)[0]) < 1e-10 * zscale
            assert abs(tp.inner(Zj, res.Z[0])) < 1e-9
            for w in (hp.w1, hp.w2):
                assert abs(tp.inner(hj, w)) < 1e-10
            lhs = bf.critical_operator(Zj, hp).eval(taus)
            rhs = hj.eval(taus)
            assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(1.0, hj.max_abs())

    def test_determinism(self, ndde):
        a = xp.expand(ndde, 4, z0_scale="msq")
        b = xp.expand(ndde, 4, z0_scale="msq")
        assert np.array_equal(a.lambda_hats, b.lambda_hats)
        assert np.array_equal(a.T_hats, b.T_hats)
        for za, zb in zip(a.Z, b.Z):
            assert np.array_equal(za.const, zb.const)
            assert np.array_equal(za.cos, zb.cos)
            assert np.array_equal(za.sin, zb.sin)

    def test_matches_the_order20_reference_exactly(self, ndde_msq20):
        # all 21 orders of the recorded order-20 run must come out bit for
        # bit; any reordering of the jet arithmetic, or a dropped coefficient
        # that did reach the result, shows up here
        assert_matches_record(ndde_msq20, load_envelope("ndde-n20-msq"))

    def test_matches_the_recorded_sir_expansion_exactly(self, sir_2pi8):
        # orders 0..8 of the recorded order-14 run; scalar series meet
        # polynomials on this path: the equilibrium series is added to each
        # state component, and the scalar (1 - mu*lam) multiplies one
        assert_matches_record(sir_2pi8, load_envelope("sir-n14-paper"))

    @pytest.mark.parametrize("case,name", [("ndde_msq20", "ndde-n20-msq"),
                                           ("sir_2pi14", "sir-n14-paper")])
    def test_within_the_rounding_envelope(self, case, name, request):
        # every lh_j, Th_j and Z_j within K times the change that moving one
        # model parameter by an ulp makes (tests/make_envelope.py records
        # it); unlike the exact references above, this admits a change of
        # the arithmetic that moves bits at rounding level, and no other
        assert_within_envelope(request.getfixturevalue(case),
                               load_envelope(name))

    def test_the_envelope_refuses_what_rounding_cannot_explain(
            self, ndde_msq20):
        # the record's own reference with lh_5 (envelope 2.5e-17) moved by
        # K envelopes passes and by 10 K envelopes is refused, and so is one
        # with Z_9 scaled by 1 + 1e-12; the live expansion gives only the
        # case (model, order, scale), so this holds wherever in its envelope
        # that expansion lies
        record = load_envelope("ndde-n20-msq")
        reference = copy.copy(ndde_msq20)
        reference.lambda_hats = np.array(record["lambda_hats"])
        reference.T_hats = np.array(record["T_hats"])
        reference.Z = [TrigPoly(c["const"], c["cos"], c["sin"])
                       for c in record["coefficients"]]
        step = envelope.K * record["envelope"]["lambda_hats"][5]
        for factor, passes in ((1.0, True), (10.0, False)):
            moved = copy.copy(reference)
            moved.lambda_hats = reference.lambda_hats.copy()
            moved.lambda_hats[5] += factor * step
            ratios = {(j, key): r for j, key, r in envelope_ratios(moved,
                                                                    record)}
            assert (ratios[5, "lambda_hats"] <= 1.0) == passes
            assert max(ratios.values()) == ratios[5, "lambda_hats"]
        moved = copy.copy(reference)
        moved.Z = list(reference.Z)
        moved.Z[9] = (1.0 + 1e-12) * moved.Z[9]
        with pytest.raises(AssertionError, match=r"\(9, 'Z'"):
            assert_within_envelope(moved, record)

    def test_convention_rescaling_exact(self, ndde):
        a = xp.expand(ndde, 4, z0_scale="paper")
        b = xp.expand(ndde, 4, z0_scale="msq")
        c = TWO_PI / np.sqrt(TWO_PI)
        for j in range(5):
            expected = b.lambda_hats[j] * c ** j
            assert abs(a.lambda_hats[j] - expected) \
                < 1e-9 * max(1.0, abs(expected))
            zb = (c ** (j + 1)) * b.Z[j]
            assert (a.Z[j] - zb).max_abs() < 1e-9 * max(1.0, zb.max_abs())

    def test_truncated_view(self, ndde_msq8):
        sub = ndde_msq8.truncated(4)
        assert sub.order == 4
        assert np.array_equal(sub.lambda_hats, ndde_msq8.lambda_hats[:5])
        assert len(sub.Z) == 5

    @pytest.mark.parametrize("order", [0, 9])
    def test_truncated_refuses_orders_outside_1_to_order(self, ndde_msq8,
                                                         order):
        with pytest.raises(ValueError, match=r"order must be in \[1, 8\]"):
            ndde_msq8.truncated(order)

    def test_rejects_bad_args(self, ndde):
        with pytest.raises(ValueError):
            xp.expand(ndde, 0)
        with pytest.raises(ValueError):
            xp.expand(ndde, 3, z0_scale="bogus")


def test_enforce_degree_raises_on_real_content():
    u = TrigPoly([0.0], np.array([[1.0], [0.5]]), np.zeros((2, 1)))
    with pytest.raises(SolvabilityError):
        xp.enforce_degree(u, 1, "test")
    trimmed = xp.enforce_degree(u, 2, "test")
    assert trimmed.degree == 2


def test_enforce_degree_trims_dust_to_the_bound():
    # a tail of at most DEGREE_DUST_TOL relative to the largest coefficient
    # is cut off; a larger one is refused
    dust = xp.DEGREE_DUST_TOL * 2.0
    u = TrigPoly([2.0, 0.0], np.array([[1.0, 0.5], [0.0, -dust]]),
                 np.array([[0.0, 0.25], [dust, 0.0]]))
    trimmed = xp.enforce_degree(u, 1, "test")
    assert trimmed.degree == 1
    assert trimmed.const.tobytes() == u.const.tobytes()
    assert trimmed.cos.tobytes() == u.cos[:1].tobytes()
    assert trimmed.sin.tobytes() == u.sin[:1].tobytes()
    over = TrigPoly(u.const, u.cos, u.sin * 1.5)
    with pytest.raises(SolvabilityError, match="above degree 1"):
        xp.enforce_degree(over, 1, "test")


def test_enforce_degree_refuses_ten_times_the_dust_bound():
    # a tail of 1e-9 of the largest coefficient is content, not dust
    u = TrigPoly([1.0], np.array([[1.0], [1e-9]]), np.zeros((2, 1)))
    with pytest.raises(SolvabilityError, match="above degree 1"):
        xp.enforce_degree(u, 1, "test")


def test_a_nearly_singular_2x2_is_refused():
    # rows scaled to a largest entry of 1 leave det 1e-9, ten times inside
    # the bound 1e-8
    with pytest.raises(SolvabilityError, match="test is singular"):
        xp._check_nonsingular_2x2(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-9]]),
                                  "test")
