import copy
import functools
import time

import numpy as np
import pytest
from conftest import in_time_unit

from ddehopf import bifurcation as bf
from ddehopf import ddeint as di
from ddehopf import epsseries as es
from ddehopf import expansion as xp
from ddehopf import models as mdl
from ddehopf import orbit as ob
from ddehopf import trigpoly as tp
from ddehopf.errors import HopfError, ResonanceError


def _model(dim, rhs, hopf_hint, equilibrium_hint=None):
    return mdl.DdeModel("test", dim=dim, params={}, rhs=rhs,
                        equilibrium_hint=equilibrium_hint or [0.0] * dim,
                        hopf_hint=hopf_hint)


class TestFindHopf:
    def test_ndde_point(self, ndde):
        t0 = time.perf_counter()
        hp = bf.find_hopf(ndde)
        elapsed = time.perf_counter() - t0
        assert abs(hp.omega0 - 1.1424) < 5e-4
        assert abs(hp.lambda0 - 1.3079) < 5e-4
        assert elapsed < 1.0

    def test_ndde_transcendental_identities(self, ndde):
        hp = bf.find_hopf(ndde)
        p = ndde.params
        D = p["d"] * p["a"] * p["b"] / (p["a"] + p["b"])
        assert abs(p["K"] - np.tan(hp.omega0 * hp.lambda0) / hp.omega0) < 1e-8
        assert abs(D - hp.omega0 ** 2 * np.cos(hp.omega0 * hp.lambda0)) < 1e-8

    def test_sir_point(self, sir):
        hp = bf.find_hopf(sir)
        assert abs(hp.omega0 - 0.03440) < 2e-4
        assert abs(hp.lambda0 - 102.0308) < 0.5

    def test_null_vector_residuals(self, ndde, sir):
        for model in (ndde, sir):
            hp = bf.find_hopf(model)
            M = bf.characteristic_matrix(model, hp.omega0, hp.lambda0)
            assert np.linalg.norm(M @ hp.right_null) < 1e-9
            W = (1j * np.eye(model.dim) + hp.A.T
                 + hp.B.T * np.exp(1j * hp.lambda_hat0))
            assert np.linalg.norm(W @ hp.left_null) < 1e-9

    def test_rescaled_matrices_are_the_linearization(self, ndde, sir):
        # A and B are P/omega0 and Q/omega0 at lambda0, bit for bit
        for model in (ndde, sir):
            hp = bf.find_hopf(model)
            P, Q = mdl.linearization(model, hp.lambda0)
            assert hp.A.tobytes() == (P / hp.omega0).tobytes()
            assert hp.B.tobytes() == (Q / hp.omega0).tobytes()

    def test_resonance_guard_fires(self, ndde, monkeypatch):
        # with an absurdly lax threshold every harmonic looks resonant
        monkeypatch.setattr(bf, "RESONANCE_TOL", 1.0)
        with pytest.raises(ResonanceError):
            bf.find_hopf(ndde)

    def test_a_root_near_zero_is_resonant(self):
        # x' = (1 - 1e-7) x - y: the characteristic function is 1e-7 at
        # zero, and its one row is divided by sqrt(0 + 1 + 1), which leaves
        # 7.07e-8, fourteen times inside RESONANCE_TOL, beside the Hopf
        # point (4.47e-4, 1.0)
        model = _model(1, lambda lam, x, y: [(1 - 1e-7) * x[0] - y[0]],
                       (4.5e-4, 1.0))
        with pytest.raises(ResonanceError,
                           match=r"harmonic 0 .*determinant 7\.07e-08"):
            bf.find_hopf(model)

    def test_a_delay_free_model_has_a_singular_newton_jacobian(self):
        # the characteristic matrix of x1' = -x2, x2' = x1 does not move
        # with the delay, so the Jacobian's delay column is exactly zero
        model = _model(2, lambda lam, x, y: [-x[1], x[0]], (1.1, 1.0))
        with pytest.raises(HopfError, match="singular Jacobian"):
            bf.find_hopf(model)

    def test_bad_start_fails(self, ndde):
        far = copy.copy(ndde)
        far.hopf_hint = (250.0, 400.0)
        with pytest.raises(HopfError):
            bf.find_hopf(far)

    def test_no_descent_step_stalls(self):
        # Hutchinson's equation read by 1e-12 of a decaying x2: the x1 row
        # has two nonzero entries, so it is divided by its norm, whose
        # modulus-1 entry hides the roots of Hutchinson's factor, and from
        # this hint no halving of the Newton step lowers the residual.  The
        # root is at (1, pi/2); that the search stalls on a nearly
        # decoupled component is a known defect
        model = _model(2, lambda lam, x, y: [x[0] * (1 - y[0]) + 1e-12 * x[1],
                                             -x[1]],
                       (1.1, 1.4), [1.0, 0.0])
        with pytest.raises(HopfError, match="stalled"):
            bf.find_hopf(model)

    def test_a_component_that_reads_no_other(self):
        # a row of the characteristic matrix with one nonzero entry is not
        # normalized to modulus 1, so the roots of its own factor stay
        # roots: Hutchinson's equation, and x1' = -(pi/2) x1(t - lam), each
        # beside a decaying x2
        def beside_decay(f):
            return lambda lam, x, y: [f(x[0], y[0]), -x[1]]

        hutchinson = _model(2, beside_decay(lambda x, y: x * (1 - y)),
                            (1.1, 1.4), [1.0, 0.0])
        hp = bf.find_hopf(hutchinson)
        assert abs(hp.omega0 - 1.0) < 1e-14
        assert abs(hp.lambda0 - np.pi / 2) < 1e-14
        hp = bf.find_hopf(_model(2, beside_decay(lambda x, y: -np.pi / 2 * y),
                                 (1.5, 1.1)))
        assert abs(hp.omega0 - np.pi / 2) < 1e-14
        assert abs(hp.lambda0 - 1.0) < 1e-14
        # the decoupled, decaying x2 leaves the scalar expansion as it is
        got = xp.expand(hutchinson, 12, z0_scale="msq")
        ref = xp.expand(_model(1, lambda lam, x, y: [x[0] * (1 - y[0])],
                               (1.1, 1.4), [1.0]), 12, z0_scale="msq")
        for j in range(13):
            for mine, theirs in ((got.lambda_hats[j], ref.lambda_hats[j]),
                                 (got.T_hats[j], ref.T_hats[j])):
                assert abs(mine - theirs) <= 1e-12 * max(1.0, abs(theirs))
            assert (got.Z[j].component(0) - ref.Z[j]).max_abs() \
                <= 1e-12 * max(1.0, ref.Z[j].max_abs())
            assert got.Z[j].component(1).max_abs() == 0.0

    def test_a_decoupled_decaying_component_leaves_the_point(self, ndde):
        # ndde beside x3' = -rate x3, fast and slow: the x3 row has one
        # nonzero entry, and its scale keeps that factor of unit size, so
        # neither the determinant's rounding floor (fast) nor its value at
        # harmonic 0 (slow) moves with the rate
        ref = bf.find_hopf(ndde)
        for rate in (1e6, 1e-8):
            def rhs(lam, x, y, rate=rate):
                return [*ndde.rhs(lam, x[:2], y[:2]), -rate * x[2]]

            hp = bf.find_hopf(_model(3, rhs, ndde.hopf_hint))
            assert abs(hp.omega0 - ref.omega0) < 1e-14
            assert abs(hp.lambda0 - ref.lambda0) < 1e-14

    def test_iteration_cap(self, ndde, monkeypatch):
        monkeypatch.setattr(bf, "HOPF_MAX_ITER", 1)
        with pytest.raises(HopfError,
                           match="did not converge in 1 iterations"):
            bf.find_hopf(ndde)

    @pytest.mark.parametrize("name,iterations", [("ndde", 4), ("sir", 2)])
    def test_a_residual_short_of_the_bound_is_refused(
            self, request, monkeypatch, name, iterations):
        # the residual after these iterations is 2.1e-9 (ndde) and 7.4e-9
        # (sir): a thousand times the bound 1e-11 would accept it
        monkeypatch.setattr(bf, "HOPF_MAX_ITER", iterations)
        with pytest.raises(HopfError, match=r"\(residual [27]\.\d+e-09\)"):
            bf.find_hopf(request.getfixturevalue(name))

    def test_wrong_null_vector(self, ndde, monkeypatch):
        # a null vector that M does not annihilate is refused
        monkeypatch.setattr(bf, "_null_vector",
                            lambda mat: np.eye(len(mat), dtype=complex)[0])
        with pytest.raises(HopfError, match="null vector residuals too large"):
            bf.find_hopf(ndde)

    @pytest.mark.parametrize("call", [0, 1], ids=["right", "left"])
    def test_a_null_vector_slightly_off_is_refused(self, ndde, monkeypatch,
                                                   call):
        # 3e-8 added to the first entry of the right (left) null vector
        # leaves |M a| = 3.4e-8, ten times its bound 1e-9 * 3.29 (|W b| =
        # 4.0e-8, forty times its bound 1e-9)
        null_vector, calls = bf._null_vector, []

        def perturbed(mat):
            v = null_vector(mat)
            if len(calls) == call:
                v[0] += 3e-8
            calls.append(mat)
            return v

        monkeypatch.setattr(bf, "_null_vector", perturbed)
        with pytest.raises(HopfError, match="null vector residuals too large"):
            bf.find_hopf(ndde)

    @pytest.mark.parametrize("name,c", [
        *(pytest.param("ndde", c, id=str(c))
          for c in (1e8, 1e10, 1e-4, 1e-8, 1e4)),
        *(pytest.param("hutchinson", c, id=f"hutchinson-{c}")
          for c in (1e-8, 1e-4, 1e4, 1e8))])
    def test_time_unit(self, name, c):
        # the model with time measured in units of c: omega0 and 1/lambda0
        # scale by c, M by c, and the rescaled expansion, the amplitude at
        # a delay, the residual and the integrator's e_r are the same
        got, ref = _time_unit_figures(name, c), _time_unit_figures(name, 1.0)
        exp, base = got["expansion"], ref["expansion"]
        assert abs(exp.hopf.omega0 / c - base.hopf.omega0) \
            <= 1e-14 * base.hopf.omega0
        assert abs(exp.hopf.lambda0 * c - base.hopf.lambda0) \
            <= 1e-14 * base.hopf.lambda0
        for mine, theirs in ((exp.lambda_hats, base.lambda_hats),
                             (exp.T_hats, base.T_hats)):
            for a, b in zip(mine, theirs, strict=True):
                assert abs(a - b) <= 1e-12 * max(1.0, abs(b))
        scale = max(1.0, max(z.max_abs() for z in base.Z))
        assert max((a - b).max_abs() for a, b in zip(exp.Z, base.Z)) \
            <= 1e-12 * scale
        for key, bound in (("eps", 1e-12), ("eps_near", 1e-8),
                           ("residual", 1e-12), ("e_r", 1e-7)):
            assert abs(got[key] - ref[key]) <= bound * ref[key], key

    @pytest.mark.parametrize("c", [1e-16, 1e16])
    @pytest.mark.parametrize("name", ["ndde", "hutchinson"])
    def test_the_hopf_point_in_an_extreme_time_unit(self, name, c):
        model = TIME_UNIT_MODELS[name][0]
        ref = bf.find_hopf(model)
        hp = bf.find_hopf(in_time_unit(model, c))
        assert abs(hp.omega0 / c - ref.omega0) <= 1e-14 * ref.omega0
        assert abs(hp.lambda0 * c - ref.lambda0) <= 1e-14 * ref.lambda0

    def test_a_null_vector_off_is_refused_in_a_slow_time_unit(
            self, ndde, monkeypatch):
        # in a time unit of 1e-8 the terms of M are of size 3.3e-8, and
        # |M a| of a right null vector 1e-3 off is 1.1e-11: 350 times the
        # bound 1e-9 * 3.3e-8, which scales with them, and below 1e-9
        null_vector, calls = bf._null_vector, []

        def perturbed(mat):
            v = null_vector(mat)
            if not calls:
                v[0] += 1e-3
            calls.append(mat)
            return v

        model = in_time_unit(ndde, 1e-8)
        monkeypatch.setattr(bf, "_null_vector", perturbed)
        with pytest.raises(HopfError, match="null vector residuals too large"):
            bf.find_hopf(model)


# model, and expansion orders of the coefficients and of the orbit, in the
# time-unit tests (ndde's orbit at order 8, as validated by the CLI: at
# order 20 its residual is 6.9e-4, and rounding moves it by 1.2e-12 of that)
TIME_UNIT_MODELS = {
    "ndde": (mdl.make_ndde(), 20, 8),
    "hutchinson": (_model(1, lambda lam, x, y: [x[0] * (1 - y[0])],
                          (1.1, 1.4), [1.0]), 12, 12),
}


@functools.cache
def _time_unit_figures(name, c):
    """The msq expansion of the model ``name`` in time unit c and, from the
    orbit's expansion, the amplitude at 1.2 lambda0 and at lambda0 (1 +
    1e-6), and the residual and e_r (over 20 periods) of the orbit at 1.2
    lambda0."""
    model, order, orbit_order = TIME_UNIT_MODELS[name]
    model = in_time_unit(model, c)
    exp = xp.expand(model, order, z0_scale="msq")
    short = exp if orbit_order == order else xp.expand(model, orbit_order,
                                                       z0_scale="msq")
    lam0 = exp.hopf.lambda0
    orbit = ob.ReconstructedOrbit(short, 1.2 * lam0)
    return {"expansion": exp, "eps": orbit.eps,
            "eps_near": ob.solve_epsilon(short, lam0 * (1 + 1e-6)),
            "residual": ob.residual(orbit),
            "e_r": di.cross_validate(orbit, t_end=20 * orbit.period)[0]}


class TestNullBases:
    def test_degenerate_null_vector(self):
        # x1 decays on its own, so the critical null vector is (0, 1)
        model = _model(2, lambda lam, x, y: [
            -x[0], x[0] - y[1] - y[1] * y[1] * y[1]], (1.0, 1.5))
        with pytest.raises(HopfError, match="degenerate null vector"):
            bf.find_hopf(model)

    def test_a_nearly_degenerate_null_vector(self):
        # coupling x1 to x2 by 1.5e-13 gives the null vector a first entry
        # of 1.06e-13 of its norm, ten times inside the bound 1e-12
        model = _model(2, lambda lam, x, y: [
            -x[0] + 1.5e-13 * x[1], x[0] - y[1] - y[1] * y[1] * y[1]],
            (1.0, 1.5))
        with pytest.raises(HopfError, match="degenerate null vector"):
            bf.find_hopf(model)

    def test_gram_check(self, ndde, monkeypatch):
        # a v2 of norm 2 is not orthonormal
        first_harmonic = bf._first_harmonic
        monkeypatch.setattr(bf, "_first_harmonic",
                            lambda zeta, vec: first_harmonic(2 * zeta, vec))
        with pytest.raises(HopfError, match="basis not orthonormal"):
            bf.find_hopf(ndde)

    def test_a_basis_slightly_off_orthonormal(self, ndde, monkeypatch):
        # a v2 (and w1) of norm 1 + 1e-9 moves the Gram matrix by 2e-9,
        # twenty times its bound 1e-10
        first_harmonic = bf._first_harmonic
        monkeypatch.setattr(bf, "_first_harmonic", lambda zeta, vec: (
            first_harmonic((1 + 1e-9) * zeta, vec)))
        with pytest.raises(HopfError, match="basis not orthonormal"):
            bf.find_hopf(ndde)

    def test_ndde_printed_basis(self, ndde):
        hp = bf.find_hopf(ndde)
        # v2 = (0.3716 sin, 0.4245 cos) with a pure-sine first component
        assert abs(hp.v2.cos[0, 0]) < 1e-12
        assert abs(hp.v2.sin[0, 0] - 0.3716) < 5e-5
        assert abs(hp.v2.cos[0, 1] - 0.4245) < 5e-5
        amp = 1.0 / np.sqrt(np.pi * (1 + hp.omega0 ** 2))
        assert abs(hp.v2.sin[0, 0] - amp) < 1e-12
        assert abs(hp.v2.cos[0, 1] - hp.omega0 * amp) < 1e-12
        # v1 is the quarter-period shift of v2
        diff = hp.v1 - hp.v2.shift(-np.pi / 2)
        assert diff.max_abs() < 1e-12

    def test_ndde_adjoint_amplitude(self, ndde):
        hp = bf.find_hopf(ndde)
        amp = np.hypot(hp.w1.cos[0, 0], hp.w1.sin[0, 0])
        assert abs(amp - 0.0492) < 5e-5

    def test_orthonormality(self, ndde, sir):
        for model in (ndde, sir):
            hp = bf.find_hopf(model)
            for pair in ((hp.v1, hp.v2), (hp.w1, hp.w2)):
                gram = np.array([[tp.inner(a, b) for b in pair] for a in pair])
                assert np.max(np.abs(gram - np.eye(2))) < 1e-10

    def test_operator_annihilation(self, ndde, sir):
        taus = np.linspace(0.0, 2 * np.pi, 128, endpoint=False)
        for model in (ndde, sir):
            hp = bf.find_hopf(model)
            for v in (hp.v1, hp.v2):
                out = bf.critical_operator(v, hp)
                assert np.max(np.abs(out.eval(taus))) < 1e-9
            for w in (hp.w1, hp.w2):
                out = bf.adjoint_operator(w, hp)
                assert np.max(np.abs(out.eval(taus))) < 1e-9

    def test_sign_flip_is_a_change_of_coordinates(self, ndde_msq20,
                                                  monkeypatch):
        # ndde in (x1, -x2): its null vector's raw v2 has a negative cosine
        # in the second component, so _null_bases flips it.  The flipped
        # model's expansion is then ndde's at -eps: lh_j and Th_j gain
        # (-1)^j, and Z_j becomes (-1)^(j+1) diag(1, -1) Z_j.
        p = mdl.NDDE_DEFAULTS
        a, b, d, K = p["a"], p["b"], p["d"], p["K"]

        def rhs(lam, x, y):
            return [-x[1], a - (a + b) / (
                1.0 + (b / a) * es.exp(d * (y[0] - K * y[1])))]

        raw = []
        first_harmonic = bf._first_harmonic

        def recorded(zeta, vec):
            raw.append(first_harmonic(zeta, vec))
            return raw[-1]

        monkeypatch.setattr(bf, "_first_harmonic", recorded)
        model = mdl.DdeModel("ndde-x2-flipped", dim=2, params={}, rhs=rhs,
                             equilibrium_hint=[0.0, 0.0], hopf_hint=(1.1, 1.3))
        got = xp.expand(model, 20, z0_scale="msq")
        assert raw[0].cos[0, 1] < 0.0 < got.hopf.v2.cos[0, 1]
        ref = ndde_msq20
        flip = np.diag([1.0, -1.0])
        for j in range(21):
            sign = (-1.0) ** j
            for mine, theirs in ((got.lambda_hats[j], ref.lambda_hats[j]),
                                 (got.T_hats[j], ref.T_hats[j])):
                assert abs(mine - sign * theirs) <= 1e-12 * max(1.0, abs(theirs))
            expected = -sign * tp.matvec(flip, ref.Z[j])
            assert (got.Z[j] - expected).max_abs() \
                <= 1e-12 * max(1.0, ref.Z[j].max_abs())


def test_solvability_matrix_nonsingular(ndde, sir):
    from ddehopf.expansion import closed_form_RS, solvability_matrix
    for model in (ndde, sir):
        hp = bf.find_hopf(model)
        Z0 = 2 * np.pi * hp.v2
        R, S = closed_form_RS(model, hp, Z0)
        M = solvability_matrix(R, S, hp)
        scales = np.max(np.abs(M), axis=1)
        det = np.linalg.det(M / scales[:, None])
        assert abs(det) > 1e-8


def test_hopf_to_dict(ndde):
    hp = bf.find_hopf(ndde)
    d = hp.to_dict()
    assert abs(d["lambda_hat0"] - hp.omega0 * hp.lambda0) < 1e-14
