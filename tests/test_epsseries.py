import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddehopf import epsseries as es
from ddehopf.epsseries import EpsSeries
from ddehopf.errors import DimensionMismatchError
from ddehopf.trigpoly import TrigPoly

COS = TrigPoly.harmonic(1, 1, cos_vec=[1.0])

coeff = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def scalar_series(draw, order=None):
    n = order if order is not None else draw(st.integers(0, 4))
    return EpsSeries(draw(st.lists(coeff, min_size=n + 1, max_size=n + 1)))


@st.composite
def trig_series(draw, order=3, degree=2):
    coeffs = []
    for _ in range(order + 1):
        k = draw(st.integers(0, degree))
        const = [draw(coeff)]
        cos = np.array([[draw(coeff)] for _ in range(k)]).reshape(k, 1)
        sin = np.array([[draw(coeff)] for _ in range(k)]).reshape(k, 1)
        coeffs.append(TrigPoly(const, cos, sin))
    return EpsSeries(coeffs)


def random_trig_series(rng, order=3, dim=1, degree=2):
    return EpsSeries([TrigPoly(rng.standard_normal(dim),
                               rng.standard_normal((degree, dim)),
                               rng.standard_normal((degree, dim)))
                      for _ in range(order + 1)])


class TestAddMul:
    def test_one_plus_eps_times_one_minus_eps(self):
        p = EpsSeries([1.0, 1.0, 0.0]) * EpsSeries([1.0, -1.0, 0.0])
        assert p.coeffs == [1.0, 0.0, -1.0]

    def test_eps_cos_squared(self):
        s = EpsSeries([TrigPoly.zero(1), COS, TrigPoly.zero(1)])
        p = s * s
        c2 = p.coeffs[2]
        assert np.allclose(c2.const, [0.5])
        assert np.allclose(c2.cos, [[0.0], [0.5]])
        assert p.coeffs[0].max_abs() == 0.0 and p.coeffs[1].max_abs() == 0.0

    def test_evaluation_oracle(self, rng):
        s = random_trig_series(rng)
        t = random_trig_series(rng)
        p = s * t
        for eps in (0.02, 0.1):
            for tau in (0.3, 2.1, 5.5):
                direct = s.eval_at(tau, eps) * t.eval_at(tau, eps)
                # products of order > 3 are truncated away
                tail = sum(s.eval_at(tau, eps) * 0 for _ in ())
                full = 0.0
                for i in range(4):
                    for j in range(4):
                        if i + j <= 3:
                            full += (s.coeffs[i].eval(tau)[0] * eps ** i
                                     * t.coeffs[j].eval(tau)[0] * eps ** j)
                assert abs(p.eval_at(tau, eps)[0] - full) < 1e-10

    def test_order_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            EpsSeries([1.0, 2.0]) * EpsSeries([1.0, 2.0, 3.0])


class TestExactZeros:
    # products with an exact zero coefficient are skipped; the results must
    # be those of the full sums, bit for bit

    def test_times_a_number_scales_each_coefficient(self, rng):
        s = EpsSeries(list(rng.standard_normal(5)))
        assert (s * 2.5).coeffs == [c * 2.5 for c in s.coeffs]
        t = random_trig_series(rng, order=4, dim=2)
        for c, d in zip(t.coeffs, (t * -0.3).coeffs):
            assert np.array_equal(d.const, c.const * -0.3)
            assert np.array_equal(d.cos, c.cos * -0.3)
            assert np.array_equal(d.sin, c.sin * -0.3)

    def test_zero_low_orders_give_zero_coefficients(self, rng):
        a = EpsSeries([0.0, 0.0, 1.5, -2.0])
        b = EpsSeries([0.0, 3.0, 0.5, 1.0])
        assert (a * b).coeffs == [0.0, 0.0, 0.0, 4.5]
        zero1, zero2 = TrigPoly.zero(1), TrigPoly.zero(2)
        u = random_trig_series(rng, order=3, dim=2)
        vec = EpsSeries([zero2] + u.coeffs[1:])
        cases = [
            (EpsSeries([zero1, zero1, COS, zero1]), vec),
            (EpsSeries([0.0, 0.0, 2.0, 0.0]), vec),
        ]
        for lead, other in cases:
            for p in (lead * other, other * lead):
                assert p.is_trig and p.dim == 2
                for c in p.coeffs[:3]:
                    assert isinstance(c, TrigPoly)
                    assert c.dim == 2 and c.degree == 0
                    assert not c.const.any()
                top = (lead.coeffs[2] * vec.coeffs[1]).truncate()
                assert np.array_equal(p.coeffs[3].const, top.const)
                assert np.array_equal(p.coeffs[3].cos, top.cos)
                assert np.array_equal(p.coeffs[3].sin, top.sin)

    def test_number_over_series_is_back_substitution(self):
        t = EpsSeries([2.0, 0.0, 0.5, -1.0, 0.0, 0.25])
        q = []
        for j in range(6):
            acc = 3.0 if j == 0 else 0.0
            for k in range(1, j + 1):
                acc = acc - t.coeffs[k] * q[j - k]
            q.append(acc * (1.0 / 2.0))
        assert (3.0 / t).coeffs == q


def assert_bitwise_equal(p, q):
    assert len(p.coeffs) == len(q.coeffs)
    for a, b in zip(p.coeffs, q.coeffs):
        for x, y in ((a.const, b.const), (a.cos, b.cos), (a.sin, b.sin)):
            assert x.shape == y.shape and x.tobytes() == y.tobytes()


class TestNumbers:
    # a number meets a polynomial only through TrigPoly's rule: it acts on
    # the constant term of a scalar-valued polynomial

    def test_scalar_series_plus_vector_series_raises(self, rng):
        s = EpsSeries([1.0, 2.0, 3.0])
        v = random_trig_series(rng, order=2, dim=2)
        for op in (lambda: s + v, lambda: v + s, lambda: s - v,
                   lambda: v - s, lambda: v + 1.0, lambda: 1.0 - v):
            with pytest.raises(DimensionMismatchError):
                op()

    def test_numbers_match_an_explicit_embedding(self, rng):
        s = random_trig_series(rng, order=4)
        s = EpsSeries([TrigPoly.constant([1.7])] + s.coeffs[1:])

        def embedded(x):
            return EpsSeries.constant(TrigPoly.constant([x]), s.order)

        assert_bitwise_equal(1.0 / s, embedded(1.0) / s)
        assert_bitwise_equal(s - 2.5, s - embedded(2.5))
        assert_bitwise_equal(2.5 - s, embedded(2.5) - s)


class TestDiv:
    def test_geometric(self):
        q = 1.0 / EpsSeries([1.0, 1.0, 0.0, 0.0])
        assert q.coeffs == [1.0, -1.0, 1.0, -1.0]

    def test_self_division(self, rng):
        s = EpsSeries(list(1.0 + rng.standard_normal(5) * 0.3))
        q = s / s
        assert abs(q.coeffs[0] - 1.0) < 1e-14
        assert max(abs(c) for c in q.coeffs[1:]) < 1e-14

    def test_round_trip(self, rng):
        s = random_trig_series(rng, order=4)
        t = EpsSeries(list(2.0 + 0.5 * rng.standard_normal(5)))
        q = s / t
        back = q * t
        for a, b in zip(back.coeffs, s.coeffs):
            assert (a - b).max_abs() < 1e-12

    def test_zero_leading(self):
        with pytest.raises(ZeroDivisionError):
            EpsSeries([1.0, 0.0]) / EpsSeries([0.0, 1.0])

    def test_nonconstant_leading(self):
        t = EpsSeries([COS, TrigPoly.zero(1)])
        with pytest.raises(DimensionMismatchError):
            EpsSeries([1.0, 0.0]) / t


class TestAnalytic:
    def test_exp_eps_u(self):
        s = EpsSeries([TrigPoly.zero(1), COS, TrigPoly.zero(1)])
        e = es.exp(s)
        assert np.allclose(e.coeffs[0].const, [1.0])
        assert np.allclose(e.coeffs[1].cos, [[1.0]])
        # u^2/2 = 1/4 + cos(2 tau)/4
        assert np.allclose(e.coeffs[2].const, [0.25])
        assert np.allclose(e.coeffs[2].cos, [[0.0], [0.25]])

    def test_exp_zero(self):
        e = es.exp(EpsSeries([0.0, 0.0, 0.0]))
        assert e.coeffs == [1.0, 0.0, 0.0]

    def test_evaluation_oracle(self):
        u = TrigPoly.harmonic(1, 1, cos_vec=[0.2])
        s = EpsSeries([TrigPoly.constant([0.3]), u] + [TrigPoly.zero(1)] * 3)
        e = es.exp(s)
        tau, eps = 0.7, 0.05
        direct = np.exp(0.3 + eps * 0.2 * np.cos(tau))
        assert abs(e.eval_at(tau, eps)[0] - direct) < 1e-10

    def test_log_domain_error(self):
        with pytest.raises(ValueError):
            es.log(EpsSeries([-1.0, 0.0]))

    def test_log_inverts_exp(self, rng):
        s = EpsSeries(list(0.4 * rng.standard_normal(5)))
        back = es.log(es.exp(s) * float(np.exp(1.3))) - 1.3
        for a, b in zip(back.coeffs, s.coeffs):
            assert abs(a - b) < 1e-12

    def test_nonconstant_leading_rejected(self):
        with pytest.raises(DimensionMismatchError):
            es.exp(EpsSeries([COS, TrigPoly.zero(1)]))

    def test_pow_and_trig(self):
        s = EpsSeries([2.0, 0.5, 0.1, 0.0, 0.0])
        p = es.powf(s, 0.5)
        eps = 0.03
        assert abs(p.eval(eps) - np.sqrt(s.eval(eps))) < 1e-8
        assert abs(es.sin(s).eval(eps) - np.sin(s.eval(eps))) < 1e-8
        assert abs(es.cos(s).eval(eps) - np.cos(s.eval(eps))) < 1e-8


class TestDelayedState:
    def test_constant_shift(self, rng):
        Z = random_trig_series(rng, order=3, dim=2)
        theta0 = 0.9
        theta = EpsSeries([theta0, 0.0, 0.0, 0.0])
        d = es.delayed_state(Z, theta, theta0)
        for c, zc in zip(d.coeffs, Z.coeffs):
            assert (c - zc.shift(theta0)).max_abs() < 1e-13

    def test_chain_rule_first_order(self):
        # Z = cos(tau), theta = theta0 + eps: d/dtheta cos(tau - theta)
        # is sin(tau - theta), so the eps^1 coefficient is -sin(tau - theta0)
        # times dtheta/deps = 1... with the minus sign of the inner argument
        # it comes out as +sin evaluated at the shifted argument.
        theta0 = 0.7
        Z = EpsSeries([COS, TrigPoly.zero(1), TrigPoly.zero(1)])
        theta = EpsSeries([theta0, 1.0, 0.0])
        d = es.delayed_state(Z, theta, theta0)
        taus = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        expected = np.sin(taus - theta0)
        assert np.max(np.abs(d.coeffs[1].eval(taus)[:, 0] - expected)) < 1e-12

    def test_evaluation_oracle(self, rng):
        base = random_trig_series(rng, order=3, dim=2)
        Z = EpsSeries([0.3 * c for c in base.coeffs])
        theta0 = 1.1
        theta = EpsSeries([theta0, 0.4, -0.2, 0.1])
        d = es.delayed_state(Z, theta, theta0)
        eps = 0.01
        th = theta.eval(eps)
        for tau in (0.0, 1.0, 3.9):
            expected = Z.eval(eps).eval(tau - th)
            assert np.max(np.abs(d.eval_at(tau, eps) - expected)) < 1e-8

    def test_base_point_mismatch(self, rng):
        Z = random_trig_series(rng, order=2)
        theta = EpsSeries([1.0, 0.5, 0.0])
        with pytest.raises(DimensionMismatchError):
            es.delayed_state(Z, theta, 1.0 + 1e-6)


@settings(max_examples=40, deadline=None)
@given(trig_series(), trig_series(), trig_series())
def test_ring_axioms(a, b, c):
    lhs = (a + b) * c
    rhs = a * c + b * c
    scale = max(1.0, max(x.max_abs() for x in lhs.coeffs),
                max(x.max_abs() for x in rhs.coeffs))
    for x, y in zip(lhs.coeffs, rhs.coeffs):
        assert (x - y).max_abs() < 1e-12 * scale
    m1 = (a * b) * c
    m2 = a * (b * c)
    scale = max(1.0, max(x.max_abs() for x in m1.coeffs))
    for x, y in zip(m1.coeffs, m2.coeffs):
        assert (x - y).max_abs() < 1e-11 * scale


@settings(max_examples=30, deadline=None)
@given(scalar_series(order=4))
def test_exp_inverse(s):
    p = es.exp(s) * es.exp(-s)
    scale = max(1.0, max(abs(c) for c in p.coeffs))
    assert abs(p.coeffs[0] - 1.0) < 1e-12 * scale
    assert max(abs(c) for c in p.coeffs[1:]) < 1e-12 * scale


@settings(max_examples=40, deadline=None)
@given(trig_series(), trig_series(), st.floats(0.0, 0.1),
       st.floats(0.0, 6.28))
def test_evaluation_homomorphism(a, b, eps, tau):
    # truncation error bounded away by small eps: compare at matching order
    add = (a + b).eval_at(tau, eps)
    assert abs(add[0] - (a.eval_at(tau, eps)[0] + b.eval_at(tau, eps)[0])) \
        < 1e-8 * max(1.0, abs(add[0]))


def test_times_over_eps(rng):
    s = random_trig_series(rng, order=3)
    up = s.times_eps()
    assert up.coeffs[0].max_abs() == 0.0
    back = up.over_eps()
    for a, b in zip(back.coeffs[:-1], s.coeffs[:-1]):
        assert (a - b).max_abs() == 0.0
    with pytest.raises(DimensionMismatchError):
        EpsSeries([1.0, 0.0]).over_eps()


def test_scalar_embeds_into_trig():
    s = EpsSeries([1.0, 2.0, 3.0])
    t = EpsSeries([TrigPoly.zero(1)] * 3)
    out = s + t
    assert out.is_trig
    assert np.allclose([c.const[0] for c in out.coeffs], [1.0, 2.0, 3.0])
    assert all(c.degree == 0 for c in out.coeffs)
