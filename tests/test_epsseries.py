import contextlib
import inspect
import math
import operator
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from series_oracles import eval_at, eval_series

from ddehopf import epsseries as es
from ddehopf import models
from ddehopf import trigpoly as tp
from ddehopf.epsseries import EpsSeries
from ddehopf.errors import DimensionMismatchError
from ddehopf.trigpoly import TrigPoly

COS = TrigPoly.harmonic(1, 1, cos_vec=[1.0])
# a constant plus a harmonic far below TRIM_TOL, not an exact constant
DUSTY = TrigPoly([1.3], [[5e-17]], [[0.0]])
SCALAR = EpsSeries([1.0, 2.0])
VECTOR = EpsSeries([TrigPoly.zero(2)] * 2)

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
                # products of order > 3 are truncated away
                full = 0.0
                for i in range(4):
                    for j in range(4):
                        if i + j <= 3:
                            full += (s.coeffs[i].eval(tau)[0] * eps ** i
                                     * t.coeffs[j].eval(tau)[0] * eps ** j)
                assert abs(eval_at(p, tau, eps)[0] - full) < 1e-10

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


def was_zero(c):
    """The exact-zero test as ``ndarray.any`` made it, for comparison."""
    if isinstance(c, TrigPoly):
        return not c.cos.shape[0] and not c.const.any()
    if isinstance(c, np.ndarray):
        return not c.any()
    return c == 0.0


class TestNumberTimesScalarSeries:
    # a float times a series with a float order-0 coefficient is scaled in
    # one pass, with no walk; it must give the bytes of the product with the
    # promoted constant [c, 0.0, ...], whatever zeros, NaNs and infinities
    # the coefficients and the number hold
    NAN, INF = float("nan"), float("inf")
    NUMBERS = [2.5, -2.5, 0.0, -0.0, NAN, INF, -INF, 1e-300]
    SERIES = [
        [1.5, -0.0, 0.0, NAN, INF, -2.0],
        [0.0, -0.0, 3.0, 0.0, -INF, NAN],
        [0.7, np.array([1.0, 0.0, -0.0, NAN, -2.0])],
        [-0.0, np.array([0.0, -0.0, 0.0])],
        [NAN, np.zeros(3)],
    ]

    @pytest.fixture
    def walks(self, monkeypatch):
        walks = []
        walk = es._walk
        monkeypatch.setattr(es, "_walk",
                            lambda *a: walks.append(a[0]) or walk(*a))
        return walks

    @pytest.mark.parametrize("coeffs", SERIES)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_the_bytes_of_the_promoted_product(self, coeffs, walks):
        s = EpsSeries(coeffs)
        for c in self.NUMBERS:
            walks.clear()
            ref = es._cauchy(s, EpsSeries.constant(c, s.order))
            assert walks == ["cauchy"]
            for product in (s * c, c * s):
                assert_same_bits(product, ref)
            if c != 0.0:
                ref = es._cauchy(s, EpsSeries.constant(1.0 / c, s.order))
                assert_same_bits(s / c, ref)
            assert walks == ["cauchy"] * (1 + (c != 0.0))

    def test_a_trig_series_keeps_the_walk(self, rng, walks):
        t = random_trig_series(rng, order=3, dim=2)
        for product, c in ((t * 2.5, 2.5), (2.5 * t, 2.5), (t / 4.0, 0.25)):
            assert_same_bits(product,
                             es._cauchy(t, EpsSeries.constant(c, t.order)))
        assert walks == ["cauchy"] * 6

    def test_zero_tests_as_before(self):
        arrays = [np.array(v) for v in (
            [0.0, -0.0, 0.0], [0.0, 1e-300], [-0.0], [self.NAN, 0.0],
            [0.0, self.INF], np.zeros(6), np.eye(6)[5])]
        cases = arrays + [TrigPoly.constant(a) for a in arrays] + [
            TrigPoly([0.0], [[0.0]], [[0.0]]), COS, DUSTY, TrigPoly.zero(3)]
        for c in cases:
            assert es._is_zero(c) == was_zero(c)
        assert [es._is_zero(a) for a in arrays] == [
            True, False, True, False, False, True, False]


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
            return EpsSeries([TrigPoly.constant([x])]
                             + [TrigPoly.zero(1)] * s.order)

        assert_bitwise_equal(1.0 / s, embedded(1.0) / s)
        assert_bitwise_equal(s - 2.5, s - embedded(2.5))
        assert_bitwise_equal(2.5 - s, embedded(2.5) - s)

    @pytest.mark.parametrize("shared", [False, True])
    def test_float64_coefficients_give_the_bits_of_floats(self, shared):
        a = [1.5, -0.0, 0.0, 2.25, -3.0]
        b = [0.5, 1.0, -0.0, 0.0, 4.0]

        def float64s(coeffs):
            return EpsSeries._make([np.float64(c) for c in coeffs])

        def content(s):
            return [np.float64(c).tobytes() for c in s.coeffs]

        with es._shared_coefficients() if shared else contextlib.nullcontext():
            for op in (operator.mul, operator.add, operator.truediv):
                want = content(op(EpsSeries(a), EpsSeries(b)))
                for x, y in ((float64s(a), float64s(b)),
                             (float64s(a), EpsSeries(b)),
                             (EpsSeries(a), float64s(b))):
                    assert content(op(x, y)) == want


class TestRefusals:
    @pytest.mark.parametrize("call, error, match", [
        (lambda: EpsSeries([]), DimensionMismatchError, "order-0 term"),
        (lambda: EpsSeries([TrigPoly.zero(1), TrigPoly.zero(2)]),
         DimensionMismatchError, "share dim"),
        (lambda: EpsSeries([TrigPoly.zero(2), 1.0]),
         DimensionMismatchError, "cannot mix scalars"),
        (lambda: SCALAR.component(0),
         DimensionMismatchError, "requires a trig series"),
        (lambda: VECTOR * VECTOR,
         DimensionMismatchError, "scalar-valued factor"),
        (lambda: SCALAR / EpsSeries([1.0]),
         DimensionMismatchError, "order mismatch: 1 vs 0"),
        (lambda: es.analytic("pow", SCALAR),
         ValueError, "requires an exponent"),
        (lambda: es.powf(EpsSeries([0.0, 1.0]), 0.5),
         ValueError, "zero leading term"),
        (lambda: es.analytic("tan", SCALAR),
         ValueError, "unsupported analytic function 'tan'"),
        (lambda: es.delayed_state(SCALAR, SCALAR),
         DimensionMismatchError, "expects a trig series"),
        (lambda: es.delayed_state(VECTOR, EpsSeries([1.0])),
         DimensionMismatchError, "order mismatch: 1 vs 0"),
        # Python's own float errors would come without the reason
        (lambda: EpsSeries([1.0, 0.0]) / EpsSeries([0.0, 1.0]),
         ZeroDivisionError, "series with zero leading term"),
        (lambda: es.log(EpsSeries([-1.0, 0.0])),
         ValueError, "non-positive leading term"),
        (lambda: es.exp(EpsSeries([math.nan, 1.0])),
         ValueError, "non-finite leading term"),
    ], ids=["empty", "mixed_dims", "scalar_in_vector", "component",
            "vector_product", "div_orders", "pow_exponent", "pow_zero",
            "unsupported", "scalar_delayed", "delayed_orders", "div_zero",
            "log_domain", "exp_nan"])
    def test_refused(self, call, error, match):
        with pytest.raises(error, match=match):
            call()

    @pytest.mark.parametrize("op", [
        operator.add, operator.sub, operator.mul, operator.truediv,
        lambda s, x: x / s], ids=["add", "sub", "mul", "div", "rdiv"])
    def test_unsupported_operand(self, op):
        with pytest.raises(TypeError):
            op(SCALAR, object())


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

    def test_dusty_leading_is_not_dropped(self):
        # a harmonic far below TRIM_TOL still makes the leading term
        # non-constant
        t = EpsSeries([DUSTY, TrigPoly.zero(1)])
        with pytest.raises(DimensionMismatchError, match="constant"):
            EpsSeries([1.0, 0.0]) / t


class TestAnalytic:
    @pytest.mark.parametrize("generic, numpy_fn", [
        (es.exp, np.exp), (es.log, np.log), (es.sin, np.sin), (es.cos, np.cos),
        (lambda x: es.powf(x, 10), lambda x: np.power(x, 10))],
        ids=["exp", "log", "sin", "cos", "powf"])
    def test_numbers_take_numpys_value(self, generic, numpy_fn):
        # the path of a user rhs inside integrate and residual: plain floats
        # and arrays, never a series
        xs = np.array([0.3, 1.0, 1.7, 25.0])
        assert generic(xs).tobytes() == numpy_fn(xs).tobytes()
        for x in xs.tolist():
            assert np.float64(generic(x)).tobytes() \
                == np.float64(numpy_fn(x)).tobytes()

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
        assert abs(eval_at(e, tau, eps)[0] - direct) < 1e-10

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

    @pytest.mark.parametrize("f", [
        es.exp, es.log, es.sin, es.cos, lambda s: es.powf(s, 0.5)],
        ids=["exp", "log", "sin", "cos", "pow"])
    def test_dusty_leading_rejected(self, f):
        with pytest.raises(DimensionMismatchError, match="constant"):
            f(EpsSeries([DUSTY, TrigPoly.zero(1)]))

    def test_pow_of_negative_leading_term_needs_integer_exponent(self):
        with pytest.raises(ValueError):
            es.powf(EpsSeries([-1.0, 1.0, 0.0]), 0.5)
        assert es.powf(EpsSeries([-1.0, 1.0, 0.0]), 2).coeffs == [1.0, -2.0, 1.0]

    def test_overflowing_weights_raise(self):
        with pytest.raises(ValueError):
            es.exp(EpsSeries([800.0, 1.0]))
        with pytest.raises(ValueError):
            es.powf(EpsSeries([1e-100, 1.0, 0.0, 0.0]), -3.0)
        with pytest.raises(ValueError):
            es.log(EpsSeries([1e-200, 1.0, 0.0]))
        with pytest.raises(ValueError):
            es.sin(EpsSeries([float("inf"), 1.0]))

    def test_log_of_a_large_leading_term(self):
        # the weights (-1)^(m-1) / (m c0^m) are finite although c0^m is not
        out = es.log(EpsSeries([1e200, 1.0, 0.0]))
        assert out.coeffs == [math.log(1e200), 1e-200, 0.0]

    def test_pow_and_trig(self):
        s = EpsSeries([2.0, 0.5, 0.1, 0.0, 0.0])
        p = es.powf(s, 0.5)
        eps = 0.03
        x = eval_series(s, eps)
        assert abs(eval_series(p, eps) - np.sqrt(x)) < 1e-8
        assert abs(eval_series(es.sin(s), eps) - np.sin(x)) < 1e-8
        assert abs(eval_series(es.cos(s), eps) - np.cos(x)) < 1e-8


class TestDelayedState:
    def test_constant_shift(self, rng):
        Z = random_trig_series(rng, order=3, dim=2)
        theta0 = 0.9
        theta = EpsSeries([theta0, 0.0, 0.0, 0.0])
        d = es.delayed_state(Z, theta)
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
        d = es.delayed_state(Z, theta)
        taus = np.linspace(0, 2 * np.pi, 32, endpoint=False)
        expected = np.sin(taus - theta0)
        assert np.max(np.abs(d.coeffs[1].eval(taus)[:, 0] - expected)) < 1e-12

    def test_evaluation_oracle(self, rng):
        base = random_trig_series(rng, order=3, dim=2)
        Z = EpsSeries([0.3 * c for c in base.coeffs])
        theta0 = 1.1
        theta = EpsSeries([theta0, 0.4, -0.2, 0.1])
        d = es.delayed_state(Z, theta)
        eps = 0.01
        th = eval_series(theta, eps)
        for tau in (0.0, 1.0, 3.9):
            expected = eval_series(Z, eps).eval(tau - th)
            assert np.max(np.abs(eval_at(d, tau, eps) - expected)) < 1e-8

    @pytest.mark.parametrize("theta0", [math.nan, math.inf, -math.inf])
    def test_non_finite_leading_shift_raises(self, rng, theta0):
        Z = random_trig_series(rng, order=2)
        with pytest.raises(ValueError, match="non-finite leading shift"):
            es.delayed_state(Z, EpsSeries([theta0, 0.5, 0.0]))


def full_analytic(fid, s, exponent=None):
    """Horner evaluation of the Taylor recentering, started from the zero
    polynomial, with every product formed to full order."""
    n = s.order
    c0 = es._leading_scalar(s)
    w = es._taylor_weights(fid, c0, n, exponent)
    h = s - c0
    acc = EpsSeries([TrigPoly.zero(1) if h.is_trig else 0.0] * (n + 1))
    for m in range(n, -1, -1):
        acc = acc * h + float(w[m])
    return acc


def full_delayed_state(Z, theta):
    """The derivative/shift ladder about the leading shift with every term
    formed to full order; coefficient k sums, left to right, the terms m
    that reach it: (-dtheta)^m starts at order m*v, for v leading exact
    zeros in dtheta."""
    theta0 = theta.coeffs[0]
    minus_dtheta = -(theta - theta0)
    v = es._leading_zeros(minus_dtheta.coeffs)
    deriv = Z
    power = EpsSeries.constant(1.0, Z.order)
    fact = 1.0
    terms = []
    for m in range(Z.order + 1):
        shifted = EpsSeries([c.shift(theta0) for c in deriv.coeffs])
        terms.append(power * shifted * (1.0 / fact))
        deriv = EpsSeries([c.diff() for c in deriv.coeffs])
        power = power * minus_dtheta
        fact *= m + 1
    return EpsSeries([sum((t.coeffs[k] for t in terms[1:k // v + 1]),
                          terms[0].coeffs[k]) for k in range(Z.order + 1)])


def bits(c):
    """Exact content of a coefficient, with its kind."""
    if isinstance(c, TrigPoly):
        return c.cos.shape, c.const.tobytes(), c.cos.tobytes(), c.sin.tobytes()
    return type(c).__name__, np.asarray(c).tobytes()


def assert_same_bits(p, q):
    assert [bits(c) for c in p.coeffs] == [bits(c) for c in q.coeffs]


class TestTrimming:
    # only the coefficients that reach the result are formed; the result must
    # be that of the full computation, bit for bit
    ORDER = 12

    def inputs(self):
        """(series, v): seeded scalar and dim-1 trig series with v leading
        exact zeros after the order-0 term is taken off."""
        n = self.ORDER
        rng = np.random.default_rng(12)
        scalar = [1.3] + list(0.5 * rng.standard_normal(n))
        sparse = [1.3, 0.0] + list(0.5 * rng.standard_normal(n - 1))
        trig = random_trig_series(rng, order=n)
        trig = [TrigPoly.constant([1.3])] + [0.3 * c for c in trig.coeffs[1:]]
        return [(EpsSeries(scalar), 1), (EpsSeries(sparse), 2),
                (EpsSeries(trig), 1)]

    @pytest.mark.parametrize("fid,exponent", [
        ("exp", None), ("log", None), ("pow", 0.5), ("pow", -1.5),
        ("sin", None), ("cos", None)])
    def test_analytic_equals_the_full_horner(self, fid, exponent):
        for s, v in self.inputs():
            h = s - es._leading_scalar(s)
            assert es._leading_zeros(h.coeffs) == v
            assert_same_bits(es.analytic(fid, s, exponent),
                             full_analytic(fid, s, exponent))

    @pytest.mark.parametrize("v", [1, 2])
    def test_delayed_state_equals_the_full_ladder(self, v):
        n = self.ORDER
        rng = np.random.default_rng(v)
        Z = EpsSeries([0.3 * c for c in random_trig_series(
            rng, order=n, dim=2).coeffs])
        theta0 = 1.1
        tail = list(0.2 * rng.standard_normal(n))
        theta = EpsSeries([theta0] + [0.0] * (v - 1) + tail[v - 1:])
        assert es._leading_zeros((theta - theta0).coeffs) == v
        assert_bitwise_equal(es.delayed_state(Z, theta),
                             full_delayed_state(Z, theta))
        Z1 = Z.component(0)
        assert_bitwise_equal(es.delayed_state(Z1, theta),
                             full_delayed_state(Z1, theta))

    def test_trig_exp_forms_only_the_products_it_needs(self, monkeypatch):
        # step m of the Horner loop forms orders up to 12 - m of acc*h, so
        # sum_{p=1..12} p(p+1)/2 = 364 products of polynomials, where the
        # full loop forms 12 at m = 11, the first step whose acc is not
        # zero, and 78 at each of the 11 steps below: 870
        calls = []
        mul = tp.mul

        def counted(u, v):
            calls.append(1)
            return mul(u, v)

        monkeypatch.setattr(tp, "mul", counted)
        s = self.inputs()[2][0]
        es.exp(s)
        assert len(calls) == 364
        calls.clear()
        full_analytic("exp", s)
        assert len(calls) == 870


class TestInsideTheScope:
    # expand opens the scope, starts a generation per order and grows its
    # series by one order at a time, keeping the coefficients below the top
    # and probing the top one with several values.  No coefficient depends on
    # the truncation order, so one formed at an order before may be served
    # again; inside the scope every result must still be its oracle's, bit
    # for bit, and every coefficient the same at every order
    ORDERS = range(1, 13)

    def grow(self, op, oracle, *coeff_lists):
        """The oracle's results outside the scope, {order: result} with the
        top coefficients as given; inside it, with a generation per order,
        op's results for the top coefficients as given and negated must be
        the oracle's."""
        def probes(n):
            return [[EpsSeries(c[:n] + [sign * c[n]]) for c in coeff_lists]
                    for sign in (1.0, -1.0)]

        refs = {n: [oracle(*args) for args in probes(n)] for n in self.ORDERS}
        with es._shared_coefficients() as memo:
            for n in self.ORDERS:
                memo.advance()
                for args, ref in zip(probes(n), refs[n], strict=True):
                    assert_same_bits(op(*args), ref)
        return {n: refs[n][0] for n in self.ORDERS}

    def series(self):
        """{name: (coefficients of order 12, v)}: scalar, direction-array and
        dim-1 trig series with v leading exact zeros after the order-0
        term."""
        n = max(self.ORDERS)
        rng = np.random.default_rng(20)
        trig = [0.3 * c for c in random_trig_series(rng, order=n).coeffs]
        # h_1 carries a -0.0, which a float factor keeps and a product of
        # polynomials turns into 0.0: the top coefficient of order 1 must be
        # formed as it is at every order above
        trig[1] = TrigPoly([0.3], [[-0.0], [0.5]], [[0.7], [0.2]])
        return {
            "scalar v=1": ([1.3] + list(0.5 * rng.standard_normal(n)), 1),
            "scalar v=2": ([1.3, 0.0] + list(0.5 * rng.standard_normal(n - 1)),
                           2),
            "directions": ([1.3] + list(0.5 * rng.standard_normal((n, 4))), 1),
            "trig v=1": ([TrigPoly.constant([0.4])] + trig[1:], 1)}

    def shifts(self, v):
        """(dim-2 trig coefficients Z, the shift's coefficients theta, with
        v leading exact zeros after its order-0 term), both of order 12."""
        n = max(self.ORDERS)
        rng = np.random.default_rng(v)
        Z = [0.3 * c for c in random_trig_series(rng, order=n, dim=2).coeffs]
        theta0 = 1.1
        tail = list(0.2 * rng.standard_normal(n))
        theta = [theta0] + [0.0] * (v - 1) + tail[v - 1:]
        if v == 1:
            # the -0.0s of Z_1 stay -0.0 in the sum of the terms that reach
            # coefficient 1, and an exact-zero term added after them would
            # turn them into 0.0
            Z[1] = TrigPoly([-0.0, -0.0], Z[1].cos, Z[1].sin)
            theta[1] = abs(theta[1])
        assert es._leading_zeros((EpsSeries(theta) - theta0).coeffs) == v
        return Z, theta

    @pytest.mark.parametrize("fid,exponent", [
        ("exp", None), ("log", None), ("pow", 0.5), ("pow", -1.5),
        ("sin", None), ("cos", None)])
    def test_analytic(self, fid, exponent):
        for name, (coeffs, v) in self.series().items():
            s = EpsSeries(coeffs)
            h = s - es._leading_scalar(s)
            assert es._leading_zeros(h.coeffs) == v, name
            assert not order_dependence(self.grow(
                lambda s: es.analytic(fid, s, exponent),
                lambda s: full_analytic(fid, s, exponent), coeffs)), name

    @pytest.mark.parametrize("v", [1, 2])
    def test_delayed_state(self, v):
        Z, theta = self.shifts(v)
        for Zs in (Z, [c.component(0) for c in Z],
                   self.series()["trig v=1"][0]):
            assert not order_dependence(self.grow(
                es.delayed_state, full_delayed_state, Zs, theta))

    @pytest.mark.parametrize("op", [es._cauchy, es.div],
                             ids=["product", "quotient"])
    def test_products_and_quotients(self, op):
        # the oracle is the operation outside the scope
        for v in (1, 2):
            Z, theta = self.shifts(v)
            firsts = [Z, [c.component(0) for c in Z]] + [
                coeffs for coeffs, _ in self.series().values()]
            for coeffs in firsts:
                assert not order_dependence(self.grow(op, op, coeffs, theta))


def order_dependence(refs):
    """Whether some coefficient of an order's result differs from that
    coefficient at the next order."""
    return any(bits(a) != bits(b) for n in list(refs)[:-1]
               for a, b in zip(refs[n].coeffs, refs[n + 1].coeffs))


class TestDirectionArrays:
    # an order-1 series whose order-1 coefficient is an array of directions
    # must give, entry by entry, the scalar series of each direction, bit
    # for bit; the last direction is all zeros
    A0, B0 = 0.8, 1.7
    DA = np.array([1.0, 0.0, -0.35, 2.0, 0.0])
    DB = np.array([0.0, 1.0, 1.25, -0.5, 0.0])

    def per_direction(self, f):
        """(array result, the scalar results of each direction)."""
        out = f(EpsSeries([self.A0, self.DA]), EpsSeries([self.B0, self.DB]))
        refs = [f(EpsSeries([self.A0, x]), EpsSeries([self.B0, y]))
                for x, y in zip(self.DA, self.DB)]
        return out, refs

    @pytest.mark.parametrize("f", [
        es.exp, es.log, es.sin, es.cos,
        lambda a: es.powf(a, 0.5), lambda a: es.powf(a, -1.5),
        lambda a: 2.5 + a, lambda a: a + 2.5, lambda a: -2.5 + a,
        lambda a: 2.5 - a, lambda a: a - 2.5, lambda a: -2.5 - a,
        lambda a: 2.5 * a, lambda a: a * 2.5, lambda a: 2.5 / a],
        ids=["exp", "log", "sin", "cos", "pow0.5", "pow-1.5", "n+a", "a+n",
             "-n+a", "n-a", "a-n", "-n-a", "n*a", "a*n", "n/a"])
    def test_one_series(self, f):
        out, refs = self.per_direction(lambda a, b: f(a))
        self.assert_per_direction_bits(out, refs)

    @pytest.mark.parametrize("f", [
        lambda a, b: a / b, lambda a, b: a * b, lambda a, b: a + b,
        lambda a, b: a - b], ids=["a/b", "a*b", "a+b", "a-b"])
    def test_two_series(self, f):
        out, refs = self.per_direction(f)
        self.assert_per_direction_bits(out, refs)

    def test_a_negative_factor_may_only_sign_a_zero(self):
        # the scalar path skips the product with an exact-zero direction and
        # keeps 0.0; the array path forms it and gets -0.0
        for f in (lambda a, b: -2.5 * a, lambda a, b: a / -2.5):
            out, refs = self.per_direction(f)
            ref = np.array([r.coeffs[1] for r in refs])
            live = self.DA != 0.0
            assert out.coeffs[1][live].tobytes() == ref[live].tobytes()
            assert np.all(out.coeffs[1][~live] == 0.0)
            assert np.all(ref[~live] == 0.0)
            assert np.all(np.signbit(out.coeffs[1][~live]))

    def test_zero_only_when_every_entry_is(self):
        assert es._is_zero(np.zeros(3))
        assert not es._is_zero(np.array([0.0, 0.0, 1e-300]))
        s = EpsSeries([1.0, np.zeros(3)])
        assert isinstance(s.coeffs[1], np.ndarray)
        assert es._leading_zeros((s - 1.0).coeffs) == 2

    def test_only_a_scalar_series_above_order_0_takes_one(self):
        d = np.array([1.0, 2.0])
        for misplaced in (
                lambda: es.exp(EpsSeries([d, 1.0])),
                lambda: es.div(EpsSeries([1.0, 0.0]), EpsSeries([d, 1.0])),
                lambda: EpsSeries([TrigPoly.constant([1.0]), d])):
            with pytest.raises(DimensionMismatchError):
                misplaced()

    def assert_per_direction_bits(self, out, refs):
        assert isinstance(out.coeffs[1], np.ndarray)
        assert all(np.float64(out.coeffs[0]).tobytes()
                   == np.float64(r.coeffs[0]).tobytes() for r in refs)
        assert (out.coeffs[1].tobytes()
                == np.array([r.coeffs[1] for r in refs]).tobytes())


class TestSharedCoefficients:
    # inside es._shared_coefficients() a product or quotient reuses the
    # coefficients it formed before from the same input bytes

    def test_div_keeps_the_sign_of_a_zero(self):
        t = EpsSeries([2.0, 0.0])
        with es._shared_coefficients():
            for first, second in ((-0.0, 0.0), (0.0, -0.0)):
                a = es.div(EpsSeries([1.0, first]), t)
                b = es.div(EpsSeries([1.0, second]), t)
                assert math.copysign(1.0, a.coeffs[1]) == math.copysign(1.0, first)
                assert math.copysign(1.0, b.coeffs[1]) == math.copysign(1.0, second)

    def test_direction_arrays_give_the_same_bytes(self, ndde, sir):
        # the Jacobian probes carry arrays of directions (products and, for
        # sir, a quotient); the second call inside the scope reuses the first
        for model, lam in ((ndde, 1.3), (sir, 100.0)):
            point = models.equilibrium(model, lam)
            outside = models._jet_jacobians(model, lam, point)
            with es._shared_coefficients() as memo:
                inside = [models._jet_jacobians(model, lam, point)
                          for _ in range(2)]
                assert memo.current
            for pair in inside:
                for a, b in zip(pair, outside, strict=True):
                    assert a.tobytes() == b.tobytes()

    def test_entry_numbers_never_repeat_across_generations(self):
        # three generations whose products have the same order-1 inputs but
        # different order-0 ones; had a generation numbered its entries from
        # its own size, the link of the order-1 coefficient would name an
        # entry of the generation before and bring back its coefficient
        with es._shared_coefficients() as memo:
            for x0, y0 in ((1.0, 3.0), (5.0, 6.0), (7.0, 8.0)):
                memo.advance()
                out = EpsSeries([x0, 2.0]) * EpsSeries([y0, 4.0])
                assert out.coeffs == [x0 * y0, x0 * 4.0 + 2.0 * y0]

    def test_a_reused_coefficient_tests_no_zero(self, monkeypatch):
        # the exact-zero tests belong to forming a coefficient: a product
        # and a quotient whose every coefficient is found make none
        s = random_trig_series(np.random.default_rng(7), order=4)
        t = EpsSeries([2.0, 0.0, 1.0, 0.0, 0.5])
        calls = []
        is_zero = es._is_zero
        with es._shared_coefficients():
            first = [s * s, es.div(s, t)]
            monkeypatch.setattr(es, "_is_zero",
                                lambda c: calls.append(c) or is_zero(c))
            again = [s * s, es.div(s, t)]
        assert not calls
        for p, q in zip(first, again, strict=True):
            assert all(x is y for x, y in zip(p.coeffs, q.coeffs, strict=True))

    def test_memo_is_emptied_on_exit(self):
        s = random_trig_series(np.random.default_rng(5), order=4)
        with es._shared_coefficients() as memo:
            s * s
            assert memo.current
        assert not (memo.current or memo.previous) and es._memo.get() is None

    def test_the_scope_is_per_thread(self):
        seen = []
        with es._shared_coefficients():
            worker = threading.Thread(target=lambda: seen.append(es._memo.get()))
            worker.start()
            worker.join()
        assert seen == [None]

    @pytest.mark.parametrize("op", [
        lambda s, t: s * t, lambda s, t: es.div(s, t),
        lambda s, t: es.delayed_state(s, EpsSeries([1.1] + t.coeffs[:-1])),
        lambda s, t: es.exp(t)], ids=["cauchy", "div", "delayed", "analytic"])
    def test_one_walk_per_operation(self, op, monkeypatch):
        # each operation that combines coefficients goes through the memo
        # by exactly one walk, inside the scope and outside it
        s = random_trig_series(np.random.default_rng(8), order=5)
        t = EpsSeries([2.0, 0.5, 0.0, -1.0, 0.25, 0.125])
        walks = []
        walk = es._walk
        monkeypatch.setattr(
            es, "_walk", lambda *args: walks.append(args[0]) or walk(*args))
        op(s, t)
        with es._shared_coefficients():
            op(s, t)
        assert len(walks) == 2 and walks[0] == walks[1]

    @pytest.mark.parametrize("op,kind,own", [
        (es.delayed_state, "delayed", lambda s, t: (s.coeffs, t.coeffs)),
        (lambda s, t: es.exp(t), ("analytic", "exp", None),
         lambda s, t: (t.coeffs,)),
        (lambda s, t: es.powf(t, 0.5),
         ("analytic", "pow", es._DOUBLE.pack(0.5)), lambda s, t: (t.coeffs,))],
        ids=["delayed", "exp", "powf"])
    def test_a_walk_keys_on_its_own_inputs(self, op, kind, own, monkeypatch):
        # the delayed state and the analytic functions walk their inputs'
        # coefficients themselves, under a kind that names the operation
        # (and powf's exponent) alone; they form no series of their own,
        # such as theta - theta0 or s - c0, on the way
        s = random_trig_series(np.random.default_rng(8), order=5, dim=2)
        t = EpsSeries([1.1, 0.5, 0.0, -1.0, 0.25, 0.125])
        walks, ring = [], []
        walk = es._walk
        monkeypatch.setattr(es, "_walk",
                            lambda *a: walks.append(a) or walk(*a))
        for name in ("__add__", "__sub__", "__neg__"):
            method = getattr(EpsSeries, name)
            monkeypatch.setattr(EpsSeries, name, lambda *a, n=name, m=method:
                                ring.append(n) or m(*a))
        op(s, t)
        assert ring == []
        assert len(walks) == 1 and walks[0][0] == kind
        assert all(a is b for a, b in zip(walks[0][1], own(s, t), strict=True))

    def test_the_memo_holds_only_its_generations(self):
        assert es._Generations.__slots__ == ("current", "previous", "numbered")

    def test_the_ladders_live_in_the_entries(self, monkeypatch):
        # the shifted derivatives of Z_k are kept in the entry of
        # coefficient k: a second delayed state of the same series inside
        # the scope shifts nothing, and an exact-zero Z_k is never shifted
        Z = EpsSeries(random_trig_series(np.random.default_rng(9), order=4,
                                         dim=2).coeffs[:4]
                      + [TrigPoly.zero(2)])
        theta = EpsSeries([1.1, 0.3, -0.2, 0.1, 0.05])
        shifted = []
        shift = TrigPoly.shift
        monkeypatch.setattr(TrigPoly, "shift",
                            lambda u, x: shifted.append(u) or shift(u, x))
        ref = es.delayed_state(Z, theta)
        assert all(u is not Z.coeffs[4] for u in shifted)
        outside = len(shifted)
        with es._shared_coefficients():
            first = es.delayed_state(Z, theta)
            assert len(shifted) == 2 * outside
            again = es.delayed_state(Z, theta)
            assert len(shifted) == 2 * outside
        assert_same_bits(first, ref)
        assert_same_bits(again, ref)

    def test_no_key_outside_the_scope(self):
        s = random_trig_series(np.random.default_rng(6), order=3)
        es.div(s * s, EpsSeries([2.0, 1.0, 0.5, 0.0]))
        assert all(c._key is None for c in s.coeffs)


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
    add = eval_at(a + b, tau, eps)
    assert abs(add[0] - (eval_at(a, tau, eps)[0] + eval_at(b, tau, eps)[0])) \
        < 1e-8 * max(1.0, abs(add[0]))


def test_port_list_is_the_public_api():
    # the module docstring's port list names every public member of
    # EpsSeries and every public function of the module, and nothing else
    listed = re.search(r"\* EpsSeries members:(.*?)\n\* functions:(.*?)\n\n",
                       es.__doc__, re.S)
    members, functions = (set(re.findall(r"``([a-z_]+)``", part))
                          for part in listed.groups())
    assert members == {n for n in vars(EpsSeries) if not n.startswith("_")}
    assert functions == {
        n for n, f in vars(es).items() if not n.startswith("_")
        and inspect.isfunction(f) and f.__module__ == es.__name__}
    # unary -, and + - * / with a number on either side
    operators = {"__neg__"} | {f"__{r}{op}__" for op in (
        "add", "sub", "mul", "truediv") for r in ("", "r")}
    assert operators == {n for n, f in vars(EpsSeries).items()
                         if n.startswith("__") and inspect.isfunction(f)
                         } - {"__init__", "__repr__"}


def test_scalar_embeds_into_trig():
    s = EpsSeries([1.0, 2.0, 3.0])
    t = EpsSeries([TrigPoly.zero(1)] * 3)
    out = s + t
    assert out.is_trig
    assert np.allclose([c.const[0] for c in out.coeffs], [1.0, 2.0, 3.0])
    assert all(c.degree == 0 for c in out.coeffs)
