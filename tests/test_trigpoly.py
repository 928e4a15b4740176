import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddehopf import trigpoly as tp
from ddehopf.epsseries import EpsSeries
from ddehopf.errors import DimensionMismatchError
from ddehopf.trigpoly import TrigPoly
from series_oracles import eval_batch


def random_poly(rng, dim=1, degree=3, scale=1.0):
    return TrigPoly(scale * rng.standard_normal(dim),
                    scale * rng.standard_normal((degree, dim)),
                    scale * rng.standard_normal((degree, dim)))


coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False,
                  allow_infinity=False)


@st.composite
def polys(draw, dim=None, max_degree=4):
    n = dim if dim is not None else draw(st.integers(1, 3))
    k = draw(st.integers(0, max_degree))
    const = draw(st.lists(coeff, min_size=n, max_size=n))
    cos = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(k)]
    sin = [draw(st.lists(coeff, min_size=n, max_size=n)) for _ in range(k)]
    return TrigPoly(const, np.array(cos).reshape(k, n),
                    np.array(sin).reshape(k, n))


COS = TrigPoly.harmonic(1, 1, cos_vec=[1.0])
SIN = TrigPoly.harmonic(1, 1, sin_vec=[1.0])


class TestLinearCombination:
    def test_additive_inverse(self, rng):
        u = random_poly(rng, dim=2, degree=4)
        z = 1.0 * u + -1.0 * u
        assert z.max_abs() == 0.0

    def test_scaling(self):
        v = 2.0 * COS
        assert v.cos[0, 0] == 2.0
        assert v.sin[0, 0] == 0.0

    def test_identity_split(self, rng):
        u = random_poly(rng, dim=3, degree=2)
        v = 0.5 * u + 0.5 * u
        assert np.allclose(v.eval(0.37), u.eval(0.37), atol=1e-15)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            COS + TrigPoly.zero(2)

    def test_unequal_degrees_add_as_padded(self):
        # the shorter is padded with +0.0, so -0.0 in the longer one's tail
        # comes out +0.0, while -0.0 + -0.0 in the head stays -0.0
        long = TrigPoly([-0.0], [[-0.0], [-0.0], [1.5]], [[2.0], [-0.0], [-0.0]])
        short = TrigPoly([-0.0], [[-0.0]], [[0.5]])
        for u, v in ((long, short), (short, long)):
            got = u + v
            a, b = u.padded(3), v.padded(3)
            for x, y in ((got.const, a.const + b.const),
                         (got.cos, a.cos + b.cos), (got.sin, a.sin + b.sin)):
                assert x.shape == y.shape and x.tobytes() == y.tobytes()
            assert np.signbit(got.const[0]) and np.signbit(got.cos[0, 0])
            assert not np.signbit(got.cos[1:]).any()
            assert not np.signbit(got.sin[1:]).any()


class TestNumbers:
    def test_number_acts_on_the_constant_term(self, rng):
        u = random_poly(rng, degree=2)
        for v, w, const in ((u + 2.5, u, u.const + 2.5),
                            (2.5 + u, u, 2.5 + u.const),
                            (u - 2.5, u, u.const - 2.5),
                            (2.5 - u, -u, 2.5 - u.const)):
            assert np.array_equal(v.const, const)
            assert np.array_equal(v.cos, w.cos)
            assert np.array_equal(v.sin, w.sin)

    def test_any_number_scales_as_its_float(self, rng):
        # an int or a numpy scalar multiplies, from either side, as the
        # float of the same value
        u = random_poly(rng, dim=2, degree=3)
        for v, w in ((2 * u, u * 2.0), (u * np.float32(0.5), u * 0.5),
                     (np.int64(-3) * u, u * -3.0)):
            for x, y in ((v.const, w.const), (v.cos, w.cos), (v.sin, w.sin)):
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes()

    def test_number_plus_vector_raises(self):
        u = TrigPoly.harmonic(2, 1, cos_vec=[1.0, 2.0])
        for op in (lambda: 1.0 + u, lambda: u + 1.0, lambda: u - 1.0,
                   lambda: 1.0 - u, lambda: np.float64(1.0) + u):
            with pytest.raises(DimensionMismatchError):
                op()


class TestMul:
    def test_cos_squared(self):
        p = tp.mul(COS, COS)
        assert p.degree == 2
        assert np.allclose(p.const, [0.5])
        assert np.allclose(p.cos, [[0.0], [0.5]])
        assert np.allclose(p.sin, 0.0)

    def test_sin_cos(self):
        p = tp.mul(SIN, COS)
        assert np.allclose(p.const, 0.0)
        assert np.allclose(p.cos, 0.0)
        assert np.allclose(p.sin, [[0.0], [0.5]])

    def test_pointwise_oracle(self, rng):
        u = random_poly(rng, degree=2)
        v = random_poly(rng, degree=3)
        p = tp.mul(u, v)
        assert p.degree == 5
        taus = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
        direct = u.eval(taus)[:, 0] * v.eval(taus)[:, 0]
        assert np.max(np.abs(p.eval(taus)[:, 0] - direct)) < 1e-12

    def test_vector_vector_rejected(self):
        u = TrigPoly.harmonic(2, 1)
        with pytest.raises(DimensionMismatchError):
            tp.mul(u, u)

    def test_scalar_vector_componentwise(self, rng):
        s = random_poly(rng, dim=1, degree=2)
        v = random_poly(rng, dim=3, degree=2)
        p = tp.mul(s, v)
        taus = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)
        expected = s.eval(taus) * v.eval(taus)
        assert np.max(np.abs(p.eval(taus) - expected)) < 1e-12


class TestDiff:
    def test_cos_to_minus_sin(self):
        d = COS.diff()
        assert np.allclose(d.sin, [[-1.0]])
        assert np.allclose(d.cos, 0.0)

    def test_constant(self):
        assert TrigPoly.constant([3.0, -1.0]).diff().max_abs() == 0.0

    def test_finite_difference_oracle(self, rng):
        u = random_poly(rng, dim=2, degree=4)
        d = u.diff()
        h = 1e-6
        for tau in (0.1, 1.3, 4.0):
            fd = (u.eval(tau + h) - u.eval(tau - h)) / (2 * h)
            assert np.max(np.abs(d.eval(tau) - fd)) < 1e-8


class TestShift:
    def test_quarter_period(self):
        s = COS.shift(np.pi / 2)
        assert abs(s.cos[0, 0]) < 1e-16
        assert abs(s.sin[0, 0] - 1.0) < 1e-15

    def test_zero_shift(self, rng):
        u = random_poly(rng, dim=2, degree=3)
        s = u.shift(0.0)
        assert np.allclose(s.cos, u.cos) and np.allclose(s.sin, u.sin)

    def test_evaluation_oracle(self, rng):
        u = random_poly(rng, dim=2, degree=4)
        for _ in range(64):
            tau, theta = rng.uniform(-5, 5, size=2)
            assert np.max(np.abs(u.shift(theta).eval(tau)
                                 - u.eval(tau - theta))) < 1e-12


class TestInner:
    def test_orthogonality(self):
        assert tp.inner(COS, SIN) == 0.0

    def test_cos_norm(self):
        assert abs(tp.inner(COS, COS) - np.pi) < 1e-15

    def test_quadrature_oracle(self, rng):
        u = random_poly(rng, dim=2, degree=3)
        v = random_poly(rng, dim=2, degree=4)
        taus = np.linspace(0.0, 2 * np.pi, 2048, endpoint=False)
        quad = np.sum(u.eval(taus) * v.eval(taus)) * (2 * np.pi / 2048)
        assert abs(tp.inner(u, v) - quad) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            tp.inner(COS, TrigPoly.zero(2))


class TestEval:
    def test_cos_at_zero(self):
        assert COS.eval(0.0)[0] == 1.0

    def test_zero_poly(self):
        assert np.all(TrigPoly.harmonic(3, 2).eval(1.7) == 0.0)

    def test_linearity(self, rng):
        u = random_poly(rng, dim=2, degree=3)
        v = random_poly(rng, dim=2, degree=1)
        tau = 0.83
        assert np.allclose((u + v).eval(tau), u.eval(tau) + v.eval(tau),
                           atol=1e-14)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_scalar_path_rounds_like_the_batch_formula(self, rng, dim):
        """A number, a numpy float and a 0-d array all give the one-point
        batch value byte for byte, shape (dim,); so does a component, whose
        coefficients are strided views."""
        taus = [0.0, 2.0 * np.pi, -0.7, -13.1, 7.9, 40.2, 1e-9]
        taus += list(rng.uniform(-20.0, 20.0, 40))
        for degree in (0, 1, 2, 7, 15, 20):
            u = random_poly(rng, dim=dim, degree=degree)
            for p in (u, u.component(dim - 1)):
                for tau in taus:
                    want = eval_batch(p, tau)[0].tobytes()
                    for form in (float(tau), np.float64(tau), np.array(tau)):
                        got = p.eval(form)
                        assert got.shape == (p.dim,)
                        assert got.tobytes() == want

    @pytest.mark.parametrize("degree", [0, 4])
    def test_scalar_result_is_a_fresh_array(self, rng, degree):
        u = random_poly(rng, dim=2, degree=degree)
        before = u.eval(0.3).copy()
        u.eval(0.3)[:] = 99.0
        assert u.eval(0.3).tobytes() == before.tobytes()
        assert not np.any(u.const == 99.0)

    def test_array_path_is_the_batch_formula(self, rng):
        u = random_poly(rng, dim=3, degree=9)
        taus = rng.uniform(-10.0, 10.0, 33)
        assert u.eval(taus).tobytes() == eval_batch(u, taus).tobytes()


class TestSample:
    @pytest.mark.parametrize("n", [256, 512, 1024, 2048])
    def test_equals_eval_on_the_grid(self, rng, n):
        taus = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
        for dim in (1, 2, 3):
            for degree in range(21):
                u = random_poly(rng, dim=dim, degree=degree)
                for p in (u, u.component(dim - 1)):
                    got = p.sample(n)
                    assert got.shape == (n, p.dim)
                    assert got.tobytes() == p.eval(taus).tobytes()

    def test_tables_are_read_only(self, rng):
        random_poly(rng, dim=2, degree=6).sample(512)
        cos, sin = tp._grid_tables(6)(512)
        assert not cos.flags.writeable and not sin.flags.writeable
        with pytest.raises(ValueError):
            cos[0, 0] = 2.0

    @pytest.mark.parametrize("degree", [0, 6])
    def test_writing_a_result_leaves_the_next_one(self, rng, degree):
        u = random_poly(rng, dim=2, degree=degree)
        first = u.sample(512)
        want = first.tobytes()
        first[:] = 99.0
        assert u.sample(512).tobytes() == want


@settings(max_examples=60, deadline=None)
@given(polys(dim=1), polys(dim=1))
def test_product_degree_exact(u, v):
    p = tp.mul(u, v)
    assert p.degree == u.degree + v.degree
    # no spurious content above the bound once trimmed at the tolerance
    trimmed = p.truncate()
    assert trimmed.degree <= u.degree + v.degree


@settings(max_examples=60, deadline=None)
@given(polys(), st.floats(-6, 6), st.floats(-6, 6))
def test_shift_composition(u, t1, t2):
    a = u.shift(t1).shift(t2)
    b = u.shift(t1 + t2)
    scale = max(1.0, u.max_abs())
    assert (a - b).max_abs() < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(polys(), st.floats(-6, 6))
def test_diff_shift_commute(u, theta):
    a = u.shift(theta).diff()
    b = u.diff().shift(theta)
    scale = max(1.0, u.max_abs()) * max(1, u.degree)
    assert (a - b).max_abs() < 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(polys(dim=2), polys(dim=2), polys(dim=2), st.floats(-3, 3))
def test_inner_symmetric_bilinear_psd(u, v, w, c):
    assert abs(tp.inner(u, v) - tp.inner(v, u)) < 1e-9
    lhs = tp.inner(u + c * v, w)
    rhs = tp.inner(u, w) + c * tp.inner(v, w)
    scale = max(1.0, abs(lhs), abs(rhs))
    assert abs(lhs - rhs) < 1e-9 * scale
    assert tp.inner(u, u) >= 0.0


def test_truncate_threshold(rng):
    u = random_poly(rng, dim=1, degree=2)
    padded = u.padded(6)
    cos = padded.cos.copy()
    cos[5, 0] = 1e-15 * u.max_abs()
    noisy = TrigPoly(padded.const, cos, padded.sin)
    assert noisy.truncate().degree <= 2
    cos = padded.cos.copy()
    cos[5, 0] = 1e-3 * u.max_abs()
    kept = TrigPoly(padded.const, cos, padded.sin)
    assert kept.truncate().degree == 6


def test_cached_spectrum_matches_a_fresh_build(rng):
    # the spectrum is cached per instance, so no constructor or operation may
    # write a polynomial's arrays once it is built
    u = random_poly(rng, dim=1, degree=3)
    v = random_poly(rng, dim=2, degree=2)
    polys = [
        TrigPoly.harmonic(2, 3, cos_vec=[1.0, -2.0], sin_vec=[0.5, 3.0]),
        TrigPoly.harmonic(1, 2, sin_vec=[4.0]),
        TrigPoly.harmonic(2, 3),
        TrigPoly.constant([1.5, -2.0]),
        v.padded(5).truncate(),
        v.shift(0.7),
        v.diff(),
        tp.mul(u, v),
    ]
    for w in polys:
        tp.mul(u, w)  # builds and uses the cached spectrum
        fresh = TrigPoly(w.const.copy(), w.cos.copy(), w.sin.copy())
        assert np.array_equal(w._spectrum(), fresh._spectrum())


def test_json_roundtrip(rng):
    u = random_poly(rng, dim=2, degree=3)
    data = json.loads(json.dumps(u.to_dict()))
    assert set(data) == {"dim", "degree", "const", "cos", "sin"}
    assert (data["dim"], data["degree"]) == (2, 3)
    assert np.array_equal(data["const"], u.const)
    assert np.array_equal(data["cos"], u.cos)
    assert np.array_equal(data["sin"], u.sin)


def test_matvec_and_stack(rng):
    u = random_poly(rng, dim=3, degree=2)
    mat = rng.standard_normal((2, 3))
    taus = np.linspace(0, 2 * np.pi, 16)
    assert np.allclose(tp.matvec(mat, u).eval(taus), u.eval(taus) @ mat.T,
                       atol=1e-14)
    rebuilt = tp.stack([u.component(i) for i in range(3)])
    assert (rebuilt - u).max_abs() == 0.0


def test_harmonic_zero_is_a_constant():
    assert TrigPoly.harmonic(2, 0, cos_vec=[1.0, -2.0]).to_dict() \
        == TrigPoly.constant([1.0, -2.0]).to_dict()
    assert TrigPoly.harmonic(2, 0).to_dict() == TrigPoly.zero(2).to_dict()


@pytest.mark.parametrize("call, match", [
    (lambda: TrigPoly([[1.0]]), "const coefficient must be a vector"),
    (lambda: TrigPoly([0.0], [[1.0]], [[1.0], [2.0]]), "blocks differ"),
    (lambda: tp.matvec(np.eye(3), TrigPoly.zero(2)), "matrix columns 3"),
    (lambda: tp.stack([TrigPoly.zero(2)]), "stack expects scalar"),
], ids=["const", "cos_sin", "matvec", "stack"])
def test_shape_refusals(call, match):
    with pytest.raises(DimensionMismatchError, match=match):
        call()


@pytest.mark.parametrize("op,other", [
    (lambda u, x: u + x, object()), (lambda u, x: u - x, object()),
    (lambda u, x: u * x, EpsSeries.constant(1.0, 2)),
    (lambda u, x: x * u, EpsSeries.constant(1.0, 2))],
    ids=["add", "sub", "mul-series", "series-mul"])
def test_unsupported_operand(op, other):
    # a polynomial enters a series only as one of its coefficients
    with pytest.raises(TypeError):
        op(TrigPoly.zero(1), other)
