"""Vector-valued trigonometric polynomials on [0, 2*pi].

A :class:`TrigPoly` stores the truncated Fourier series

    u(tau) = a0 + sum_{k=1..K} (a_k cos(k*tau) + b_k sin(k*tau))

with coefficient vectors a_k, b_k in R^dim.  All operations manipulate
coefficients in closed form (product-to-sum identities, angle addition,
term-wise differentiation), so algebraic identities hold to rounding error;
nothing is sampled or transformed numerically.

Products are defined for scalar*scalar and scalar*vector only; the product
degree is exactly the sum of the factor degrees.  Degree growth is trimmed
explicitly via :meth:`TrigPoly.truncate`, never silently.  A number added
or subtracted on either side acts on the constant term, and only a
scalar-valued (dim 1) polynomial accepts it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DimensionMismatchError

# Relative threshold below which trailing harmonics are considered zero.
TRIM_TOL = 1e-13

NUMBER_TYPES = (int, float, np.integer, np.floating)


class TrigPoly:
    """Immutable truncated Fourier series with vector coefficients.

    The coefficient arrays must not be written after construction: the
    complex spectrum used by :func:`mul` and the content key used by the
    series products are built once per instance and cached, and would go
    stale.

    :meth:`eval` gives values at any points; :meth:`sample` gives the same
    floats on the uniform grid of n points, from a read-only cos/sin table
    that the polynomials of one degree share, so a sweep over many
    polynomials does not redo the trigonometric work.

    Parameters
    ----------
    const : array_like, shape (dim,)
        Constant (harmonic 0) coefficient a0.
    cos : array_like, shape (K, dim), optional
        Cosine coefficients a_1..a_K.
    sin : array_like, shape (K, dim), optional
        Sine coefficients b_1..b_K.
    """

    __slots__ = ("const", "cos", "sin", "_spec", "_key")

    def __init__(self, const, cos=None, sin=None):
        const = np.atleast_1d(np.asarray(const, dtype=float))
        if const.ndim != 1:
            raise DimensionMismatchError("const coefficient must be a vector")
        dim = const.shape[0]
        if cos is None:
            cos = np.zeros((0, dim))
        if sin is None:
            sin = np.zeros((0, dim))
        cos = np.asarray(cos, dtype=float).reshape(-1, dim)
        sin = np.asarray(sin, dtype=float).reshape(-1, dim)
        if cos.shape != sin.shape:
            raise DimensionMismatchError(
                f"cos/sin coefficient blocks differ: {cos.shape} vs {sin.shape}")
        self.const = const
        self.cos = cos
        self.sin = sin
        self._spec = None
        self._key = None

    @classmethod
    def _make(cls, const, cos, sin) -> "TrigPoly":
        """Unchecked constructor for arrays already of shape (dim,) and
        (K, dim), as the results of the operations below are."""
        u = object.__new__(cls)
        u.const = const
        u.cos = cos
        u.sin = sin
        u._spec = None
        u._key = None
        return u

    # -- basic structure ---------------------------------------------------

    @property
    def dim(self) -> int:
        return self.const.shape[0]

    @property
    def degree(self) -> int:
        return self.cos.shape[0]

    @classmethod
    def zero(cls, dim: int) -> "TrigPoly":
        return cls._make(np.zeros(dim), np.zeros((0, dim)), np.zeros((0, dim)))

    @classmethod
    def constant(cls, values) -> "TrigPoly":
        return cls(np.atleast_1d(np.asarray(values, dtype=float)))

    @classmethod
    def harmonic(cls, dim: int, k: int, cos_vec=None, sin_vec=None) -> "TrigPoly":
        """A single harmonic: cos_vec*cos(k*tau) + sin_vec*sin(k*tau)."""
        if k == 0:
            return cls.constant(np.zeros(dim) if cos_vec is None else cos_vec)
        cos = np.zeros((k, dim))
        sin = np.zeros((k, dim))
        if cos_vec is not None:
            cos[k - 1] = np.asarray(cos_vec, dtype=float)
        if sin_vec is not None:
            sin[k - 1] = np.asarray(sin_vec, dtype=float)
        return cls(np.zeros(dim), cos, sin)

    def component(self, i: int) -> "TrigPoly":
        """Scalar (dim 1) polynomial holding component ``i``."""
        return TrigPoly._make(self.const[i:i + 1], self.cos[:, i:i + 1],
                              self.sin[:, i:i + 1])

    def padded(self, degree: int) -> "TrigPoly":
        """Same polynomial stored with at least ``degree`` harmonics."""
        K, dim = self.cos.shape
        if degree <= K:
            return self
        cos = np.zeros((degree, dim))
        sin = np.zeros((degree, dim))
        cos[:K] = self.cos
        sin[:K] = self.sin
        return TrigPoly._make(self.const, cos, sin)

    def max_abs(self) -> float:
        """Largest absolute coefficient over all harmonics and components."""
        m = float(np.abs(self.const).max()) if self.const.shape[0] else 0.0
        if self.cos.shape[0]:
            m = max(m, float(np.abs(self.cos).max()), float(np.abs(self.sin).max()))
        return m

    def truncate(self) -> "TrigPoly":
        """Drop trailing harmonics at most TRIM_TOL relative to the largest
        coefficient."""
        scale = self.max_abs()
        if scale == 0.0:
            return TrigPoly.zero(self.dim)
        cut = TRIM_TOL * scale
        keep = self.cos.shape[0]
        while keep > 0 and (np.abs(self.cos[keep - 1]).max() <= cut
                            and np.abs(self.sin[keep - 1]).max() <= cut):
            keep -= 1
        if keep == self.cos.shape[0]:
            return self
        return TrigPoly._make(self.const, self.cos[:keep], self.sin[:keep])

    # -- evaluation and calculus -------------------------------------------

    def eval(self, tau):
        """Value at ``tau``; scalar tau gives shape (dim,), array tau (m, dim).

        A scalar takes a short path with the same operations in the same
        order as a one-point array, so both round alike.  The result is a
        fresh array."""
        if isinstance(tau, NUMBER_TYPES) or np.ndim(tau) == 0:
            if not self.degree:
                return self.const.copy()
            kt = _harmonics(self.degree) * float(tau)
            return self.const + np.cos(kt) @ self.cos + np.sin(kt) @ self.sin
        t = np.atleast_1d(np.asarray(tau, dtype=float))
        out = np.tile(self.const, (t.shape[0], 1))
        if self.degree:
            kt = np.outer(t, _harmonics(self.degree))
            out = out + np.cos(kt) @ self.cos + np.sin(kt) @ self.sin
        return out

    def sample(self, n: int) -> np.ndarray:
        """Values at tau_i = 2*pi*i/n, i = 0..n-1, shape (n, dim): the same
        floats as ``eval(np.linspace(0, 2*pi, n, endpoint=False))``, from a
        cos/sin table shared by the polynomials of this degree (kept for the
        latest degree sampled)."""
        if not self.degree:
            return np.tile(self.const, (n, 1))
        cos, sin = _grid_tables(self.degree)(n)
        return self.const + cos @ self.cos + sin @ self.sin

    def diff(self) -> "TrigPoly":
        """Term-wise derivative d/dtau."""
        k = _harmonics(self.degree)[:, None]
        return TrigPoly._make(np.zeros(self.dim), k * self.sin, -k * self.cos)

    def shift(self, theta: float) -> "TrigPoly":
        """Exact delayed argument: returns u(tau - theta)."""
        k = _harmonics(self.degree)
        c = np.cos(k * theta)[:, None]
        s = np.sin(k * theta)[:, None]
        return TrigPoly._make(self.const, c * self.cos - s * self.sin,
                              s * self.cos + c * self.sin)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        """Sum; of unequal degrees, the shorter is padded with +0.0, so the
        longer one's tail x comes out x + 0.0 (a -0.0 there turns +0.0)."""
        if isinstance(other, TrigPoly):
            if self.const.shape != other.const.shape:
                raise DimensionMismatchError(
                    f"dimension mismatch: {self.dim} vs {other.dim}")
            a, b = self, other
            if a.cos.shape[0] != b.cos.shape[0]:
                deg = max(a.cos.shape[0], b.cos.shape[0])
                a, b = a.padded(deg), b.padded(deg)
            return TrigPoly._make(a.const + b.const, a.cos + b.cos, a.sin + b.sin)
        if not isinstance(other, NUMBER_TYPES):
            return NotImplemented
        if self.const.shape[0] != 1:
            raise DimensionMismatchError(
                f"cannot add a number to a dim-{self.dim} polynomial")
        return TrigPoly._make(self.const + other, self.cos, self.sin)

    def __radd__(self, other):
        """number + polynomial: the package writes the number on the right,
        but a user-written rhs may put it on either side."""
        return self.__add__(other)

    def __sub__(self, other):
        if not isinstance(other, (TrigPoly,) + NUMBER_TYPES):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return TrigPoly._make(-self.const, -self.cos, -self.sin)

    def __mul__(self, other):
        if type(other) is not float:
            if isinstance(other, TrigPoly):
                return mul(self, other)
            if not isinstance(other, NUMBER_TYPES):
                return NotImplemented
        return TrigPoly._make(self.const * other, self.cos * other,
                              self.sin * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-ready mapping {dim, degree, const, cos, sin}."""
        return {
            "dim": self.dim,
            "degree": self.degree,
            "const": self.const.tolist(),
            "cos": self.cos.tolist(),
            "sin": self.sin.tolist(),
        }

    def __repr__(self):
        return f"TrigPoly(dim={self.dim}, degree={self.degree})"

    # -- cached internals: the spectrum (used by mul), the content key --------

    def _content_key(self) -> tuple:
        """(dim, const bytes, cos bytes, sin bytes): equal exactly when the
        polynomials are the same floats, bit for bit; built once and cached."""
        if self._key is None:
            self._key = (self.const.shape[0], self.const.tobytes(),
                         self.cos.tobytes(), self.sin.tobytes())
        return self._key

    def _spectrum(self) -> np.ndarray:
        """Complex coefficients c_k, k = -K..K, shape (2K+1, dim); built once
        and cached."""
        if self._spec is None:
            K, n = self.cos.shape
            c = np.zeros((2 * K + 1, n), dtype=complex)
            c[K] = self.const
            c[K + 1:] = 0.5 * (self.cos - 1j * self.sin)
            c[:K][::-1] = 0.5 * (self.cos + 1j * self.sin)
            self._spec = c
        return self._spec

    @classmethod
    def _from_spectrum(cls, c: np.ndarray) -> "TrigPoly":
        K = (c.shape[0] - 1) // 2
        pos, neg = c[K + 1:], c[:K][::-1]
        return cls._make(c[K].real.copy(), (pos + neg).real.copy(),
                         (neg - pos).imag.copy())


@functools.lru_cache(maxsize=None)
def _harmonics(degree: int) -> np.ndarray:
    """The harmonic numbers 1..degree as floats, read-only, made once per
    degree."""
    k = np.arange(1.0, degree + 1)
    k.flags.writeable = False
    return k


def _grid_table(n: int, degree: int):
    """cos(k*tau_i) and sin(k*tau_i), shape (n, degree), on the grid of
    ``TrigPoly.sample``, read-only."""
    taus = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    kt = np.outer(taus, _harmonics(degree))
    cos, sin = np.cos(kt), np.sin(kt)
    cos.flags.writeable = sin.flags.writeable = False
    return cos, sin


@functools.lru_cache(maxsize=1)
def _grid_tables(degree: int):
    """``n -> _grid_table(n, degree)``, keeping the tables of the two latest
    grids: a diagram sweep samples every orbit on two.  Only the latest
    degree is kept, so its tables are freed before those of a new degree
    are built; the profile degree of a sweep rises a few times (from 8 to
    15 over the sir order-14 one), and holding the old tables while the new
    ones were built cost 1.5-1.8% more peak memory on that sweep."""
    return functools.lru_cache(maxsize=2)(lambda n: _grid_table(n, degree))


def mul(u: TrigPoly, v: TrigPoly) -> TrigPoly:
    """Exact product via product-to-sum identities.

    One factor must be scalar (dim 1); a scalar*vector product scales the
    vector component-wise.  The result degree is deg(u) + deg(v).
    """
    if u.const.shape[0] != 1:
        if v.const.shape[0] != 1:
            raise DimensionMismatchError(
                "products are defined for scalar*scalar or scalar*vector only")
        u, v = v, u
    su = u._spectrum()[:, 0]
    sv = v._spectrum()
    n = sv.shape[1]
    out = np.empty((su.shape[0] + sv.shape[0] - 1, n), dtype=complex)
    for i in range(n):
        out[:, i] = np.convolve(su, sv[:, i])
    return TrigPoly._from_spectrum(out)


def inner(u: TrigPoly, v: TrigPoly) -> float:
    """Closed-form L2 pairing integral(0, 2*pi) <u(tau), v(tau)> dtau."""
    if u.dim != v.dim:
        raise DimensionMismatchError(f"dimension mismatch: {u.dim} vs {v.dim}")
    deg = max(u.degree, v.degree)
    a, b = u.padded(deg), v.padded(deg)
    total = 2.0 * np.pi * float(a.const @ b.const)
    if deg:
        total += np.pi * float(np.sum(a.cos * b.cos) + np.sum(a.sin * b.sin))
    return total


def matvec(mat, u: TrigPoly) -> TrigPoly:
    """Apply a constant matrix to a vector polynomial: (M u)(tau) = M u(tau)."""
    mat = np.asarray(mat, dtype=float)
    if mat.shape[1] != u.dim:
        raise DimensionMismatchError(
            f"matrix columns {mat.shape[1]} do not match dim {u.dim}")
    return TrigPoly(u.const @ mat.T, u.cos @ mat.T, u.sin @ mat.T)


def stack(components) -> TrigPoly:
    """Assemble a vector polynomial from scalar (dim 1) components."""
    comps = list(components)
    deg = max(c.degree for c in comps)
    comps = [c.padded(deg) for c in comps]
    for c in comps:
        if c.dim != 1:
            raise DimensionMismatchError("stack expects scalar components")
    return TrigPoly(
        np.concatenate([c.const for c in comps]),
        np.hstack([c.cos for c in comps]),
        np.hstack([c.sin for c in comps]),
    )
