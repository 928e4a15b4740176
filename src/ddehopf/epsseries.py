"""Truncated power series in the expansion parameter with scalar or
trigonometric-polynomial coefficients.

An :class:`EpsSeries` is the ring element

    s(eps) = sum_{j=0..N} c_j eps^j        (truncated at order N, inclusive)

where every c_j is either a float (scalar series) or a :class:`TrigPoly`
(trig series, all coefficients sharing one dim).  Model right-hand sides
are written against ordinary arithmetic (+, -, *, / with a number on either
side, and exp, log, sin, cos, powf) and evaluated directly over this ring,
which extracts order-by-order coefficients without any symbolic algebra.

Port list.  These are all the operations of the ring, and each one is used,
by the package or by user-written right-hand sides; a replacement of
EpsSeries must provide exactly these (a test keeps this list equal to the
module's public names):

* EpsSeries members: ``coeffs``, ``order``, ``is_trig``, ``dim``,
  ``constant`` (a number as a scalar series), ``component``, unary ``-``,
  and the binary ``+``, ``-``, ``*`` and ``/``, each with a number on
  either side;
* functions: ``div``, ``analytic``, ``exp``, ``log``, ``sin``, ``cos``,
  ``powf``, ``delayed_state``.

Numbers promote to constant series, and the series operations combine
coefficients with plain ``+``, ``-`` and ``*``, so :class:`TrigPoly` holds
the one rule for a number meeting a polynomial: added or subtracted, it acts
on the constant term of a scalar-valued (dim 1) polynomial, and anything
else raises.  All operations require equal truncation orders.

A coefficient is computed only where it reaches the result.  A series h
with v leading exact-zero coefficients raises the order of whatever it
multiplies by v, so in sum_m w_m h^m (the analytic functions) and in the
delayed-state sum the m-th term needs its factors only up to order N - m*v;
the products and derivatives above that order are not formed.  This is
exact, not an approximation: the dropped coefficients would only ever meet
those leading exact zeros, and every coefficient still formed is the same
sum in the same order, so results are bit for bit those of the full
computation (Horner's rule from the zero polynomial, and for each
coefficient of the delayed state the sum of the terms that reach it).  The
same holds across a caller's series: a series that reaches the result only
multiplied by eps is needed one order below it, and the expansion forms the
delay shift and the delayed state at that order (see
``expansion.order_coefficient``).

Across the orders of the expansion a coefficient is also formed only once.
The order-j rhs is probed three times, and the probes differ only in the
series' coefficients j and j+1; and their inputs agree with those of the
order-(j-1) probes below coefficient j-1, so most coefficients repeat ones
formed at the order before.  ``expansion.expand`` is the one caller that
opens ``_shared_coefficients()``, around its order loop, and it starts a
new generation of the memo at the top of each order (``advance``).  The
memo has one door, ``_walk``: each of the four operations that combine
coefficients, products, quotients, ``delayed_state`` and ``analytic``, is
one walk over its inputs' coefficients, and entry j of the walk holds all
that the operation keeps for coefficient j.  Inside the scope the walk
stores the entry it forms for j under the content of the inputs'
coefficients j and a link to entry j-1, and reuses it when the same content
comes again; outside it (``assemble_rhs`` called on its own, say) the same
recurrences form every entry, nothing is shared and no key is formed.  An
entry is:

* for a product or quotient, the coefficient itself;
* for the delayed state, the coefficient, its column of powers
  [(-dtheta)^m]_j and the ladder of shifted derivatives
  shift(d^m Z_j, theta0), grown in place as later coefficients need more
  rungs (an exact-zero Z_j has none, and meets no product);
* for an analytic function, its column of Horner partial sums, extended in
  place as later orders need more of them.

What an entry depends on.  Entry j depends only on the inputs'
coefficients 0..j: the same terms summed in the same order, the same
exact-zero skips and the same trim, whatever the truncation order N.  So a
reused entry is what the same operations would form again, bit for bit.
This holds for the delayed state and the analytic functions because each
expands about its input's own leading term (the leading shift theta0, or
the leading term c0, which must be an exact constant: a float, or a
polynomial of degree 0), so dtheta = theta - theta0 and h = s - c0 have
v >= 1 leading exact zeros; coefficient j then sums only the terms that
reach it, m = 0..j/v, and Horner's partial sums all start from the zero
polynomial, A_N = 0 + w_N being formed like every lower sum.  Neither
dtheta nor h is formed as a series: above order 0 their coefficients are
-theta_j and s_j, which the walks read from their inputs, and the walk's
key of coefficient 0 holds theta0 or c0.  So every key is the content of
the operation's own inputs, and the kind at j = 0 names only the operation
(with the exponent of ``powf``, the one parameter that is not an input
series).

The keys are exact content, never a digest: a float's 8 bytes (so 0.0 and
-0.0 differ), a direction array's shape and bytes, a polynomial's dim and
array bytes; and the key of coefficient j chains to that of j-1 by the
number of its entry, so each key is constant in size.  Only two
generations are kept, the current order's and the previous one's: the walk
looks coefficient j up in the current generation, then in the previous
one, carries a previous hit into the current generation, and forms,
numbers and stores only a miss.  Entry numbers come from a running count
and never repeat (see ``_Generations``).  The exact-zero tests that skip
products belong to forming a coefficient, so a found coefficient costs
none.  The memo is emptied when the scope exits, also on error.

A scalar series may also carry a 1-D float array as a coefficient above
order 0, one entry per direction: a first-order series [x, e] with e a row
of the identity is a probe whose order-1 coefficient is the derivative
along every direction at once (vector forward mode), so one rhs call gives
a whole Jacobian.  Such an array counts as an exact zero only when every
entry is zero.  Entry by entry it runs the same operations as the scalar
series of that one direction, except that a product the scalar path skips,
because its factor in that direction is an exact zero, is here formed as an
exact 0*x term; adding that term leaves every nonzero sum as it is, so at
most the sign of an exact-zero entry could differ (a negative number times
a zero direction gives -0.0 where the scalar path keeps 0.0).  The
Jacobians of the built-in models come out bit for bit those of one call
per direction.
"""

from __future__ import annotations

import math
import struct
from contextlib import contextmanager
from contextvars import ContextVar

import numpy as np

from .errors import DimensionMismatchError
from .trigpoly import NUMBER_TYPES, TrigPoly


class EpsSeries:
    """Immutable truncated power series; see module docstring."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = list(coeffs)
        if not coeffs:
            raise DimensionMismatchError("a series needs at least the order-0 term")
        dims = {c.dim for c in coeffs if isinstance(c, TrigPoly)}
        if isinstance(coeffs[0], np.ndarray) or dims and any(
                isinstance(c, np.ndarray) for c in coeffs):
            raise DimensionMismatchError(
                "direction arrays belong in a scalar series above order 0")
        if dims:
            if len(dims) != 1:
                raise DimensionMismatchError("trig coefficients must share dim")
            dim = dims.pop()
            norm = []
            for c in coeffs:
                if isinstance(c, TrigPoly):
                    norm.append(c)
                elif dim == 1:
                    norm.append(TrigPoly.constant([float(c)]))
                else:
                    raise DimensionMismatchError(
                        "cannot mix scalars into a vector-valued series")
            coeffs = norm
        else:
            coeffs = [c if isinstance(c, np.ndarray) else float(c)
                      for c in coeffs]
        self.coeffs = coeffs

    @classmethod
    def _make(cls, coeffs: list) -> "EpsSeries":
        """Unchecked constructor for a nonempty list of floats (direction
        arrays above order 0), or of polynomials sharing one dim, as the
        results of the operations below are."""
        s = object.__new__(cls)
        s.coeffs = coeffs
        return s

    # -- structure -----------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_trig(self) -> bool:
        return isinstance(self.coeffs[0], TrigPoly)

    @property
    def dim(self) -> int:
        return self.coeffs[0].dim if self.is_trig else 1

    @classmethod
    def constant(cls, value, order: int) -> "EpsSeries":
        """The number ``value`` as a scalar series of order ``order``."""
        return cls._make([float(value)] + [0.0] * order)

    def component(self, i: int) -> "EpsSeries":
        """Component series of a vector-valued trig series."""
        if not self.is_trig:
            raise DimensionMismatchError("component() requires a trig series")
        return EpsSeries._make([c.component(i) for c in self.coeffs])

    # -- ring operations ---------------------------------------------------------

    def _promote_pair(self, other):
        """Promote a number to a constant series; check equal orders."""
        if type(other) is not EpsSeries:
            if isinstance(other, NUMBER_TYPES):
                other = EpsSeries.constant(float(other), self.order)
            elif not isinstance(other, EpsSeries):
                return None, None
        if len(other.coeffs) != len(self.coeffs):
            raise DimensionMismatchError(
                f"order mismatch: {self.order} vs {other.order}")
        return self, other

    def __add__(self, other):
        a, b = self._promote_pair(other)
        if a is None:
            return NotImplemented
        return EpsSeries._make([x + y for x, y in zip(a.coeffs, b.coeffs)])

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return EpsSeries._make([-c for c in self.coeffs])

    def __sub__(self, other):
        a, b = self._promote_pair(other)
        if a is None:
            return NotImplemented
        return a + (-b)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        a, b = self._promote_pair(other)
        if a is None:
            return NotImplemented
        return _cauchy(a, b)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __truediv__(self, other):
        if isinstance(other, NUMBER_TYPES):
            return self * (1.0 / float(other))
        if not isinstance(other, EpsSeries):
            return NotImplemented
        return div(self, other)

    def __rtruediv__(self, other):
        if isinstance(other, NUMBER_TYPES):
            return div(EpsSeries.constant(float(other), self.order), self)
        return NotImplemented

    def __repr__(self):
        kind = f"trig dim={self.dim}" if self.is_trig else "scalar"
        return f"EpsSeries(order={self.order}, {kind})"


def _is_zero(c) -> bool:
    """Exact zero coefficient: 0.0, a direction array of zeros, or a
    degree-0 polynomial whose constant is all zeros.  Products with it are
    skipped: adding an exact zero leaves a finite sum as it is (up to the
    sign of a zero result)."""
    if type(c) is float:
        return c == 0.0
    if isinstance(c, TrigPoly):
        return not c.cos.shape[0] and not c.const.any()
    if isinstance(c, np.ndarray):
        return not c.any()
    return c == 0.0


# -- coefficients shared across consecutive orders ------------------------------

# The memo of the open _shared_coefficients() scope; None outside it, and in
# every other thread.
_memo = ContextVar("ddehopf_shared_coefficients", default=None)

_DOUBLE = struct.Struct("d")


class _Generations:
    """The memo of one scope, in two generations: the entries formed or
    reused by the current order and those of the order before.  Each maps
    (link, keys of the inputs' coefficients j) -> (number of this entry, the
    entry formed for j), where a link names the inputs' coefficients
    0..j-1: the kind of operation at j = 0, later the number of the entry
    j-1.  Entries are numbered by a running count, never by the size of a
    generation, so no number names two entries and a link cannot match an
    entry of another input.  Only ``_walk`` reads or writes them."""

    __slots__ = ("current", "previous", "numbered")

    def __init__(self):
        self.current = {}
        self.previous = {}
        self.numbered = 0

    def advance(self):
        """Start a new generation; the one before the current is dropped."""
        self.previous = self.current
        self.current = {}


@contextmanager
def _shared_coefficients():
    """Within this block, the series operations reuse the entries they
    formed before from the same input content (see the module docstring).
    Each block opens a fresh memo, whose caller starts every further
    generation with ``advance()``, and empties it on exit, also when the
    block raises."""
    memo = _Generations()
    token = _memo.set(memo)
    try:
        yield memo
    finally:
        _memo.reset(token)
        memo.current.clear()
        memo.previous.clear()


def _coef_key(c):
    """Exact content of a coefficient (a polynomial, a direction array or a
    float) as a key."""
    if type(c) is float:
        return _DOUBLE.pack(c)
    if isinstance(c, TrigPoly):
        return c._content_key()
    if isinstance(c, np.ndarray):
        return (c.shape, c.tobytes())
    return _DOUBLE.pack(c)


def _walk(kind, inputs, form) -> list:
    """Entries 0..n of an operation on the coefficient lists ``inputs`` (all
    of order n), where ``form(j, out)`` forms entry j from the ones before
    it in ``out``.  Inside ``_shared_coefficients()`` entry j is looked up
    in the current generation, then in the previous one, whose hit is
    carried into the current one; only a miss is formed, numbered and
    stored."""
    memo = _memo.get()
    out = []
    if memo is None:
        for j in range(len(inputs[0])):
            out.append(form(j, out))
        return out
    link = kind
    for j, coefs in enumerate(zip(*inputs)):
        key = (link, *map(_coef_key, coefs))
        hit = memo.current.get(key)
        if hit is None:
            hit = memo.previous.get(key)
            if hit is None:
                hit = (memo.numbered, form(j, out))
                memo.numbered += 1
            memo.current[key] = hit
        link, value = hit
        out.append(value)
    return out


def _dot(pairs, zero):
    """Sum of the products x*y of ``pairs``, left to right, skipping every
    pair with an exact-zero factor; trimmed (``TrigPoly.truncate``) if a
    polynomial, ``zero`` if every pair is skipped."""
    acc = None
    for x, y in pairs:
        if not _is_zero(x) and not _is_zero(y):
            term = x * y
            acc = term if acc is None else acc + term
    if acc is None:
        return zero
    return acc.truncate() if isinstance(acc, TrigPoly) else acc


def _cauchy(a: EpsSeries, b: EpsSeries) -> EpsSeries:
    """Truncated product a*b."""
    x, y = a.coeffs, b.coeffs
    if type(x[0]) is float and type(y[0]) is float:
        zero = 0.0
    elif a.dim != 1 and b.dim != 1:
        raise DimensionMismatchError(
            "series products need a scalar-valued factor")
    else:
        zero = TrigPoly.zero(max(a.dim, b.dim)) if a.is_trig or b.is_trig else 0.0
    return EpsSeries._make(_walk(
        "cauchy", (x, y),
        lambda j, out: _dot(zip(x[:j + 1], y[j::-1]), zero)))


def _leading_zeros(coeffs) -> int:
    """Number of leading exact-zero coefficients in the list ``coeffs``."""
    v = 0
    for c in coeffs:
        if not _is_zero(c):
            break
        v += 1
    return v


def _leading_scalar(s: EpsSeries) -> float:
    """Order-0 coefficient as a plain number; error unless it is an exact
    constant, a float or a scalar-valued polynomial of degree 0 (a harmonic
    however small is not dropped)."""
    c0 = s.coeffs[0]
    if isinstance(c0, TrigPoly):
        if c0.dim != 1 or c0.degree != 0:
            raise DimensionMismatchError("leading coefficient must be a "
                                         "scalar-valued constant (degree 0)")
        return float(c0.const[0])
    return float(c0)


def div(s: EpsSeries, t: EpsSeries) -> EpsSeries:
    """Series quotient s/t by back-substitution, truncated at the common order.

    The divisor's order-0 coefficient must be a nonzero constant.
    """
    if s.order != t.order:
        raise DimensionMismatchError(f"order mismatch: {s.order} vs {t.order}")
    t0 = _leading_scalar(t)
    if t0 == 0.0:
        raise ZeroDivisionError("series division by a series with zero leading term")
    x, y = s.coeffs, t.coeffs

    def form(j, q):
        acc = x[j]
        for k in range(1, j + 1):
            if not _is_zero(y[k]) and not _is_zero(q[j - k]):
                acc = acc - y[k] * q[j - k]
        acc = acc * (1.0 / t0)
        return acc.truncate() if isinstance(acc, TrigPoly) else acc

    return EpsSeries(_walk("div", (x, y), form))


# -- analytic functions of a series ------------------------------------------------


# The derivatives f^(m)(c0), m = 0, 1, ..., repeat with these periods.
_CYCLES = {
    "exp": lambda c: (math.exp(c),),
    "sin": lambda c: (math.sin(c), math.cos(c), -math.sin(c), -math.cos(c)),
    "cos": lambda c: (math.cos(c), -math.sin(c), -math.cos(c), math.sin(c)),
}


def _taylor_weights(fid: str, c0: float, n: int, exponent=None):
    """f^(m)(c0)/m! for m = 0..n for the supported analytic functions.

    A leading term outside the real domain of f, or weights beyond the
    float range, raise ValueError.
    """
    if not math.isfinite(c0):
        raise ValueError(f"{fid} of a series with non-finite leading term")
    w = np.empty(n + 1)
    try:
        if fid in _CYCLES:
            cycle = _CYCLES[fid](c0)
            fact = 1.0
            for m in range(n + 1):
                w[m] = cycle[m % len(cycle)] / fact
                fact *= (m + 1)
        elif fid == "log":
            if c0 <= 0.0:
                raise ValueError("log of a series with non-positive leading term")
            # (-1)^(m-1) / (m c0^m) from powers of 1/c0, which stay finite
            # wherever the weights do
            w[0] = math.log(c0)
            r = 1.0 / c0
            power = -1.0
            for m in range(1, n + 1):
                power *= -r
                w[m] = power / m
        elif fid == "pow":
            if exponent is None:
                raise ValueError("pow requires an exponent")
            p = float(exponent)
            if c0 == 0.0:
                raise ValueError("pow of a series with zero leading term")
            if c0 < 0.0 and not p.is_integer():
                raise ValueError("pow of a series with negative leading term "
                                 "needs an integer exponent")
            coef = c0 ** p
            w[0] = coef
            for m in range(1, n + 1):
                coef *= (p - (m - 1)) / (m * c0)
                w[m] = coef
        else:
            raise ValueError(f"unsupported analytic function {fid!r}")
    except (OverflowError, ZeroDivisionError) as exc:
        raise ValueError(f"{fid} of a series with leading term {c0!r} "
                         "overflows") from exc
    if not np.all(np.isfinite(w)):
        raise ValueError(f"{fid} of a series with leading term {c0!r} "
                         "overflows")
    return w


def analytic(fid: str, s: EpsSeries, exponent=None) -> EpsSeries:
    """Compose an analytic function with a series.

    The order-0 coefficient c0 must be an exact constant; the Taylor
    recentering f(c0 + h) = sum f^(m)(c0)/m! h^m is then exact at the
    truncation order because h = s - c0 has an exact-zero order-0 term and
    the coefficients s_1, s_2, ... above it.  It is Horner's rule,
    A_{N+1} = 0 and A_m = A_{m+1} h + w_m, formed coefficient by
    coefficient: coefficient i carries its column of partial sums A_m[i],
    m = 0..(N - i)/v with v = 1 + the leading exact zeros of s_1, s_2, ...,
    because the terms of step m meet h a further m times; no others are
    formed.  A_m[i] is the same sum at every order, so a column found in
    the memo is only extended.  The walk is over the coefficients of s
    itself: coefficient 0 fixes c0 and with it the weights, and only the
    exponent of ``powf`` joins the function's name in the walk's kind.
    """
    n = s.order
    c0 = _leading_scalar(s)
    w = _taylor_weights(fid, c0, n, exponent)
    y = s.coeffs
    v = 1 + _leading_zeros(y[1:])
    zero = TrigPoly.zero(1) if s.is_trig else 0.0
    kind = ("analytic", fid,
            exponent if exponent is None else _DOUBLE.pack(float(exponent)))
    cols = _walk(kind, (y,), lambda i, out: [])
    for i, col in enumerate(cols):
        for m in range(len(col), (n - i) // v + 1):
            col.append(_dot([(cols[k][m + 1], y[i - k])
                             for k in range(i - v + 1)], zero)
                       + (float(w[m]) if i == 0 else 0.0))
    return EpsSeries._make([col[0] for col in cols])


def exp(x):
    """Generic exponential: series-aware, falls back to numpy for numbers/arrays."""
    if isinstance(x, EpsSeries):
        return analytic("exp", x)
    return np.exp(x)


def log(x):
    """Generic natural logarithm.  No built-in model calls it; it is kept
    for user-written right-hand sides (see README, "Custom models")."""
    if isinstance(x, EpsSeries):
        return analytic("log", x)
    return np.log(x)


def sin(x):
    """Generic sine, kept for user-written right-hand sides (for instance
    x' = -sin x(t - lam)); no built-in model calls it."""
    if isinstance(x, EpsSeries):
        return analytic("sin", x)
    return np.sin(x)


def cos(x):
    """Generic cosine, kept for user-written right-hand sides; no built-in
    model calls it."""
    if isinstance(x, EpsSeries):
        return analytic("cos", x)
    return np.cos(x)


def powf(x, p):
    """Generic real power x**p (series have no ``**``), kept for
    user-written right-hand sides such as Mackey-Glass, 2y/(1 + y^10) - x;
    no built-in model calls it."""
    if isinstance(x, EpsSeries):
        return analytic("pow", x, exponent=p)
    return np.power(x, p)


# -- delayed state -------------------------------------------------------------


def delayed_state(Z: EpsSeries, theta: EpsSeries) -> EpsSeries:
    """Series of Z(tau - theta(eps), eps) for a series-valued shift.

    Expanded about the leading shift theta0 = theta_0, with dtheta =
    theta - theta0 (an exact-zero order-0 term, and theta_1, theta_2, ...
    above it), the result is

        sum_{m=0..N} (-dtheta)^m / m! * shift(d^m Z / dtau^m, theta0),

    exact at the truncation order because dtheta is nilpotent there and
    tau-derivatives of trigonometric polynomials are exact.  It is formed
    coefficient by coefficient: with v = 1 + the leading exact zeros of
    theta_1, theta_2, ..., (-dtheta)^m starts at order m*v, so coefficient
    k is the sum of the terms that reach it, m = 0..k/v, and depends only
    on the coefficients 0..k of Z and theta; it carries its column of
    powers [(-dtheta)^m]_k for the coefficients above it, each a sum of
    products with -theta_i, i >= 1.  The walk is over the coefficients of
    Z and theta themselves.  A non-finite leading shift raises ValueError.
    """
    if not Z.is_trig or theta.is_trig:
        raise DimensionMismatchError(
            "delayed_state expects a trig series and a scalar shift")
    if theta.order != Z.order:
        raise DimensionMismatchError(
            f"order mismatch: {Z.order} vs {theta.order}")
    t = theta.coeffs
    theta0 = t[0]
    if not math.isfinite(theta0):
        raise ValueError(f"non-finite leading shift {theta0!r}")
    v = 1 + _leading_zeros(t[1:])
    zero = TrigPoly.zero(Z.dim)

    def shifted(ladder, m):
        """shift(d^m Z_i / dtau^m, theta0) from the ladder of Z_i, grown as
        needed; zero for an exact-zero Z_i, which has none."""
        if ladder is None:
            return zero
        while len(ladder) <= m:
            deriv = ladder[-1][0].diff()
            ladder.append((deriv, deriv.shift(theta0)))
        return ladder[m][1]

    def form(k, out):
        """(coefficient k; [(-dtheta)^m]_k, m = 0..k/v; the ladder of
        Z_k)."""
        col = [1.0 if k == 0 else 0.0]
        z = Z.coeffs[k]
        ladder = None if _is_zero(z) else [(z, z.shift(theta0))]
        powers = [e[1] for e in out] + [col]
        ladders = [e[2] for e in out] + [ladder]
        acc, fact = None, 1.0
        for m in range(k // v + 1):
            if m:
                col.append(_dot([(powers[i][m - 1], -t[k - i])
                                 for i in range((m - 1) * v, k - v + 1)], 0.0))
                fact *= m
            term = _dot([(powers[i][m], shifted(ladders[k - i], m))
                         for i in range(m * v, k + 1)], zero)
            term = _dot([(term, 1.0 / fact)], zero)
            acc = term if acc is None else acc + term
        return acc, col, ladder

    out = _walk("delayed", (Z.coeffs, t), form)
    return EpsSeries._make([e[0] for e in out])
