"""Hopf point location and null-space bases of the critical delay operator.

The characteristic matrix of the linearized delayed system is

    M(omega, lam) = i*omega*I - P(lam) - Q(lam) * e^(-i*omega*lam),

with P, Q re-linearized at the lam-dependent equilibrium.  The Hopf point
(omega0, lam0) solves det M = 0 with omega0 > 0.  In rescaled time the
critical operator and its formal adjoint act on 2*pi-periodic functions as

    L u  = u' - A u - B u(. - lh0),        A = P/omega0, B = Q/omega0,
    L* u = u' + A^T u + B^T u(. + lh0),    lh0 = omega0*lam0,

and both have two-dimensional null spaces spanned by first-harmonic
trigonometric polynomials built from the null vectors of the characteristic
matrices.  ``find_hopf`` is the one call of this stage: the ``HopfPoint`` it
returns carries (omega0, lam0), the rescaled Jacobians A and B, and the
orthonormal bases v1, v2 of N(L) and w1, w2 of N(L*), built and checked
when the point is made.
"""

from __future__ import annotations

import numpy as np

from . import models as mdl
from . import trigpoly as tp
from .errors import HopfError, ResonanceError
from .trigpoly import TrigPoly

HOPF_MAX_ITER = 100
RESONANCE_TOL = 1e-6
RESONANCE_MAX_HARMONIC = 8


class HopfPoint:
    """Bifurcation point data: frequency, delay, complex null vectors, the
    rescaled Jacobians A = P/omega0, B = Q/omega0 at the bifurcation delay,
    and the orthonormal bases v1, v2 of N(L) and w1, w2 of N(L*)."""

    def __init__(self, omega0, lambda0, right_null, left_null, A, B):
        self.omega0 = float(omega0)
        self.lambda0 = float(lambda0)
        self.right_null = np.asarray(right_null, dtype=complex)
        self.left_null = np.asarray(left_null, dtype=complex)
        self.A = A
        self.B = B
        self.v1, self.v2, self.w1, self.w2 = _null_bases(self.right_null,
                                                         self.left_null)

    @property
    def lambda_hat0(self) -> float:
        return self.omega0 * self.lambda0

    def to_dict(self) -> dict:
        return {
            "omega0": self.omega0,
            "lambda0": self.lambda0,
            "lambda_hat0": self.lambda_hat0,
        }

    def __repr__(self):
        return f"HopfPoint(omega0={self.omega0:.6g}, lambda0={self.lambda0:.6g})"


def characteristic_matrix(model, omega, lam):
    P, Q = mdl.linearization(model, lam)
    n = model.dim
    return (1j * omega * np.eye(n) - P - Q * np.exp(-1j * omega * lam))


def _scaled_det(model, omega, lam) -> complex:
    """Determinant of the characteristic matrix with each row divided by a
    size of it; zero exactly when det is.  A row with two or more nonzero
    entries is divided by its norm.  A row with one nonzero entry, whose
    normalized entry would have modulus 1 everywhere and hide the roots of
    its factor, is divided by sqrt(omega^2 + |P_i|^2 + |Q_i|^2), which
    moves smoothly with (omega, lam) and, like the norm, keeps the time
    unit out.  A 1x1 matrix is returned as its entry, which
    ``np.linalg.det`` does not give bit for bit.  A size that overflows
    raises HopfError: the scaled row would be 0 and fake a root."""
    mat = characteristic_matrix(model, omega, lam)
    if mat.shape == (1, 1):
        return complex(mat[0, 0])
    single = np.count_nonzero(mat, axis=1) == 1
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.linalg.norm(mat, axis=1)
        if single.any():
            P, Q = mdl.linearization(model, lam)
            norms[single] = np.sqrt(omega ** 2 + np.linalg.norm(P, axis=1) ** 2
                                    + np.linalg.norm(Q, axis=1) ** 2)[single]
    if not np.isfinite(norms).all():
        raise HopfError("the characteristic matrix overflows")
    norms[norms == 0.0] = 1.0
    return complex(np.linalg.det(mat / norms[:, None]))


def find_hopf(model) -> HopfPoint:
    """Locate (omega0, lambda0) by a 2D Newton iteration on the real and
    imaginary parts of the row-scaled characteristic determinant, started
    from ``model.hopf_hint``, which must be two finite numbers (ModelError
    otherwise, also for a hint assigned after the model was made)."""
    w, lam = mdl._hopf_hint(model.hopf_hint)

    w_floor = 1e-6 * max(abs(w), 1e-6)
    lam_floor = 1e-6 * max(abs(lam), 1e-6)

    def f(w_, lam_):
        d = _scaled_det(model, max(w_, w_floor), max(lam_, lam_floor))
        return np.array([d.real, d.imag])

    r = f(w, lam)
    for _ in range(HOPF_MAX_ITER):
        if np.max(np.abs(r)) <= 1e-13:
            break
        hw = 1e-7 * max(abs(w), w_floor)
        hl = 1e-7 * max(abs(lam), lam_floor)
        J = np.column_stack([
            (f(w + hw, lam) - f(w - hw, lam)) / (2 * hw),
            (f(w, lam + hl) - f(w, lam - hl)) / (2 * hl),
        ])
        try:
            step = np.linalg.solve(J, r)
        except np.linalg.LinAlgError as exc:
            raise HopfError("singular Jacobian in the Hopf point Newton") from exc
        # backtracking keeps the iterate in the valid quadrant and prevents
        # jumps across the oscillatory determinant landscape
        norm0 = float(np.max(np.abs(r)))
        for _ in range(40):
            w_new, lam_new = w - step[0], lam - step[1]
            if w_new > 0.0 and lam_new > 0.0:
                r_new = f(w_new, lam_new)
                if float(np.max(np.abs(r_new))) < norm0:
                    break
            step = 0.5 * step
        else:
            raise HopfError("Hopf point Newton stalled (no descent step)")
        w, lam, r = w_new, lam_new, r_new
    # r = f(w, lam) here, and a converged r lies below the bound
    residual = float(np.max(np.abs(r)))
    if residual > 1e-11:
        raise HopfError(
            f"Hopf point Newton did not converge in {HOPF_MAX_ITER} iterations "
            f"(residual {residual:.2e})")
    if w <= 0:
        raise HopfError(f"nonpositive frequency {w} at the Hopf point")

    # A1 guard: no harmonic multiple of i*omega0 may also be a root.
    for mharm in range(0, RESONANCE_MAX_HARMONIC + 1):
        if mharm == 1:
            continue
        d = _scaled_det(model, mharm * w, lam)
        if abs(d) < RESONANCE_TOL:
            raise ResonanceError(
                f"characteristic root near harmonic {mharm} of omega0 "
                f"(scaled determinant {abs(d):.2e})")

    M = characteristic_matrix(model, w, lam)
    alpha = _null_vector(M)
    P, Q = mdl.linearization(model, lam)
    A, B = P / w, Q / w
    lh0 = w * lam
    W = 1j * np.eye(model.dim) + A.T + B.T * np.exp(1j * lh0)
    beta = _null_vector(W)
    # |M a| grows with the size of M's terms, which a time unit scales (W is
    # free of it); floored at 1, the bound refuses nothing the absolute
    # bound 1e-9 accepts
    scale = max(1.0, w + np.linalg.norm(P) + np.linalg.norm(Q))
    ra = float(np.linalg.norm(M @ alpha))
    rb = float(np.linalg.norm(W @ beta))
    if ra > 1e-9 * scale or rb > 1e-9:
        raise HopfError(
            f"null vector residuals too large: |M a|={ra:.2e}, |W b|={rb:.2e}")
    return HopfPoint(w, lam, alpha, beta, A, B)


def _null_vector(mat) -> np.ndarray:
    """Unit right null vector (smallest singular direction), with a canonical
    phase: the largest-magnitude entry is made real positive."""
    _, s, vh = np.linalg.svd(mat)
    v = vh[-1].conj()
    k = int(np.argmax(np.abs(v)))
    v = v * (np.abs(v[k]) / v[k])
    return v


# -- null-space bases -----------------------------------------------------------


def _first_harmonic(zeta, vec) -> TrigPoly:
    """Real part of zeta*vec*e^(i*tau) as a degree-1 polynomial."""
    zv = zeta * vec
    return TrigPoly.harmonic(len(vec), 1, cos_vec=zv.real, sin_vec=-zv.imag)


def _null_bases(alpha, beta):
    """Orthonormal bases (v1, v2) of N(L) and (w1, w2) of N(L*) from the
    right null vector alpha and the left null vector beta.

    v2 is the unit null element whose first component is a pure sine, with
    the overall sign fixed by a positive cosine coefficient in the second
    component; v1 is its quarter-period shift.  Both choices keep the
    expansion output reproducible.  The adjoint basis w1, w2 is built the
    same way from the left null vector (its phase is immaterial downstream,
    since it only enters homogeneous orthogonality conditions).
    """
    if abs(alpha[0]) < 1e-12 * np.linalg.norm(alpha):
        raise HopfError(
            "degenerate null vector: first component vanishes, the phase "
            "condition cannot anchor the solution")
    # zeta*alpha_1 = -i*|alpha_1| makes the first component |alpha_1|*sin(tau)
    zeta = -1j * np.conj(alpha[0]) / abs(alpha[0])
    norm = np.sqrt(np.pi) * np.linalg.norm(alpha)
    v2 = _first_harmonic(zeta / norm, alpha)
    if len(alpha) > 1 and v2.cos[0, 1] < 0:
        v2 = -v2
    v1 = v2.shift(-np.pi / 2)

    norm_b = np.sqrt(np.pi) * np.linalg.norm(beta)
    w1 = _first_harmonic(1.0 / norm_b, beta)
    w2 = w1.shift(-np.pi / 2)

    for pair in ((v1, v2), (w1, w2)):
        gram = np.array([[tp.inner(a, b) for b in pair] for a in pair])
        if np.max(np.abs(gram - np.eye(2))) > 1e-10:
            raise HopfError(f"basis not orthonormal: gram={gram}")
    return v1, v2, w1, w2


# -- critical operator and adjoint ------------------------------------------------


def critical_operator(u: TrigPoly, hp: HopfPoint) -> TrigPoly:
    """L u = u' - A u - B u(. - lam_hat0), with A, B and lam_hat0 those of
    the Hopf point ``hp``.

    The expansion never applies L (it solves with L's per-harmonic blocks);
    this is the reference definition that tests check the per-order solves
    and the null space against.
    """
    return (u.diff() - tp.matvec(hp.A, u)
            - tp.matvec(hp.B, u.shift(hp.lambda_hat0)))


def adjoint_operator(u: TrigPoly, hp: HopfPoint) -> TrigPoly:
    """L* u = u' + A^T u + B^T u(. + lam_hat0), with A, B and lam_hat0
    those of the Hopf point ``hp``.

    The reference definition of the adjoint, which tests check the adjoint
    null space against; a normal-form (first Lyapunov coefficient) check
    projects with it.
    """
    return (u.diff() + tp.matvec(hp.A.T, u)
            + tp.matvec(hp.B.T, u.shift(-hp.lambda_hat0)))
