"""Order-by-order construction of the periodic-orbit series at a Hopf point.

For every order j the engine must produce the delay coefficient lh_j, the
period coefficient Th_j and the 2*pi-periodic profile Z_j(tau) so that the
rescaled system

    Z'(tau, eps) = (Th(eps)/(2*pi)) * f(lh(eps), eps*Z, eps*Z_delayed) / eps

holds order by order, with Z, lh and Th expanded in powers of eps.  The
order-j right-hand side h_j is never formed symbolically: the model rhs is
evaluated in truncated-series arithmetic with the unknown pair (lh_j, Th_j)
probed at (0,0), (1,0) and (0,1).  The order-j coefficient depends affinely
on that pair, so three probes determine the inhomogeneity H0 and the exact
sensitivities S (delay direction) and R (period direction).  R and S also
have closed forms in terms of Z_0 and the delay-derivatives of the rescaled
linearization; those are implemented separately as a cross-check.

Each order then goes through four steps, all of which read the Hopf point
alone (its rescaled Jacobians and its null bases v1, v2, w1, w2):

1. solve the 2x2 orthogonality system <h_j, w_i> = 0 for (lh_j, Th_j);
2. solve the per-harmonic linear blocks for a particular solution (the
   first-harmonic block is rank-deficient by construction and is solved in
   the minimum-norm least-squares sense);
3. add the homogeneous null-space contribution fixing the phase condition
   Z_j^1(0) = 0 and the orthogonality <Z_j, Z_0> = 0;
4. verify the degree bound deg(Z_j) <= j+1 and trim numerical dust.
"""

from __future__ import annotations

import numpy as np

from . import bifurcation as bf
from . import models as mdl
from . import trigpoly as tp
from .bifurcation import HopfPoint
from .epsseries import EpsSeries, _shared_coefficients, delayed_state
from .errors import ResonanceError, SolvabilityError
from .trigpoly import TrigPoly

TWO_PI = 2.0 * np.pi

# Relative ceiling for harmonic content above the structural degree bound.
DEGREE_DUST_TOL = 1e-10


class ExpansionResult:
    """Computed series coefficients plus the conventions that fix them.

    Attributes
    ----------
    lambda_hats, T_hats : ndarray, shape (order+1,)
        Dimensionless delay and period coefficients (T_hats[0] = 2*pi).
    Z : list of TrigPoly
        Orbit profiles, deg(Z[j]) <= j+1.
    order : int
        len(Z) - 1.
    hopf : HopfPoint
        The point expanded about; it owns omega0.
    conventions : dict
        z0_scale (the numeric order-0 scale), z0_mode (its name), qj (0),
        phase ("first-component sine").
    """

    def __init__(self, lambda_hats, T_hats, Z, hopf, model, conventions,
                 h_list):
        self.lambda_hats = np.asarray(lambda_hats, dtype=float)
        self.T_hats = np.asarray(T_hats, dtype=float)
        self.Z = list(Z)
        self.order = len(self.Z) - 1
        self.hopf = hopf
        self.model = model
        self.conventions = dict(conventions)
        self.h_list = list(h_list)

    def lambda_hat_of(self, eps: float) -> float:
        return _horner(self.lambda_hats, eps)

    def T_hat_of(self, eps: float) -> float:
        return _horner(self.T_hats, eps)

    def orbit_profile(self, eps: float) -> TrigPoly:
        """eps * sum_j Z_j(tau) eps^j as a single polynomial (deviation only)."""
        acc = self.Z[self.order]
        for j in range(self.order - 1, -1, -1):
            acc = self.Z[j] + eps * acc
        return (eps * acc).truncate()

    def truncated(self, order: int) -> "ExpansionResult":
        """The same expansion cut at a lower order.

        Exact, because the recursion is triangular: coefficients up to any
        order never depend on higher ones.
        """
        if not 1 <= order <= self.order:
            raise ValueError(f"order must be in [1, {self.order}]")
        return ExpansionResult(self.lambda_hats[:order + 1],
                               self.T_hats[:order + 1], self.Z[:order + 1],
                               self.hopf, self.model, self.conventions,
                               self.h_list[:order])

    def coefficient_table(self):
        """Rows (order, harmonic, component, cos, sin) for every coefficient."""
        rows = []
        for j, Zj in enumerate(self.Z):
            for i in range(Zj.dim):
                rows.append((j, 0, i, float(Zj.const[i]), 0.0))
                for k in range(1, Zj.degree + 1):
                    rows.append((j, k, i, float(Zj.cos[k - 1, i]),
                                 float(Zj.sin[k - 1, i])))
        return rows

    def __repr__(self):
        return (f"ExpansionResult(model={self.model.name!r}, order={self.order}, "
                f"omega0={self.hopf.omega0:.6g})")


def _horner(coeffs: np.ndarray, eps):
    """sum_j coeffs[j] * eps^j by the loop of numpy's ``polyval``,
    y = y * eps + c from y = 0.0: the same operations in the same order, on
    a Python float without numpy's per-scalar cost, or elementwise on an
    array of eps."""
    y = 0.0
    for c in coeffs[::-1].tolist():
        y = y * eps + c
    return y


# -- right-hand side assembly -------------------------------------------------


def order_coefficient(model, hp: HopfPoint, Z_list, lam_hats, T_hats,
                      lam_probe: float, T_probe: float) -> TrigPoly:
    """Order-j coefficient of the rescaled rhs with (lh_j, Th_j) probed.

    ``Z_list`` holds Z_0..Z_{j-1}; the unknown Z_j enters that coefficient
    only through the critical linear operator and is set to zero here, so
    the returned polynomial is exactly h_j for the probed pair.

    The rhs is divided by eps, so h_j is its coefficient j+1, and the
    states eps*Z and eps*Z(tau - theta) reach it through the coefficients
    0..j of Z and of the delayed state.  Z, the shift theta = 2*pi*lh/Th and
    the delayed state are therefore formed at order j (the probed pair is
    their top coefficient), and the states at order j+1 by prepending the
    exact zero; the delay and period series that meet the rhs directly
    run to order j+1 with a zero top coefficient, so h_j is the top
    coefficient of the rhs.  Each rhs component is a trig series: one that
    does not depend on the state gives the equilibrium Jacobian a zero row,
    and the equilibrium solve refuses the model before any probe.
    """
    dim = model.dim
    zero = TrigPoly.zero(dim)
    lam_hat = list(lam_hats) + [float(lam_probe)]
    T_hat = list(T_hats) + [float(T_probe)]
    Z_ser = EpsSeries(list(Z_list) + [zero])

    theta = (TWO_PI * EpsSeries(lam_hat)) / EpsSeries(T_hat)
    Z_del = delayed_state(Z_ser, theta)

    x = EpsSeries([zero] + Z_ser.coeffs)
    y = EpsSeries([zero] + Z_del.coeffs)
    lam_phys = EpsSeries(lam_hat + [0.0]) * (1.0 / hp.omega0)
    eq = mdl.equilibrium_series(model, lam_phys)
    xs = [x.component(i) + eq[i] for i in range(dim)]
    ys = [y.component(i) + eq[i] for i in range(dim)]

    g = model.rhs(lam_phys, xs, ys)
    prefactor = EpsSeries(T_hat + [0.0]) * (1.0 / (TWO_PI * hp.omega0))
    return tp.stack([(prefactor * gi).coeffs[-1] for gi in g]).truncate()


def assemble_rhs(model, hp: HopfPoint, Z_list, lam_hats, T_hats):
    """(H0, R, S) for the current order from three rhs probes.

    H0 is the inhomogeneity at (lh_j, Th_j) = (0, 0); R and S are the exact
    affine sensitivities in the period and delay directions, so that
    h_j = H0 + Th_j*R + lh_j*S.  The probes differ only in the series'
    top coefficients.  Inside ``expand`` they share the jet coefficients
    they have in common, with each other and with the previous order's
    probes; called on its own, every probe forms its own, and the bits are
    the same either way (see the ``epsseries`` docstring).
    """
    H0 = order_coefficient(model, hp, Z_list, lam_hats, T_hats, 0.0, 0.0)
    S = (order_coefficient(model, hp, Z_list, lam_hats, T_hats, 1.0, 0.0)
         - H0).truncate()
    R = (order_coefficient(model, hp, Z_list, lam_hats, T_hats, 0.0, 1.0)
         - H0).truncate()
    return H0, R, S


def closed_form_RS(model, hp: HopfPoint, Z0: TrigPoly):
    """Closed forms of the sensitivities, used to cross-check the probes.

    R = (Z0' + lh0 * B Z0'(. - lh0)) / (2*pi)
    S = A'(lh0) Z0 + B'(lh0) Z0(. - lh0) - B Z0'(. - lh0)

    with A, B the rescaled Jacobians and ' their derivative in the
    dimensionless delay, measured by centered differences that include the
    drift of the equilibrium with the delay.
    """
    w0 = hp.omega0
    lh0 = hp.lambda_hat0
    B = hp.B
    h = 1e-6 * lh0
    Pp, Qp = mdl.linearization(model, (lh0 + h) / w0)
    Pm, Qm = mdl.linearization(model, (lh0 - h) / w0)
    Ap = (Pp - Pm) / (2.0 * h * w0)
    Bp = (Qp - Qm) / (2.0 * h * w0)

    dZ0 = Z0.diff()
    dZ0_del = dZ0.shift(lh0)
    R = (1.0 / TWO_PI) * (dZ0 + lh0 * tp.matvec(B, dZ0_del))
    S = (tp.matvec(Ap, Z0) + tp.matvec(Bp, Z0.shift(lh0))
         - tp.matvec(B, dZ0_del))
    return R, S


# -- per-order solves ----------------------------------------------------------


def solvability_matrix(R: TrigPoly, S: TrigPoly, hp: HopfPoint):
    return np.array([
        [tp.inner(R, hp.w1), tp.inner(S, hp.w1)],
        [tp.inner(R, hp.w2), tp.inner(S, hp.w2)],
    ])


def _check_nonsingular_2x2(M, what: str):
    scales = np.max(np.abs(M), axis=1)
    scales[scales == 0.0] = 1.0
    det = float(np.linalg.det(M / scales[:, None]))
    if abs(det) <= 1e-8:
        raise SolvabilityError(f"{what} is singular (scaled det {det:.2e})")


def solve_order(H0: TrigPoly, R: TrigPoly, S: TrigPoly, hp: HopfPoint):
    """Solve <Th_j R + lh_j S + H0, w_i> = 0 and return (lh_j, Th_j, h_j)."""
    M = solvability_matrix(R, S, hp)
    _check_nonsingular_2x2(M, "solvability system")
    rhs = -np.array([tp.inner(H0, hp.w1), tp.inner(H0, hp.w2)])
    T_j, lam_j = np.linalg.solve(M, rhs)
    h = (H0 + T_j * R + lam_j * S).truncate()
    scale = max(1.0, h.max_abs())
    for w in (hp.w1, hp.w2):
        if abs(tp.inner(h, w)) > 1e-10 * scale:
            raise SolvabilityError(
                "post-solve orthogonality violated: "
                f"<h, w> = {tp.inner(h, w):.2e}")
    return float(lam_j), float(T_j), h


def solve_particular(h: TrigPoly, hp: HopfPoint) -> TrigPoly:
    """Particular solution of L Z = h by independent per-harmonic blocks.

    Harmonic k couples the cosine and sine coefficient vectors through a
    2n x 2n block built from A, B and the phases of the delayed argument.
    The k = 1 block is the matrix symbol of L at the critical root and is
    rank-deficient by two; it is solved in the minimum-norm least-squares
    sense (relative rank threshold 1e-8) and the residual is asserted, since
    solvability guarantees the right-hand side is in range.
    """
    A, B = hp.A, hp.B
    lh0 = hp.lambda_hat0
    n = h.dim
    K = h.degree
    ident = np.eye(n)

    try:
        a0 = np.linalg.solve(-(A + B), h.const)
    except np.linalg.LinAlgError as exc:
        raise ResonanceError(
            "zero characteristic root: the constant-harmonic block is "
            "singular") from exc

    cos_out = np.zeros((K, n))
    sin_out = np.zeros((K, n))
    for k in range(1, K + 1):
        c = np.cos(k * lh0)
        s = np.sin(k * lh0)
        block = np.block([
            [-A - c * B, k * ident + s * B],
            [-k * ident - s * B, -A - c * B],
        ])
        rhs = np.concatenate([h.cos[k - 1], h.sin[k - 1]])
        if k == 1:
            sol, _, rank, _ = np.linalg.lstsq(block, rhs, rcond=1e-8)
            res = float(np.linalg.norm(block @ sol - rhs))
            if res > 1e-9 * max(1.0, float(np.linalg.norm(rhs))):
                raise SolvabilityError(
                    f"first-harmonic least-squares residual {res:.2e} "
                    "exceeds tolerance: solvability numerically violated")
        else:
            try:
                sol = np.linalg.solve(block, rhs)
            except np.linalg.LinAlgError as exc:
                raise ResonanceError(
                    f"harmonic {k} block is singular: resonant "
                    "characteristic root") from exc
        cos_out[k - 1] = sol[:n]
        sin_out[k - 1] = sol[n:]
    return TrigPoly(a0, cos_out, sin_out)


def fix_homogeneous(Z_hat: TrigPoly, Z0: TrigPoly, hp: HopfPoint) -> TrigPoly:
    """Add c1*v1 + c2*v2 so that Z^1(0) = 0 and <Z, Z0> = 0."""
    v1, v2 = hp.v1, hp.v2
    M = np.array([
        [float(v1.eval(0.0)[0]), float(v2.eval(0.0)[0])],
        [tp.inner(v1, Z0), tp.inner(v2, Z0)],
    ])
    _check_nonsingular_2x2(M, "homogeneous-fix system")
    rhs = -np.array([float(Z_hat.eval(0.0)[0]), tp.inner(Z_hat, Z0)])
    c = np.linalg.solve(M, rhs)
    return Z_hat + float(c[0]) * v1 + float(c[1]) * v2


# -- degree bookkeeping ---------------------------------------------------------


def enforce_degree(u: TrigPoly, bound: int, what: str) -> TrigPoly:
    """Assert no real harmonic content above ``bound``, then trim to it.

    A zero polynomial needs no test: its tail 0 never exceeds the bound
    DEGREE_DUST_TOL * 0."""
    if u.degree <= bound:
        return u
    scale = u.max_abs()
    tail = max(float(np.max(np.abs(u.cos[bound:]))),
               float(np.max(np.abs(u.sin[bound:]))))
    if tail > DEGREE_DUST_TOL * scale:
        raise SolvabilityError(
            f"{what} has harmonic content {tail:.2e} above degree "
            f"{bound} (relative to {scale:.2e})")
    return TrigPoly._make(u.const, u.cos[:bound], u.sin[:bound])


# -- driver ---------------------------------------------------------------------


Z0_SCALES = {
    "paper": TWO_PI,               # reproduces the published coefficient tables
    "msq": np.sqrt(TWO_PI),        # mean-square amplitude of Z0 equal to one
    "orthonormal": 1.0,            # Z0 is the unit basis element itself
}


def expand(model, order: int, z0_scale: str = "paper") -> ExpansionResult:
    """Run the expansion up to ``order``.

    z0_scale selects the normalization of the order-0 profile Z0 = c * v2,
    which fixes the meaning of the amplitude parameter (all choices describe
    the same orbit family and are related by the exact diagonal rescaling
    lh_j -> lh_j * c^j, Z_j -> Z_j * c^(j+1) per unit of c):

    * "paper"       -- c = 2*pi.  Reproduces the published per-order
      coefficient tables directly, and the published delay/period series of
      the epidemic example.
    * "msq"         -- c = sqrt(2*pi), i.e. the mean square of Z0 over one
      period is one.  Reproduces the published delay/period series and
      amplitude parameters of the car-following example (whose tables are
      printed in this normalization).
    * "orthonormal" -- c = 1.
    """
    if order < 1:
        raise ValueError("expansion order must be >= 1")
    if z0_scale not in Z0_SCALES:
        raise ValueError(f"z0_scale must be one of {sorted(Z0_SCALES)}")
    hp = bf.find_hopf(model)
    scale = Z0_SCALES[z0_scale]
    Z0 = scale * hp.v2

    Z_list = [Z0]
    lam_hats = [hp.lambda_hat0]
    T_hats = [TWO_PI]
    h_list = []
    # one memo across the orders, a generation per order: the order-j rhs
    # shares its coefficients 0..j-1 with the order-(j-1) rhs (see the
    # ``epsseries`` docstring)
    with _shared_coefficients() as memo:
        for j in range(1, order + 1):
            memo.advance()
            try:
                H0, R, S = assemble_rhs(model, hp, Z_list, lam_hats, T_hats)
                lam_j, T_j, h = solve_order(H0, R, S, hp)
                h = enforce_degree(h, j + 1, f"h_{j}")
                Z_hat = solve_particular(h, hp)
                Z_j = fix_homogeneous(Z_hat, Z0, hp)
                Z_j = enforce_degree(Z_j.truncate(), j + 1, f"Z_{j}")
            except (SolvabilityError, ResonanceError) as exc:
                raise type(exc)(f"order {j}: {exc}") from exc
            zscale = max(1.0, Z_j.max_abs())
            if abs(float(Z_j.eval(0.0)[0])) > 1e-10 * zscale:
                raise SolvabilityError(
                    f"order {j}: phase condition Z^1(0) = 0 violated")
            if abs(tp.inner(Z_j, Z0)) > 1e-9 * max(1.0, zscale * Z0.max_abs()):
                raise SolvabilityError(
                    f"order {j}: orthogonality <Z_j, Z0> = 0 violated")
            Z_list.append(Z_j)
            lam_hats.append(lam_j)
            T_hats.append(T_j)
            h_list.append(h)

    conventions = {"z0_scale": scale, "z0_mode": z0_scale, "qj": 0.0,
                   "phase": "first-component sine"}
    return ExpansionResult(lam_hats, T_hats, Z_list, hp, model, conventions,
                           h_list)
