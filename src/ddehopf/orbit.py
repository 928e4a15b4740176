"""Physical-time periodic solutions from a computed expansion.

Given the series coefficients, a delay lam beyond the bifurcation maps to an
amplitude parameter eps through the delay equation

    lam = (1/omega0) * sum_j lh_j * eps^j,

whose smallest nonnegative root is tracked from eps = 0 at the bifurcation.
The orbit is then

    x(t) = equilibrium(lam) + eps * sum_j Z_j(omega_eff * t) * eps^j,

with omega_eff = 2*pi*omega0/Th(eps), so the period is Th(eps)/omega0.
This module also measures the defect of that orbit inside the model equation
(the relative residual) and sweeps delay grids into bifurcation diagrams.
"""

from __future__ import annotations

import numpy as np

from . import models as mdl
from .errors import (BelowBifurcationError, DdeHopfError, ModelError,
                     NewtonError, NoRealRootError)
from .expansion import ExpansionResult

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
EXTRAPOLATION_RESIDUAL = 0.05  # diagram points with larger residual are flagged
EXTREMA_SAMPLES = 1024  # grid of orbit_extrema before its refinement


# -- numerical kernels, shared with the reference integrator ------------------------


def _bisect(f, a, b, fa):
    """Root of f in a bracket [a, b] where f changes sign; fa = f(a).

    Eighty halvings take any bracket below the spacing of doubles."""
    for _ in range(80):
        mid = 0.5 * (a + b)
        fm = f(mid)
        if fa * fm <= 0.0:
            b = mid
        else:
            a, fa = mid, fm
    return 0.5 * (a + b)


def _golden_max(f, a, b, seed, iterations):
    """Golden-section steps on [a, b] refining ``seed``, a known value of f
    there (a grid maximum); returns the largest value seen, as a float."""
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    best = seed
    for _ in range(iterations):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        best = max(best, f1, f2)
    return float(best)


def _hermite(t, t0, t1, y0, y1, f0, f1):
    """Cubic Hermite interpolant at t through values y and slopes f at t0, t1.

    The arguments may be numbers or broadcasting arrays.  (1 - s) is squared
    by multiplication, which rounds the same on numbers and arrays; a numpy
    scalar ``** 2`` goes through C ``pow`` and can differ from it by 1 ulp."""
    dt = t1 - t0
    s = (t - t0) / dt
    u = 1 - s
    h00 = (1 + 2 * s) * (u * u)
    h10 = s * (u * u)
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h10 * dt * f0 + h01 * y1 + h11 * dt * f1


def solve_epsilon(exp: ExpansionResult, lam: float) -> float:
    """Smallest nonnegative amplitude parameter for a prescribed delay.

    A sign scan of the delay polynomial on [0, 2*seed], the seed being the
    order-2 inversion, locates the first crossing (the branch continuous
    from eps = 0 at the bifurcation), which is then bisected down to
    adjacent doubles.  Later crossings, where the truncated polynomial bends
    back beyond its validity, are ignored.  Delays below the bifurcation
    raise BelowBifurcationError, a non-finite delay a ModelError.
    """
    if not np.isfinite(lam):
        raise ModelError(f"delay must be finite, got {lam}")
    lam0 = exp.hopf.lambda0
    target = exp.omega0 * lam
    coeffs = exp.lambda_hats
    if lam < lam0 * (1.0 - 1e-12):
        raise BelowBifurcationError(
            f"delay {lam} is below the bifurcation delay {lam0:.6f}: "
            "no periodic orbit on this side")
    if abs(lam - lam0) <= 1e-12 * max(1.0, lam0):
        return 0.0
    lh2 = coeffs[2] if exp.order >= 2 else 0.0
    if lh2 <= 0.0:
        raise NoRealRootError(
            "cannot seed the amplitude solve: the order-2 delay "
            f"coefficient {lh2:.3e} is not positive")

    def p(e):
        return float(np.polyval(coeffs[::-1], e)) - target

    # Sign scan on [0, hi]: the branch grows from eps = 0, so the wanted
    # root is the first crossing; later crossings (the polynomial bending
    # back where the truncation breaks down) are ignored.
    hi = 2.0 * float(np.sqrt((target - coeffs[0]) / lh2))
    grid = np.linspace(0.0, hi, 257)
    vals = np.polyval(coeffs[::-1], grid) - target
    eps = None
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            eps = float(grid[i])
            break
        if vals[i] * vals[i + 1] < 0.0:
            eps = _bisect(p, float(grid[i]), float(grid[i + 1]), vals[i])
            break
    if eps is None:
        raise NoRealRootError(
            f"no amplitude root in [0, {hi:.4f}] for delay {lam} "
            "(delay beyond the validity of the truncated series)")
    if abs(p(eps)) > 1e-12 * max(1.0, abs(target)):
        raise NoRealRootError(
            f"amplitude root for delay {lam} misses the delay equation "
            f"(residual {p(eps):.2e})")
    return float(eps)


class ReconstructedOrbit:
    """Explicit periodic solution at one delay.

    Attributes
    ----------
    lam : float
        Physical delay.
    eps : float
        Amplitude parameter solving the delay equation.
    period : float
        Th(eps)/omega0 in physical time units.
    equilibrium : ndarray
        Model equilibrium at lam (the orbit oscillates around it).
    """

    def __init__(self, expansion: ExpansionResult, lam: float, eps: float):
        self.expansion = expansion
        self.lam = float(lam)
        self.eps = float(eps)
        T_hat = expansion.T_hat_of(self.eps)
        self.period = T_hat / expansion.omega0
        self.omega_eff = 2.0 * np.pi / self.period
        self.equilibrium = mdl.equilibrium(expansion.model, self.lam)
        self.profile = expansion.orbit_profile(self.eps)
        self._dprofile = self.profile.diff()
        residual = abs(self.lam - expansion.lambda_hat_of(self.eps) / expansion.omega0)
        if residual > 1e-12 * max(1.0, self.lam):
            raise NewtonError(
                f"delay equation residual {residual:.2e} too large at eps={eps}")

    @property
    def order(self) -> int:
        return self.expansion.order

    def phase(self, t):
        return self.omega_eff * np.asarray(t, dtype=float)

    def evaluate(self, t):
        """Orbit state at time t (scalar or array), physical coordinates."""
        return self.profile.eval(self.phase(t)) + self.equilibrium

    def deviation(self, t):
        """Orbit state minus the equilibrium."""
        return self.profile.eval(self.phase(t))

    def derivative(self, t):
        return self._dprofile.eval(self.phase(t)) * self.omega_eff

    def __repr__(self):
        return (f"ReconstructedOrbit(lam={self.lam:.6g}, eps={self.eps:.6g}, "
                f"period={self.period:.6g}, order={self.order})")


def reconstruct(exp: ExpansionResult, lam: float) -> ReconstructedOrbit:
    """Orbit at delay lam, its amplitude from solve_epsilon."""
    return ReconstructedOrbit(exp, lam, solve_epsilon(exp, lam))


# -- residual ---------------------------------------------------------------------


def _refined_max(f, taus, vals):
    """Maximum of f over one period from its samples ``vals`` on the uniform
    grid ``taus``, sharpened by golden-section steps around the best sample."""
    dt = 2.0 * np.pi / len(taus)
    k = int(np.argmax(vals))
    return _golden_max(f, taus[k] - dt, taus[k] + dt, vals[k], 3)


def residual(orbit: ReconstructedOrbit, samples: int = 2048) -> float:
    """Relative defect sup|x' - g(lam, x, x_delayed)| / sup|x'| over a period.

    Both suprema are taken on a uniform grid (at least 256 points) and then
    sharpened by a short golden-section refinement around the grid maxima;
    x' is the exact derivative of the trigonometric profile.
    """
    if samples < 256:
        raise ValueError("residual needs at least 256 samples")
    model = orbit.expansion.model
    lam = orbit.lam
    shifted = orbit.profile.shift(orbit.omega_eff * lam)
    eq = orbit.equilibrium

    def speed(tau):
        return orbit._dprofile.eval(tau) * orbit.omega_eff

    def defect(tau):
        """max_i |x_i' - g_i| and max_i |x_i'| at tau, a number or an array."""
        x = orbit.profile.eval(tau) + eq
        xd = shifted.eval(tau) + eq
        dx = speed(tau)
        g = model.rhs_vector(lam, x.T, xd.T).T
        return np.max(np.abs(dx - g), axis=-1), np.max(np.abs(dx), axis=-1)

    taus = np.linspace(0.0, 2.0 * np.pi, samples, endpoint=False)
    num, den = defect(taus)
    sup_num = _refined_max(lambda tau: defect(tau)[0], taus, num)
    sup_den = _refined_max(lambda tau: np.max(np.abs(speed(tau))), taus, den)
    if sup_den == 0.0:
        # zero-amplitude orbit: the defect is the equilibrium residual
        return 0.0 if sup_num < 1e-9 else float("inf")
    return sup_num / sup_den


# -- bifurcation diagram ------------------------------------------------------------


def orbit_extrema(orbit: ReconstructedOrbit):
    """(min, max) per component over one period, grid plus refinement."""
    taus = np.linspace(0.0, 2.0 * np.pi, EXTREMA_SAMPLES, endpoint=False)
    vals = orbit.profile.eval(taus) + orbit.equilibrium
    out = []
    for i in range(vals.shape[1]):
        comp = orbit.profile.component(i)
        base = float(orbit.equilibrium[i])

        def hi(tau, comp=comp, base=base):
            return float(comp.eval(tau)[0]) + base

        vmin = -_refined_max(lambda tau: -hi(tau), taus, -vals[:, i])
        vmax = _refined_max(hi, taus, vals[:, i])
        out.append((vmin, vmax))
    return out


def _diagram_row(exp: ExpansionResult, lam: float) -> dict:
    """One diagram row; a package error is recorded in it, not raised."""
    row = {"lambda": float(lam), "eps": 0.0, "residual": 0.0,
           "extrapolated": False, "components": None, "error": ""}
    try:
        try:
            eps = solve_epsilon(exp, lam)
        except BelowBifurcationError:
            eps = 0.0
        if eps == 0.0:
            eq = mdl.equilibrium(exp.model, lam)
            row["components"] = [(float(v), float(v)) for v in eq]
        else:
            orbit = ReconstructedOrbit(exp, lam, eps)
            row["eps"] = eps
            row["residual"] = residual(orbit, 512)
            row["extrapolated"] = row["residual"] > EXTRAPOLATION_RESIDUAL
            row["components"] = orbit_extrema(orbit)
    except DdeHopfError as exc:  # per-point failure, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def bifurcation_diagram(exp: ExpansionResult, lam_grid):
    """Per-delay oscillation extrema, with the equilibrium branch below the
    bifurcation and a residual-based extrapolation flag beyond it.

    Each point is solved on its own: solve_epsilon gives its amplitude, and
    its BelowBifurcationError marks the equilibrium branch.  Returns a list
    of row dicts; a package error at an individual grid point is recorded in
    its row and the sweep continues.
    """
    return [_diagram_row(exp, lam) for lam in lam_grid]
