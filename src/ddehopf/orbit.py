"""Physical-time periodic solutions from a computed expansion.

Given the series coefficients, a delay lam beyond the bifurcation maps to an
amplitude parameter eps through the delay equation

    lam = (1/omega0) * sum_j lh_j * eps^j,

whose smallest nonnegative root is tracked from eps = 0 at the bifurcation.
The orbit is then

    x(t) = equilibrium(lam) + eps * sum_j Z_j(omega_eff * t) * eps^j,

with omega_eff = 2*pi*omega0/Th(eps), so the period is Th(eps)/omega0.
``ReconstructedOrbit(expansion, lam)``, the one way to build that orbit,
solves its own eps with ``solve_epsilon``, the one owner of the delay
equation.  This module also measures the defect of that orbit inside the
model equation (the relative residual) and sweeps delay grids into
bifurcation diagrams.
Neighbouring orbits of a sweep share their profile degree, so their uniform
grids are sampled from one cos/sin table per grid and degree
(``TrigPoly.sample``) rather than from trigonometric functions evaluated
anew for each orbit.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import models as mdl
from .errors import (BelowBifurcationError, DdeHopfError, ModelError,
                     NoRealRootError)
from .expansion import ExpansionResult, _horner

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
EXTRAPOLATION_RESIDUAL = 0.05  # diagram points with larger residual are flagged
EXTREMA_SAMPLES = 1024  # grid of orbit_extrema before its refinement


# -- numerical kernels, shared with the reference integrator ------------------------


def _bisect(f, a, b, fa):
    """Root of f in a bracket [a, b] where f changes sign; fa = f(a).

    At most eighty halvings, which take any bracket below the spacing of
    doubles.  Once the midpoint rounds to an end, the ends are adjacent
    doubles: further halvings would leave the bracket or its midpoint as it
    is, whatever f gives there (0 and NaN included), so that midpoint is
    returned at once."""
    for _ in range(80):
        mid = 0.5 * (a + b)
        if mid == a or mid == b:
            return mid
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


@contextmanager
def _overflow_is_no_root(what: str):
    """Run a block with numpy's overflow and invalid operations raised, and
    report them as NoRealRootError: "<what> overflows"."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NoRealRootError(f"{what} overflows") from exc


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
    lam = float(lam)
    lam0 = exp.hopf.lambda0
    target = exp.hopf.omega0 * lam
    coeffs = exp.lambda_hats
    if lam < lam0 * (1.0 - 1e-12):
        raise BelowBifurcationError(
            f"delay {lam} is below the bifurcation delay {lam0:.6f}: "
            "no periodic orbit on this side")
    if abs(lam - lam0) <= 1e-12 * lam0:
        return 0.0
    lh2 = coeffs[2] if exp.order >= 2 else 0.0
    if lh2 <= 0.0:
        raise NoRealRootError(
            "cannot seed the amplitude solve: the order-2 delay "
            f"coefficient {lh2:.3e} is not positive")

    def p(e):
        # the scan's Horner loop on one Python float, so p agrees with it
        return _horner(coeffs, e) - target

    # Sign scan on [0, hi]: the branch grows from eps = 0, so the wanted
    # root is the first crossing; later crossings (the polynomial bending
    # back where the truncation breaks down) are ignored.  The signs are
    # tested on Python floats, whose products may overflow to a signed inf.
    with _overflow_is_no_root(
            f"the delay polynomial's amplitude scan for delay {lam}"):
        hi = 2.0 * float(np.sqrt((target - coeffs[0]) / lh2))
        grid = np.linspace(0.0, hi, 257)
        vals = (_horner(coeffs, grid) - target).tolist()
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
    """Explicit periodic solution at one delay, its amplitude parameter
    solved by ``solve_epsilon`` (whose errors it raises).

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

    def __init__(self, expansion: ExpansionResult, lam: float):
        self.expansion = expansion
        self.eps = solve_epsilon(expansion, lam)
        self.lam = float(lam)
        T_hat = expansion.T_hat_of(self.eps)
        self.period = T_hat / expansion.hopf.omega0
        self.omega_eff = 2.0 * np.pi / self.period
        self.equilibrium = mdl.equilibrium(expansion.model, self.lam)
        # an amplitude far beyond the validity of the series may overflow
        with _overflow_is_no_root(f"the orbit profile at delay {self.lam} "
                                  f"(amplitude {self.eps:.3g})"):
            self.profile = expansion.orbit_profile(self.eps)
            self._dprofile = self.profile.diff()

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


# -- residual ---------------------------------------------------------------------


def _refined_max(f, vals):
    """Maximum of f over one period from its samples ``vals`` on the uniform
    grid tau_k = k*2*pi/n, k = 0..n-1, sharpened by golden-section steps
    around the best sample.  k*(2*pi/n) is the double that
    np.linspace(0, 2*pi, n, endpoint=False) holds at k."""
    dt = 2.0 * np.pi / len(vals)
    k = int(np.argmax(vals))
    return _golden_max(f, k * dt - dt, k * dt + dt, vals[k], 3)


def residual(orbit: ReconstructedOrbit, samples: int = 2048) -> float:
    """Relative defect sup|x' - g(lam, x, x_delayed)| / sup|x'| over a period.

    Both suprema are taken on a uniform grid (at least 256 points) and then
    sharpened by a short golden-section refinement around the grid maxima;
    x' is the exact derivative of the trigonometric profile.  The grid
    values come from ``TrigPoly.sample``, whose cos/sin table is shared by
    the orbits of a sweep that have the same profile degree; the refinement
    evaluates single points.  An overflow or invalid operation in the model
    on the orbit raises NoRealRootError: its amplitude is beyond the
    validity of the truncated series.
    """
    if samples < 256:
        raise ValueError("residual needs at least 256 samples")
    model = orbit.expansion.model
    lam = orbit.lam
    shifted = orbit.profile.shift(orbit.omega_eff * lam)
    eq = orbit.equilibrium

    def defect(x, xd, dx):
        """max_i |x_i' - g_i| and max_i |x_i'| from the profile, its
        delayed copy and its tau-derivative, at one tau or on a grid."""
        dx = dx * orbit.omega_eff
        g = model.rhs_vector(lam, (x + eq).T, (xd + eq).T).T
        return np.max(np.abs(dx - g), axis=-1), np.max(np.abs(dx), axis=-1)

    def defect_at(tau):
        return defect(orbit.profile.eval(tau), shifted.eval(tau),
                      orbit._dprofile.eval(tau))

    # an orbit far beyond the validity of the series may overflow the model
    with _overflow_is_no_root(f"the model on the orbit at delay {lam} "
                              f"(amplitude {orbit.eps:.3g})"):
        num, den = defect(orbit.profile.sample(samples),
                          shifted.sample(samples),
                          orbit._dprofile.sample(samples))
        sup_num = _refined_max(lambda tau: defect_at(tau)[0], num)
        sup_den = _refined_max(lambda tau: np.max(np.abs(
            orbit._dprofile.eval(tau) * orbit.omega_eff)), den)
    if sup_den == 0.0:
        # zero-amplitude orbit: the defect is the equilibrium residual
        return 0.0 if sup_num < 1e-9 else float("inf")
    return sup_num / sup_den


# -- bifurcation diagram ------------------------------------------------------------


def orbit_extrema(orbit: ReconstructedOrbit):
    """(min, max) per component over one period, grid plus refinement; the
    grid is sampled like ``residual``'s, from a shared table."""
    vals = orbit.profile.sample(EXTREMA_SAMPLES) + orbit.equilibrium
    out = []
    for i in range(vals.shape[1]):
        comp = orbit.profile.component(i)
        base = float(orbit.equilibrium[i])

        def hi(tau):  # called only in this pass, before comp and base move on
            return float(comp.eval(tau)[0]) + base

        vmin = -_refined_max(lambda tau: -hi(tau), -vals[:, i])
        vmax = _refined_max(hi, vals[:, i])
        out.append((vmin, vmax))
    return out


def _diagram_row(exp: ExpansionResult, lam: float) -> dict:
    """One diagram row; a package error is recorded in it, not raised."""
    row = {"lambda": float(lam), "eps": 0.0, "residual": 0.0,
           "extrapolated": False, "components": None, "error": ""}
    try:
        try:
            orbit = ReconstructedOrbit(exp, lam)
        except BelowBifurcationError:
            orbit = None
        if orbit is None or orbit.eps == 0.0:
            eq = mdl.equilibrium(exp.model, lam)
            row["components"] = [(float(v), float(v)) for v in eq]
        else:
            row["eps"] = orbit.eps
            row["residual"] = residual(orbit, 512)
            row["extrapolated"] = row["residual"] > EXTRAPOLATION_RESIDUAL
            row["components"] = orbit_extrema(orbit)
    except DdeHopfError as exc:  # per-point failure, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def bifurcation_diagram(exp: ExpansionResult, lam_grid):
    """Per-delay oscillation extrema, with the equilibrium branch below the
    bifurcation and a residual-based extrapolation flag beyond it.

    Each point is solved on its own: its ReconstructedOrbit solves the
    amplitude with solve_epsilon, whose BelowBifurcationError (or a zero
    amplitude, at the bifurcation delay itself) marks the equilibrium branch.
    Returns a list of row dicts; a package error at an individual grid point
    is recorded in its row and the sweep continues.
    """
    return [_diagram_row(exp, lam) for lam in lam_grid]
