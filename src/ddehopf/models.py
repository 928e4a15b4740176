"""Single-delay DDE systems: right-hand sides, equilibria, linearization.

A :class:`DdeModel` wraps a right-hand side g(lam, x, y) -> vector, where
y is the delayed state x(t - lam).  The rhs is written against ordinary
arithmetic (+, -, *, / with a number on either side, and exp, log, sin, cos,
powf from :mod:`ddehopf.epsseries`) so the very same function evaluates over
floats, numpy arrays and :class:`~ddehopf.epsseries.EpsSeries`; Jacobians
and higher expansion data are obtained by probing it with series arguments
rather than by symbolic differentiation.

Two systems ship with the package:

* ``ndde``   -- a two-car following model: distance deviation x1 (m) and
  relative velocity x2 (m/s), sigmoid acceleration response acting on the
  delayed state.  Its equilibrium is the origin for every delay.
* ``sir``    -- an SIR epidemic model with waning immunity: infected,
  susceptible and recovered populations; the recovered return to the
  susceptible pool after the immunity period lam (days), which makes the
  endemic equilibrium delay-dependent.
"""

from __future__ import annotations

import math
import weakref
from collections.abc import Mapping
from numbers import Real

import numpy as np

from . import epsseries as es
from .epsseries import EpsSeries
from .errors import DimensionMismatchError, ModelError, NewtonError

EQ_TOL = 1e-12
EQ_MAX_ITER = 50
# Solve results kept per model (the oldest is dropped first).
EQ_MEMO_SIZE = 1024

# model -> {("x" | "PQ", delay): read-only solve results}; weak, so a model's
# entries go with it, and a copied model solves afresh.
_SOLVED = weakref.WeakKeyDictionary()


class DdeModel:
    """Immutable description of one delayed system.

    Parameters
    ----------
    name : str
        Identifier used by the CLI ("ndde", "sir", ...).
    dim : int
        Number of state components.
    params : dict
        Named parameter values (units documented per model).
    rhs : callable
        g(lam, x, y) -> list of dim entries, generic arithmetic only.
    equilibrium_hint : array_like
        Newton starting point for the equilibrium solve, ``dim`` entries
        (anything else is a ModelError).
    hopf_hint : (float, float)
        (omega, lam) starting point for the Hopf point solve, two finite
        numbers, as a pair or a {"omega": ..., "lambda": ...} mapping
        (anything else is a ModelError; ``find_hopf`` checks a hint
        assigned later by the same rule).
    time_unit : str
        Unit label for delays and periods ("s", "day").
    state_labels : list of str
        Component names with units, used in CSV headers.
    """

    def __init__(self, name, dim, params, rhs, equilibrium_hint, hopf_hint,
                 time_unit="s", state_labels=None):
        self.name = name
        self.dim = dim
        self.params = dict(params)
        self.rhs = rhs
        self.equilibrium_hint = np.asarray(equilibrium_hint, dtype=float)
        if self.equilibrium_hint.shape != (dim,):
            raise ModelError(
                f"equilibrium_hint must have dim = {dim} entries, got "
                f"shape {self.equilibrium_hint.shape}")
        self.hopf_hint = _hopf_hint(hopf_hint)
        self.time_unit = time_unit
        self.state_labels = list(state_labels) if state_labels else [
            f"x{i + 1}" for i in range(dim)]

    def rhs_vector(self, lam, x, y):
        """rhs on plain numbers/arrays; shape (dim,) or (dim, m) for array input."""
        out = self.rhs(lam, list(x), list(y))
        if all(isinstance(v, float) for v in out):  # one point
            return np.array(out, dtype=float)
        arrs = [np.asarray(v, dtype=float) for v in out]
        shape = np.broadcast_shapes(*[a.shape for a in arrs])
        return np.stack([np.broadcast_to(a, shape) for a in arrs], axis=0)

    def __repr__(self):
        return f"DdeModel({self.name!r}, dim={self.dim})"


# -- built-in right-hand sides ---------------------------------------------------


NDDE_DEFAULTS = {
    "a": 2.0576,     # maximum acceleration, m/s^2
    "b": 1.5677,     # maximum deceleration, m/s^2
    "v0": 22.2222,   # leader velocity, m/s
    "M": 44.4444,    # safe distance at v0, m
    "d": 0.1124,     # response intensity
    "K": 11.3890,    # sensitivity to relative velocity, s
}

SIR_DEFAULTS = {
    "alpha": 0.1,    # output rate from the infected state, /day
    "beta": 0.01,    # contagion rate, /day
    "mu": 1e-4,      # natural death rate, /day
    "f": 0.98,       # recovering fraction
    "P_max": 30.0,   # maximum population, 1e6 persons
}


def _number(value, what):
    """``value`` as a float; anything but a finite real number is a ModelError."""
    if isinstance(value, Real) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            number = math.inf
        if math.isfinite(number):
            return number
    raise ModelError(f"{what} must be a finite number, got {value!r}")


def _merge_params(defaults, params):
    """Defaults overridden by ``params``, a mapping of known names to numbers."""
    params = {} if params is None else params
    if not isinstance(params, Mapping) or not set(params) <= set(defaults):
        raise ModelError(f"parameters must map names from {sorted(defaults)} "
                         f"to numbers, got {params!r}")
    return {k: _number(params.get(k, v), f"parameter {k}")
            for k, v in defaults.items()}


def _hopf_hint(hint):
    """(omega, lam) as two floats, from a pair or from a {"omega": ...,
    "lambda": ...} mapping; anything but two finite numbers is a
    ModelError."""
    if isinstance(hint, Mapping):
        if set(hint) != {"omega", "lambda"}:
            raise ModelError('hopf_hint must be {"omega": number, "lambda": '
                             f'number}}, got {hint!r}')
        hint = hint["omega"], hint["lambda"]
    try:
        omega, lam = hint
    except (TypeError, ValueError):
        raise ModelError("hopf_hint must be two numbers (omega, lam), got "
                         f"{hint!r}") from None
    return (_number(omega, "hopf_hint omega"),
            _number(lam, "hopf_hint lambda"))


def _validate_positive(params, keys):
    for k in keys:
        if params[k] <= 0:
            raise ModelError(f"parameter {k} must be positive")


def make_ndde(params=None) -> DdeModel:
    """Two-car following model in distance/relative-velocity coordinates."""
    p = _merge_params(NDDE_DEFAULTS, params)
    _validate_positive(p, ("a", "b", "v0", "M", "d", "K"))
    a, b, d, K = p["a"], p["b"], p["d"], p["K"]
    ratio = b / a

    def rhs(lam, x, y):
        drive = d * (y[0] + K * y[1])
        accel = -a + (a + b) / (1.0 + ratio * es.exp(drive))
        return [x[1], accel]

    return DdeModel(
        name="ndde", dim=2, params=p, rhs=rhs,
        equilibrium_hint=[0.0, 0.0], hopf_hint=(1.1, 1.3),
        time_unit="s", state_labels=["x1 [m]", "x2 [m/s]"])


def make_sir(params=None) -> DdeModel:
    """SIR model with temporary immunity of length lam (days).

    The birth function mu*(1+P_max)*P/(1+P) keeps the total population
    asymptotically stable.  The term (1 - mu*lam) discounts recovered
    individuals who die before losing immunity; it is accepted as written,
    so delays should stay below 1/mu for the flow to keep its sign.
    """
    p = _merge_params(SIR_DEFAULTS, params)
    _validate_positive(p, ("alpha", "beta", "mu", "f", "P_max"))
    if p["f"] > 1.0:
        raise ModelError("recovered fraction f must be <= 1")
    alpha, beta, mu, f, pmax = p["alpha"], p["beta"], p["mu"], p["f"], p["P_max"]

    def rhs(lam, x, y):
        I, S, R = x[0], x[1], x[2]
        P = I + S + R
        births = mu * (1.0 + pmax) * P / (1.0 + P)
        returning = f * alpha * (1.0 - mu * lam) * y[0]
        dI = beta * S * I - (mu + alpha) * I
        dS = births - beta * S * I - mu * S + returning
        dR = -mu * R + f * alpha * I - returning
        return [dI, dS, dR]

    return DdeModel(
        name="sir", dim=3, params=p, rhs=rhs,
        equilibrium_hint=[0.6, 10.0, 7.0], hopf_hint=(0.035, 100.0),
        time_unit="day",
        state_labels=["I [1e6 persons]", "S [1e6 persons]", "R [1e6 persons]"])


BUILTIN_MODELS = {"ndde": make_ndde, "sir": make_sir}


def sir_r0(params) -> float:
    """Basic reproduction number beta*P_max/(mu + alpha)."""
    return params["beta"] * params["P_max"] / (params["mu"] + params["alpha"])


# -- equilibrium and linearization ------------------------------------------------


def _jet_jacobians(model, lam, point):
    """(Jx, Jy): Jacobians of the rhs in the instantaneous and delayed slots,
    from one rhs call on first-order series probes at ``point``: the probe
    of slot i carries the unit direction e_i (instantaneous) or e_{n+i}
    (delayed) as its order-1 coefficient, so the order-1 coefficients of
    the result are the rows of [Jx | Jy] (exact to rounding)."""
    n = model.dim
    base = [float(v) for v in point]
    eye = np.eye(2 * n)
    g = model.rhs(lam, [EpsSeries._make([base[i], eye[i]]) for i in range(n)],
                  [EpsSeries._make([base[i], eye[n + i]]) for i in range(n)])
    J = np.zeros((len(g), 2 * n))
    for i, gi in enumerate(g):
        # a component independent of the probes may come back as a plain
        # number, its row zero
        if isinstance(gi, EpsSeries):
            J[i] = gi.coeffs[1]
    return J[:, :n], J[:, n:]


def _memo(model: DdeModel, key, solve):
    """Value of ``solve()`` stored on ``model`` under ``key``, so that it is
    computed once while the model lives (and its key is among the last
    EQ_MEMO_SIZE)."""
    memo = _SOLVED.setdefault(model, {})
    if key not in memo:
        value = solve()
        if len(memo) >= EQ_MEMO_SIZE:
            del memo[next(iter(memo))]
        memo[key] = value
    return memo[key]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def equilibrium(model: DdeModel, lam: float) -> np.ndarray:
    """Steady state x* with g(lam, x*, x*) = 0, by Newton from the model hint.

    Solved once per model and delay; the array returned is shared and
    read-only.
    """
    if not lam >= 0:  # also refuses a NaN delay
        raise NewtonError("delay must be nonnegative")
    lam = float(lam)
    return _memo(model, ("x", lam),
                 lambda: _read_only(_solve_equilibrium(model, lam)))


def _solve_equilibrium(model: DdeModel, lam: float) -> np.ndarray:
    x = model.equilibrium_hint.copy()
    scale = max(1.0, float(np.max(np.abs(x))))
    converged = False
    for _ in range(EQ_MAX_ITER):
        with np.errstate(over="ignore", invalid="ignore"):
            g = model.rhs_vector(lam, x, x)
        if g.shape != (model.dim,):
            raise ModelError(f"the rhs returned {g.size} values for a "
                             f"dim-{model.dim} model")
        if not np.isfinite(g).all():
            raise NewtonError(f"equilibrium residual is not finite at lam={lam}")
        if np.max(np.abs(g)) <= EQ_TOL * scale:
            if converged:
                return x
            converged = True  # one extra polish step sharpens x itself
        Jx, Jy = _jet_jacobians(model, lam, x)
        J = Jx + Jy
        try:
            step = np.linalg.solve(J, g)
        except np.linalg.LinAlgError as exc:
            raise NewtonError(f"singular equilibrium Jacobian at lam={lam}") from exc
        x = x - step
        scale = max(1.0, float(np.max(np.abs(x))))
    if converged:
        return x
    raise NewtonError(
        f"equilibrium Newton did not converge in {EQ_MAX_ITER} iterations "
        f"(model={model.name}, lam={lam})")


def equilibrium_series(model: DdeModel, lam_series: EpsSeries) -> list:
    """Equilibrium family x*(lam(eps)) as scalar series, one per component.

    Solved order-by-order: a Newton sweep with the (constant) Jacobian at the
    base point gains one correct order per pass, so order+1 sweeps suffice.
    The series is refused (NewtonError) when its residual exceeds 1e-10
    times its own largest coefficient (at least max(1, |x*|)): a residual
    coefficient is a sum of products of those coefficients, so its rounding
    grows with them.
    """
    if lam_series.is_trig:
        raise DimensionMismatchError("lam must be a scalar series")
    order = lam_series.order
    lam0 = float(lam_series.coeffs[0])
    x0 = equilibrium(model, lam0)
    Jx, Jy = linearization(model, lam0)
    try:
        Jinv = np.linalg.inv(Jx + Jy)
    except np.linalg.LinAlgError as exc:
        raise NewtonError(
            f"singular equilibrium Jacobian at base lam={lam0}") from exc
    xs = [EpsSeries.constant(float(v), order) for v in x0]
    scale = max(1.0, float(np.max(np.abs(x0))))
    for sweep in range(order + 2):
        g = model.rhs(lam_series, xs, xs)
        res = max(max(abs(c) for c in gi.coeffs) for gi in g)
        if res <= 1e-14 * scale or sweep == order + 1:
            break  # g is the residual of the xs returned
        steps = [[float(Jinv[i, j]) * g[j] for j in range(model.dim)]
                 for i in range(model.dim)]
        xs = [x - sum(terms[1:], terms[0]) for x, terms in zip(xs, steps)]
    size = max(scale, max(max(abs(c) for c in x.coeffs) for x in xs))
    if res > 1e-10 * size:
        raise NewtonError(
            f"equilibrium series residual {res:.2e} exceeds tolerance")
    return xs


def linearization(model: DdeModel, lam: float):
    """(P, Q): Jacobians of the rhs at the lam-dependent equilibrium.

    Formed once per model and delay, like the equilibrium; read-only.
    """
    x_star = equilibrium(model, lam)
    lam = float(lam)
    return _memo(model, ("PQ", lam), lambda: tuple(
        _read_only(J) for J in _jet_jacobians(model, lam, x_star)))
