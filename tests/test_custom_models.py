"""User-written scalar (dim 1) models, checked against closed forms.

Hutchinson's equation x' = x(1 - x(t - lam)) is Wright's equation after
x = 1 + u: its Hopf point is omega0 = 1, lam0 = pi/2, and its delay
coefficient is lh_2 = (3 pi - 2)/20 in the mean-square scale (Chow &
Mallet-Paret, J. Differential Equations 26, 1977).  The Mackey-Glass
equation x' = 2y/(1 + y^10) - x linearizes at x = 1 to u' = -u - 4 u(t - lam),
so omega0 = sqrt(15) and cos(omega0 lam0) = -1/4.
"""

import math

import pytest

import ddehopf
from ddehopf.epsseries import powf
from ddehopf.errors import ModelError, NewtonError
from ddehopf.trigpoly import TrigPoly


def hutchinson_rhs(lam, x, y):
    return [x[0] * (1 - y[0])]


def mackey_glass_rhs(lam, x, y):
    # x' = 2 y / (1 + y^10) - x, with y = x(t - lam); the README example
    return [2 * y[0] / (1 + powf(y[0], 10)) - x[0]]


def hutchinson_model():
    return ddehopf.DdeModel("hutchinson", dim=1, params={},
                            rhs=hutchinson_rhs, equilibrium_hint=[1.0],
                            hopf_hint=(1.1, 1.4))


@pytest.fixture(scope="module")
def hutchinson():
    return ddehopf.expand(hutchinson_model(), order=8, z0_scale="msq")


@pytest.fixture(scope="module")
def mackey_glass():
    model = ddehopf.DdeModel("mackey-glass", dim=1, params={},
                             rhs=mackey_glass_rhs, equilibrium_hint=[1.0],
                             hopf_hint=(3.9, 0.47))
    return ddehopf.expand(model, order=8, z0_scale="msq")


def test_hutchinson_hopf_point_and_wright_coefficient(hutchinson):
    hp = hutchinson.hopf
    assert abs(hp.omega0 - 1.0) < 1e-14
    assert abs(hp.lambda0 - math.pi / 2) < 1e-14
    assert abs(hutchinson.lambda_hats[2] - (3 * math.pi - 2) / 20) < 1e-14


def test_hutchinson_shifts_each_derivative_once(monkeypatch):
    # the delay series (2 pi lh)/Th has the leading term (2 pi lh_0)/(2 pi),
    # which differs from lh_0 by one rounding here; the delayed state
    # expands about that leading term, so dtheta starts at order 1 and each
    # Z_k is shifted only as far as the orders above it need, which at
    # order j of the expansion end at order j
    shifted = []
    shift = TrigPoly.shift
    monkeypatch.setattr(TrigPoly, "shift",
                        lambda u, theta: shifted.append(u) or shift(u, theta))
    ddehopf.expand(hutchinson_model(), order=12, z0_scale="msq")
    assert len(shifted) == 50


def test_mackey_glass_hopf_point(mackey_glass):
    hp = mackey_glass.hopf
    assert abs(hp.omega0 - math.sqrt(15.0)) < 1e-14
    assert abs(hp.lambda0 - math.acos(-0.25) / math.sqrt(15.0)) < 1e-14


@pytest.mark.parametrize("name,lam,bound", [
    ("hutchinson", 1.7, 1.5e-3), ("mackey_glass", 0.55, 2e-4)])
def test_integrator_agrees(request, name, lam, bound):
    # measured e_r: 7.4e-4 (Hutchinson), 8.2e-5 (Mackey-Glass)
    orbit = ddehopf.ReconstructedOrbit(request.getfixturevalue(name), lam)
    e_r, _, _ = ddehopf.cross_validate(orbit)
    assert e_r < bound


@pytest.mark.parametrize("dim,hint", [(1, [1.0, 0.5]), (2, [1.0]), (1, 1.0)])
def test_an_equilibrium_hint_has_dim_entries(dim, hint):
    with pytest.raises(ModelError, match="equilibrium_hint"):
        ddehopf.DdeModel("hutchinson", dim=dim, params={}, rhs=hutchinson_rhs,
                         equilibrium_hint=hint, hopf_hint=(1.1, 1.4))


@pytest.mark.parametrize("hint", [(1.1,), 1.1, (1.1, 1.4, 9.0),
                                  (1.1, math.nan)],
                         ids=["one", "number", "three", "nan"])
def test_a_hopf_hint_is_two_finite_numbers(hint):
    with pytest.raises(ModelError, match="hopf_hint"):
        ddehopf.DdeModel("hutchinson", dim=1, params={}, rhs=hutchinson_rhs,
                         equilibrium_hint=[1.0], hopf_hint=hint)


@pytest.mark.parametrize("dim,rhs,count", [
    (1, lambda lam, x, y: hutchinson_rhs(lam, x, y) + [x[0]], 2),
    (2, hutchinson_rhs, 1)], ids=["two-for-one", "one-for-two"])
def test_a_rhs_of_the_wrong_length_is_refused(dim, rhs, count):
    model = ddehopf.DdeModel("hutchinson", dim=dim, params={}, rhs=rhs,
                             equilibrium_hint=[1.0] * dim,
                             hopf_hint=(1.1, 1.4))
    with pytest.raises(ModelError, match=f"returned {count} values for a "
                                         f"dim-{dim} model"):
        ddehopf.expand(model, order=4, z0_scale="msq")


@pytest.mark.parametrize("extra", [lambda lam, x: 0.0,
                                   lambda lam, x: lam - lam],
                         ids=["number", "delay-only"])
def test_a_component_free_of_the_state_is_refused(extra):
    # it gives the equilibrium Jacobian a zero row, so the equilibrium
    # solve refuses the model before the expansion evaluates the rhs in
    # jet arithmetic
    model = ddehopf.DdeModel(
        "hutchinson-plus", dim=2, params={},
        rhs=lambda lam, x, y: hutchinson_rhs(lam, x, y) + [extra(lam, x)],
        equilibrium_hint=[1.0, 0.0], hopf_hint=(1.1, 1.4))
    with pytest.raises(NewtonError, match="singular equilibrium Jacobian"):
        ddehopf.expand(model, order=4, z0_scale="msq")
