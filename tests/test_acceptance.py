"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line per checked item (run pytest with -s to
see them on success).  Two sub-checks, both at the largest car-following
delay lam = 1.8, are implemented exactly as stated and fail against this
build; the measurements behind each are written next to the test:

* the amplitude parameter (stated 1.3111 +/- 0.02 at order 8; the order-8
  delay equation gives 1.3400, the order-11 one gives 1.31107, and the
  integrator's settled orbit projected onto Z0 gives 1.3523);
* the order-20 residual (stated <= 1%; the sup-norm residual is 2.34% at
  order 20 and ranges from 1.41% to 2.34% over orders 14 to 20).

The stated epidemic period coefficient T_hat_2 = 0.2400 is a misprint: the
reference integrator's period slope times the stated lh_2 gives 0.24995, so
that check compares against 0.2500 (derivation in the test).
"""

import time

import numpy as np
import pytest

from ddehopf import bifurcation as bf
from ddehopf import ddeint as di
from ddehopf import expansion as xp
from ddehopf import models as mdl
from ddehopf import trigpoly as tp
from ddehopf.orbit import ReconstructedOrbit, residual, solve_epsilon

TWO_PI = 2 * np.pi


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {criterion}: {status}  ({detail})", flush=True)
    return ok


def test_c1_ndde_hopf_point(ndde):
    t0 = time.perf_counter()
    hp = bf.find_hopf(ndde)
    elapsed = time.perf_counter() - t0
    p = ndde.params
    D = p["d"] * p["a"] * p["b"] / (p["a"] + p["b"])
    id1 = abs(p["K"] - np.tan(hp.omega0 * hp.lambda0) / hp.omega0)
    id2 = abs(D - hp.omega0 ** 2 * np.cos(hp.omega0 * hp.lambda0))
    ok = (abs(hp.omega0 - 1.1424) < 5e-4 and abs(hp.lambda0 - 1.3079) < 5e-4
          and id1 < 1e-8 and id2 < 1e-8 and elapsed < 1.0)
    assert report(
        "C1 car-following Hopf point", ok,
        f"omega0={hp.omega0:.5f}, lambda0={hp.lambda0:.5f}, "
        f"identities=({id1:.1e},{id2:.1e}), {elapsed * 1e3:.0f} ms")


def test_c2_ndde_series_coefficients(ndde):
    t0 = time.perf_counter()
    res = xp.expand(ndde, 8, z0_scale="msq")
    elapsed = time.perf_counter() - t0
    stated_lh = [1.4940, 0.0, 0.1666, 0.0, 0.0387, 0.0013]
    stated_Th = [TWO_PI, 0.0, 0.7465, 0.0, 0.1814, 0.0056]
    worst = 0.0
    for j in range(6):
        lh = abs(res.lambda_hats[j]) if j % 2 else res.lambda_hats[j]
        Th = abs(res.T_hats[j]) if j % 2 else res.T_hats[j]
        worst = max(worst, abs(lh - stated_lh[j]), abs(Th - stated_Th[j]))
    ok = worst < 2e-3 and elapsed < 10.0
    assert report("C2 car-following series table", ok,
                  f"max deviation {worst:.2e}, N=8 in {elapsed:.2f} s")


def test_c3_ndde_fourier_amplitudes(ndde):
    res = xp.expand(ndde, 3, z0_scale="paper")
    stated = {
        # (order, component): amplitudes for harmonics 0..order+1
        (0, 0): [0.0, 2.3349],
        (0, 1): [0.0, 2.6673],
        (1, 0): [3.5250, 3.5811, np.hypot(0.0295, 0.0561)],
        (1, 1): [0.0, 4.0910, np.hypot(0.1282, 0.0674)],
        (2, 0): [0.0, np.hypot(0.9868, 0.0906), np.hypot(0.1722, 0.0905),
                 np.hypot(0.0461, 0.0001)],
        (2, 1): [0.0, np.hypot(0.1035, 0.8638), np.hypot(0.2068, 0.3933),
                 np.hypot(0.0002, 0.1579)],
        (3, 0): [6.4153, 6.1228, np.hypot(0.0741, 0.0852),
                 np.hypot(0.0003, 0.2120), np.hypot(0.0041, 0.0048)],
        (3, 1): [0.0, 3.9406, np.hypot(0.2905, 0.2196),
                 np.hypot(0.7267, 0.0009), np.hypot(0.0218, 0.0188)],
    }
    worst = ("", 0.0)
    ok = True
    for (j, comp), amps in stated.items():
        Zj = res.Z[j].padded(j + 1)
        mine = [abs(Zj.const[comp])] + [
            float(np.hypot(Zj.cos[k, comp], Zj.sin[k, comp]))
            for k in range(j + 1)]
        for k, (m, s) in enumerate(zip(mine, amps)):
            tol = max(0.01 * s, 5e-3)
            if abs(m - s) > tol:
                ok = False
            if abs(m - s) > worst[1]:
                worst = (f"Z[{j}] comp {comp} harmonic {k}: "
                         f"{m:.4f} vs {s:.4f}", abs(m - s))
    assert report("C3 car-following Fourier amplitudes", ok,
                  f"worst: {worst[0]} (|diff|={worst[1]:.2e})")


def test_c4_sir_scalars(sir, sir_2pi8):
    r0 = mdl.sir_r0(sir.params)
    hp = sir_2pi8.hopf
    lh2 = sir_2pi8.lambda_hats[2]
    ok = (abs(r0 - 2.997) < 1e-3
          and abs(hp.omega0 - 0.03440) < 2e-4
          and abs(hp.lambda0 - 102.0308) < 0.5
          and abs(lh2 - 0.1500) < 0.02 * 0.1500)
    assert report(
        "C4 epidemic scalars (r0, Hopf point, delay coefficient)", ok,
        f"r0={r0:.4f}, omega0={hp.omega0:.5f}, lambda0={hp.lambda0:.4f}, "
        f"lh2={lh2:.5f}")


def test_c4_sir_period_coefficient(sir_2pi8):
    # Stated value 0.2400 +/- 2%, a misprint; checked against 0.2500 here.
    # In every normalization of eps, T_hat_2 / lh_2 is the slope dT/dlam of
    # the physical period at onset.  The reference integrator (cross_validate
    # on sir_2pi8 orbits) measures the settled period at lam = 104, 106 and
    # 108 as 185.90216, 189.20939 and 192.49967 days; a cubic through
    # T0 = 2*pi/omega0 = 182.62909 at lambda0 has slope 1.66634, and the
    # stated lh_2 = 0.1500 (checked in test_c4_sir_scalars) times that slope
    # gives T_hat_2 = 0.24995.  The stated pair would need slope 1.600.  With
    # T_hat_2 = 0.24997 the series period matches the integrator to 8.2e-7
    # relative at lam = 108 and 1.3e-4 at lam = 120; with 0.2400 in its place
    # the errors are 1.8e-3 and 4.0e-3 (lam = 108 is checked in
    # test_ddeint::test_sir_period_cross_method_agreement).
    Th2 = sir_2pi8.T_hats[2]
    ok = abs(Th2 - 0.2500) < 0.02 * 0.2500
    assert report("C4 epidemic period coefficient", ok,
                  f"T_hat_2={Th2:.5f} vs 0.2500 +/- 2% "
                  "(stated 0.2400 is a misprint)")


def test_c5_residual_reproduction(ndde_msq8, sir_2pi8):
    stated = {2: 5.35, 4: 0.71, 6: 0.15, 8: 0.03}
    details = []
    ok = True
    for N, expected in stated.items():
        orbit = ReconstructedOrbit(ndde_msq8.truncated(N), 1.4)
        r = 100.0 * residual(orbit)
        details.append(f"N={N}: {r:.3f}% (stated {expected}%)")
        if not (expected / 2.0 <= r <= 2.0 * expected):
            ok = False
        if N == 8 and r > 0.1:
            ok = False
    sorbit = ReconstructedOrbit(sir_2pi8, 120.0)
    sr = 100.0 * residual(sorbit)
    details.append(f"sir: {sr:.3f}%")
    if sr > 0.4:
        ok = False
    assert report("C5 residual reproduction", ok, "; ".join(details))


def test_c6_integrator_cross_validation(ndde_msq8, ndde14, sir120):
    # the seeded runs at 1.4 and 120 are the session fixtures', timed around
    # their cross_validate call; the run at 1.6 is this test's own
    orbit16 = ReconstructedOrbit(ndde_msq8, 1.6)
    t0 = time.perf_counter()
    e_r16, _, _ = di.cross_validate(orbit16)
    elapsed16 = time.perf_counter() - t0
    cases = [
        (ndde14[0], ndde14[1], ndde14.wall_time, 0.2),
        (orbit16, e_r16, elapsed16, 2.5),
        (sir120[0], sir120[1], sir120.wall_time, 0.7),
    ]
    details = []
    ok = True
    for orbit, e_r, elapsed, bound in cases:
        details.append(f"{orbit.expansion.model.name} lam={orbit.lam}: "
                       f"e_r={100 * e_r:.2f}% in {elapsed:.0f} s")
        if 100.0 * e_r > bound or elapsed > 60.0:
            ok = False
    assert report("C6 integrator cross-validation", ok, "; ".join(details))


def test_c7_amplitude_parameters(ndde_msq8, sir_2pi8):
    cases = [
        (ndde_msq8, 1.4, 0.7385, 0.01),
        (ndde_msq8, 1.6, 1.1303, 0.02),
        (sir_2pi8, 120.0, 1.7403, 0.03),
        (sir_2pi8, 140.0, 2.2063, 0.05),
    ]
    details = []
    ok = True
    for exp, lam, stated, window in cases:
        eps = solve_epsilon(exp, lam)
        details.append(f"{exp.model.name} lam={lam}: eps={eps:.4f} "
                       f"(stated {stated}+/-{window})")
        if abs(eps - stated) > window:
            ok = False
    assert report("C7 amplitude parameters", ok, "; ".join(details))


def test_c7_amplitude_parameter_largest_delay(ndde_msq8):
    # Stated 1.3111 +/- 0.02 at order 8; this build's order-8 root is 1.3400.
    # No program fault shows: the coefficients agree across normalizations of
    # eps to 1.3e-14 relative and lh_0..lh_5 match the published table (C2).
    # The published lam = 1.8 row matches this build's order-11 truncation:
    # its root is 1.31107 (published 1.3111) and its integrator error e_r is
    # 3.566% (published 3.56%; 3.411% at order 8).  Projecting the
    # integrator's settled orbit onto Z0 gives the true eps = 1.3523 (the same
    # projection agrees with the order-20 eps at lam = 1.4 to 8e-7), so the
    # window holds neither the order-8 root nor the true eps.  Nothing in the
    # repository says whether the published row was meant to be order 8.
    eps = solve_epsilon(ndde_msq8, 1.8)
    ok = abs(eps - 1.3111) < 0.02
    assert report("C7 amplitude parameter at the largest delay", ok,
                  f"eps={eps:.4f} vs stated 1.3111 +/- 0.02")


def test_c8_property_suite(ndde, ndde_msq8, sir, sir_2pi8):
    details = []
    ok = True
    for model, res in ((ndde, ndde_msq8), (sir, sir_2pi8)):
        hp = res.hopf
        Z0 = res.Z[0]
        H0, R, S = xp.assemble_rhs(model, hp, [Z0], [hp.lambda_hat0], [TWO_PI])
        R_cf, S_cf = xp.closed_form_RS(model, hp, Z0)
        scale = max(1.0, R_cf.max_abs(), S_cf.max_abs())
        probe_dev = max((R - R_cf).max_abs(), (S - S_cf).max_abs()) / scale
        if probe_dev > 1e-9:
            ok = False
        taus = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        worst_orth = worst_op = worst_phase = worst_q = 0.0
        deg_ok = True
        for j in range(1, res.order + 1):
            Zj, hj = res.Z[j], res.h_list[j - 1]
            worst_orth = max(worst_orth, abs(tp.inner(hj, hp.w1)),
                             abs(tp.inner(hj, hp.w2)))
            op = bf.critical_operator(Zj, hp)
            dev = np.max(np.abs(op.eval(taus) - hj.eval(taus)))
            worst_op = max(worst_op, dev / max(1.0, hj.max_abs()))
            deg_ok = deg_ok and Zj.degree <= j + 1 and hj.degree <= j + 1
            worst_phase = max(worst_phase, abs(Zj.eval(0.0)[0])
                              / max(1.0, Zj.max_abs()))
            worst_q = max(worst_q, abs(tp.inner(Zj, Z0)))
        if (worst_orth > 1e-10 or worst_op > 1e-9 or not deg_ok
                or worst_phase > 1e-10 or worst_q > 1e-9):
            ok = False
        details.append(
            f"{model.name}: probe={probe_dev:.1e}, orth={worst_orth:.1e}, "
            f"op={worst_op:.1e}, phase={worst_phase:.1e}, q={worst_q:.1e}")
    # evaluation homomorphism spot checks
    from series_oracles import eval_at

    from ddehopf.epsseries import EpsSeries
    from ddehopf.trigpoly import TrigPoly
    rng = np.random.default_rng(7)
    u = TrigPoly(rng.standard_normal(1), rng.standard_normal((2, 1)),
                 rng.standard_normal((2, 1)))
    s = EpsSeries([TrigPoly.constant([0.2]), u, TrigPoly.zero(1)])
    t = EpsSeries([TrigPoly.constant([1.1]), 0.5 * u, TrigPoly.zero(1)])
    hom_dev = 0.0
    for eps in (0.01, 0.1):
        for tau in (0.3, 2.7):
            direct = (eval_at(s, tau, eps)[0] * eval_at(t, tau, eps)[0]
                      + eval_at(s, tau, eps)[0])
            via = eval_at(s * t + s, tau, eps)[0]
            # quadratic truncation tail bounded by the order-3 term
            hom_dev = max(hom_dev, abs(direct - via)
                          - 2.0 * abs(eps) ** 3 * 10.0)
    if hom_dev > 1e-8:
        ok = False
    assert report("C8 property suite", ok, "; ".join(details))


def test_c9_order20_scalability(ndde_msq20):
    ok = ndde_msq20.wall_time < 300.0 and ndde_msq20.order == 20
    assert report("C9 order-20 expansion time", ok,
                  f"{ndde_msq20.wall_time:.1f} s")


def test_c9_order20_residual(ndde_msq20):
    # Stated bound 1% at the largest delay; the order-20 residual is 2.34%.
    # Per order at lam = 1.8 the sup-norm residual (orbit.residual) is 2.335,
    # 1.885, 1.413, 1.449, 1.495, 2.146 and 2.335% for N = 14..20: it bottoms
    # out at order 16 and then grows.  The roots settle near 1.294 while the
    # integrator's orbit has eps = 1.3523, so the series is used past its
    # convergence radius and no truncation up to 20 reaches 1%.  The paper's
    # residual norm may differ: at lam = 1.4 this build's C5 residuals run
    # about 1.4x the published ones (0.99/0.71, 0.216/0.15, 0.044/0.03% at
    # N = 4, 6, 8); that is an observation, not a settlement.
    orbit = ReconstructedOrbit(ndde_msq20, 1.8)
    r = 100.0 * residual(orbit)
    ok = r <= 1.0
    assert report("C9 order-20 residual at the largest delay", ok,
                  f"r_r={r:.2f}% vs stated <= 1%")
