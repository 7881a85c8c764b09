"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines.

Criteria 3 and 4 check the neutron filter's resonance phase-time and its
average over [E_r - beta, E_r + beta] against `neutron_reference`, a
30-digit mpmath computation that shares no code with the package (own
constants, transfer matrix, mass root, width and quadrature), both to
1e-9 relative. `average_phase_time` takes the mean exactly, as hbar times
the phase difference across the window, so it carries only rounding
(about 2^-52 O(1) / |dphi| relative, ~1e-15 on this window). The paper's
reported 2.36e-7 s and 2.4e-7 s are not reproducible from the stated
system (see README, "Reported versus computed phase-times"); the verdict
lines print them, labelled as reported, with the computed value's
deviation from them.
"""

from __future__ import annotations

import cmath
import math
import random

import pytest

from tunnelkit.constants import CODATA2018, joule_from_nev, nev_from_joule
from tunnelkit.kinematics import BarrierSystem, hyperbolic_state, kinematics
from tunnelkit.phase_time import (
    average_phase_time,
    hartman_limit,
    phase_time,
    phase_time_numeric,
)
from tunnelkit.resonance import (
    bw_phase_time,
    bw_probability,
    find_resonances,
    fit_effective_mass,
    phase_time_at_resonance,
    resonance_residual,
)
from tunnelkit.scatter_oracle import PotentialProfile, double_barrier_profile, solve
from tunnelkit.transmission import amplitude, log_probability, transmitted_phase

from conftest import fitted_neutron, neutron_system
from neutron_reference import neutron_reference

M0 = CODATA2018.m_neutron
REPORTED_TAU_R = 2.36e-7
REPORTED_TAU_AVG = 2.4e-7


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def reference():
    ref = neutron_reference()
    # the reference's own mass root must be a transparency point
    assert abs(ref["transmission_at_root"] - 1.0) <= 1e-15
    return ref


def test_criterion_01_free_mass_resonance_energy():
    sys = neutron_system()
    (res,) = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    e_r_nev = nev_from_joule(res.E_r)
    ok = abs(e_r_nev - 123.0) <= 1.0
    verdict(1, ok, f"E_r(free mass) = {e_r_nev:.4f} neV, required 123 +- 1 neV")
    assert ok


def test_criterion_02_effective_mass_inversion():
    sys0 = neutron_system()
    target = joule_from_nev(127.0)
    m = fit_effective_mass(sys0.a, sys0.U0, sys0.L, target, (0.5 * M0, 1.5 * M0))
    ratio = m / M0
    fitted = sys0._replace(m=m)
    (res,) = find_resonances(fitted, 1e-3 * sys0.U0, 0.999 * sys0.U0)
    round_trip = abs(res.E_r - target) / target
    ok = abs(ratio - 0.926883) <= 1e-4 and round_trip <= 1e-9
    verdict(
        2,
        ok,
        f"m/m0 = {ratio:.7f} (required 0.926883 +- 1e-4), "
        f"round-trip dE_r/E_r = {round_trip:.2e} (required <= 1e-9)",
    )
    assert ok


def test_criterion_03_resonance_phase_time(reference):
    sys, res = fitted_neutron()
    tau_r = phase_time_at_resonance(sys, res)
    expected = reference["tau_r"]
    gap = abs(tau_r / expected - 1.0)
    ok = gap <= 1e-9
    verdict(
        3,
        ok,
        f"tau_r = {tau_r:.10e} s, mpmath reference {expected:.10e} s, "
        f"rel. gap {gap:.1e} (<= 1e-9); reported value {REPORTED_TAU_R:.2e} s, "
        f"computed deviates by {tau_r / REPORTED_TAU_R - 1.0:+.1%}",
    )
    assert ok


def test_criterion_04_energy_averaged_phase_time(reference):
    sys, res = fitted_neutron()
    tau_avg = average_phase_time(sys, res.E_r - res.beta, res.E_r + res.beta)
    expected = reference["tau_avg"]
    gap = abs(tau_avg / expected - 1.0)
    ok = gap <= 1e-9
    verdict(
        4,
        ok,
        f"tau_avg = {tau_avg:.10e} s, mpmath reference {expected:.10e} s, "
        f"rel. gap {gap:.1e} (<= 1e-9); reported value {REPORTED_TAU_AVG:.1e} s, "
        f"computed deviates by {tau_avg / REPORTED_TAU_AVG - 1.0:+.1%}",
    )
    assert ok


def test_criterion_05_oracle_equivalence():
    sys = neutron_system()
    profile = double_barrier_profile(sys)
    worst_p = worst_phase = 0.0
    for i in range(200):
        E = (0.05 + 0.90 * i / 199) * sys.U0
        res = amplitude(sys, E)
        sol = solve(profile, E)
        worst_p = max(worst_p, abs(res.probability / sol.transmission - 1.0))
        kin = kinematics(sys, E)
        ref = cmath.phase(sol.t * cmath.exp(1j * kin.k * (2 * sys.a + sys.L)))
        dphi = math.remainder(transmitted_phase(sys, E) - ref, math.tau)
        worst_phase = max(worst_phase, abs(dphi))
    ok = worst_p <= 1e-10 and worst_phase <= 1e-9
    verdict(
        5,
        ok,
        f"max |T_closed/T_matrix - 1| = {worst_p:.2e} (<= 1e-10), "
        f"max phase gap = {worst_phase:.2e} rad (<= 1e-9)",
    )
    assert ok


def test_criterion_06_phase_time_consistency():
    sys = neutron_system()
    (res,) = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    worst = 0.0
    checked = 0
    for i in range(50):
        E = (0.05 + 0.90 * i / 49) * sys.U0
        if abs(E - res.E_r) < res.beta / 10.0:
            continue
        analytic = phase_time(sys, E).total
        numeric = phase_time_numeric(sys, E, rel_step=1e-6)
        worst = max(worst, abs(analytic / numeric - 1.0))
        checked += 1
    fit_sys, fit_res = fitted_neutron()
    closed = phase_time_at_resonance(fit_sys, fit_res)
    general = phase_time(fit_sys, fit_res.E_r).total
    res_gap = abs(closed / general - 1.0)
    ok = worst <= 1e-6 and res_gap <= 1e-9 and checked >= 48
    verdict(
        6,
        ok,
        f"max |tau_analytic/tau_numeric - 1| = {worst:.2e} on {checked} points "
        f"(<= 1e-6); resonance closed form vs general = {res_gap:.2e} (<= 1e-9)",
    )
    assert ok


def test_criterion_07_breit_wigner_regime():
    sys, res = fitted_neutron()
    worst_p = worst_t = 0.0
    for i in range(-20, 21):
        E = res.E_r + (i / 20.0) * 0.5 * res.beta
        exact_p = amplitude(sys, E).probability
        worst_p = max(worst_p, abs(bw_probability(res, E) / exact_p - 1.0))
        exact_t = phase_time(sys, E).total
        worst_t = max(worst_t, abs(bw_phase_time(sys, res, E) / exact_t - 1.0))
    ok = worst_p <= 0.05 and worst_t <= 0.10
    verdict(
        7,
        ok,
        f"max Lorentzian/exact deviation: probability {worst_p:.3f} (<= 0.05), "
        f"phase-time {worst_t:.3f} (<= 0.10) over |E - E_r| <= beta/2",
    )
    assert ok


def test_criterion_08_generalized_hartman_effect():
    base = neutron_system()
    E = 0.1 * base.U0          # k/q = 1/3, away from any resonance below
    q = kinematics(base, E).q
    sys25 = base._replace(a=25.0 / q, L=1.0 / q)
    plateau_gap = abs(phase_time(sys25, E).total / hartman_limit(sys25, E) - 1.0)
    bound_ok = True
    details = []
    for qa in (15.0, 20.0, 25.0):
        sys = base._replace(a=qa / q, L=1.0 / q)
        doubled = sys._replace(L=2.0 * sys.L)
        t1 = phase_time(sys, E).total
        t2 = phase_time(doubled, E).total
        rel = abs(t2 - t1) / t1
        bound = 10.0 * math.exp(-2.0 * qa)
        details.append(f"qa={qa:.0f}: |dtau|/tau = {rel:.2e} <= {bound:.2e}")
        bound_ok = bound_ok and rel <= bound
    ok = plateau_gap <= 1e-4 and bound_ok
    verdict(
        8,
        ok,
        f"tau(qa=25) vs 2m/(hbar k q): {plateau_gap:.2e} (<= 1e-4); "
        + "; ".join(details),
    )
    assert ok


def test_criterion_09_exponential_transparency_scaling():
    sys = neutron_system()
    E = 0.35 * sys.U0
    q = kinematics(sys, E).q
    xs, ys = [], []
    for i in range(11):
        a = (15.0 + i) / q
        xs.append(a)
        ys.append(log_probability(sys._replace(a=a), E))
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    dev = abs(slope / (-4.0 * q) - 1.0)
    ok = dev <= 1e-3
    verdict(
        9,
        ok,
        f"fitted d ln|A_T|^2/da = {slope:.6e}, -4q = {-4 * q:.6e}, "
        f"deviation {dev:.2e} (<= 1e-3)",
    )
    assert ok


def _identity_defects(kin, state):
    e = state.e_neg
    u, v, w = state.u_scaled, state.v_scaled, state.w_scaled
    up, vp, wp = state.up_scaled, state.vp_scaled, state.wp_scaled
    d3 = abs(kin.sigma**2 - kin.delta**2 - 4.0) / 4.0
    rhs8 = (e + w) ** 2
    d8 = abs(u * u + v * v - rhs8) / rhs8
    lhs18, rhs18 = u * up + v * vp, (e + w) * wp
    s18 = max(abs(lhs18), abs(rhs18)) or 1.0
    d18 = abs(lhs18 - rhs18) / s18
    lhs21 = up * up + vp * vp - wp * wp
    rhs21 = (up * v - u * vp) ** 2 / (e + w) ** 2
    s21 = max(abs(lhs21), abs(rhs21)) or 1.0
    d21 = abs(lhs21 - rhs21) / s21
    return d3, d8, d18, d21


def test_criterion_10_property_suites():
    rng = random.Random(193817)
    worst = [0.0, 0.0, 0.0, 0.0]
    for _ in range(10_000):
        u0 = joule_from_nev(10.0 ** rng.uniform(0.0, 4.0))
        sys = BarrierSystem(
            a=10.0 ** rng.uniform(0.0, 3.3) * 1e-10,
            U0=u0,
            L=rng.uniform(0.0, 2000.0) * 1e-10,
            m=rng.uniform(0.1, 10.0) * M0,
        )
        kin = kinematics(sys, rng.uniform(1e-3, 1.0 - 1e-3) * sys.U0)
        state = hyperbolic_state(kin, sys.a)
        worst = [max(w, d) for w, d in zip(worst, _identity_defects(kin, state))]
    identities_ok = (
        worst[0] <= 1e-12 and worst[1] <= 1e-10 and worst[2] <= 1e-8 and worst[3] <= 1e-8
    )

    # every certified resonance is fully transparent and a residual root
    res_ok = True
    for mass_ratio, l_scale in ((1.0, 1.0), (0.926875, 1.0), (1.0, 2.0), (0.7, 1.5)):
        sys = neutron_system(mass_ratio)
        sys = sys._replace(L=l_scale * sys.L)
        for r in find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0):
            res_ok &= abs(amplitude(sys, r.E_r).probability - 1.0) <= 1e-9
            res_ok &= abs(resonance_residual(sys, r.E_r)) < 1e-10

    worst_flux = 0.0
    for _ in range(2_000):
        e_nev = rng.uniform(1.0, 400.0)
        segments = []
        for _ in range(rng.randint(1, 5)):
            height = rng.uniform(-300.0, 500.0)
            if abs(height - e_nev) < 1e-6 * max(1.0, e_nev):
                height += 1.0
            segments.append((rng.uniform(5.0, 400.0) * 1e-10, joule_from_nev(height)))
        sol = solve(
            PotentialProfile(tuple(segments), rng.uniform(0.2, 5.0) * M0),
            joule_from_nev(e_nev),
        )
        worst_flux = max(worst_flux, abs(sol.transmission + sol.reflection - 1.0))
    flux_ok = worst_flux <= 1e-10

    ok = identities_ok and res_ok and flux_ok
    verdict(
        10,
        ok,
        f"identity defects over 1e4 draws: sigma/delta {worst[0]:.1e}, "
        f"modulus {worst[1]:.1e}, derivative {worst[2]:.1e}, wronskian {worst[3]:.1e}; "
        f"resonances certified: {res_ok}; worst unitarity defect {worst_flux:.1e}",
    )
    assert ok
