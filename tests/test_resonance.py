from __future__ import annotations

import contextlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelkit.constants import CODATA2018, joule_from_nev, nev_from_joule
from tunnelkit.errors import (
    DegenerateResonanceError,
    DomainError,
    MassFitError,
    ResonanceValidationError,
    TunnelkitError,
)
from tunnelkit import resonance as resonance_module
from tunnelkit.kinematics import BarrierSystem, hyperbolic_state, kinematics
from tunnelkit.resonance import (
    bw_phase_time,
    bw_probability,
    breit_wigner_width,
    find_resonances,
    fit_effective_mass,
    phase_time_at_resonance,
    resonance_residual,
)
from tunnelkit.scenarios import run_neutron_scenario
from tunnelkit.transmission import (
    amplitude,
    probability,
    scaled_denominator,
)

from conftest import (
    NEUTRON_A_ANGSTROM,
    NEUTRON_L_ANGSTROM,
    NEUTRON_U0_NEV,
    _floats_around,
    _sign_changes,
    fitted_neutron,
    neutron_system,
)
from neutron_reference import neutron_reference

M0 = CODATA2018.m_neutron

# Effective-mass ratio reported for the 127 neV resonance of this geometry.
REPORTED_MASS_RATIO = 0.926883


def full_window(sys):
    return 1e-3 * sys.U0, 0.999 * sys.U0


def test_free_mass_resonance_is_123_nev(neutron):
    res = find_resonances(neutron, joule_from_nev(1.0), joule_from_nev(229.0))
    assert len(res) == 1
    assert nev_from_joule(res[0].E_r) == pytest.approx(123.0, abs=1.0)
    # regression pin on the precise root of the implemented residual
    assert nev_from_joule(res[0].E_r) == pytest.approx(123.0435540004, rel=1e-9)
    assert res[0].index == 0
    assert res[0].k_r == pytest.approx(kinematics(neutron, res[0].E_r).k, rel=1e-14)


def test_residual_vanishes_at_certified_root(neutron):
    (res,) = find_resonances(neutron, *full_window(neutron))
    assert abs(resonance_residual(neutron, res.E_r)) < 1e-10


def test_certified_root_is_fully_transparent(neutron):
    (res,) = find_resonances(neutron, *full_window(neutron))
    assert amplitude(neutron, res.E_r).probability == pytest.approx(1.0, abs=1e-9)


def _refine_peak(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section polish of a bracketed maximum of f."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    for _ in range(120):
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
        else:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
    x = 0.5 * (lo + hi)
    return x, f(x)


def _transparency_peaks(sys, e_lo: float, e_hi: float, n: int = 4000):
    """Local maxima of |A_T|^2 on a dense scan, golden-section refined."""
    grid = [e_lo + (e_hi - e_lo) * i / n for i in range(n + 1)]
    probs = [probability(sys, E) for E in grid]
    peaks = []
    for i in range(1, n):
        if probs[i] > probs[i - 1] and probs[i] > probs[i + 1]:
            peaks.append(_refine_peak(lambda E: probability(sys, E), grid[i - 1], grid[i + 1]))
    return peaks


def test_residual_changes_sign_where_transparency_peaks(neutron):
    # Dense |A_T|^2 scan as the independent oracle for the bracketing cell.
    peaks = _transparency_peaks(neutron, joule_from_nev(1.0), joule_from_nev(229.0))
    full = [e for e, p in peaks if p > 1.0 - 1e-6]
    assert len(full) == 1
    eps = 1e-6 * full[0]
    assert resonance_residual(neutron, full[0] - eps) * resonance_residual(
        neutron, full[0] + eps
    ) < 0


def test_root_count_matches_transparency_scan(neutron):
    # One residual root in the window <=> one near-unity transparency peak.
    roots = find_resonances(neutron, joule_from_nev(1.0), joule_from_nev(229.0))
    peaks = _transparency_peaks(neutron, joule_from_nev(1.0), joule_from_nev(229.0))
    full = [e for e, p in peaks if p > 1.0 - 1e-6]
    assert len(full) == len(roots) == 1


def test_window_excluding_root_is_empty(neutron):
    assert find_resonances(neutron, joule_from_nev(1.0), joule_from_nev(60.0)) == []


def test_bad_window_raises(neutron):
    with pytest.raises(DomainError):
        find_resonances(neutron, 0.0, joule_from_nev(100.0))
    with pytest.raises(DomainError):
        find_resonances(neutron, joule_from_nev(100.0), 1.5 * neutron.U0)
    with pytest.raises(DomainError):
        find_resonances(neutron, joule_from_nev(100.0), joule_from_nev(50.0))


def _branch_count(sys, E_lo, E_hi):
    """Half-integer crossings of psi = kL - atan((delta/2) tanh qa) over the window."""

    def branch(E):
        kin = kinematics(sys, E)
        psi = kin.k * sys.L - math.atan(0.5 * kin.delta * math.tanh(kin.q * sys.a))
        return math.floor(psi / math.pi - 0.5)

    return branch(E_hi) - branch(E_lo)


def _assert_all_roots_found(sys):
    roots = find_resonances(sys, *full_window(sys))
    assert len(roots) == _branch_count(sys, *full_window(sys))
    assert all(abs(probability(sys, r.E_r) - 1.0) <= 1e-9 for r in roots)
    assert all(r0.E_r < r1.E_r for r0, r1 in zip(roots, roots[1:]))
    assert [r.index for r in roots] == list(range(len(roots)))
    return roots


def test_very_wide_gap_misses_no_root():
    # L ~ 1e5 A between thin barriers: at low energy the roots crowd closer
    # than a 2000-cell grid's cells, which dropped 8 of these 307.
    sys = BarrierSystem.from_lab_units(
        27.100055358029334, 192.16913348640068, 99366.9441221283, 1.0815599662123923
    )
    assert len(_assert_all_roots_found(sys)) == 307


@settings(max_examples=60, deadline=None)
@given(
    qa=st.floats(1.0, 14.0),
    gap_angstrom=st.floats(0.0, 1e5),
    u0_nev=st.floats(150.0, 300.0),
    mass_ratio=st.floats(0.9, 1.1),
)
def test_every_branch_has_one_certified_root(qa, gap_angstrom, u0_nev, mass_ratio):
    # qa = sqrt(2 m U0) a / hbar, the opacity as E -> 0 (the window's most opaque end).
    # Up to qa = 8 every branch crossing is found and certified; past ~9 at
    # wide gaps some roots are too narrow to place in double precision, and
    # then only a TunnelkitError may come out.
    m, U0 = mass_ratio * M0, joule_from_nev(u0_nev)
    a_angstrom = qa * CODATA2018.hbar / math.sqrt(2.0 * m * U0) * 1e10
    sys = BarrierSystem.from_lab_units(a_angstrom, u0_nev, gap_angstrom, mass_ratio)
    if qa <= 8.0:
        _assert_all_roots_found(sys)
    else:
        with contextlib.suppress(TunnelkitError):
            _assert_all_roots_found(sys)


def test_unresolvable_narrow_resonance_fails_certification():
    # qa ~ 16 at the root: beta/E_r ~ 4e-14, and doubles cannot place the root
    # within the ~3e-5 beta that certification to 1e-9 needs.
    sys = neutron_system()
    q_mid = kinematics(sys, 0.5 * sys.U0).q
    opaque = sys._replace(a=16.0 / q_mid)
    with pytest.raises(ResonanceValidationError):
        find_resonances(opaque, 0.40 * sys.U0, 0.60 * sys.U0)


def test_fitted_mass_reproduces_reported_ratio():
    m = fit_effective_mass(
        a=NEUTRON_A_ANGSTROM * 1e-10,
        U0=joule_from_nev(NEUTRON_U0_NEV),
        L=NEUTRON_L_ANGSTROM * 1e-10,
        E_r_target=joule_from_nev(127.0),
        m_bracket=(0.5 * M0, 1.5 * M0),
    )
    assert m / M0 == pytest.approx(REPORTED_MASS_RATIO, abs=1e-4)
    # regression pin on the implemented inversion
    assert m / M0 == pytest.approx(0.9268754233, rel=1e-9)
    # the mpmath root of the same residual, within 1 ulp
    reference = neutron_reference()["mass_ratio"]
    assert abs(m / M0 - reference) <= math.ulp(reference)


def test_free_mass_round_trip_via_123_nev(neutron):
    (res,) = find_resonances(neutron, *full_window(neutron))
    m = fit_effective_mass(
        neutron.a, neutron.U0, neutron.L, res.E_r, (0.5 * M0, 1.5 * M0)
    )
    assert m / M0 == pytest.approx(1.0, abs=1e-3)


def test_mass_fit_round_trips_through_find_resonances():
    target = joule_from_nev(127.0)
    sys0 = neutron_system()
    m = fit_effective_mass(sys0.a, sys0.U0, sys0.L, target, (0.5 * M0, 1.5 * M0))
    fitted = sys0._replace(m=m)
    (res,) = find_resonances(fitted, *full_window(fitted))
    assert res.E_r == pytest.approx(target, rel=1e-9, abs=0)


def test_mass_fit_without_sign_change_raises():
    sys0 = neutron_system()
    with pytest.raises(MassFitError):
        fit_effective_mass(
            sys0.a, sys0.U0, sys0.L, joule_from_nev(127.0), (0.95 * M0, 1.3 * M0)
        )


@pytest.mark.parametrize(
    "changed",
    [
        {"m_bracket": (0.5 * M0, math.inf)},
        {"a": math.nan},
        {"L": -1e-10},
        {"U0": math.inf},
    ],
    ids=["infinite-upper-mass", "nan-width", "negative-gap", "infinite-height"],
)
def test_mass_fit_checks_the_system_at_both_bracket_ends(changed):
    # The fit builds the masses between the two ends without BarrierSystem's
    # checks, so the ends must still reject what the checks reject.
    sys0 = neutron_system()
    args = dict(
        a=sys0.a,
        U0=sys0.U0,
        L=sys0.L,
        E_r_target=joule_from_nev(127.0),
        m_bracket=(0.5 * M0, 1.5 * M0),
    )
    args.update(changed)
    with pytest.raises(DomainError):
        fit_effective_mass(**args)


@pytest.mark.parametrize(
    "changed, message",
    [
        ({"E_r_target": 0.0}, "target E_r must lie in"),
        ({"E_r_target": -joule_from_nev(127.0)}, "target E_r must lie in"),
        ({"E_r_target": joule_from_nev(NEUTRON_U0_NEV)}, "target E_r must lie in"),
        ({"E_r_target": math.nan}, "target E_r must lie in"),
        ({"m_bracket": (1.5 * M0, 0.5 * M0)}, "mass bracket must satisfy"),
        ({"m_bracket": (M0, M0)}, "mass bracket must satisfy"),
        ({"m_bracket": (0.0, M0)}, "mass bracket must satisfy"),
    ],
    ids=["zero-target", "negative-target", "target-at-u0", "nan-target",
         "reversed-bracket", "empty-bracket", "zero-lower-mass"],
)
def test_mass_fit_rejects_a_target_outside_0_u0_and_a_bracket_not_0_lo_hi(changed, message):
    sys0 = neutron_system()
    args = dict(
        a=sys0.a,
        U0=sys0.U0,
        L=sys0.L,
        E_r_target=joule_from_nev(127.0),
        m_bracket=(0.5 * M0, 1.5 * M0),
    )
    args.update(changed)
    with pytest.raises(DomainError, match=message):
        fit_effective_mass(**args)


@pytest.fixture
def residual_calls(monkeypatch):
    """Counts the resonance_residual evaluations the mass fit makes."""
    calls = [0]

    def counted(sys, E):
        calls[0] += 1
        return resonance_residual(sys, E)

    monkeypatch.setattr(resonance_module, "resonance_residual", counted)
    return calls


def test_neutron_fit_takes_at_most_14_residual_evaluations(residual_calls):
    # Bisection to adjacent floats took 55 on this fit.
    sys0 = neutron_system()
    fit_effective_mass(
        sys0.a, sys0.U0, sys0.L, joule_from_nev(127.0), (0.5 * M0, 1.5 * M0)
    )
    assert residual_calls[0] <= 14


def _bisected_mass(g, lo: float, hi: float) -> tuple[float, int]:
    """Reference fit: plain bisection of g down to adjacent floats. Returns
    the end with the smaller |g| and the number of evaluations of g."""
    flo, fhi, evaluations = g(lo), g(hi), 2
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        fmid = g(mid)
        evaluations += 1
        if fmid == 0.0:
            return mid, evaluations
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return (lo if abs(flo) <= abs(fhi) else hi), evaluations


def test_mass_fit_matches_bisection_on_seeded_brackets(residual_calls):
    # a 20-600 A and L 1-3000 A (log-uniform), U0 50-500 neV, E 0.01-0.99 U0,
    # bracket 0.5-1.5 m_n. A bracket holds one sign change when 257 even
    # samples and the 33 floats centred on the bisected root each show one.
    # Near some roots g is rounding noise and changes sign several times
    # within a few ulp; there, and where the bracket holds several roots,
    # the fit need only return a sign change of g.
    rng = random.Random(1971)
    single = several = 0
    while single < 300:
        a = math.exp(rng.uniform(math.log(20.0), math.log(600.0))) * 1e-10
        L = math.exp(rng.uniform(math.log(1.0), math.log(3000.0))) * 1e-10
        U0 = joule_from_nev(rng.uniform(50.0, 500.0))
        E = rng.uniform(0.01, 0.99) * U0
        lo, hi = 0.5 * M0, 1.5 * M0

        def g(m):
            return resonance_residual(BarrierSystem(a=a, U0=U0, L=L, m=m), E)

        if (g(lo) < 0.0) == (g(hi) < 0.0):
            with pytest.raises(MassFitError):
                fit_effective_mass(a, U0, L, E, (lo, hi))
            continue
        reference, bisection_evaluations = _bisected_mass(g, lo, hi)
        residual_calls[0] = 0
        m = fit_effective_mass(a, U0, L, E, (lo, hi))
        coarse = [g(lo + (hi - lo) * i / 256) for i in range(257)]
        fine = [g(x) for x in _floats_around(reference, 16)]
        if _sign_changes(coarse) == 1 and _sign_changes(fine) == 1:
            single += 1
            assert abs(m - reference) <= 4 * math.ulp(reference)
            assert residual_calls[0] <= bisection_evaluations
        else:
            several += 1
            assert lo <= m <= hi
            gm = g(m)
            assert gm == 0.0 or any(
                (g(x) < 0.0) != (gm < 0.0)
                for x in (math.nextafter(m, lo), math.nextafter(m, hi))
            )
    assert several > 50


def test_mass_fit_round_trip_to_1e_12_on_seeded_systems():
    # a 100-400 A, L 50-2000 A, U0 150-300 neV, E_r target 0.2-0.8 U0: the
    # fitted system's nearest root reproduces the target to 1e-12 relative.
    rng = random.Random(1012)
    fits = 0
    while fits < 200:
        a = rng.uniform(100.0, 400.0) * 1e-10
        L = rng.uniform(50.0, 2000.0) * 1e-10
        U0 = joule_from_nev(rng.uniform(150.0, 300.0))
        target = rng.uniform(0.2, 0.8) * U0
        try:
            m = fit_effective_mass(a, U0, L, target, (0.5 * M0, 1.5 * M0))
        except MassFitError:
            continue
        fits += 1
        fitted = BarrierSystem(a=a, U0=U0, L=L, m=m)
        nearest = min(
            (r.E_r for r in find_resonances(fitted, *full_window(fitted))),
            key=lambda E_r: abs(E_r - target),
        )
        assert nearest == pytest.approx(target, rel=1e-12, abs=0)


def test_width_magnitude_matches_measured_order():
    _, res = fitted_neutron()
    beta_nev = nev_from_joule(res.beta)
    assert 1.0 <= beta_nev <= 4.0  # measured half-width was ~4 neV
    # regression pin
    assert beta_nev == pytest.approx(2.3625853575, rel=1e-9)


def test_width_shrinks_when_gap_grows(neutron):
    # Track the lowest quasi-bound level as the gap widens.
    betas = []
    for scale in (1.0, 1.5, 2.0):
        sys = neutron._replace(L=scale * neutron.L)
        roots = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
        betas.append(roots[0].beta)
    assert betas[0] > betas[1] > betas[2]


def test_width_is_half_max_of_exact_profile():
    sys, res = fitted_neutron()

    def prob(E):
        return probability(sys, E)

    def half_point(side):
        lo, hi = res.E_r, res.E_r + side * joule_from_nev(20.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if prob(mid) > 0.5:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    up = half_point(+1) - res.E_r
    down = res.E_r - half_point(-1)
    assert res.beta == pytest.approx(up, rel=0.07, abs=0)
    assert res.beta == pytest.approx(down, rel=0.07, abs=0)


def test_wronskian_closed_form_matches_direct_arithmetic():
    # u'v - uv' = 2(1 + w) G at L = 0, where the width bracket
    # G = wL - (1 + w) chi' is -(1 + w) chi', from the record's fields; both
    # sides scaled by exp(-4qa), the right one from the u/v/w route.
    sys, res = fitted_neutron()
    for E in (res.E_r, joule_from_nev(60.0), joule_from_nev(200.0)):
        sc = scaled_denominator(sys, E)
        st = hyperbolic_state(sc.kin, sys.a)
        direct = st.up_scaled * st.v_scaled - st.u_scaled * st.vp_scaled
        bracket_at_zero_gap = -(sc.e_neg + sc.w_scaled) * sc.chi_k
        closed = 2.0 * (sc.e_neg + sc.w_scaled) * bracket_at_zero_gap
        assert closed == pytest.approx(direct, rel=1e-12, abs=0)


def test_linearized_modulus_at_half_width_points():
    # D ~ C_r (E - E_r + i beta) with |C_r| beta = 1 puts |D| = 1/sqrt(P) at
    # sqrt(2) one half-width either side; the linearization is good to a
    # few percent at this beta/E_r.
    sys, res = fitted_neutron()
    for sign in (-1.0, 1.0):
        exact_mod = 1.0 / math.sqrt(probability(sys, res.E_r + sign * res.beta))
        assert exact_mod == pytest.approx(math.sqrt(2.0), rel=0.05)


def test_bw_probability_peak_and_half_points():
    sys, res = fitted_neutron()
    assert bw_probability(res, res.E_r) == 1.0
    assert bw_probability(res, res.E_r + res.beta) == pytest.approx(0.5, rel=1e-12)
    assert bw_probability(res, res.E_r - res.beta) == pytest.approx(0.5, rel=1e-12)


def test_bw_probability_tracks_exact_inside_half_width():
    sys, res = fitted_neutron()
    for i in range(-10, 11):
        E = res.E_r + (i / 10.0) * 0.5 * res.beta
        assert bw_probability(res, E) == pytest.approx(probability(sys, E), rel=0.05)


def test_bw_phase_time_peak_value():
    sys, res = fitted_neutron()
    kin = kinematics(sys, res.E_r)
    expected = kin.m * sys.L / (kin.hbar * kin.k) + kin.hbar / res.beta
    assert bw_phase_time(sys, res, res.E_r) == pytest.approx(expected, rel=1e-12, abs=0)


def test_bw_phase_time_far_tail_is_free_flight():
    sys, res = fitted_neutron()
    E = res.E_r + 20.0 * res.beta
    kin = kinematics(sys, E)
    free = kin.m * sys.L / (kin.hbar * kin.k)
    delay = bw_phase_time(sys, res, E) - free
    assert 0.0 < delay < kin.hbar / (400.0 * res.beta)


def test_bw_forms_answer_where_beta_squared_underflows():
    # U0 = 1e-160 J, a = 2/q and L = 3/k at 0.4 U0: the lowest certified root
    # has beta ~ 1.8e-163 J, so beta^2 is 0.0 and the forms written with it
    # divided 0 by 0 at E = E_r.
    m, U0 = CODATA2018.m_neutron, 1e-160
    kin = kinematics(BarrierSystem(1.0, U0, 0.0, m), 0.4 * U0)
    sys = BarrierSystem(2.0 / kin.q, U0, 3.0 / kin.k, m)
    res = find_resonances(sys, 1e-3 * U0, 0.999 * U0)[0]
    assert res.beta * res.beta == 0.0
    assert bw_probability(res, res.E_r) == 1.0
    assert bw_probability(res, res.E_r + res.beta) == pytest.approx(0.5, rel=1e-12)
    kin_r = kinematics(sys, res.E_r)
    expected = kin_r.m * sys.L / (kin_r.hbar * kin_r.k) + kin_r.hbar / res.beta
    assert bw_phase_time(sys, res, res.E_r) == pytest.approx(expected, rel=1e-12, abs=0)
    assert bw_phase_time(sys, res, res.E_r) == pytest.approx(res.tau_r, rel=1e-6)


def test_width_positive_and_energy_in_range():
    sys, res = fitted_neutron()
    assert res.beta > 0
    assert 0 < res.E_r < sys.U0
    assert breit_wigner_width(sys, res) == pytest.approx(res.beta, rel=1e-12, abs=0)


def test_width_certifies_as_find_resonances_does():
    # At E = U0/2, |A_T|^2 = 0.036: the bracket there would give 2.47e-28 J
    # against the root's 2.93e-28 J, so the width refuses it as tau_r does.
    sys = neutron_system()
    (res,) = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    off = res._replace(E_r=0.5 * sys.U0)
    with pytest.raises(ResonanceValidationError):
        breit_wigner_width(sys, off)


# -- one record per root ---------------------------------------------------------


def _seeded_systems(n: int):
    # a 20-900 A, L = 0 or 1-3e4 A, U0 50-400 neV, mass ratio 0.6-1.5
    rng = random.Random(1616)
    for i in range(n):
        L = 0.0 if i % 5 == 0 else 10.0 ** rng.uniform(0.0, math.log10(3e4))
        yield BarrierSystem.from_lab_units(
            rng.uniform(20.0, 900.0), rng.uniform(50.0, 400.0), L, rng.uniform(0.6, 1.5)
        )


def test_each_root_carries_the_beta_and_tau_r_it_is_certified_with():
    roots = 0
    for sys in _seeded_systems(150):
        try:
            found = find_resonances(sys, *full_window(sys))
        except ResonanceValidationError:  # a root too narrow to place
            continue
        for res in found:
            assert res.tau_r == phase_time_at_resonance(sys, res), (sys, res)
            assert res.beta == breit_wigner_width(sys, res), (sys, res)
            roots += 1
    assert roots > 900


@pytest.fixture
def certificates(monkeypatch):
    """Counts the roots the resonance module certifies (_resonance calls)."""
    calls = [0]
    resonance = resonance_module._resonance

    def counted(sc, L, index):
        calls[0] += 1
        return resonance(sc, L, index)

    monkeypatch.setattr(resonance_module, "_resonance", counted)
    return calls


def test_one_certifying_record_per_root(certificates):
    sys = BarrierSystem.from_lab_units(80.0, 230.0, 2e4, 1.0)
    found = find_resonances(sys, *full_window(sys))
    assert len(found) > 10
    assert certificates[0] == len(found)
    certificates[0] = 0
    run_neutron_scenario()  # one root at the free mass, one at the fitted mass
    assert certificates[0] == 2


def test_root_search_reads_at_most_6_records_per_root(records):
    # The window ends and every step of the root search; the certificate is
    # the record of the step that placed the root, and it also gives the next
    # branch its Newton start: 335 records for 65 roots.
    sys = BarrierSystem.from_lab_units(80.0, 230.0, 2e4, 1.0)
    found = find_resonances(sys, *full_window(sys))
    assert len(found) > 10
    assert records[0] <= 6 * len(found)


@pytest.mark.parametrize("slope", [0.0, math.nan, -1.0, math.inf, 1e-300])
def test_a_bad_slope_leaves_the_roots_unchanged(monkeypatch, slope):
    # Where L - chi' is unusable the Newton point is None (or, for a tiny
    # slope, at infinity, outside every bracket) and the search falls back to
    # Illinois; no ZeroDivisionError or OverflowError escapes.
    systems = [neutron_system(), BarrierSystem.from_lab_units(80.0, 230.0, 2e4, 1.0)]
    expected = [find_resonances(sys, *full_window(sys)) for sys in systems]
    branch_offset = resonance_module._branch_offset

    class BadSlope(float):
        """chi' as a number, but L - chi' is the bad slope."""

        def __rsub__(self, other):
            return slope

    def patched(sys, L, n):
        offset = branch_offset(sys, L, n)

        def bad_slope(E, sc=None):
            sc = scaled_denominator(sys, E) if sc is None else sc
            return offset(E, sc._replace(chi_k=BadSlope(sc.chi_k)))

        return bad_slope

    monkeypatch.setattr(resonance_module, "_branch_offset", patched)
    for sys in systems:
        for n, E in ((0, 0.5 * sys.U0), (3, 0.01 * sys.U0), (9, 0.9 * sys.U0)):
            newton = resonance_module._branch_offset(sys, sys.L, n)(E)[1]
            assert newton is None or newton == math.inf, (sys, n, E, newton)
    assert [find_resonances(sys, *full_window(sys)) for sys in systems] == expected


def test_non_positive_width_bracket_is_degenerate_for_beta_and_tau_r(monkeypatch):
    # The record _resonance receives at E_r keeps its certificate (|D|^2 = 1)
    # but has w = 0 and chi' = 0, so G = wL - (1 + w) chi' = 0.
    sys = neutron_system()
    (res,) = find_resonances(sys, *full_window(sys))

    def flat(sys, E):
        return scaled_denominator(sys, E)._replace(w_scaled=0.0, chi_k=0.0)

    monkeypatch.setattr(resonance_module, "scaled_denominator", flat)
    with pytest.raises(DegenerateResonanceError):
        breit_wigner_width(sys, res)
    with pytest.raises(DegenerateResonanceError):
        phase_time_at_resonance(sys, res)


# -- Breit-Wigner inputs ---------------------------------------------------------


@pytest.mark.parametrize("beta", [0.0, math.nan, -1e-28, math.inf])
def test_bw_forms_raise_unless_beta_is_finite_and_positive(beta):
    sys = neutron_system()
    (res,) = find_resonances(sys, *full_window(sys))
    bad = res._replace(beta=beta)
    with pytest.raises(DomainError):
        bw_probability(bad, res.E_r)
    with pytest.raises(DomainError):
        bw_phase_time(sys, bad, res.E_r)


@pytest.mark.parametrize("E", [math.nan, -1.0, 0.0, math.inf])
def test_bw_probability_raises_unless_energy_is_finite_and_positive(E):
    sys = neutron_system()
    (res,) = find_resonances(sys, *full_window(sys))
    with pytest.raises(DomainError):
        bw_probability(res, E)
