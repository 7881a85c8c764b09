from __future__ import annotations

import contextlib
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelkit.constants import CODATA2018, joule_from_nev, nev_from_joule
from tunnelkit.errors import (
    DomainError,
    MassFitError,
    ResonanceValidationError,
    TunnelkitError,
)
from tunnelkit.kinematics import BarrierSystem, hyperbolic_state, kinematics
from tunnelkit.resonance import (
    bw_phase_time,
    bw_probability,
    breit_wigner_width,
    find_resonances,
    fit_effective_mass,
    resonance_residual,
)
from tunnelkit.transmission import amplitude, probability, scaled_denominator

from conftest import (
    NEUTRON_A_ANGSTROM,
    NEUTRON_L_ANGSTROM,
    NEUTRON_U0_NEV,
    neutron_system,
)

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
    opaque = dataclasses.replace(sys, a=16.0 / q_mid)
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
    fitted = dataclasses.replace(sys0, m=m)
    (res,) = find_resonances(fitted, *full_window(fitted))
    assert res.E_r == pytest.approx(target, rel=1e-9, abs=0)


def test_mass_fit_without_sign_change_raises():
    sys0 = neutron_system()
    with pytest.raises(MassFitError):
        fit_effective_mass(
            sys0.a, sys0.U0, sys0.L, joule_from_nev(127.0), (0.95 * M0, 1.3 * M0)
        )


def fitted_neutron():
    sys0 = neutron_system()
    m = fit_effective_mass(
        sys0.a, sys0.U0, sys0.L, joule_from_nev(127.0), (0.5 * M0, 1.5 * M0)
    )
    sys = dataclasses.replace(sys0, m=m)
    (res,) = find_resonances(sys, *full_window(sys))
    return sys, res


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
        sys = dataclasses.replace(neutron, L=scale * neutron.L)
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
    # u'v - uv' = 2(1 + w) G at L = 0, G the record's width bracket; both
    # sides scaled by exp(-4qa), the right one from the u/v/w route.
    sys, res = fitted_neutron()
    for E in (res.E_r, joule_from_nev(60.0), joule_from_nev(200.0)):
        sc = scaled_denominator(sys, E)
        st = hyperbolic_state(sc.kin, sys.a)
        direct = st.up_scaled * st.v_scaled - st.u_scaled * st.vp_scaled
        closed = 2.0 * (sc.e_neg + sc.w_scaled) * sc.width_bracket(0.0)
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
    off = dataclasses.replace(res, E_r=0.5 * sys.U0)
    with pytest.raises(ResonanceValidationError):
        breit_wigner_width(sys, off)
