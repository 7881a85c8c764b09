from __future__ import annotations

import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelkit.constants import CODATA2018, joule_from_nev
from tunnelkit.errors import DegenerateMatchingError, DomainError
from tunnelkit.scatter_oracle import (
    PotentialProfile,
    TransferMatrix,
    double_barrier_profile,
    solve,
    transfer_matrix,
)
from tunnelkit.transmission import amplitude

from conftest import neutron_system

HBAR = CODATA2018.hbar
M0 = CODATA2018.m_neutron


def single_barrier_amplitude(E: float, V: float, d: float, m: float) -> complex:
    """Textbook closed form for one rectangular segment, t * exp(ikx) convention."""
    k = math.sqrt(2 * m * E) / HBAR
    if E < V:
        q = math.sqrt(2 * m * (V - E)) / HBAR
        delta = q / k - k / q
        den = math.cosh(q * d) + 0.5j * delta * math.sinh(q * d)
    else:
        k2 = math.sqrt(2 * m * (E - V)) / HBAR
        den = math.cos(k2 * d) - 0.5j * (k / k2 + k2 / k) * math.sin(k2 * d)
    return cmath.exp(-1j * k * d) / den


def test_single_segment_matches_closed_form_below_barrier():
    V = joule_from_nev(230.0)
    d = 300e-10
    for e_nev in (20.0, 100.0, 210.0):
        E = joule_from_nev(e_nev)
        sol = solve(PotentialProfile(((d, V),), M0), E)
        ref = single_barrier_amplitude(E, V, d, M0)
        assert sol.t == pytest.approx(ref, rel=1e-12)


def test_single_segment_matches_closed_form_above_well():
    V = -joule_from_nev(80.0)  # a well also exercises the propagating branch
    d = 120e-10
    E = joule_from_nev(60.0)
    sol = solve(PotentialProfile(((d, V),), M0), E)
    ref = single_barrier_amplitude(E, V, d, M0)
    assert sol.t == pytest.approx(ref, rel=1e-12)


def test_free_spacer_is_transparent():
    E = joule_from_nev(100.0)
    sol = solve(PotentialProfile(((195e-10, 0.0),), M0), E)
    assert sol.t == pytest.approx(1.0 + 0j, rel=1e-13)
    assert abs(sol.r) < 1e-13


def test_double_barrier_profile_geometry(neutron):
    profile = double_barrier_profile(neutron)
    widths = [w for w, _ in profile.segments]
    heights = [h for _, h in profile.segments]
    assert widths == pytest.approx([300e-10, 195e-10, 300e-10], rel=1e-15, abs=0)
    assert heights == pytest.approx(
        [joule_from_nev(230.0), 0.0, joule_from_nev(230.0)], rel=1e-15, abs=0
    )
    assert profile.m == M0


def test_zero_gap_merges_to_single_barrier():
    import dataclasses

    sys = dataclasses.replace(neutron_system(), L=0.0)
    profile = double_barrier_profile(sys)
    assert profile.segments == ((2 * sys.a, sys.U0),)
    E = joule_from_nev(100.0)
    sol = solve(profile, E)
    ref = single_barrier_amplitude(E, sys.U0, 2 * sys.a, sys.m)
    assert sol.t == pytest.approx(ref, rel=1e-12)


def test_vanishing_barrier_width_is_transparent(neutron):
    import dataclasses

    sys = dataclasses.replace(neutron, a=1e-20)
    sol = solve(double_barrier_profile(sys), joule_from_nev(100.0))
    assert sol.transmission == pytest.approx(1.0, rel=1e-9)


def test_degenerate_energy_raises(neutron):
    with pytest.raises(DegenerateMatchingError):
        solve(double_barrier_profile(neutron), neutron.U0)


def test_energy_must_be_positive(neutron):
    with pytest.raises(DomainError):
        solve(double_barrier_profile(neutron), 0.0)


@pytest.mark.parametrize("E", [math.inf, math.nan])
def test_energy_must_be_finite(neutron, E):
    # E = inf used to raise DegenerateMatchingError against the outer medium
    with pytest.raises(DomainError):
        solve(double_barrier_profile(neutron), E)


def test_profile_rejects_zero_width():
    with pytest.raises(DomainError):
        PotentialProfile(((0.0, 1e-26),), M0)


@pytest.mark.parametrize(
    "segments, mass",
    [
        (((1e-8, math.nan),), M0),
        (((1e-8, math.inf),), M0),
        (((math.inf, 1e-26),), M0),
        (((math.nan, 1e-26),), M0),
        (((1e-8, 1e-26),), math.inf),
        (((1e-8, 1e-26),), math.nan),
    ],
    ids=["nan-height", "inf-height", "inf-width", "nan-width", "inf-mass", "nan-mass"],
)
def test_profile_rejects_non_finite(segments, mass):
    # each of these used to reach solve() and return t = nan+nanj
    with pytest.raises(DomainError, match="finite"):
        PotentialProfile(segments, mass)


def _matrices_close(a: TransferMatrix, b: TransferMatrix, rel: float) -> bool:
    # Compare after aligning scales: a * e^{a.log_scale} vs b * e^{b.log_scale}.
    shift = math.exp(b.log_scale - a.log_scale)
    for name in ("m11", "m12", "m21", "m22"):
        lhs = getattr(a, name)
        rhs = getattr(b, name) * shift
        if abs(lhs - rhs) > rel * max(abs(lhs), abs(rhs), 1e-300):
            return False
    return True


def test_composition_associativity(neutron):
    E = joule_from_nev(100.0)
    barrier = PotentialProfile(((neutron.a, neutron.U0),), M0)
    spacer = PotentialProfile(((neutron.L, 0.0),), M0)
    whole = transfer_matrix(double_barrier_profile(neutron), E)
    composed = (
        transfer_matrix(barrier, E)
        @ transfer_matrix(spacer, E)
        @ transfer_matrix(barrier, E)
    )
    assert _matrices_close(whole, composed, rel=1e-12)


def _evanescent_q(E: float, height: float) -> float:
    return math.sqrt(2 * M0 * (height - E)) / HBAR


@pytest.mark.parametrize("frac", [0.1, 0.43, 0.9])
@pytest.mark.parametrize("qa", [40.0, 120.0, 170.0])
def test_deep_barriers_match_closed_form(neutron, frac, qa):
    import dataclasses

    E = frac * neutron.U0
    sys = dataclasses.replace(neutron, a=qa / _evanescent_q(E, neutron.U0))
    t = solve(double_barrier_profile(sys), E).t
    assert t == pytest.approx(amplitude(sys, E).amplitude, rel=1e-12, abs=0.0)


def test_composition_associativity_deep_barriers(neutron):
    E = joule_from_nev(100.0)
    barrier = PotentialProfile(((120.0 / _evanescent_q(E, neutron.U0), neutron.U0),), M0)
    spacer = PotentialProfile(((neutron.L, 0.0),), M0)
    whole = transfer_matrix(
        PotentialProfile(barrier.segments + spacer.segments + barrier.segments, M0), E
    )
    composed = (
        transfer_matrix(barrier, E)
        @ transfer_matrix(spacer, E)
        @ transfer_matrix(barrier, E)
    )
    assert whole.log_scale == pytest.approx(240.0, rel=1e-14)
    assert _matrices_close(whole, composed, rel=1e-12)


def test_unitarity_four_deep_barriers(neutron):
    E = 0.43 * neutron.U0
    a = 120.0 / _evanescent_q(E, neutron.U0)
    segments = ((a, neutron.U0), (neutron.L, 0.0)) * 3 + ((a, neutron.U0),)
    sol = solve(PotentialProfile(segments, M0), E)
    assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-10)


def _mismatched_layer(E: float) -> PotentialProfile:
    # A qd = 1 layer 1e-10 relative above E: |rho| ~ 1e5 at its interfaces, so
    # the matrix grows ~1e4 per layer with no exponential for log_scale to hold.
    height = E * (1.0 + 1e-10)
    return PotentialProfile(((1.0 / _evanescent_q(E, height), height), (100e-10, 0.0)), M0)


def test_rescaling_fires_and_keeps_unitarity_and_associativity():
    E = joule_from_nev(100.0)
    layer = _mismatched_layer(E)
    n = 100  # ~1e400 unscaled: past overflow unless the chain rescales mid-way
    whole = transfer_matrix(PotentialProfile(layer.segments * n, M0), E)
    # Without rescaling log_scale would be the evanescent sum n * qd = 100.
    assert whole.log_scale > n + 700.0
    composed = transfer_matrix(layer, E)
    for _ in range(n - 1):
        composed = composed @ transfer_matrix(layer, E)
    assert composed.log_scale > n + 700.0
    assert _matrices_close(whole, composed, rel=1e-12)
    sol = solve(PotentialProfile(layer.segments * n, M0), E)
    assert sol.transmission == 0.0  # below the double-precision floor
    assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-10)


def test_unitarity_on_neutron_grid(neutron):
    profile = double_barrier_profile(neutron)
    for i in range(50):
        E = (0.02 + 0.96 * i / 49) * neutron.U0
        sol = solve(profile, E)
        assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-10)


def test_deep_tunneling_stays_finite(neutron):
    # qa ~ 700: transmission underflows gracefully, reflection saturates at 1.
    import dataclasses

    kq = math.sqrt(2 * M0 * (neutron.U0 - 0.4 * neutron.U0)) / HBAR
    sys = dataclasses.replace(neutron, a=700.0 / kq)
    sol = solve(double_barrier_profile(sys), 0.4 * sys.U0)
    assert sol.transmission == 0.0  # below the double-precision floor
    assert sol.reflection == pytest.approx(1.0, abs=1e-10)
    assert math.isfinite(sol.r.real) and math.isfinite(sol.r.imag)


@settings(max_examples=200, deadline=None)
@given(
    e_nev=st.floats(1.0, 400.0),
    heights=st.lists(st.floats(-300.0, 500.0), min_size=1, max_size=5),
    widths=st.lists(st.floats(5.0, 400.0), min_size=5, max_size=5),
    mass_ratio=st.floats(0.2, 5.0),
)
def test_unitarity_property(e_nev, heights, widths, mass_ratio):
    E = joule_from_nev(e_nev)
    segments = []
    for h_nev, w_ang in zip(heights, widths):
        height = joule_from_nev(h_nev)
        if abs(E - height) <= 1e-9 * max(E, abs(height)):
            height *= 1.01  # stay away from the degenerate-matching guard
        segments.append((w_ang * 1e-10, height))
    profile = PotentialProfile(tuple(segments), mass_ratio * M0)
    sol = solve(profile, E)
    assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-10)
