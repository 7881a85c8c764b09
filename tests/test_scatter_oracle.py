from __future__ import annotations

import cmath
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mp

from tunnelkit.constants import CODATA2018, joule_from_nev
from tunnelkit.errors import DomainError, TunnelkitError
from tunnelkit.kinematics import BarrierSystem
from tunnelkit.resonance import find_resonances
from tunnelkit.scatter_oracle import PotentialProfile, double_barrier_profile, solve
from tunnelkit.transmission import amplitude

from conftest import neutron_system
from neutron_reference import _regions_t_r, _transfer_t_r, stable

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
    sys = neutron_system()._replace(L=0.0)
    profile = double_barrier_profile(sys)
    assert profile.segments == ((2 * sys.a, sys.U0),)
    E = joule_from_nev(100.0)
    sol = solve(profile, E)
    ref = single_barrier_amplitude(E, sys.U0, 2 * sys.a, sys.m)
    assert sol.t == pytest.approx(ref, rel=1e-12)


def test_vanishing_barrier_width_is_transparent(neutron):
    sys = neutron._replace(a=1e-20)
    sol = solve(double_barrier_profile(sys), joule_from_nev(100.0))
    assert sol.transmission == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize(
    "d, m, E, height",
    [
        (1e-10, M0, joule_from_nev(100.0), joule_from_nev(100.0)),
        (300e-10, M0, joule_from_nev(100.0), joule_from_nev(100.0)),
        (3000e-10, M0, joule_from_nev(100.0), joule_from_nev(100.0)),
        # 2 m |E - height| underflows to 0 on either side of E: the same limit
        (7.5e120, 1e-30, 1e-280, math.nextafter(1e-280, math.inf)),
        (7.5e120, 1e-30, 1e-280, math.nextafter(1e-280, 0.0)),
    ],
    ids=["1A", "300A", "3000A", "underflow-above", "underflow-below"],
)
def test_segment_at_its_height_is_the_d_limit(d, m, E, height):
    # The segment matrix tends to [[1, d], [0, 1]]: t = e^{-ikd} / (1 - ikd/2).
    k = math.sqrt(2 * m * E) / HBAR
    sol = solve(PotentialProfile(((d, height),), m), E)
    assert sol.t == pytest.approx(cmath.exp(-1j * k * d) / (1 - 0.5j * k * d), rel=1e-12)


def _mp_psi_t_r(segments, m, E):
    """t and r from the full (psi, psi') transfer matrix at the working
    precision, regular at E = height, from the same doubles."""
    hbar, m, E = mp.mpf(HBAR), mp.mpf(m), mp.mpf(E)
    k = mp.sqrt(2 * m * E) / hbar
    chain, width = mp.eye(2), mp.mpf(0)
    for d, height in segments:
        d = mp.mpf(d)
        kappa = mp.sqrt(mp.mpc(2 * m * (E - mp.mpf(height)))) / hbar
        sinc = mp.sin(kappa * d) / (kappa * d) if kappa else mp.mpf(1)
        step = mp.matrix([[mp.cos(kappa * d), d * sinc], [-kappa**2 * d * sinc, mp.cos(kappa * d)]])
        chain, width = step * chain, width + d
    # chain (1 + r, ik(1 - r)) = t e^{ikX} (1, ik), solved for (t e^{ikX}, r)
    a, b = chain * mp.matrix([1, 1j * k]), chain * mp.matrix([1, -1j * k])
    x = mp.lu_solve(mp.matrix([[1, -b[0]], [1j * k, -b[1]]]), a)
    return complex(x[0] * mp.expj(-k * width)), complex(x[1])


def test_double_barrier_at_its_height_matches_mpmath(neutron):
    profile = double_barrier_profile(neutron)
    t_ref, r_ref = stable(lambda: _mp_psi_t_r(profile.segments, neutron.m, neutron.U0), 60)
    sol = solve(profile, neutron.U0)
    assert sol.t == pytest.approx(t_ref, rel=1e-12, abs=0.0)
    assert sol.r == pytest.approx(r_ref, rel=0.0, abs=1e-12)


def test_energy_must_be_positive(neutron):
    with pytest.raises(DomainError):
        solve(double_barrier_profile(neutron), 0.0)


@pytest.mark.parametrize("E", [math.inf, math.nan])
def test_energy_must_be_finite(neutron, E):
    # E = inf used to raise a matching error against the outer medium
    with pytest.raises(DomainError):
        solve(double_barrier_profile(neutron), E)


@pytest.mark.parametrize(
    "profile, E",
    [
        (PotentialProfile(((1e-9, 1e300),), 1e10), 1e-20),  # segment wavenumber
        (PotentialProfile(((1e-9, 1e-20),), 1e300), 1e10),  # outer wavenumber
    ],
    ids=["segment", "outer"],
)
def test_wavenumber_overflow_raises(profile, E):
    # both used to return t = nan+nanj
    with pytest.raises(DomainError, match="overflows"):
        solve(profile, E)


@pytest.mark.parametrize(
    "segments",
    [
        ((1e305, 0.0),),                          # k d of one free segment
        ((1e300, 0.0), (1e300, 0.0)),             # k x across the whole profile
        ((1e305, 1e-25 * (1.0 + 1e-10)),),        # k x past a shallow barrier
    ],
    ids=["segment", "total", "shallow-barrier"],
)
def test_phase_overflow_raises(segments):
    # cmath.exp of an infinite phase raised a bare ValueError
    with pytest.raises(DomainError, match="phase k . overflows"):
        solve(PotentialProfile(segments, M0), 1e-25)


def test_opaque_profile_wider_than_the_phase_range_transmits_nothing():
    # k x overflows here too, but q d does as well: |t| = 0, whatever its phase
    sol = solve(PotentialProfile(((1e305, 1e-24),), M0), 1e-25)
    assert sol.t == 0.0
    assert sol.reflection == pytest.approx(1.0, rel=1e-12)


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


@pytest.mark.parametrize(
    "change",
    [
        {"m": math.inf},
        {"m": math.nan},
        {"m": 0.0},
        {"m": -M0},
        {"segments": ((0.0, 1e-26),)},
        {"segments": ((-1e-8, 1e-26),)},
        {"segments": ((math.inf, 1e-26),)},
        {"segments": ((math.nan, 1e-26),)},
        {"segments": ((1e-8, math.inf),)},
        {"segments": ((1e-8, math.nan),)},
    ],
    ids=["inf-mass", "nan-mass", "zero-mass", "negative-mass", "zero-width",
         "negative-width", "inf-width", "nan-width", "inf-height", "nan-height"],
)
def test_profile_replace_validates(change):
    good = PotentialProfile(segments=((1e-8, 1e-26),), m=M0)
    with pytest.raises(DomainError):
        good._replace(**change)


def test_profile_record_semantics(neutron):
    profile = PotentialProfile(segments=((1e-8, 1e-26), (2e-9, 0.0)), m=M0)
    assert profile == PotentialProfile(((1e-8, 1e-26), (2e-9, 0.0)), M0)
    assert profile == (((1e-8, 1e-26), (2e-9, 0.0)), M0)
    assert profile._replace(m=2 * M0).m == 2 * M0
    copy = pickle.loads(pickle.dumps(double_barrier_profile(neutron)))
    assert type(copy) is PotentialProfile and copy == double_barrier_profile(neutron)


def _evanescent_q(E: float, height: float) -> float:
    return math.sqrt(2 * M0 * (height - E)) / HBAR


@pytest.mark.parametrize("frac", [0.1, 0.43, 0.9])
@pytest.mark.parametrize("qa", [40.0, 120.0, 170.0])
def test_deep_barriers_match_closed_form(neutron, frac, qa):
    E = frac * neutron.U0
    sys = neutron._replace(a=qa / _evanescent_q(E, neutron.U0))
    t = solve(double_barrier_profile(sys), E).t
    assert t == pytest.approx(amplitude(sys, E).amplitude, rel=1e-12, abs=0.0)


def test_unitarity_four_deep_barriers(neutron):
    E = 0.43 * neutron.U0
    a = 120.0 / _evanescent_q(E, neutron.U0)
    segments = ((a, neutron.U0), (neutron.L, 0.0)) * 3 + ((a, neutron.U0),)
    sol = solve(PotentialProfile(segments, M0), E)
    assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-10)


def _mismatched_layer(E: float) -> PotentialProfile:
    # A qd = 1 layer 1e-10 relative above E: q ~ 1e-5 k, so its sinh(qd)/q ~ 1e5/k
    # dwarfs the free 1/k, and the row grows ~1e4 per layer with no exponential
    # for log_scale to hold.
    height = E * (1.0 + 1e-10)
    return PotentialProfile(((1.0 / _evanescent_q(E, height), height), (100e-10, 0.0)), M0)


def test_rescaling_fires_and_keeps_unitarity():
    # ~1e400 unscaled after 100 layers: past overflow unless the walk rescales
    # mid-way (8 times), and r comes out nan without it.
    E = joule_from_nev(100.0)
    sol = solve(PotentialProfile(_mismatched_layer(E).segments * 100, M0), E)
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
    kq = math.sqrt(2 * M0 * (neutron.U0 - 0.4 * neutron.U0)) / HBAR
    sys = neutron._replace(a=700.0 / kq)
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
@example(e_nev=100.0, heights=[230.0, 100.0, 230.0], widths=[300.0, 195.0, 300.0, 5.0, 5.0],
         mass_ratio=1.0)  # a segment exactly at E
def test_unitarity_property(e_nev, heights, widths, mass_ratio):
    E = joule_from_nev(e_nev)
    segments = []
    for h_nev, w_ang in zip(heights, widths):
        segments.append((w_ang * 1e-10, joule_from_nev(h_nev)))
    profile = PotentialProfile(tuple(segments), mass_ratio * M0)
    sol = solve(profile, E)
    assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-10)


def _oracle_box_points(seed: int, systems: int):
    """(system, E) pairs from the oracle workload's box: a 100-220 A,
    L 50-1000 A, U0 150-300 neV, mass ratio 0.9-1.1; ten energies uniform in
    (0.05, 0.95) U0 per system, and E_r +- 3 beta at each resonance there."""
    rng = random.Random(seed)
    points = []
    for _ in range(systems):
        sys = BarrierSystem.from_lab_units(
            rng.uniform(100.0, 220.0), rng.uniform(150.0, 300.0),
            rng.uniform(50.0, 1000.0), rng.uniform(0.9, 1.1),
        )
        points += [(sys, rng.uniform(0.05, 0.95) * sys.U0) for _ in range(10)]
        for res in find_resonances(sys, 0.05 * sys.U0, 0.95 * sys.U0):
            points += [(sys, res.E_r - 3.0 * res.beta), (sys, res.E_r + 3.0 * res.beta)]
    return points


def test_solve_matches_mpmath_transfer_matrix_in_the_oracle_box():
    # The reference is built from the same doubles (hbar, m, E, a, L, U0) at
    # 40 digits, so the comparison measures the walk's rounding alone.
    points = _oracle_box_points(seed=2104, systems=24)
    assert len(points) >= 300
    worst = 0.0
    with mp.workdps(40):
        hbar = mp.mpf(HBAR)
        for sys, E in points:
            m, E_mp = mp.mpf(sys.m), mp.mpf(E)
            k = mp.sqrt(2 * m * E_mp) / hbar
            k_barrier = mp.sqrt(mp.mpc(2 * m * (E_mp - mp.mpf(sys.U0)))) / hbar
            t_ref, r_ref = _transfer_t_r(k, k_barrier, mp.mpf(sys.a), mp.mpf(sys.L))
            sol = solve(double_barrier_profile(sys), E)
            for got, ref in ((sol.t, t_ref), (sol.r, r_ref)):
                worst = max(worst, float(abs(mp.mpc(got) - ref) / abs(ref)))
    assert worst < 1e-12


def _mp_profile_t_r(segments, m, E):
    """t and r of any segment list at the working precision, from the same doubles."""
    hbar, m, E = mp.mpf(HBAR), mp.mpf(m), mp.mpf(E)
    heights = (0.0, *(height for _, height in segments), 0.0)
    regions = [mp.sqrt(mp.mpc(2 * m * (E - mp.mpf(h)))) / hbar for h in heights]
    edges = [mp.mpf(0)]
    for width, _ in segments:
        edges.append(edges[-1] + mp.mpf(width))
    t, r = _regions_t_r(regions, edges)
    return complex(t), complex(r)


def test_solve_matches_mpmath_transfer_matrix_on_random_profiles():
    # Wells, barriers and steps of 1-7 segments. Heights are uniform, so no
    # interface is as mismatched as _mismatched_layer's, whose reference needs
    # ~8 more digits per layer; the unitarity tests cover those stacks.
    rng = random.Random(2301)
    for _ in range(320):
        U = joule_from_nev(rng.uniform(150.0, 300.0))
        segments = tuple(
            (rng.uniform(10.0, 300.0) * 1e-10,
             0.0 if rng.random() < 0.2 else rng.uniform(-0.5, 1.5) * U)
            for _ in range(rng.randint(1, 7))
        )
        m, E = M0 * rng.uniform(0.9, 1.1), rng.uniform(0.05, 0.95) * U
        t_ref, r_ref = stable(lambda: _mp_profile_t_r(segments, m, E), 60)
        sol = solve(PotentialProfile(segments, m), E)
        assert sol.t == pytest.approx(t_ref, rel=1e-12, abs=0.0)
        assert sol.r == pytest.approx(r_ref, rel=0.0, abs=1e-12)


def test_thin_deep_well_keeps_unitarity():
    # A well 1e-95 J deep at E = 1e-142 J: k'/k ~ 3e23 and k' d ~ 6e-39. The
    # plane-wave walk's interface products cancelled here, giving T + R = 2.8e29.
    segments = ((2.261016705664373e-11, -1.825801136317172e-95),)
    m, E = 4.4962538446114434e-29, 9.57719726477895e-143
    t_ref, r_ref = stable(lambda: _mp_profile_t_r(segments, m, E), 60)
    sol = solve(PotentialProfile(segments, m), E)
    assert abs(sol.t - t_ref) < 1e-12 and abs(sol.r - r_ref) < 1e-12
    assert sol.transmission + sol.reflection == pytest.approx(1.0, abs=1e-12)


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_extreme_inputs_are_unitary_or_raise():
    # m 1e-60-1e300 kg, E 1e-300-1e300 J, heights 0 or +-1e-300-1e300 J,
    # widths 1e-12-1e-5 m, 1-4 segments: no finite result off unitarity.
    rng = random.Random(28)
    finite = 0
    for _ in range(20_000):
        m, E = _log_uniform(rng, 1e-60, 1e300), _log_uniform(rng, 1e-300, 1e300)
        segments = tuple(
            (_log_uniform(rng, 1e-12, 1e-5), 0.0 if rng.random() < 0.2
             else rng.choice((-1.0, 1.0)) * _log_uniform(rng, 1e-300, 1e300))
            for _ in range(rng.randint(1, 4))
        )
        try:
            sol = solve(PotentialProfile(segments, m), E)
        except TunnelkitError:
            continue
        assert cmath.isfinite(sol.t) and cmath.isfinite(sol.r), (segments, m, E)
        assert abs(sol.transmission + sol.reflection - 1.0) < 1e-6, (segments, m, E)
        finite += 1
    assert finite > 10_000


def test_walk_overflow_raises():
    # A free segment at E's height and 1e300 m wide, left of a layer that left
    # v1 ~ 1e49: its d v1 overflows, and r would come out nan.
    E = HBAR**2 / (2 * M0)  # k = 1 / m
    segments = ((1e300, E), (1e-40, 1e98 * E))
    with pytest.raises(DomainError, match="walk overflows"):
        solve(PotentialProfile(segments, M0), E)
