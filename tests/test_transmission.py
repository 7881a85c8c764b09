from __future__ import annotations

import cmath
import dataclasses
import math
import random

import pytest

from tunnelkit.constants import CODATA2018, joule_from_nev
from tunnelkit.errors import DomainError, OpaqueBracketError
from tunnelkit.kinematics import BarrierSystem, hyperbolic_state, kinematics
from tunnelkit.phase_time import phase_time
from tunnelkit.scatter_oracle import double_barrier_profile, solve
from tunnelkit.transmission import (
    amplitude,
    log_probability,
    probability,
    probability_opaque,
    scaled_denominator,
    transmitted_phase,
)

from conftest import neutron_system


def residual(sys, E: float) -> float:
    # Independent statement of the full-transparency condition for root finding.
    kin = kinematics(sys, E)
    return math.cos(kin.k * sys.L) + 0.5 * kin.delta * math.tanh(
        kin.q * sys.a
    ) * math.sin(kin.k * sys.L)


def bisect_resonance(sys, lo: float, hi: float) -> float:
    flo = residual(sys, lo)
    assert flo * residual(sys, hi) < 0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (residual(sys, mid) < 0) == (flo < 0):
            lo, flo = mid, residual(sys, mid)
        else:
            hi = mid
    return 0.5 * (lo + hi)


def neutron_resonance_energy() -> float:
    sys = neutron_system()
    return bisect_resonance(sys, joule_from_nev(100.0), joule_from_nev(150.0))


def test_vanishing_width_gives_free_propagation(neutron):
    sys = dataclasses.replace(neutron, a=1e-22)
    E = joule_from_nev(100.0)
    res = amplitude(sys, E)
    # A_T = exp(-2ika)/D, so D = 1 is A_T exp(2ika) = 1
    d_inverse = res.amplitude * cmath.exp(2j * kinematics(sys, E).k * sys.a)
    assert d_inverse.real == pytest.approx(1.0, rel=1e-12)
    assert d_inverse.imag == pytest.approx(0.0, abs=1e-12)
    assert res.probability == pytest.approx(1.0, rel=1e-10)


def test_modulus_is_unity_at_resonance(neutron):
    E_r = neutron_resonance_energy()
    assert log_probability(neutron, E_r) == pytest.approx(0.0, abs=1e-9)
    assert amplitude(neutron, E_r).probability == pytest.approx(1.0, abs=1e-9)


def test_product_form_equals_plain_closed_form(neutron):
    # 1 + 2w[1 + w + u cos(2kL) + v sin(2kL)] evaluated without any scaling.
    for frac in (0.05, 0.4, 0.9):
        E = frac * neutron.U0
        kin = kinematics(neutron, E)
        st = hyperbolic_state(kin, neutron.a)
        u, v, w = st.u, st.v, st.w
        plain = 1 + 2 * w * (
            1
            + w
            + u * math.cos(2 * kin.k * neutron.L)
            + v * math.sin(2 * kin.k * neutron.L)
        )
        assert math.exp(-log_probability(neutron, E)) == pytest.approx(plain, rel=1e-10)


def test_probability_bounds_on_dense_grid(neutron):
    for i in range(200):
        E = (0.004 + 0.992 * i / 199) * neutron.U0
        p = probability(neutron, E)
        assert 0.0 <= p <= 1.0 + 1e-12
        assert log_probability(neutron, E) <= 1e-10  # |D|^2 >= 1


def test_amplitude_probability_consistency(neutron):
    for frac in (0.05, 0.2, 0.5349, 0.8, 0.95):
        res = amplitude(neutron, frac * neutron.U0)
        assert abs(res.amplitude) ** 2 == pytest.approx(res.probability, rel=1e-10)


def test_domain_error_propagates(neutron):
    with pytest.raises(DomainError):
        scaled_denominator(neutron, 0.0)
    with pytest.raises(DomainError):
        amplitude(neutron, neutron.U0)


def test_denominator_matches_transfer_matrix_oracle(neutron):
    E = joule_from_nev(100.0)
    sol = solve(double_barrier_profile(neutron), E)
    kin = kinematics(neutron, E)
    d_oracle = cmath.exp(-2j * kin.k * neutron.a) / sol.t
    # D = exp(2i chi)(1 + 2w cos(psi) exp(i psi)), rebuilt from the scaled record
    sc = scaled_denominator(neutron, E)
    two_wc = 2.0 * sc.w_scaled * sc.cos_psi
    z = complex(sc.e_neg + two_wc * sc.cos_psi, two_wc * sc.sin_psi)
    d = cmath.exp(2j * sc.chi) * z / sc.e_neg
    assert d == pytest.approx(d_oracle, rel=1e-10)


def test_amplitude_matches_oracle_with_shared_origin(neutron):
    E = joule_from_nev(100.0)
    sol = solve(double_barrier_profile(neutron), E)
    assert amplitude(neutron, E).amplitude == pytest.approx(sol.t, rel=1e-10)


def test_oracle_equivalence_on_200_point_grid(neutron):
    profile = double_barrier_profile(neutron)
    worst_p, worst_phase = 0.0, 0.0
    for i in range(200):
        E = (0.05 + 0.90 * i / 199) * neutron.U0
        res = amplitude(neutron, E)
        sol = solve(profile, E)
        worst_p = max(worst_p, abs(res.probability / sol.transmission - 1.0))
        kin = kinematics(neutron, E)
        ref = cmath.phase(sol.t * cmath.exp(1j * kin.k * (2 * neutron.a + neutron.L)))
        dphi = math.remainder(transmitted_phase(neutron, E) - ref, math.tau)
        worst_phase = max(worst_phase, abs(dphi))
    assert worst_p < 1e-10
    assert worst_phase < 1e-9


def test_log_probability_slope_is_minus_4q(neutron):
    E = 0.35 * neutron.U0
    kin = kinematics(neutron, E)
    q = kin.q
    xs, ys = [], []
    for i in range(11):
        a = (15.0 + i) / q
        xs.append(a)
        ys.append(log_probability(dataclasses.replace(neutron, a=a), E))
    n = len(xs)
    xbar, ybar = sum(xs) / n, sum(ys) / n
    slope = sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / sum(
        (x - xbar) ** 2 for x in xs
    )
    assert slope == pytest.approx(-4.0 * q, rel=1e-3)


def test_opaque_probability_matches_exact_at_qa_25(neutron):
    E = 0.35 * neutron.U0
    q = kinematics(neutron, E).q
    sys = dataclasses.replace(neutron, a=25.0 / q)
    assert probability_opaque(sys, E) == pytest.approx(probability(sys, E), rel=1e-3, abs=0)


def test_opaque_probability_error_shrinks_with_opacity(neutron):
    E = 0.35 * neutron.U0
    q = kinematics(neutron, E).q
    errs = []
    for qa in (10.0, 15.0, 20.0, 25.0):
        sys = dataclasses.replace(neutron, a=qa / q)
        errs.append(abs(probability_opaque(sys, E) / probability(sys, E) - 1.0))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < 1e-3


def test_opaque_probability_doubling_width_scaling(neutron):
    E = 0.3 * neutron.U0
    q = kinematics(neutron, E).q
    a1 = 18.0 / q
    p1 = probability_opaque(dataclasses.replace(neutron, a=a1), E)
    p2 = probability_opaque(dataclasses.replace(neutron, a=2 * a1), E)
    assert p2 / p1 == pytest.approx(math.exp(-4.0 * q * a1), rel=1e-12, abs=0)


def test_opaque_probability_raises_near_resonance():
    # Sit exactly on a resonance of an opaque system (cos psi = 0): the
    # bracket B, which tends to (sigma^2/2) cos^2(psi), collapses.
    sys = neutron_system()
    q = kinematics(sys, 0.35 * sys.U0).q
    opaque = dataclasses.replace(sys, a=25.0 / q)
    E_r = bisect_resonance(opaque, 0.45 * sys.U0, 0.60 * sys.U0)
    assert abs(scaled_denominator(opaque, E_r).cos_psi) < 1e-10
    with pytest.raises(OpaqueBracketError):
        probability_opaque(opaque, E_r)


def test_underflow_is_graceful_far_beyond_double_range(neutron):
    E = 0.4 * neutron.U0
    q = kinematics(neutron, E).q
    sys = dataclasses.replace(neutron, a=700.0 / q)
    assert probability(sys, E) == 0.0
    assert log_probability(sys, E) == pytest.approx(-4.0 * 700.0, rel=1e-2)


@pytest.mark.parametrize(
    "evaluate, fields",
    [
        (kinematics, ("E", "k", "q", "delta", "sigma", "hbar", "m")),
        (
            scaled_denominator,
            ("kin", "log_scale", "e_neg", "w_scaled", "w_k_scaled", "chi", "chi_k",
             "cos_psi", "sin_psi", "mod_sq_scaled"),
        ),
        (amplitude, ("amplitude", "probability")),
        (phase_time, ("total", "P_value", "mod_squared")),
    ],
)
def test_per_energy_records_are_immutable(neutron, evaluate, fields):
    record = evaluate(neutron, 0.35 * neutron.U0)
    assert type(record)._fields == fields
    assert repr(record).startswith(f"{type(record).__name__}({fields[0]}=")
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, 0.0)


def test_fabry_perot_form_equals_uvw_form():
    # D e = exp(2i chi)(e + 2w~ cos(psi) exp(i psi)) against the textbook
    # u + w cos(2kL) + i(v + w sin(2kL)) from hyperbolic_state, both scaled
    # by e = exp(-2qa), on the draws of acceptance criterion 10. The bound
    # is relative to 1 + 2w, the size of the terms of the u/v/w sum.
    rng = random.Random(193817)
    worst_d, worst_mod = 0.0, 0.0
    for _ in range(10_000):
        u0 = joule_from_nev(10.0 ** rng.uniform(0.0, 4.0))
        sys = BarrierSystem(
            a=10.0 ** rng.uniform(0.0, 3.3) * 1e-10,
            U0=u0,
            L=rng.uniform(0.0, 2000.0) * 1e-10,
            m=rng.uniform(0.1, 10.0) * CODATA2018.m_neutron,
        )
        sc = scaled_denominator(sys, rng.uniform(1e-3, 1.0 - 1e-3) * sys.U0)
        st = hyperbolic_state(sc.kin, sys.a)
        two_kl = 2.0 * sc.kin.k * sys.L
        uvw = complex(
            st.u_scaled + st.w_scaled * math.cos(two_kl),
            st.v_scaled + st.w_scaled * math.sin(two_kl),
        )
        two_wc = 2.0 * sc.w_scaled * sc.cos_psi
        fp = cmath.exp(2j * sc.chi) * complex(
            sc.e_neg + two_wc * sc.cos_psi, two_wc * sc.sin_psi
        )
        size = sc.e_neg + 2.0 * sc.w_scaled
        worst_d = max(worst_d, abs(fp - uvw) / size)
        worst_mod = max(worst_mod, abs(sc.mod_sq_scaled - abs(uvw) ** 2) / size**2)
    assert worst_d <= 1e-12
    assert worst_mod <= 1e-12
