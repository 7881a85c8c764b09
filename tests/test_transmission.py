from __future__ import annotations

import cmath
import dataclasses
import math

import pytest

from tunnelkit.constants import joule_from_nev
from tunnelkit.errors import DomainError, OpaqueBracketError
from tunnelkit.kinematics import hyperbolic_state, kinematics
from tunnelkit.phase_time import phase_time
from tunnelkit.scatter_oracle import double_barrier_profile, solve
from tunnelkit.transmission import (
    amplitude,
    denominator,
    log_probability,
    opaque_bracket,
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
    parts = denominator(sys, joule_from_nev(100.0))
    assert parts.D1 == pytest.approx(1.0, rel=1e-12)
    assert parts.D2 == pytest.approx(0.0, abs=1e-12)
    assert amplitude(sys, joule_from_nev(100.0)).probability == pytest.approx(
        1.0, rel=1e-10
    )


def test_modulus_is_unity_at_resonance(neutron):
    E_r = neutron_resonance_energy()
    assert denominator(neutron, E_r).mod_squared == pytest.approx(1.0, abs=1e-9)
    assert amplitude(neutron, E_r).probability == pytest.approx(1.0, abs=1e-9)


def test_product_form_equals_squared_parts(neutron):
    for frac in (0.03, 0.1, 0.33, 0.5, 0.76, 0.97):
        parts = denominator(neutron, frac * neutron.U0)
        assert parts.mod_squared == pytest.approx(
            parts.D1**2 + parts.D2**2, rel=1e-10
        )


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
        assert denominator(neutron, E).mod_squared == pytest.approx(plain, rel=1e-10)


def test_probability_bounds_on_dense_grid(neutron):
    for i in range(200):
        E = (0.004 + 0.992 * i / 199) * neutron.U0
        p = probability(neutron, E)
        assert 0.0 <= p <= 1.0 + 1e-12
        assert denominator(neutron, E).mod_squared >= 1.0 - 1e-10


def test_amplitude_probability_consistency(neutron):
    for frac in (0.05, 0.2, 0.5349, 0.8, 0.95):
        res = amplitude(neutron, frac * neutron.U0)
        assert abs(res.amplitude) ** 2 == pytest.approx(res.probability, rel=1e-10)


def test_domain_error_propagates(neutron):
    with pytest.raises(DomainError):
        denominator(neutron, 0.0)
    with pytest.raises(DomainError):
        amplitude(neutron, neutron.U0)


def test_denominator_matches_transfer_matrix_oracle(neutron):
    E = joule_from_nev(100.0)
    sol = solve(double_barrier_profile(neutron), E)
    kin = kinematics(neutron, E)
    d_oracle = cmath.exp(-2j * kin.k * neutron.a) / sol.t
    parts = denominator(neutron, E)
    assert complex(parts.D1, parts.D2) == pytest.approx(d_oracle, rel=1e-10)


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
    assert probability_opaque(sys, E) == pytest.approx(probability(sys, E), rel=1e-3)


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
    assert p2 / p1 == pytest.approx(math.exp(-4.0 * q * a1), rel=1e-12)


def test_opaque_probability_raises_near_resonance():
    # Sit exactly on a resonance of an opaque system: the bracket collapses.
    sys = neutron_system()
    q = kinematics(sys, 0.35 * sys.U0).q
    opaque = dataclasses.replace(sys, a=25.0 / q)
    E_r = bisect_resonance(opaque, 0.45 * sys.U0, 0.60 * sys.U0)
    assert abs(opaque_bracket(opaque, E_r)) < 1e-10
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
            ("kin", "log_scale", "e_neg", "one_minus_e", "w_scaled", "cos2kl",
             "sin2kl", "bracket", "d1", "d2", "k_lead", "r_d"),
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
