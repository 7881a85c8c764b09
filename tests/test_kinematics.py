from __future__ import annotations

import math
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tunnelkit.constants import CODATA2018, joule_from_nev, nev_from_joule
from tunnelkit.errors import DomainError
from tunnelkit.kinematics import BarrierSystem, hyperbolic_state, kinematics
from tunnelkit.phase_time import hartman_limit
from tunnelkit.resonance import resonance_residual
from tunnelkit.transmission import amplitude, transmitted_phase

from conftest import neutron_system, unscaled

NEV = 1.602176634e-28  # J


def test_codata_values_frozen():
    c = CODATA2018
    assert c.hbar == 1.054571817e-34
    assert c.m_neutron == 1.67492749804e-27
    assert c.neV_per_J == pytest.approx(1.0 / 1.602176634e-28, rel=1e-15)
    assert c.m_per_angstrom == 1e-10


def test_unit_conversions_round_trip():
    assert joule_from_nev(230.0) == pytest.approx(230.0 * NEV, rel=1e-15)
    assert nev_from_joule(joule_from_nev(127.0)) == pytest.approx(127.0, rel=1e-14)


def test_barrier_system_validation():
    with pytest.raises(DomainError):
        BarrierSystem(a=-1e-8, U0=1e-26, L=0.0, m=1e-27)
    with pytest.raises(DomainError):
        BarrierSystem(a=1e-8, U0=0.0, L=0.0, m=1e-27)
    with pytest.raises(DomainError):
        BarrierSystem(a=1e-8, U0=1e-26, L=-1e-9, m=1e-27)
    with pytest.raises(DomainError):
        BarrierSystem(a=1e-8, U0=1e-26, L=0.0, m=0.0)
    # L = 0 is a legal degenerate gap
    BarrierSystem(a=1e-8, U0=1e-26, L=0.0, m=1e-27)


@pytest.mark.parametrize("field", ["a", "U0", "L", "m"])
@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_barrier_system_rejects_non_finite(field, value):
    # inf used to give amplitude nan+nanj (a, U0, m) or a bare ValueError (L)
    fields = dict(a=1e-8, U0=1e-26, L=0.0, m=1e-27)
    fields[field] = value
    with pytest.raises(DomainError, match="finite"):
        BarrierSystem(**fields)


_BAD_SYSTEM_FIELDS = [
    (field, value)
    for field in ("a", "U0", "L", "m")
    for value in (math.inf, math.nan, -1e-9) + ((0.0,) if field != "L" else ())
]


@pytest.mark.parametrize("field, value", _BAD_SYSTEM_FIELDS)
def test_barrier_system_replace_validates(field, value):
    # A NamedTuple's _replace goes through _make, which BarrierSystem routes
    # through its validating __new__, so it rejects what construction rejects.
    good = BarrierSystem(a=1e-8, U0=1e-26, L=0.0, m=1e-27)
    with pytest.raises(DomainError):
        good._replace(**{field: value})


def test_barrier_system_record_semantics():
    sys = BarrierSystem(a=1e-8, U0=1e-26, L=2e-9, m=1e-27)
    assert sys == BarrierSystem(1e-8, 1e-26, 2e-9, 1e-27) == (1e-8, 1e-26, 2e-9, 1e-27)
    assert repr(sys) == "BarrierSystem(a=1e-08, U0=1e-26, L=2e-09, m=1e-27)"
    assert sys._replace(L=0.0) == (1e-8, 1e-26, 0.0, 1e-27)
    copy = pickle.loads(pickle.dumps(sys))
    assert type(copy) is BarrierSystem and copy == sys
    # Unpickling validates as well: a record forged past __new__ does not load.
    forged = tuple.__new__(BarrierSystem, (math.nan, 1e-26, 2e-9, 1e-27))
    with pytest.raises(DomainError):
        pickle.loads(pickle.dumps(forged))


def test_energy_domain_errors(neutron):
    with pytest.raises(DomainError):
        kinematics(neutron, 0.0)
    with pytest.raises(DomainError):
        kinematics(neutron, -1e-28)
    with pytest.raises(DomainError):
        kinematics(neutron, neutron.U0)
    with pytest.raises(DomainError):
        kinematics(neutron, 1.5 * neutron.U0)


@pytest.mark.parametrize("a", [0.0, -1e-9, math.nan])
def test_hyperbolic_state_width_must_be_positive(neutron, a):
    kin = kinematics(neutron, joule_from_nev(127.0))
    with pytest.raises(DomainError, match="width a must be > 0"):
        hyperbolic_state(kin, a)


@pytest.mark.parametrize(
    "function",
    [kinematics, amplitude, transmitted_phase, resonance_residual, hartman_limit],
    ids=lambda f: f.__name__,
)
def test_overflowing_k_and_q_raise(function):
    # m = 1e300 kg: k^2 and q^2 overflow. These returned nan, and hartman_limit 0.0.
    with pytest.raises(DomainError, match="overflows"):
        function(BarrierSystem(1e-9, 1e-20, 1e-9, 1e300), 5e-21)


def test_half_height_energy_is_symmetric(neutron):
    kin = kinematics(neutron, 0.5 * neutron.U0)
    assert kin.k == pytest.approx(kin.q, rel=1e-14)
    assert kin.delta == pytest.approx(0.0, abs=1e-14)
    assert kin.sigma == pytest.approx(2.0, rel=1e-14)


def test_neutron_wavenumbers_at_127_nev(neutron):
    # Direct evaluation of the definitions with CODATA 2018 constants.
    kin = kinematics(neutron, joule_from_nev(127.0))
    assert kin.k == pytest.approx(7.8287766066e7, rel=1e-9)
    assert kin.q == pytest.approx(7.0503496004e7, rel=1e-9)


def test_sigma_delta_identity_on_neutron_grid(neutron):
    for frac in (1e-3, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999):
        kin = kinematics(neutron, frac * neutron.U0)
        assert kin.sigma**2 - kin.delta**2 == pytest.approx(4.0, rel=1e-12)


def test_hyperbolic_small_width_limits(neutron):
    kin = kinematics(neutron, 0.3 * neutron.U0)
    u, v, w, u_prime, _, _ = unscaled(hyperbolic_state(kin, 1e-20))
    assert u == pytest.approx(1.0, rel=1e-10)
    assert v == pytest.approx(0.0, abs=1e-10)
    assert w == pytest.approx(0.0, abs=1e-10)
    assert u_prime == pytest.approx(0.0, abs=1e-18)


def test_hyperbolic_delta_zero_form(neutron):
    kin = kinematics(neutron, 0.5 * neutron.U0)
    u, v, w, _, _, _ = unscaled(hyperbolic_state(kin, neutron.a))
    qa = kin.q * neutron.a
    assert v == pytest.approx(0.0, abs=1e-12 * u)
    assert u == pytest.approx(math.cosh(qa) ** 2, rel=1e-12)
    assert w == pytest.approx(math.sinh(qa) ** 2, rel=1e-12)


def _state_at_k(sys: BarrierSystem, k: float):
    """Rebuild the state from a wavenumber, for the finite-difference oracle."""
    E = (CODATA2018.hbar * k) ** 2 / (2.0 * sys.m)
    kin = kinematics(sys, E)
    return hyperbolic_state(kin, sys.a)


def test_derivatives_match_central_finite_differences(neutron):
    kin = kinematics(neutron, joule_from_nev(100.0))
    _, _, _, u_prime, v_prime, w_prime = unscaled(hyperbolic_state(kin, neutron.a))
    h = kin.k * 1e-7
    lo = unscaled(_state_at_k(neutron, kin.k - h))
    hi = unscaled(_state_at_k(neutron, kin.k + h))
    assert u_prime == pytest.approx((hi[0] - lo[0]) / (2 * h), rel=1e-6, abs=0)
    assert v_prime == pytest.approx((hi[1] - lo[1]) / (2 * h), rel=1e-6, abs=0)
    assert w_prime == pytest.approx((hi[2] - lo[2]) / (2 * h), rel=1e-6, abs=0)


def _identity_errors(kin, st_):
    """Relative defects of the four algebraic identities, scaled form."""
    e = st_.e_neg
    u, v, w = st_.u_scaled, st_.v_scaled, st_.w_scaled
    up, vp, wp = st_.up_scaled, st_.vp_scaled, st_.wp_scaled

    lhs8 = u * u + v * v
    rhs8 = (e + w) ** 2
    err8 = abs(lhs8 - rhs8) / rhs8

    lhs18 = u * up + v * vp
    rhs18 = (e + w) * wp
    scale18 = max(abs(lhs18), abs(rhs18))
    err18 = abs(lhs18 - rhs18) / scale18 if scale18 else 0.0

    lhs21 = up * up + vp * vp - wp * wp
    rhs21 = (up * v - u * vp) ** 2 / (e + w) ** 2
    scale21 = max(abs(lhs21), abs(rhs21))
    err21 = abs(lhs21 - rhs21) / scale21 if scale21 else 0.0

    err3 = abs(kin.sigma**2 - kin.delta**2 - 4.0) / 4.0
    return err3, err8, err18, err21


@settings(max_examples=300, deadline=None)
@given(
    u0_nev=st.floats(1.0, 1e4),
    e_frac=st.floats(1e-3, 1.0 - 1e-3),
    a_angstrom=st.floats(1.0, 2000.0),
    mass_ratio=st.floats(0.1, 10.0),
)
def test_identity_properties(u0_nev, e_frac, a_angstrom, mass_ratio):
    sys = BarrierSystem.from_lab_units(a_angstrom, u0_nev, 195.0, mass_ratio)
    kin = kinematics(sys, e_frac * sys.U0)
    st_ = hyperbolic_state(kin, sys.a)
    err3, err8, err18, err21 = _identity_errors(kin, st_)
    assert err3 < 1e-12
    assert err8 < 1e-10
    assert err18 < 1e-8
    assert err21 < 1e-8


def test_identities_survive_enormous_opacity():
    # qa ~ 500: the unscaled u, v, w would overflow but the scaled identities hold.
    sys = neutron_system()
    kin = kinematics(sys, 0.4 * sys.U0)
    a_big = 500.0 / kin.q
    st_ = hyperbolic_state(kin, a_big)
    _, err8, err18, err21 = _identity_errors(kin, st_)
    assert err8 < 1e-10
    assert err18 < 1e-8
    assert err21 < 1e-8


def test_scaled_representation_is_consistent(neutron):
    kin = kinematics(neutron, 0.7 * neutron.U0)
    st_ = hyperbolic_state(kin, neutron.a)
    qa = kin.q * neutron.a
    assert st_.log_scale == pytest.approx(2 * qa, rel=1e-15)
    u, v, w, _, _, _ = unscaled(st_)
    assert u == pytest.approx(
        math.cosh(qa) ** 2 - 0.25 * kin.delta**2 * math.sinh(qa) ** 2, rel=1e-12
    )
    assert v == pytest.approx(kin.delta * math.cosh(qa) * math.sinh(qa), rel=1e-12)
    assert w == pytest.approx(0.25 * kin.sigma_sq * math.sinh(qa) ** 2, rel=1e-12)


@pytest.mark.parametrize("qa", [5.0, 12.0, 18.0, 20.0])
def test_e_neg_is_exp_of_minus_log_scale(neutron, qa):
    # e = exp(-2qa) itself, not 1 - (1 - e), which keeps only absolute precision.
    kin = kinematics(neutron, 0.3 * neutron.U0)
    st_ = hyperbolic_state(kin, qa / kin.q)
    exact = math.exp(-st_.log_scale)
    assert abs(st_.e_neg - exact) <= 1e-15 * exact
