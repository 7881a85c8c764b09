from __future__ import annotations

import math
import random

import pytest
from mpmath import mp

from tunnelkit.constants import CODATA2018, joule_from_nev
from tunnelkit.errors import (
    DomainError,
    OpaqueBracketError,
    ResonanceValidationError,
    StepError,
)
from tunnelkit.kinematics import BarrierSystem, kinematics
from tunnelkit.phase_time import (
    average_phase_time,
    hartman_limit,
    phase_time,
    phase_time_numeric,
    phase_time_opaque,
)
from tunnelkit.resonance import (
    CERTIFICATION_TOL,
    find_resonances,
    phase_time_at_resonance,
)
from tunnelkit.transmission import amplitude, probability, probability_opaque, scaled_denominator

from conftest import OPAQUE_X_MAX, fitted_neutron, neutron_system, opaque_x
from neutron_reference import DoubleBarrier


def free_flight(sys, E: float) -> float:
    kin = kinematics(sys, E)
    return kin.m * sys.L / (kin.hbar * kin.k)


def hartman_system(qa: float, ql: float = 1.0):
    """Scaled system with E/U0 = 0.1 (so k/q = 1/3), qa and qL as given."""
    base = neutron_system()
    E = 0.1 * base.U0
    q = kinematics(base, E).q
    return base._replace(a=qa / q, L=ql / q), E


def test_vanishing_width_is_free_flight(neutron):
    sys = neutron._replace(a=1e-22)
    E = joule_from_nev(100.0)
    bd = phase_time(sys, E)
    assert bd.total == pytest.approx(free_flight(sys, E), rel=1e-9, abs=0)
    assert amplitude(sys, E).probability == pytest.approx(1.0, rel=1e-9)


def test_analytic_matches_numeric_on_grid(neutron):
    (res,) = find_resonances(neutron, 1e-3 * neutron.U0, 0.999 * neutron.U0)
    checked = 0
    for i in range(50):
        E = (0.05 + 0.90 * i / 49) * neutron.U0
        if abs(E - res.E_r) < res.beta / 10.0:
            continue
        analytic = phase_time(neutron, E).total
        numeric = phase_time_numeric(neutron, E, rel_step=1e-6)
        assert analytic == pytest.approx(numeric, rel=1e-6, abs=0)
        checked += 1
    assert checked >= 48


def test_numeric_free_flight_limit(neutron):
    sys = neutron._replace(a=1e-22)
    E = joule_from_nev(100.0)
    assert phase_time_numeric(sys, E, rel_step=1e-6) == pytest.approx(
        free_flight(sys, E), rel=1e-6, abs=0
    )


def test_numeric_is_second_order(neutron):
    E = joule_from_nev(60.0)
    exact = phase_time(neutron, E).total
    err_coarse = abs(phase_time_numeric(neutron, E, rel_step=4e-3) - exact)
    err_fine = abs(phase_time_numeric(neutron, E, rel_step=2e-3) - exact)
    assert err_coarse / err_fine == pytest.approx(4.0, rel=0.35)


def test_numeric_step_guard(neutron):
    with pytest.raises(StepError):
        phase_time_numeric(neutron, joule_from_nev(1.0), rel_step=1.5)
    with pytest.raises(StepError):
        phase_time_numeric(neutron, joule_from_nev(229.9), rel_step=1e-2)


@pytest.mark.parametrize("rel_step", [0.0, -1e-6, math.nan])
def test_numeric_rel_step_must_be_positive(neutron, rel_step):
    with pytest.raises(DomainError, match="rel_step must be > 0"):
        phase_time_numeric(neutron, joule_from_nev(127.0), rel_step=rel_step)


def test_numeric_differences_the_continuous_phase_across_narrow_resonances():
    # beta is 3e-5 to 5e-3 of the default half-stencil dE = 1e-6 E_r at these
    # roots, so the phase advances by up to pi across the stencil. The
    # continuous phase needs no branch correction there, and the central
    # difference is the stencil mean.
    sys = BarrierSystem.from_lab_units(1000.0, 230.0, 3000.0, 1.0)
    roots = find_resonances(sys, joule_from_nev(1.0), 0.999 * sys.U0)
    assert len(roots) == 10
    for i, res in enumerate(roots):
        dE = res.E_r * 1e-6
        tau = phase_time_numeric(sys, res.E_r)
        assert tau == average_phase_time(sys, res.E_r - dE, res.E_r + dE)
        if i < 4:
            assert res.beta / dE <= 5e-4
            assert 2.0 * dE * tau / CODATA2018.hbar == pytest.approx(math.pi, rel=0, abs=1e-2)


def test_resonance_phase_time_value():
    sys, res = fitted_neutron()
    tau_r = phase_time_at_resonance(sys, res)
    # regression pin; the acceptance suite compares against the reported value
    assert tau_r == pytest.approx(2.8240682137e-7, rel=1e-9, abs=0)


def test_resonance_closed_form_equals_general_formula():
    sys, res = fitted_neutron()
    assert phase_time_at_resonance(sys, res) == pytest.approx(
        phase_time(sys, res.E_r).total, rel=1e-9, abs=0
    )


def test_resonance_numeric_cross_check():
    sys, res = fitted_neutron()
    numeric = phase_time_numeric(sys, res.E_r, rel_step=1e-5)
    assert phase_time_at_resonance(sys, res) == pytest.approx(numeric, rel=1e-4, abs=0)


def test_resonance_delay_exceeds_free_flight():
    sys, res = fitted_neutron()
    assert phase_time_at_resonance(sys, res) > free_flight(sys, res.E_r)


def test_resonance_validation_guard():
    sys, res = fitted_neutron()
    fake = res._replace(E_r=1.07 * res.E_r)
    with pytest.raises(ResonanceValidationError):
        phase_time_at_resonance(sys, fake)


def test_resonance_time_certifies_as_find_resonances_does():
    # 1e-4 beta off the root, 1 - |A_T|^2 = 9.9e-9 is just past
    # CERTIFICATION_TOL: find_resonances would not accept it, and tau_r
    # evaluated there would be 4.6e-6 off.
    sys, res = fitted_neutron()
    E = res.E_r + 1e-4 * res.beta
    assert 1.0 - math.exp(-scaled_denominator(sys, E).log_mod_squared) > CERTIFICATION_TOL
    off = res._replace(E_r=E)
    with pytest.raises(ResonanceValidationError):
        phase_time_at_resonance(sys, off)


def test_opaque_limit_at_qa_25():
    sys, E = hartman_system(25.0)
    assert phase_time(sys, E).total == pytest.approx(hartman_limit(sys, E), rel=1e-4, abs=0)
    assert phase_time_opaque(sys, E) == pytest.approx(hartman_limit(sys, E), rel=1e-6, abs=0)


def test_opaque_formula_tracks_exact_at_qa_15():
    sys, E = hartman_system(15.0)
    exact = phase_time(sys, E).total
    # abs=0: approx's default 1e-12 absolute tolerance is 1e-4 of this tau (s)
    assert phase_time_opaque(sys, E) == pytest.approx(exact, rel=1e-15, abs=0.0)


def test_opaque_gap_dependence_bound_at_qa_20():
    sys, E = hartman_system(20.0)
    doubled = sys._replace(L=2 * sys.L)
    kin = kinematics(sys, E)
    qa = kin.q * sys.a
    t1, t2 = phase_time_opaque(sys, E), phase_time_opaque(doubled, E)
    max_second_term = (
        math.exp(-2 * qa) * (4 * kin.m * doubled.L / (kin.hbar * kin.k)) * 10.0
    )
    assert abs(t2 - t1) <= max_second_term


def test_hartman_plateau_bound():
    # |tau(L) - tau(2L)| / tau <= 10 exp(-2qa) on the exact phase-time.
    for qa in (15.0, 20.0, 25.0):
        sys, E = hartman_system(qa)
        doubled = sys._replace(L=2 * sys.L)
        t1 = phase_time(sys, E).total
        t2 = phase_time(doubled, E).total
        assert abs(t2 - t1) / t1 <= 10.0 * math.exp(-2.0 * qa)


def opaque_grid():
    """Neutron-filter height, gaps 195 and 267 A, widths 600-1500 A and 40
    energies each: the 232 (system, E, record) points with qa >= 6."""
    for L in (195.0, 267.0):
        for a in (600.0, 800.0, 1000.0, 1200.0, 1500.0):
            sys = BarrierSystem.from_lab_units(a, 230.0, L)
            for i in range(40):
                E = (i + 0.5) / 40 * sys.U0
                sc = scaled_denominator(sys, E)
                if sc.kin.q * sys.a >= 6.0:
                    yield sys, E, sc


def test_opaque_expansion_meets_exact_on_opaque_grid():
    # The exact delay tau - 2m/(hbar k q) is negative at 60 of these points;
    # the expansion must follow its sign. It raises only where
    # x = 1/(w cos^2 psi) > OPAQUE_X_MAX: at one point (x = 0.0217). The 20
    # points of the old band cos^2(psi) <= 0.025 that it now answers are
    # within 1.5e-8.
    points = list(opaque_grid())
    assert len(points) == 232
    worst, negative, raised = 0.0, 0, 0
    for sys, E, sc in points:
        if opaque_x(sc) > OPAQUE_X_MAX:
            raised += 1
            with pytest.raises(OpaqueBracketError):
                phase_time_opaque(sys, E)
            continue
        exact = phase_time(sys, E).total
        tau = phase_time_opaque(sys, E)
        worst = max(worst, abs(tau / exact - 1.0))
        plateau = hartman_limit(sys, E)
        if exact < plateau:
            negative += 1
            assert tau < plateau
    assert worst <= 1e-7
    assert negative == 60
    assert raised == 1


def test_opaque_forms_answer_exactly_where_x_is_small():
    # One regime test for both opaque forms, x = 1/(w cos^2 psi) <= 0.01, on
    # seeded systems from thin and transparent to opaque (qa ~ 0.01-60).
    # Where they answer, the phase-time is within 20 x^2 of the exact one
    # (measured C <= 16), and the probability within 10 exp(-2qa) of
    # `probability`, plus that function's own rounding: it exponentiates
    # -ln P ~ 4qa, which carries |ln P| 2^-53 relative.
    rng = random.Random(11)
    answered, in_old_band = 0, 0
    for _ in range(2000):
        a, L = math.exp(rng.uniform(math.log(10.0), math.log(2000.0))), math.exp(
            rng.uniform(0.0, math.log(1e4))
        )
        sys = BarrierSystem.from_lab_units(a, rng.uniform(50.0, 500.0), L, rng.uniform(0.5, 1.5))
        E = rng.uniform(0.005, 0.995) * sys.U0
        sc = scaled_denominator(sys, E)
        x = opaque_x(sc)
        if x > OPAQUE_X_MAX:
            with pytest.raises(OpaqueBracketError):
                phase_time_opaque(sys, E)
            with pytest.raises(OpaqueBracketError):
                probability_opaque(sys, E)
            continue
        answered += 1
        in_old_band += sc.cos_psi**2 <= 0.025
        tau_err = abs(phase_time_opaque(sys, E) / phase_time(sys, E).total - 1.0)
        assert tau_err <= 20.0 * x * x + 4 * 2.0**-52
        p = probability(sys, E)
        p_err = abs(probability_opaque(sys, E) / p - 1.0)
        assert p_err <= 10.0 * sc.e_neg + 4 * 2.0**-52 - math.log(p) * 2.0**-53
    # the old rule, cos^2(psi) > 0.025 alone, answered 1,882 of these points
    assert (answered, in_old_band) == (514, 21)


def test_opaque_error_falls_as_exp_minus_4qa():
    base = BarrierSystem.from_lab_units(600.0, 230.0, 267.0)
    E = 0.3 * base.U0
    q = kinematics(base, E).q
    ladder = (4.0, 5.3, 6.6, 7.9)
    errs = []
    for qa in ladder:
        sys = base._replace(a=qa / q)
        errs.append(abs(phase_time_opaque(sys, E) / phase_time(sys, E).total - 1.0))
    assert errs[0] < 1e-4
    for i in range(len(ladder) - 1):
        rate = math.log(errs[i] / errs[i + 1]) / (ladder[i + 1] - ladder[i])
        assert 3.5 <= rate <= 4.5


def test_average_over_resonance_window():
    sys, res = fitted_neutron()
    lo, hi = res.E_r - res.beta, res.E_r + res.beta
    avg = average_phase_time(sys, lo, hi)
    # frozen mpmath reference (tests/neutron_reference.py) of the same mean
    assert avg == pytest.approx(2.235520144108e-7, rel=1e-9, abs=0)
    n = 512
    h = (hi - lo) / n
    acc = phase_time(sys, lo).total + phase_time(sys, hi).total
    for i in range(1, n):
        acc += phase_time(sys, lo + i * h).total * (4 if i % 2 else 2)
    oracle = acc * h / 3.0 / (hi - lo)
    assert avg == pytest.approx(oracle, rel=1e-9, abs=0)


def test_average_is_between_extremes():
    sys, res = fitted_neutron()
    lo, hi = res.E_r - res.beta, res.E_r + res.beta
    avg = average_phase_time(sys, lo, hi)
    samples = [phase_time(sys, lo + (hi - lo) * i / 200).total for i in range(201)]
    assert min(samples) <= avg <= max(samples)


def test_average_of_narrow_window_converges_to_peak():
    sys, res = fitted_neutron()
    half = res.beta / 200.0
    avg = average_phase_time(sys, res.E_r - half, res.E_r + half)
    assert avg == pytest.approx(phase_time_at_resonance(sys, res), rel=1e-3, abs=0)


def test_average_near_free_flight_for_thin_barriers(neutron):
    sys = neutron._replace(a=1e-22)
    E0 = joule_from_nev(100.0)
    lo, hi = E0 * (1 - 1e-9), E0 * (1 + 1e-9)
    assert average_phase_time(sys, lo, hi) == pytest.approx(
        free_flight(sys, E0), rel=1e-8, abs=0
    )


# Narrowest root of U0 = 230 neV, L = 3000 A at unit mass, and windows
# [E_r (1 - 0.37 s), E_r (1 + 0.63 s)]: at a = 500 A (beta/E_r ~ 1e-6)
# the window is thousands of widths wide, so a quadrature that starts
# from a few samples can step over the whole resonance.
NARROW_WINDOWS = ((500.0, 0.3), (500.0, 0.1), (300.0, 0.03))


def _narrow_window(a_angstrom: float, s: float):
    sys = BarrierSystem.from_lab_units(a_angstrom, 230.0, 3000.0, 1.0)
    roots = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    res = min(roots, key=lambda r: r.beta / r.E_r)
    return sys, res, res.E_r * (1.0 - 0.37 * s), res.E_r * (1.0 + 0.63 * s)


@pytest.fixture(scope="module")
def narrow_references():
    """mpmath mean of tau over each window, split at E_r, E_r +- beta, E_r +- 20 beta."""
    refs = {}
    with mp.workdps(20):
        for window in NARROW_WINDOWS:
            sys, res, lo, hi = _narrow_window(*window)
            ref = DoubleBarrier.from_si(sys.a, sys.U0, sys.L, sys.m)
            e_lo, e_hi = ref.nev(lo), ref.nev(hi)
            e_r, beta = ref.nev(res.E_r), ref.nev(res.beta)
            splits = [e_r + f * beta for f in (-20, -1, 0, 1, 20)]
            nodes = [e_lo] + [e for e in splits if e_lo < e < e_hi] + [e_hi]
            refs[window] = float(mp.quad(ref.tau, nodes) / (e_hi - e_lo))
    return refs


@pytest.mark.parametrize(
    "window", NARROW_WINDOWS, ids=[f"a{a:g}-s{s:g}" for a, s in NARROW_WINDOWS]
)
def test_average_over_window_far_wider_than_resonance(narrow_references, window):
    sys, _, lo, hi = _narrow_window(*window)
    assert average_phase_time(sys, lo, hi) == pytest.approx(
        narrow_references[window], rel=1e-9, abs=0
    )


def test_average_window_validation(neutron):
    with pytest.raises(DomainError):
        average_phase_time(neutron, joule_from_nev(100.0), joule_from_nev(90.0))
    with pytest.raises(DomainError):
        average_phase_time(neutron, joule_from_nev(100.0), 1.2 * neutron.U0)
