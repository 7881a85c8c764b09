"""Closed form against the mpmath reference where resonances are narrow.

Opaque barriers and wide gaps make the Breit-Wigner width beta a tiny
fraction of E_r. Near such a resonance the probability and the
phase-time change by order one over beta, so rounding the inputs of any
double-precision evaluation (E, and through it k and kL) already moves
them by up to (E_r / beta) * 2^-52. The comparisons therefore ask for the
closed form to equal the exact value at an energy within SPREAD of the
one asked for (backward error), up to 1e-9 in P and 1e-8 in tau: the
reference is evaluated at E (1 - SPREAD), E and E (1 + SPREAD) and the
closed form must lie in their range, widened by that tolerance. Away
from the narrowest widths the range is far below the tolerance.
"""

from __future__ import annotations

import dataclasses
import math

import pytest
from mpmath import mp

from tunnelkit.kinematics import BarrierSystem, kinematics
from tunnelkit.phase_time import phase_time, phase_time_at_resonance
from tunnelkit.resonance import find_resonances
from tunnelkit.transmission import probability

from conftest import neutron_system
from neutron_reference import DoubleBarrier, stable

SPREAD = 8 * 2.0**-52


def reference_ranges(sys: BarrierSystem, E: float):
    """(P, tau) of the reference at E (1 - SPREAD), E and E (1 + SPREAD)."""
    qa = kinematics(sys, E).q * sys.a
    # the transfer matrix multiplies terms of size exp(2qa) to get t ~ 1
    digits = 30 + math.ceil(4.0 * qa / math.log(10.0))

    def evaluate():
        ref = DoubleBarrier.from_si(sys.a, sys.U0, sys.L, sys.m)
        energies = [ref.nev(E) * (1 + s) for s in (-SPREAD, 0, SPREAD)]
        return (
            tuple(float(ref.probability(x)) for x in energies),
            tuple(float(ref.tau(x)) for x in energies),
        )

    return stable(evaluate, digits)


def within(value, refs, tol):
    return min(refs) - tol <= value <= max(refs) + tol


@pytest.fixture(scope="module", params=[900.0, 1200.0, 1500.0])
def opaque_filter(request):
    """The neutron filter's U0 and L with wider barriers, qa ~ 6.5 to 11 at E_r."""
    sys = dataclasses.replace(neutron_system(), a=request.param * 1e-10)
    (res,) = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    energies = [res.E_r + j * res.beta for j in range(-3, 4)]
    return sys, res, [(E, reference_ranges(sys, E)) for E in energies]


def test_opaque_filter_probability_matches_reference(opaque_filter):
    sys, res, points = opaque_filter
    for E, (p_ref, _) in points:
        p = probability(sys, E)
        assert 0.0 <= p <= 1.0
        assert within(p, p_ref, 1e-9), (E, p, p_ref)


def test_opaque_filter_phase_time_matches_reference(opaque_filter):
    sys, res, points = opaque_filter
    for E, (_, tau_ref) in points:
        tau = phase_time(sys, E).total
        assert within(tau, tau_ref, 1e-8 * tau_ref[1]), (E, tau, tau_ref)
    (_, (_, tau_r_ref)) = points[3]
    assert phase_time_at_resonance(sys, res) == pytest.approx(tau_r_ref[1], rel=1e-8, abs=0)


@pytest.mark.parametrize("a_angstrom", [300.0, 900.0, 1500.0, 1700.0, 1800.0])
def test_width_and_resonance_time_match_reference(a_angstrom):
    # beta = 1/|D'(E_r)| and tau(E_r) by mpmath at the float root, qa ~ 2.2
    # to 12.9. D' is smooth on the scale of beta and tau is stationary at
    # E_r, so a root placed within a few ulp moves neither past these plain
    # relative bounds (worst measured: 5.7e-15 in beta, 2.8e-10 in tau_r at
    # a = 1800 A, where the root is (E_r / beta) 2^-52 ~ 1e-5 beta uncertain).
    sys = dataclasses.replace(neutron_system(), a=a_angstrom * 1e-10)
    (res,) = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    qa = kinematics(sys, res.E_r).q * sys.a
    digits = 30 + math.ceil(4.0 * qa / math.log(10.0))

    def evaluate():
        ref = DoubleBarrier.from_si(sys.a, sys.U0, sys.L, sys.m)
        E_r = ref.nev(res.E_r)
        return float(ref.beta(E_r) * ref.j_per_nev), float(ref.tau(E_r))

    beta_ref, tau_r_ref = stable(evaluate, digits)
    assert res.beta == pytest.approx(beta_ref, rel=1e-12, abs=0)
    assert phase_time_at_resonance(sys, res) == pytest.approx(tau_r_ref, rel=1e-9, abs=0)


def test_wide_gap_roots_all_certify():
    # L = 20000 A between the filter's barriers: 65 roots, the narrowest
    # with beta/E_r ~ 6e-6, each certified to |A_T|^2 = 1 within 1e-9.
    sys = dataclasses.replace(neutron_system(), L=20000e-10)
    roots = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    assert len(roots) == 65
    assert all(abs(probability(sys, r.E_r) - 1.0) <= 1e-9 for r in roots)


def test_probe_root_has_a_finite_probability():
    # A root (qa ~ 9) of the resonances benchmark's probe where |D|^2, if
    # formed as a difference of O(1) terms, rounds to a negative number.
    sys = BarrierSystem.from_lab_units(
        930.1000263542228, 215.46952393426844, 927.5973002761239, 0.9904489331756411
    )
    E = 2.603538684922457e-27
    p_ref, _ = reference_ranges(sys, E)
    p = probability(sys, E)
    assert 0.0 <= p <= 1.0
    assert within(p, p_ref, 1e-9)
    assert len(find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)) == 3
