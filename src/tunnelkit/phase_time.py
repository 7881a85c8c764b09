"""Wigner phase-time for the double barrier.

The stationary-phase traversal time is hbar times the energy derivative of
the transmitted wave's phase, referenced to free propagation over the full
structure 2a + L:

    tau = hbar * d/dE arg{ A_T exp[ik(2a + L)] } = (m / hbar k) d/dk (kL - arg D).

With D = exp(2i chi)(1 + 2w cos(psi) exp(i psi)) and psi = kL - chi (see
the transmission module) the derivative is exact and short:

    tau = (m / hbar k) [ (L - chi')(1 + 2w) / |D|^2 - chi' - w' sin(2 psi) / |D|^2 ],

with the primes denoting d/dk. chi' does not depend on L, and the two
L-dependent terms carry a factor 1/|D|^2 ~ exp(-4qa) against w ~ exp(2qa),
so for opaque barriers (qa >> 1, away from resonances) tau settles on the
width- and gap-independent plateau -(m/hbar k) chi' -> 2m/(hbar k q) with
no cancellation between large terms. At a resonance (cos psi = 0, |D| = 1)
it collapses to

    tau_r = (m / hbar k) [ (1 + 2w)(L - chi') - chi' ],

which is the free flight mL/(hbar k) plus hbar/beta.

The numeric route is a central difference of the continuous phase
phi = kL - 2 chi - arg z, which is exactly the mean phase-time over its
stencil (average_phase_time). It reads the same record as the analytic
tau, so it checks the derivative formula above against that phase, not
the record itself (the transfer matrix does that). The constant-phase
approximation underlying the phase-time itself is applied
unconditionally, with no validity-region flagging.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import DomainError, OpaqueBracketError, StepError
from .kinematics import BarrierSystem, _exp, kinematics
from .resonance import Resonance, _certified
from .transmission import ScaledDenominator, _arg_z, scaled_denominator

__all__ = [
    "PhaseTimeBreakdown",
    "phase_time",
    "phase_time_numeric",
    "phase_time_at_resonance",
    "phase_time_opaque",
    "average_phase_time",
    "hartman_limit",
]


class PhaseTimeBreakdown(NamedTuple):
    """Phase-time with its numerator P (m) and |D|^2; total is always finite,
    the other two overflow to inf once qa is past ~88."""

    total: float        # s
    P_value: float      # m
    mod_squared: float


def phase_time(sys: BarrierSystem, E: float) -> PhaseTimeBreakdown:
    """Exact phase-time from the Fabry-Perot form (see module docstring)."""
    return _phase_time_of(scaled_denominator(sys, E), sys.L)


def _phase_time_of(sc: ScaledDenominator, L: float) -> PhaseTimeBreakdown:
    """phase_time from an already evaluated denominator of a system of gap L.

    Lets a caller that needs both the probability and the phase-time at one
    energy evaluate scaled_denominator once.
    """
    kin = sc.kin
    e, w = sc.e_neg, sc.w_scaled
    # (tau hbar k / m + chi') |D|^2 exp(-4qa): the two terms that carry L
    gap = e * ((L - sc.chi_k) * (e + 2.0 * w) - 2.0 * sc.w_k_scaled * sc.sin_psi * sc.cos_psi)
    den = sc.mod_sq_scaled
    total = (kin.m / (kin.hbar * kin.k)) * (gap / den - sc.chi_k)
    scale4 = _exp(2.0 * sc.log_scale)
    return PhaseTimeBreakdown(total, (gap - sc.chi_k * den) * scale4, den * scale4)


def phase_time_numeric(sys: BarrierSystem, E: float, rel_step: float = 1e-6) -> float:
    """Central difference of the transmitted phase, times hbar.

    hbar [phi(E + dE) - phi(E - dE)] / (2 dE) with dE = E rel_step is exactly
    the mean phase-time over the stencil, so it is average_phase_time over
    [E - dE, E + dE]: the continuous phase, with no branch to correct. The
    two-sided stencil must stay inside (0, U0).
    """
    if not rel_step > 0.0:
        raise DomainError(f"rel_step must be > 0, got {rel_step}")
    dE = E * rel_step
    lo, hi = E - dE, E + dE
    if not (0.0 < lo and hi < sys.U0):
        raise StepError(
            f"stencil [{lo}, {hi}] J leaves (0, {sys.U0}); reduce rel_step"
        )
    return average_phase_time(sys, lo, hi)


def phase_time_at_resonance(sys: BarrierSystem, res: Resonance) -> float:
    """tau_r = (m / hbar k) [(1 + 2w)(L - chi') - chi'] = (m / hbar k)(L + 2G).

    G = wL - (1+w) chi' is the record's width bracket. Only meaningful at a
    genuine transparency point, so the resonance is re-certified (|A_T|^2
    within CERTIFICATION_TOL of unity, as find_resonances requires) before
    evaluating.
    """
    sc = _certified(sys, res.E_r)
    kin = sc.kin
    bracket = sc.e_neg * sys.L + 2.0 * sc.width_bracket(sys.L)
    return (kin.m / (kin.hbar * kin.k)) * bracket * math.exp(sc.log_scale)


def hartman_limit(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier phase-time plateau 2m / (hbar k q)."""
    kin = kinematics(sys, E)
    return 2.0 * kin.m / (kin.hbar * kin.k * kin.q)


# cos^2(psi) at or below this is a resonance collision: the opaque bracket
# (sigma^2/2) cos^2(psi) is below 5 % of its mean sigma^2/4 there, and the
# expansion parameter 1/(w cos^2 psi) grows without bound as cos(psi) -> 0.
_OPAQUE_COS_SQ_MIN = 0.025


def phase_time_opaque(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier phase-time: the exact tau expanded in 1/(w cos^2 psi),

        tau ~ (m / hbar k) [-chi' + (L - chi' - (w'/w) sin(psi) cos(psi))
                                    / (2 w cos^2(psi))].

    The first term is the plateau, -(m/hbar k) chi' -> 2m/(hbar k q); the
    second, of order exp(-2qa), carries the whole dependence on the gap and
    the rest of the dependence on the width (the generalized Hartman
    effect). In the opaque limit w'/w -> -2(delta + ka)/q, so the second
    term goes negative where sin(psi) cos(psi) is negative enough, as the
    exact delay does. The relative error is of order exp(-4qa): about
    3e-10 at qa = 6.6.

    Raises OpaqueBracketError inside the resonance band
    cos^2(psi) <= 0.025, where the expansion has no meaning, and where
    the second term is not finite (a below about 1e-163 m, where
    w exp(-2qa) underflows).
    """
    return _phase_time_opaque_of(scaled_denominator(sys, E), sys.L)


def _phase_time_opaque_of(sc: ScaledDenominator, L: float) -> float:
    """phase_time_opaque from an already evaluated denominator of gap L."""
    c, w = sc.cos_psi, sc.w_scaled
    c2 = c * c
    den = 2.0 * w * c2
    kin = sc.kin
    tau = math.inf
    if den > 0.0:
        gap = sc.e_neg * (L - sc.chi_k - (sc.w_k_scaled / w) * sc.sin_psi * c) / den
        tau = (kin.m / (kin.hbar * kin.k)) * (gap - sc.chi_k)
    if not (c2 > _OPAQUE_COS_SQ_MIN and math.isfinite(tau)):
        raise OpaqueBracketError(
            f"opaque expansion undefined at E={kin.E} J: cos^2(psi) = {c2:.3e} "
            f"(resonance band <= {_OPAQUE_COS_SQ_MIN}), w exp(-2qa) = {w:.3e}"
        )
    return tau


def average_phase_time(sys: BarrierSystem, E_lo: float, E_hi: float) -> float:
    """Exact mean of the phase-time over [E_lo, E_hi].

    tau = hbar dphi/dE, so the mean is hbar [phi(E_hi) - phi(E_lo)] /
    (E_hi - E_lo): no quadrature, only the transmitted phase
    phi = kL - 2 chi - arg z at the two ends. chi and arg z stay in
    (-pi/2, pi/2) (Re z >= e > 0), so phi is continuous over any window and
    needs no unwrapping. kL reaches ~1e3 rad at wide gaps, so its
    difference is formed without cancellation,

        L (k_hi - k_lo) = 2 m L dE / (hbar^2 (k_lo + k_hi)),

    and only the bounded parts are subtracted. What remains is rounding:
    about 2^-52 * O(1) / |dphi| relative, where O(1) is the bounded phase's
    change under a one-ulp change of E (up to ~E_r/beta at a resonance).
    That is at most ~2^-52 E / (E_hi - E_lo): full precision over a
    resonance window, fewer digits as the window shrinks far below beta.
    """
    if not (0.0 < E_lo < E_hi < sys.U0):
        raise DomainError(
            f"averaging window must satisfy 0 < E_lo < E_hi < U0, got "
            f"({E_lo}, {E_hi})"
        )
    lo, hi = scaled_denominator(sys, E_lo), scaled_denominator(sys, E_hi)
    kin = lo.kin
    dE = E_hi - E_lo
    d_kl = 2.0 * kin.m * sys.L * dE / (kin.hbar * kin.hbar * (lo.kin.k + hi.kin.k))
    d_bounded = 2.0 * (hi.chi - lo.chi) + (_arg_z(hi) - _arg_z(lo))
    return kin.hbar * (d_kl - d_bounded) / dE
