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

which is the free flight mL/(hbar k) plus hbar/beta. The resonance module
evaluates it, with beta, from the record that certifies the root
(phase_time_at_resonance and Resonance.tau_r).

The numeric route is a central difference of the continuous phase
phi = kL - 2 chi - arg z, which is exactly the mean phase-time over its
stencil (average_phase_time). It reads the same record as the analytic
tau, so it checks the derivative formula above against that phase, not
the record itself (the transfer matrix does that). The constant-phase
approximation underlying the phase-time itself is applied
unconditionally, with no validity-region flagging.
"""

import math
from sys import float_info
from typing import NamedTuple

from .errors import DomainError, StepError
from .kinematics import BarrierSystem, kinematics
from .transmission import ScaledDenominator, _arg_z, _overflow, _require_opaque, scaled_denominator

__all__ = [
    "PhaseTimeBreakdown",
    "phase_time",
    "phase_time_numeric",
    "phase_time_opaque",
    "average_phase_time",
    "hartman_limit",
]


class PhaseTimeBreakdown(NamedTuple):
    """The exact phase-time, finite or a DomainError. Its numerator P and
    |D|^2 are not kept: they overflow from qa ~ 178 (neutron filter, 0.4 U0);
    P = total (hbar k / m) |D|^2, |D|^2 = mod_sq_scaled exp(2 log_scale)."""

    total: float        # s


def phase_time(sys: BarrierSystem, E: float) -> PhaseTimeBreakdown:
    """Exact phase-time from the Fabry-Perot form (see module docstring)."""
    return _phase_time_of(scaled_denominator(sys, E), sys.L)


def _phase_time_of(sc: ScaledDenominator, L: float) -> PhaseTimeBreakdown:
    """phase_time from an already evaluated denominator of a system of gap L.

    Lets a caller that needs both the probability and the phase-time at one
    energy evaluate scaled_denominator once.
    """
    (_, k, _, _, _, hbar, m), _, e, w, w_k, _, chi_k, c, s, den = sc
    # (tau hbar k / m + chi') |D|^2 exp(-4qa): the two terms that carry L
    gap = e * ((L - chi_k) * (e + 2.0 * w) - 2.0 * w_k * s * c)
    total = (m / (hbar * k)) * (gap / den - chi_k)
    if not math.isfinite(total):
        raise _overflow(sc, "phase-time", total)
    return tuple.__new__(PhaseTimeBreakdown, (total,))


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


def hartman_limit(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier phase-time plateau 2m / (hbar k q)."""
    _, k, q, _, _, hbar, m = kinematics(sys, E)
    return 2.0 * m / (hbar * k * q)


def phase_time_opaque(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier phase-time: the exact tau expanded in x = 1/(w cos^2 psi),

        tau ~ (m / hbar k) [-chi' + (L - chi' - (w'/w) sin(psi) cos(psi))
                                    / (2 w cos^2(psi))].

    The first term is the plateau, -(m/hbar k) chi' -> 2m/(hbar k q); the
    second, of order exp(-2qa), carries the whole dependence on the gap and
    the rest of the dependence on the width (the generalized Hartman
    effect). In the opaque limit w'/w -> -2(delta + ka)/q, so the second
    term goes negative where sin(psi) cos(psi) is negative enough, as the
    exact delay does. The relative error is about C x^2 with C <= 16
    (measured), so of order exp(-4qa) at fixed psi.

    Raises OpaqueBracketError unless x <= 0.01: near a resonance
    (cos psi -> 0), for barriers too thin or too transparent, and for a
    vanishing width (a below about 1e-163 m, where w exp(-2qa) underflows).
    """
    return _phase_time_opaque_of(scaled_denominator(sys, E), sys.L)


def _phase_time_opaque_of(sc: ScaledDenominator, L: float) -> float:
    """phase_time_opaque from an already evaluated denominator of gap L."""
    _require_opaque(sc)
    (_, k, _, _, _, hbar, m), _, e, w, w_k, _, chi_k, c, s, _ = sc
    den = 2.0 * w * (c * c)
    gap = e * (L - chi_k - (w_k / w) * s * c) / den
    total = (m / (hbar * k)) * (gap - chi_k)
    if not math.isfinite(total):
        raise _overflow(sc, "phase-time", total)
    return total


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
    the bounded phase is evaluated at psi = kL - chi, which carries k's
    rounding times kL, and follows psi with an O(1) slope off resonance (up
    to ~E_r/beta at one). So the error is about max(1, kL) 2^-52 O(1)/|dphi|
    relative: full precision over a resonance window, fewer digits as the
    window shrinks far below beta or kL reaches ~1e3 rad (L ~ 1e5 A).
    Raises DomainError where L > 0 and 2 m L dE is not a normal double (on
    the neutron filter, dE below about 3.4e-274 J), since a subnormal or
    zero numerator would carry few or no digits of L (k_hi - k_lo).
    """
    if not (0.0 < E_lo < E_hi < sys.U0):
        raise DomainError(
            f"averaging window must satisfy 0 < E_lo < E_hi < U0, got "
            f"({E_lo}, {E_hi})"
        )
    lo, hi = scaled_denominator(sys, E_lo), scaled_denominator(sys, E_hi)
    (_, k_lo, _, _, _, hbar, m), _, _, _, _, chi_lo, _, _, _, _ = lo
    (_, k_hi, _, _, _, _, _), _, _, _, _, chi_hi, _, _, _, _ = hi
    dE = E_hi - E_lo
    two_m_l_de = 2.0 * m * sys.L * dE
    if sys.L > 0.0 and two_m_l_de < float_info.min:
        raise DomainError(
            f"averaging window ({E_lo}, {E_hi}) J: 2 m L dE = {two_m_l_de} "
            "is not a normal double"
        )
    d_kl = two_m_l_de / (hbar * hbar * (k_lo + k_hi))
    d_bounded = 2.0 * (chi_hi - chi_lo) + (_arg_z(hi) - _arg_z(lo))
    return hbar * (d_kl - d_bounded) / dE
