"""Wigner phase-time for the double barrier.

The stationary-phase traversal time is hbar times the energy derivative of
the transmitted wave's phase, referenced to free propagation over the full
structure 2a + L:

    tau = hbar * d/dE arg{ A_T exp[ik(2a + L)] }.

Carrying the derivative through the closed-form denominator gives the
exact expression

    tau = (m / hbar k) P / |D|^2,
    P   = (1 + 2w) L + u'v - uv'
          + (u'w - uw') sin(2kL) + (vw' - v'w) cos(2kL),

with the primes denoting d/dk. At a certified resonance this collapses to

    tau_r = (m / hbar k q) [sigma^2 cosh(qa) sinh(qa) + delta k a + (1 + 2w) q L],

and for opaque barriers (qa >> 1, away from resonances) it saturates at
the width- and gap-independent plateau 2m/(hbar k q).

Evaluation strategy. (q/2) P exp(-4qa) and |D|^2 exp(-4qa) are both
computed as K + remainder, where K = (sigma^2/32) B is their common
opaque-limit term (B is the asymptotic bracket shared with the
transmission module) and each remainder is exact with an overall factor
exp(-2qa). The split is algebraically identical to the formulas above at
every energy; numerically it makes the plateau clean: once the remainders
drop below one ulp of K, the bracket cancels bit-for-bit in the ratio and
the computed tau is exactly 2m/(hbar k q) instead of that value plus
rounding noise. Without the split, the exponentially small L-dependence
near the plateau would drown in arithmetic noise around qa ~ 20.

The numeric route (central difference of the unwrapped phase) stays
deliberately independent of the analytic one and certifies it; the
constant-phase approximation underlying the phase-time itself is applied
unconditionally, with no validity-region flagging.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import (
    DomainError,
    OpaqueBracketError,
    PhaseUnwrapError,
    QuadratureError,
    ResonanceValidationError,
    StepError,
)
from .kinematics import BarrierSystem, _exp, hyperbolic_state, kinematics
from .resonance import Resonance
from .transmission import ScaledDenominator, scaled_denominator, transmitted_phase

__all__ = [
    "PhaseTimeBreakdown",
    "phase_time",
    "phase_time_numeric",
    "phase_time_at_resonance",
    "phase_time_opaque",
    "average_phase_time",
    "adaptive_simpson",
    "hartman_limit",
]


class PhaseTimeBreakdown(NamedTuple):
    """Phase-time with its numerator P (m) and |D|^2; total is always finite,
    the other two overflow to inf once qa is past ~88."""

    total: float        # s
    P_value: float      # m
    mod_squared: float


def _scaled_p_remainder(sc: ScaledDenominator, a: float, L: float) -> float:
    """Exact remainder (q/2) P exp(-4qa) - K; every term carries exp(-2qa).

    Written out from the closed forms of u'v - uv', u'w - uw' and vw' - v'w
    with e = exp(-2qa), p = 1 - e, mp = 1 + e:

      R_P = e [ (qL/2)(e + 2w~) + (delta ka / 2)(e + w~) + (s2/8) mp p
                - (s2^2/128)(2 - 2e^2 + e^3)
                + sin(2kL) ( (s2 ka/16) mp p - (s2 delta/32)(2 - 2e + 2e^2 - e^3) )
                + cos(2kL) ( -(s2(4 - delta^2)/128)(2 - 2e^2 + e^3)
                             - (s2 delta ka/32) p^2 ) ]

    with w~ the scaled w. Verified symbolically against the plain formula.
    """
    kin = sc.kin
    delta, s2 = kin.delta, kin.sigma_sq
    e = sc.e_neg
    p = sc.one_minus_e
    w_s = sc.w_scaled
    mp = 1.0 + e
    ka = kin.k * a
    q = kin.q
    poly_a = 2.0 + e * e * (-2.0 + e)            # 2 - 2e^2 + e^3
    poly_b = 2.0 + e * (-2.0 + e * (2.0 - e))    # 2 - 2e + 2e^2 - e^3
    return e * (
        (q * L / 2.0) * (e + 2.0 * w_s)
        + 0.5 * delta * ka * (e + w_s)
        + (s2 / 8.0) * mp * p
        - (s2 * s2 / 128.0) * poly_a
        + sc.sin2kl * ((s2 * ka / 16.0) * mp * p - (s2 * delta / 32.0) * poly_b)
        + sc.cos2kl
        * (-(s2 * (4.0 - delta * delta) / 128.0) * poly_a - (s2 * delta * ka / 32.0) * p * p)
    )


def phase_time(sys: BarrierSystem, E: float) -> PhaseTimeBreakdown:
    """Exact phase-time via the analytic P formula (see module docstring)."""
    return _phase_time_of(scaled_denominator(sys, E), sys.a, sys.L)


def _phase_time_of(sc: ScaledDenominator, a: float, L: float) -> PhaseTimeBreakdown:
    """phase_time from an already evaluated denominator of the system (a, L).

    Lets a caller that needs both the probability and the phase-time at one
    energy evaluate scaled_denominator once.
    """
    kin = sc.kin
    num = sc.k_lead + _scaled_p_remainder(sc, a, L)  # (q/2) P exp(-4qa)
    den = sc.k_lead + sc.r_d                         # |D|^2 exp(-4qa)
    total = (kin.m / (kin.hbar * kin.k)) * (2.0 / kin.q) * (num / den)
    scale4 = _exp(2.0 * sc.log_scale)
    return PhaseTimeBreakdown(total, (2.0 / kin.q) * num * scale4, den * scale4)


def phase_time_numeric(sys: BarrierSystem, E: float, rel_step: float = 1e-6) -> float:
    """Central difference of the unwrapped transmitted phase, times hbar.

    The two-sided stencil must stay inside (0, U0); the phase step across
    the stencil must stay below pi/2 or the branch correction is ambiguous
    (halve the step and retry near sharp resonances).
    """
    if not rel_step > 0.0:
        raise DomainError(f"rel_step must be > 0, got {rel_step}")
    dE = E * rel_step
    lo, hi = E - dE, E + dE
    if not (0.0 < lo and hi < sys.U0):
        raise StepError(
            f"stencil [{lo}, {hi}] J leaves (0, {sys.U0}); reduce rel_step"
        )
    dphi = transmitted_phase(sys, hi) - transmitted_phase(sys, lo)
    dphi = math.remainder(dphi, math.tau)  # accumulate the branch correction
    if abs(dphi) > 0.5 * math.pi:
        raise PhaseUnwrapError(
            f"phase step {dphi:.3f} rad exceeds pi/2 across dE={dE} J; halve the step"
        )
    hbar = kinematics(sys, E).hbar
    return hbar * dphi / (2.0 * dE)


def phase_time_at_resonance(sys: BarrierSystem, res: Resonance) -> float:
    """tau_r = (m / hbar k q) [sigma^2 cosh(qa) sinh(qa) + delta k a + (1+2w) qL].

    Only meaningful at a genuine transparency point, so the resonance is
    re-certified (|A_T|^2 within 1e-6 of unity) before evaluating.
    """
    sc = scaled_denominator(sys, res.E_r)
    p_trans = math.exp(-sc.log_mod_squared)
    if abs(p_trans - 1.0) > 1e-6:
        raise ResonanceValidationError(
            f"|A_T|^2 = {p_trans} at claimed resonance E_r={res.E_r} J"
        )
    kin = sc.kin
    e = sc.e_neg
    chsh = (1.0 + e) * sc.one_minus_e / 4.0
    bracket_scaled = (
        kin.sigma_sq * chsh
        + kin.delta * kin.k * sys.a * e
        + (e + 2.0 * sc.w_scaled) * kin.q * sys.L
    )
    return (
        (kin.m / (kin.hbar * kin.k * kin.q))
        * bracket_scaled
        * math.exp(sc.log_scale)
    )


def hartman_limit(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier phase-time plateau 2m / (hbar k q)."""
    kin = kinematics(sys, E)
    return 2.0 * kin.m / (kin.hbar * kin.k * kin.q)


def phase_time_opaque(sys: BarrierSystem, E: float) -> float:
    """Two-term opaque asymptotic

        tau ~ 2m/(hbar k q)
              + (4m / hbar k) L exp(-2qa)
                / [sigma^2/4 + (1 + delta^2/4) cos(2kL) + delta sin(2kL)],

    whose second term carries the entire (exponentially suppressed)
    dependence on the gap. The bracket differs from the strict expansion
    of the exact formula (which has 1 - delta^2/4 in the cosine term and
    further L-independent pieces of the same exp(-2qa) order); at any
    opacity where the expansion is meaningful the difference is far below
    the certified tolerances, and the exact formula remains the authority.
    A non-positive bracket signals a resonance and raises.
    """
    kin = kinematics(sys, E)
    state = hyperbolic_state(kin, sys.a)
    delta, s2 = kin.delta, kin.sigma_sq
    cos2 = math.cos(2.0 * kin.k * sys.L)
    sin2 = math.sin(2.0 * kin.k * sys.L)
    bracket = 0.25 * s2 + (1.0 + 0.25 * delta * delta) * cos2 + delta * sin2
    if bracket <= 0.0:
        raise OpaqueBracketError(
            f"phase-time asymptotic bracket {bracket} <= 0 at E={E} J: "
            "too close to a resonance"
        )
    leading = 2.0 * kin.m / (kin.hbar * kin.k * kin.q)
    correction = (
        (4.0 * kin.m / (kin.hbar * kin.k)) * sys.L * math.exp(-state.log_scale) / bracket
    )
    return leading + correction


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    rel_tol: float = 1e-3,
    max_depth: int = 30,
) -> float:
    """Adaptive Simpson integral of f over [a, b].

    Interval bisection with the usual 15x Richardson acceptance test;
    rel_tol is measured against the running whole-interval estimate.
    Exceeding max_depth raises QuadratureError carrying the partial value.
    """
    if not b > a:
        raise DomainError(f"integration bounds must satisfy a < b, got [{a}, {b}]")
    fa, fb = f(a), f(b)
    mid = 0.5 * (a + b)
    fm = f(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    abs_tol = rel_tol * abs(whole) if whole != 0.0 else rel_tol

    def recurse(x0, x2, f0, f1, f2, s, tol, depth):
        x1 = 0.5 * (x0 + x2)
        lm, rm = 0.5 * (x0 + x1), 0.5 * (x1 + x2)
        flm, frm = f(lm), f(rm)
        left = (x1 - x0) / 6.0 * (f0 + 4.0 * flm + f1)
        right = (x2 - x1) / 6.0 * (f1 + 4.0 * frm + f2)
        if abs(left + right - s) <= 15.0 * tol:
            return left + right + (left + right - s) / 15.0
        if depth >= max_depth:
            raise QuadratureError(
                f"adaptive Simpson hit depth {max_depth} on [{x0}, {x2}]",
                partial=left + right,
            )
        half = 0.5 * tol
        return recurse(x0, x1, f0, flm, f1, left, half, depth + 1) + recurse(
            x1, x2, f1, frm, f2, right, half, depth + 1
        )

    return recurse(a, b, fa, fm, fb, whole, abs_tol, 0)


def average_phase_time(sys: BarrierSystem, E_lo: float, E_hi: float) -> float:
    """Mean of the exact phase-time over [E_lo, E_hi], to 1e-3 of itself."""
    if not (0.0 < E_lo < E_hi < sys.U0):
        raise DomainError(
            f"averaging window must satisfy 0 < E_lo < E_hi < U0, got "
            f"({E_lo}, {E_hi})"
        )
    integral = adaptive_simpson(
        lambda E: phase_time(sys, E).total, E_lo, E_hi, rel_tol=1e-3
    )
    return integral / (E_hi - E_lo)
