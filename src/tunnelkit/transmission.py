"""Closed-form transmission through the symmetric double barrier.

The transmitted amplitude is

    A_T = exp(-2ika) / D,
    D   = u + w cos(2kL) + i [v + w sin(2kL)]  =  D1 + i D2,

with |D|^2 = 1 + 2w [1 + w + u cos(2kL) + v sin(2kL)], and the probability
is 1/|D|^2. The modulus is evaluated from the second (product) form, which
never squares the exponentially large D1, D2.

Internally everything is scaled by exp(-2qa) so the opaque regime never
overflows. On top of that, |D|^2 exp(-4qa) is computed as K + R_D where

    K = (sigma^2/32) B,
    B = sigma^2/4 + (1 - delta^2/4) cos(2kL) + delta sin(2kL)

is the bracket the opaque-limit probability 32 exp(-4qa)/(sigma^2 B)
converges to, and R_D is the exact remainder, every term of which carries
a factor exp(-2qa). The split is algebraically exact at all energies; its
point is that in the opaque regime the remainder drops below one ulp of K
and the leading bracket then cancels exactly in ratios like the
phase-time, instead of leaving rounding noise of order 1e-16.

The per-energy records (ScaledDenominator, TransmissionResult) are
immutable NamedTuples, built positionally: a frozen dataclass costs about
six times as much to build, keyword construction twice as much, and
either would dominate the time of one energy point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import OpaqueBracketError
from .kinematics import (
    BarrierSystem,
    Kinematics,
    _exp,
    _scaled_uvw,
    hyperbolic_state,
    kinematics,
)

__all__ = [
    "DenominatorParts",
    "TransmissionResult",
    "ScaledDenominator",
    "scaled_denominator",
    "denominator",
    "amplitude",
    "probability",
    "log_probability",
    "transmitted_phase",
    "probability_opaque",
    "opaque_bracket",
]


@dataclass(frozen=True)
class DenominatorParts:
    """Real/imaginary parts of D and its squared modulus (unscaled view)."""

    D1: float
    D2: float
    mod_squared: float


class TransmissionResult(NamedTuple):
    amplitude: complex
    probability: float


class ScaledDenominator(NamedTuple):
    """exp(-2qa)-scaled denominator pieces shared with the phase-time module.

    True values: D1 = d1 * e^s, D2 = d2 * e^s, |D|^2 = (k_lead + r_d) * e^2s
    with s = log_scale = 2qa. k_lead is the opaque-limit term (sigma^2/32) B
    and r_d the exact remainder, proportional to exp(-2qa). e_neg,
    one_minus_e and w_scaled are the hyperbolic_state values of the same
    name; the k-derivatives are not computed on this path.
    """

    kin: Kinematics
    log_scale: float    # 2qa
    e_neg: float        # exp(-2qa)
    one_minus_e: float  # 1 - exp(-2qa)
    w_scaled: float     # w exp(-2qa)
    cos2kl: float
    sin2kl: float
    bracket: float      # B
    d1: float
    d2: float
    k_lead: float
    r_d: float

    @property
    def mod_sq_scaled(self) -> float:
        return self.k_lead + self.r_d

    @property
    def log_mod_squared(self) -> float:
        return 2.0 * self.log_scale + math.log(self.mod_sq_scaled)


def scaled_denominator(sys: BarrierSystem, E: float) -> ScaledDenominator:
    """Evaluate the scaled denominator pieces at energy E."""
    kin = kinematics(sys, E)
    delta, s2 = kin.delta, kin.sigma_sq
    two_qa = 2.0 * kin.q * sys.a
    e, p, _, _, _, u_s, v_s, w_s = _scaled_uvw(delta, s2, two_qa)
    two_kl = 2.0 * kin.k * sys.L
    cos2 = math.cos(two_kl)
    sin2 = math.sin(two_kl)

    bracket = 0.25 * s2 + (1.0 - 0.25 * delta * delta) * cos2 + delta * sin2
    k_lead = (s2 / 32.0) * bracket

    # Exact remainder of |D|^2 e^-4qa minus K; every term carries a factor e.
    poly4 = 4.0 + e * (-6.0 + e * (4.0 - e))      # (1-p^4)/e
    poly3 = 2.0 + e * e * (-2.0 + e)              # (1-p^3(1+e))/e
    r_d = e * (
        e
        + (s2 / 8.0) * p * p
        - (s2 * s2 / 128.0) * poly4
        + cos2 * (-(s2 / 32.0) * e * (2.0 - e * e) + (s2 * delta * delta / 128.0) * poly4)
        - sin2 * (s2 * delta / 32.0) * poly3
    )

    d1 = u_s + w_s * cos2
    d2 = v_s + w_s * sin2
    return ScaledDenominator(
        kin, two_qa, e, p, w_s, cos2, sin2, bracket, d1, d2, k_lead, r_d
    )


def denominator(sys: BarrierSystem, E: float) -> DenominatorParts:
    """D1, D2 and |D|^2, the latter from the stabilized product form.

    The plain unscaled fields overflow to inf once qa grows past ~177
    (mod_squared) or ~355 (D1, D2); use scaled_denominator for sweeps in
    that regime.
    """
    sc = scaled_denominator(sys, E)
    scale = _exp(sc.log_scale)
    return DenominatorParts(
        D1=sc.d1 * scale,
        D2=sc.d2 * scale,
        mod_squared=_exp(sc.log_mod_squared),
    )


def amplitude(sys: BarrierSystem, E: float) -> TransmissionResult:
    """Transmitted amplitude exp(-2ika)/D and probability 1/|D|^2."""
    sc = scaled_denominator(sys, E)
    k = sc.kin.k
    # exp(-2ika) * conj(D) / |D|^2, folding one e^-2qa into the numerator.
    num = complex(sc.d1, -sc.d2) * math.exp(-sc.log_scale) / sc.mod_sq_scaled
    amp = cmath.exp(-2j * k * sys.a) * num
    return TransmissionResult(amplitude=amp, probability=math.exp(-sc.log_mod_squared))


def probability(sys: BarrierSystem, E: float) -> float:
    return math.exp(-scaled_denominator(sys, E).log_mod_squared)


def log_probability(sys: BarrierSystem, E: float) -> float:
    """ln |A_T|^2; finite even when the probability itself underflows."""
    return -scaled_denominator(sys, E).log_mod_squared


def transmitted_phase(sys: BarrierSystem, E: float) -> float:
    """Principal argument of A_T exp(ik(2a+L)) = exp(ikL)/D.

    The free-propagation reference over the full structure is folded in, so
    this is the phase whose energy derivative (times hbar) is the Wigner
    phase-time.
    """
    sc = scaled_denominator(sys, E)
    kl = sc.kin.k * sys.L
    return math.remainder(kl - math.atan2(sc.d2, sc.d1), math.tau)


def opaque_bracket(sys: BarrierSystem, E: float) -> float:
    """B = sigma^2/4 + (1 - delta^2/4) cos(2kL) + delta sin(2kL).

    Vanishes exactly on the opaque-limit resonance locus; small values
    flag proximity to a resonance.
    """
    return scaled_denominator(sys, E).bracket


def probability_opaque(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier asymptotic probability 32 exp(-4qa) / (sigma^2 B).

    Valid for qa >> 1 away from resonances; the caller owns the regime
    check. The bracket B oscillates with amplitude exactly sigma^2/4, so
    it is non-negative and touches zero precisely on the resonance locus;
    a value at or below 1e-9 of its mean therefore signals a resonance
    (where the expansion has no meaning) and raises OpaqueBracketError.
    """
    kin = kinematics(sys, E)
    state = hyperbolic_state(kin, sys.a)
    cos2 = math.cos(2.0 * kin.k * sys.L)
    sin2 = math.sin(2.0 * kin.k * sys.L)
    delta, s2 = kin.delta, kin.sigma_sq
    bracket = 0.25 * s2 + (1.0 - 0.25 * delta * delta) * cos2 + delta * sin2
    if bracket <= 1e-9 * (0.25 * s2):
        raise OpaqueBracketError(
            f"asymptotic bracket {bracket} collapsed at E={E} J: too close to a resonance"
        )
    return 32.0 * math.exp(-2.0 * state.log_scale) / (s2 * bracket)
