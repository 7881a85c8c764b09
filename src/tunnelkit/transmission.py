"""Closed-form transmission through the symmetric double barrier.

The system is one barrier, written twice, with a free gap L between the
copies (a Fabry-Perot composition: Ricco & Azbel, PRB 29, 1970 (1984);
Buttiker, IBM J. Res. Dev. 32, 63 (1988)). With

    chi = atan((delta/2) tanh(qa)),   psi = kL - chi,
    w   = (sigma^2/4) sinh^2(qa),

one barrier transmits T1 = 1/(1+w), reflects R1 = w/(1+w), and the
round-trip phase across the gap is psi + pi/2. The transmitted amplitude
of the pair is

    A_T   = exp(-2ika) / D,
    D     = exp(2i chi) (1 + 2w cos(psi) exp(i psi)),
    |D|^2 = 1 + 4w(1+w) cos^2(psi),

so the probability is 1/|D|^2, a sum of non-negative terms that never
cancels, and the transmitted phase is kL - arg D. Resonances are the
zeros of cos(psi). This is the same denominator as the textbook
u + w cos(2kL) + i(v + w sin(2kL)), since u + iv = (1+w) exp(2i chi).

Everything is kept scaled by e = exp(-2qa) (w~ = w e, |D|^2 e^2), so the
opaque regime never overflows: at qa ~ 700 the probability underflows to
zero while the phase-time stays exact.

The per-energy records (ScaledDenominator, TransmissionResult) are
immutable NamedTuples, built positionally: a frozen dataclass costs about
six times as much to build, keyword construction twice as much, and
either would dominate the time of one energy point.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .errors import OpaqueBracketError
from .kinematics import BarrierSystem, Kinematics, kinematics

__all__ = [
    "TransmissionResult",
    "ScaledDenominator",
    "scaled_denominator",
    "amplitude",
    "probability",
    "log_probability",
    "transmitted_phase",
    "probability_opaque",
]


class TransmissionResult(NamedTuple):
    amplitude: complex
    probability: float


class ScaledDenominator(NamedTuple):
    """One energy point of the Fabry-Perot form, scaled by e = exp(-2qa).

    True values: w = w_scaled / e, w' = w_k_scaled / e (d/dk, m) and
    |D|^2 = mod_sq_scaled / e^2, with e = e_neg = exp(-log_scale) and
    log_scale = 2qa. chi_k = d chi / dk (m) stays bounded at any opacity.
    """

    kin: Kinematics
    log_scale: float      # 2qa
    e_neg: float          # exp(-2qa)
    w_scaled: float       # w exp(-2qa)
    w_k_scaled: float     # w' exp(-2qa), m
    chi: float
    chi_k: float          # m
    cos_psi: float
    sin_psi: float
    mod_sq_scaled: float  # |D|^2 exp(-4qa)

    @property
    def log_mod_squared(self) -> float:
        return 2.0 * self.log_scale + math.log(self.mod_sq_scaled)

    def width_bracket(self, L: float) -> float:
        """G exp(-2qa) in m, with G = wL - (1+w) chi_k > 0.

        At a resonance (cos psi = 0) D' = dD/dE has modulus 2mG/(hbar^2 k),
        so the Breit-Wigner half-width is beta = hbar^2 k / (2mG) and the
        phase-time is tau_r = (m/hbar k)(L + 2G); away from it
        u'v - uv' = 2(1+w) G at L = 0.
        """
        return self.w_scaled * L - (self.e_neg + self.w_scaled) * self.chi_k


def scaled_denominator(sys: BarrierSystem, E: float) -> ScaledDenominator:
    """Evaluate the scaled Fabry-Perot record at energy E.

    With d/dk at fixed a, U0, m (dq/dk = -k/q):

        chi' = -(sigma^2 cosh(qa) sinh(qa) + delta k a) / (2q (1+w)),
        w'   = -(sigma^2 / 2q) (delta sinh^2(qa) + k a cosh(qa) sinh(qa)).
    """
    kin = kinematics(sys, E)
    k, q, delta, s2 = kin.k, kin.q, kin.delta, kin.sigma_sq
    two_qa = 2.0 * q * sys.a
    e = math.exp(-two_qa)
    p = -math.expm1(-two_qa)   # 1 - e, accurate for small qa
    ka = k * sys.a
    chsh = (1.0 + e) * p / 4.0  # cosh(qa) sinh(qa) e
    w = s2 * p * p / 16.0
    w_k = -(s2 / (2.0 * q)) * (0.25 * delta * p * p + ka * chsh)
    chi = math.atan(0.5 * delta * p / (1.0 + e))
    chi_k = -(s2 * chsh + delta * ka * e) / (2.0 * q * (e + w))
    psi = k * sys.L - chi
    c, s = math.cos(psi), math.sin(psi)
    mod_sq = e * e + 4.0 * w * (e + w) * c * c
    return ScaledDenominator(kin, two_qa, e, w, w_k, chi, chi_k, c, s, mod_sq)


def _scaled_z(sc: ScaledDenominator) -> complex:
    """e (1 + 2w cos(psi) exp(i psi)) = D e exp(-2i chi)."""
    two_wc = 2.0 * sc.w_scaled * sc.cos_psi
    return complex(sc.e_neg + two_wc * sc.cos_psi, two_wc * sc.sin_psi)


def _arg_z(sc: ScaledDenominator) -> float:
    """arg z in (-pi/2, pi/2): Re z >= e > 0, so it is continuous in E."""
    z = _scaled_z(sc)
    return math.atan2(z.imag, z.real)


def amplitude(sys: BarrierSystem, E: float) -> TransmissionResult:
    """Transmitted amplitude exp(-2ika)/D and probability 1/|D|^2."""
    sc = scaled_denominator(sys, E)
    # exp(-2ika)/D = exp(-2i(ka + chi)) e conj(z)/|z|^2 with z = _scaled_z(sc).
    num = _scaled_z(sc).conjugate() * (sc.e_neg / sc.mod_sq_scaled)
    amp = cmath.exp(-2j * (sc.kin.k * sys.a + sc.chi)) * num
    return TransmissionResult(amplitude=amp, probability=math.exp(-sc.log_mod_squared))


def probability(sys: BarrierSystem, E: float) -> float:
    return math.exp(-scaled_denominator(sys, E).log_mod_squared)


def log_probability(sys: BarrierSystem, E: float) -> float:
    """ln |A_T|^2; finite even when the probability itself underflows."""
    return -scaled_denominator(sys, E).log_mod_squared


def transmitted_phase(sys: BarrierSystem, E: float) -> float:
    """Principal argument of A_T exp(ik(2a+L)) = exp(ikL)/D, i.e. kL - arg D.

    The free-propagation reference over the full structure is folded in, so
    this is the phase whose energy derivative (times hbar) is the Wigner
    phase-time.
    """
    sc = scaled_denominator(sys, E)
    kl = sc.kin.k * sys.L
    return math.remainder(kl - 2.0 * sc.chi - _arg_z(sc), math.tau)


def probability_opaque(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier asymptotic probability 32 exp(-4qa) / (sigma^2 B),
    B = (sigma^2/2) cos^2(kL - atan(delta/2)).

    Valid for qa >> 1 away from resonances; the caller owns the regime
    check. The bracket B oscillates with amplitude exactly sigma^2/4, so
    it is non-negative and touches zero precisely on the resonance locus;
    a value at or below 1e-9 of its mean therefore signals a resonance
    (where the expansion has no meaning) and raises OpaqueBracketError.
    """
    kin = kinematics(sys, E)
    s2 = kin.sigma_sq
    c = math.cos(kin.k * sys.L - math.atan(0.5 * kin.delta))
    bracket = 0.5 * s2 * c * c
    if bracket <= 1e-9 * (0.25 * s2):
        raise OpaqueBracketError(
            f"asymptotic bracket {bracket} collapsed at E={E} J: too close to a resonance"
        )
    return 32.0 * math.exp(-4.0 * kin.q * sys.a) / (s2 * bracket)
