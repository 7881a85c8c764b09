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
immutable NamedTuples, built and read by the construction rule stated in
the kinematics module: one `tuple.__new__` call, one unpacking.
"""

import cmath
import math
from typing import NamedTuple

from .errors import DomainError, OpaqueBracketError
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


def scaled_denominator(sys: BarrierSystem, E: float) -> ScaledDenominator:
    """Evaluate the scaled Fabry-Perot record at energy E.

    With d/dk at fixed a, U0, m (dq/dk = -k/q):

        chi' = -(sigma^2 cosh(qa) sinh(qa) + delta k a) / (2q (1+w)),
        w'   = -(sigma^2 / 2q) (delta sinh^2(qa) + k a cosh(qa) sinh(qa)).
    """
    kin = kinematics(sys, E)
    _, k, q, delta, sigma, _, _ = kin
    s2 = sigma * sigma
    a, _, L, _ = sys
    two_qa = 2.0 * q * a
    e = math.exp(-two_qa)
    p = -math.expm1(-two_qa)   # 1 - e, accurate for small qa
    ka = k * a
    chsh = (1.0 + e) * p / 4.0  # cosh(qa) sinh(qa) e
    w = s2 * p * p / 16.0
    w_k = -(s2 / (2.0 * q)) * (0.25 * delta * p * p + ka * chsh)
    chi = math.atan(0.5 * delta * p / (1.0 + e))   # tanh qa = p/(1+e)
    chi_k = -(s2 * chsh + delta * ka * e) / (2.0 * q * (e + w))
    psi = k * L - chi
    c, s = math.cos(psi), math.sin(psi)
    mod_sq = e * e + 4.0 * w * (e + w) * c * c
    return tuple.__new__(ScaledDenominator, (kin, two_qa, e, w, w_k, chi, chi_k, c, s, mod_sq))


def _arg_z(sc: ScaledDenominator) -> float:
    """arg z of z = e (1 + 2w cos(psi) exp(i psi)) = D e exp(-2i chi), in
    (-pi/2, pi/2): Re z >= e > 0, so it is continuous in E."""
    two_wc = 2.0 * sc.w_scaled * sc.cos_psi
    return cmath.phase(complex(sc.e_neg + two_wc * sc.cos_psi, two_wc * sc.sin_psi))


def amplitude(sys: BarrierSystem, E: float) -> TransmissionResult:
    """Transmitted amplitude exp(-2ika)/D and probability 1/|D|^2."""
    (_, k, _, _, _, _, _), log_scale, e, w, _, chi, _, c, s, mod_sq = scaled_denominator(sys, E)
    # exp(-2ika)/D = exp(-2i(ka + chi)) e conj(z)/|z|^2, as in _arg_z and log_mod_squared
    two_wc = 2.0 * w * c
    num = complex(e + two_wc * c, two_wc * s).conjugate() * (e / mod_sq)
    amp = cmath.exp(-2j * (k * sys.a + chi)) * num
    log_mod_sq = 2.0 * log_scale + math.log(mod_sq)
    return tuple.__new__(TransmissionResult, (amp, math.exp(-log_mod_sq)))


def probability(sys: BarrierSystem, E: float) -> float:
    return math.exp(-scaled_denominator(sys, E).log_mod_squared)


def log_probability(sys: BarrierSystem, E: float) -> float:
    """ln |A_T|^2; finite even when the probability itself underflows.

    Raises DomainError where the scaled |D|^2 overflows (E/U0 below ~1e-150).
    Accuracy runs out far above that: as E -> 0, chi -> pi/2 and cos(psi)
    keeps only an absolute accuracy of about 2^-53 pi/2, so on the neutron
    filter ln P is 4e-10 relative off at E/U0 = 2.7e-20, 1.3e-6 at 2.7e-25,
    and -92.997 against -90.872 at 2.7e-35, finite and without an error.
    """
    sc = scaled_denominator(sys, E)
    log_p = -sc.log_mod_squared
    if not math.isfinite(log_p):
        raise _overflow(sc, "ln |A_T|^2", log_p)
    return log_p


def _overflow(sc: ScaledDenominator, name: str, value: float) -> DomainError:
    """For a result that came out inf or nan: sigma^2 ~ U0/E has pushed the
    scaled record (w~', |D|^2 e^2) past the double range, at E/U0 below ~1e-150."""
    return DomainError(f"{name} is {value} at E={sc.kin.E} J: the scaled record overflows")


def transmitted_phase(sys: BarrierSystem, E: float) -> float:
    """Principal argument of A_T exp(ik(2a+L)) = exp(ikL)/D, i.e. kL - arg D.

    The free-propagation reference over the full structure is folded in, so
    this is the phase whose energy derivative (times hbar) is the Wigner
    phase-time.
    """
    sc = scaled_denominator(sys, E)
    kl = sc.kin.k * sys.L
    return math.remainder(kl - 2.0 * sc.chi - _arg_z(sc), math.tau)


# Largest x = 1/(w cos^2 psi) at which the opaque forms answer. The phase-time
# expansion's relative error is about C x^2, C <= 16 measured on 40,000 seeded
# systems (a 10-2000 A, L 1-1e4 A, U0 50-500 neV, E 0.005-0.995 U0).
_X_MAX = 0.01


def _require_opaque(sc: ScaledDenominator) -> None:
    """Raise OpaqueBracketError unless x <= _X_MAX, tested without division as
    e <= _X_MAX w~ cos^2(psi): w~ = 0 (a vanishing width) fails it too."""
    if not sc.e_neg <= _X_MAX * sc.w_scaled * sc.cos_psi * sc.cos_psi:
        raise OpaqueBracketError(
            f"opaque expansion undefined at E={sc.kin.E} J: 1/(w cos^2 psi) > {_X_MAX} "
            f"(cos psi = {sc.cos_psi:.3e}, w = {sc.w_scaled:.3e}/{sc.e_neg:.3e})"
        )


def probability_opaque(sys: BarrierSystem, E: float) -> float:
    """Opaque-barrier asymptotic probability 32 exp(-4qa) / (sigma^2 B),
    B = (sigma^2/2) cos^2(psi): the leading term of 1/|D|^2 in 1/w.

    Its relative error is below 10 exp(-2qa) plus rounding. Raises
    OpaqueBracketError unless x = 1/(w cos^2 psi) <= 0.01, as
    phase_time_opaque does; B vanishes on the resonance locus.
    """
    sc = scaled_denominator(sys, E)
    _require_opaque(sc)
    s2 = sc.kin.sigma_sq
    bracket = 0.5 * s2 * sc.cos_psi * sc.cos_psi
    return 32.0 * sc.e_neg * sc.e_neg / (s2 * bracket)
