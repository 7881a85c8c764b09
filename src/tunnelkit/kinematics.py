"""Wave quantities and hyperbolic helper functions for the double barrier.

For a particle of mass m and energy 0 < E < U0 hitting a rectangular
barrier of height U0 and width a, the propagating and evanescent wave
numbers are

    k = sqrt(2 m E) / hbar            (1/m)
    q = sqrt(2 m (U0 - E)) / hbar     (1/m)

and the two dimensionless shape parameters are

    delta = (q^2 - k^2) / (k q),   sigma = (k^2 + q^2) / (k q),

linked by sigma^2 = delta^2 + 4. The textbook closed-form transmission
denominator D = u + w cos(2kL) + i [v + w sin(2kL)] is built out of

    u = cosh^2(qa) - (delta^2/4) sinh^2(qa)
    v = delta cosh(qa) sinh(qa)
    w = (sigma^2/4) sinh^2(qa)

together with their derivatives with respect to k. The per-energy path
(transmission, phase_time, resonance) uses the equivalent single-barrier
form D = exp(2i chi)(1 + 2w cos(psi) exp(i psi)) instead, and no module
of the package calls hyperbolic_state. It stays as the tests' u/v/w
reference, the independent route the single-barrier form is checked
against, and as a name perfbench's tracer looks up.

Overflow guard: cosh/sinh overflow double precision near qa ~ 355, and the
quadratic combinations above already overflow near qa ~ 177. All values
here are therefore stored scaled by exp(-2qa) alongside log_scale = 2qa;
the plain attributes reconstruct the unscaled numbers (becoming inf once
they genuinely exceed the double range).

Kinematics is an immutable NamedTuple rather than a frozen dataclass: it
is built once per energy point, and a NamedTuple costs a fraction of a
frozen dataclass to construct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .constants import CODATA2018, PhysicalConstants
from .errors import DomainError

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "BarrierSystem",
    "Kinematics",
    "HyperbolicState",
    "kinematics",
    "hyperbolic_state",
]


def _exp(x: float) -> float:
    """exp that saturates to inf instead of raising OverflowError."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class BarrierSystem:
    """Two equal rectangular barriers of width a and height U0, a gap L apart.

    All fields are SI: a, L in metres, U0 in joules, m in kilograms. The
    mass is whatever effective mass describes the particle in the medium;
    it is treated as a free positive parameter.
    """

    a: float
    U0: float
    L: float
    m: float

    def __post_init__(self) -> None:
        # One chained comparison per field rejects inf and NaN as well.
        if not 0.0 < self.a < math.inf:
            raise DomainError(f"barrier width a must be finite and > 0, got {self.a}")
        if not 0.0 < self.U0 < math.inf:
            raise DomainError(f"barrier height U0 must be finite and > 0, got {self.U0}")
        if not 0.0 <= self.L < math.inf:
            raise DomainError(f"gap L must be finite and >= 0, got {self.L}")
        if not 0.0 < self.m < math.inf:
            raise DomainError(f"mass m must be finite and > 0, got {self.m}")

    @classmethod
    def from_lab_units(
        cls,
        a_angstrom: float,
        U0_nev: float,
        L_angstrom: float,
        mass_ratio: float = 1.0,
        constants: PhysicalConstants = CODATA2018,
    ) -> "BarrierSystem":
        """Build a system from angstroms, neV and a mass ratio to m_neutron."""
        return cls(
            a=a_angstrom * constants.m_per_angstrom,
            U0=U0_nev / constants.neV_per_J,
            L=L_angstrom * constants.m_per_angstrom,
            m=mass_ratio * constants.m_neutron,
        )


class Kinematics(NamedTuple):
    """Scalar wave quantities of a (system, energy) pair. SI units."""

    E: float        # J
    k: float        # 1/m
    q: float        # 1/m
    delta: float    # dimensionless
    sigma: float    # dimensionless
    hbar: float     # J s, carried along for downstream prefactors
    m: float        # kg

    @property
    def sigma_sq(self) -> float:
        return self.sigma * self.sigma


def kinematics(sys: BarrierSystem, E: float) -> Kinematics:
    """Evaluate k, q, delta, sigma at energy E, requiring 0 < E < U0.

    Energies at or above the barrier top are out of scope (q would turn
    imaginary) and raise DomainError.
    """
    if not E > 0.0:
        raise DomainError(f"energy must be > 0, got {E} J")
    if not E < sys.U0:
        raise DomainError(
            f"energy must be below the barrier top U0={sys.U0} J, got {E} J"
        )
    hbar = CODATA2018.hbar
    k = math.sqrt(2.0 * sys.m * E) / hbar
    q = math.sqrt(2.0 * sys.m * (sys.U0 - E)) / hbar
    delta = (q * q - k * k) / (k * q)
    sigma = (k * k + q * q) / (k * q)
    return Kinematics(E, k, q, delta, sigma, hbar, sys.m)


@dataclass(frozen=True)
class HyperbolicState:
    """u, v, w and their k-derivatives, stored scaled by exp(-2qa).

    True values are <name>_scaled * exp(log_scale) with log_scale = 2qa.
    The extra fields e_neg = exp(-2qa) and its complement one_minus_e
    (computed with expm1 so small qa keeps full precision) are what the
    scaled identities, such as u~^2 + v~^2 = (e + w~)^2, are written in.
    """

    log_scale: float      # 2 q a
    e_neg: float          # exp(-2qa)
    one_minus_e: float    # 1 - exp(-2qa)
    u_scaled: float
    v_scaled: float
    w_scaled: float
    up_scaled: float      # m
    vp_scaled: float      # m
    wp_scaled: float      # m

    # Unscaled views; inf once the true value exceeds the double range.
    @property
    def u(self) -> float:
        return self.u_scaled * _exp(self.log_scale)

    @property
    def v(self) -> float:
        return self.v_scaled * _exp(self.log_scale)

    @property
    def w(self) -> float:
        return self.w_scaled * _exp(self.log_scale)

    @property
    def u_prime(self) -> float:
        return self.up_scaled * _exp(self.log_scale)

    @property
    def v_prime(self) -> float:
        return self.vp_scaled * _exp(self.log_scale)

    @property
    def w_prime(self) -> float:
        return self.wp_scaled * _exp(self.log_scale)


def hyperbolic_state(kin: Kinematics, a: float) -> HyperbolicState:
    """Evaluate u, v, w and u', v', w' (d/dk at fixed a, U0, m).

    The derivatives use dq/dk = -k/q, which gives

        delta' = -sigma^2 / q
        sigma' = -delta sigma / q
        d(qa)/dk = -k a / q

    and therefore the explicit forms

        u' = (ka/q) (delta^2/2 - 2) cosh(qa) sinh(qa)
             + (delta sigma^2 / 2q) sinh^2(qa)
        v' = -(sigma^2/q) cosh(qa) sinh(qa)
             - (ka delta/q) (cosh^2(qa) + sinh^2(qa))
        w' = -(delta sigma^2 / 2q) sinh^2(qa)
             - (ka sigma^2 / 2q) cosh(qa) sinh(qa)

    all evaluated here in the exp(-2qa)-scaled representation
        cosh^2 e^-2qa = (1+e)^2/4,  sinh^2 e^-2qa = (1-e)^2/4,
        cosh sinh e^-2qa = (1+e)(1-e)/4,   e = exp(-2qa).
    """
    if not a > 0.0:
        raise DomainError(f"width a must be > 0, got {a}")
    k, q = kin.k, kin.q
    delta = kin.delta
    s2 = kin.sigma_sq
    two_qa = 2.0 * q * a
    e_neg = math.exp(-two_qa)
    one_minus_e = -math.expm1(-two_qa)   # accurate for small qa
    mp = 1.0 + e_neg
    ch2 = mp * mp / 4.0
    sh2 = one_minus_e * one_minus_e / 4.0
    chsh = mp * one_minus_e / 4.0
    u_s = ch2 - 0.25 * delta * delta * sh2
    v_s = delta * chsh
    w_s = 0.25 * s2 * sh2

    ka_q = k * a / q        # m

    up_s = ka_q * (0.5 * delta * delta - 2.0) * chsh + (delta * s2 / (2.0 * q)) * sh2
    vp_s = -(s2 / q) * chsh - ka_q * delta * (ch2 + sh2)
    wp_s = -(delta * s2 / (2.0 * q)) * sh2 - (ka_q * s2 / 2.0) * chsh

    return HyperbolicState(
        log_scale=two_qa,
        e_neg=e_neg,
        one_minus_e=one_minus_e,
        u_scaled=u_s,
        v_scaled=v_s,
        w_scaled=w_s,
        up_scaled=up_s,
        vp_scaled=vp_s,
        wp_scaled=wp_s,
    )

