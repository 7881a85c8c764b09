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
here are therefore stored scaled by exp(-2qa) alongside log_scale = 2qa,
and only the scaled numbers are kept: every field stays finite up to
qa ~ 700, where the unscaled ones would be inf.

Every record here is an immutable NamedTuple, so no record needs
`dataclasses`, whose import (with `inspect`) would make `import
tunnelkit.cli` about 1.5x slower. Construction rule of the package: the
records built per energy point (Kinematics, ScaledDenominator,
TransmissionResult, PhaseTimeBreakdown) are built by the one C call
`tuple.__new__(Cls, (...))` and read by one tuple unpacking. A generated
NamedTuple `__new__` costs 0.4-0.9 us per record against 0.2-0.5 us, and
ten field reads 0.23-0.38 us against 0.09-0.15 us for one unpacking
(Python 3.11.7, 2 vCPUs): together about a fifth of a spectrum point.
BarrierSystem keeps its checks in a thin subclass whose `__new__`
validates and whose `_make` goes through `__new__`, so `_replace` and
unpickling validate too.
"""

import math
from typing import NamedTuple

from .constants import CODATA2018, joule_from_nev, metre_from_angstrom
from .errors import DomainError

__all__ = [
    "BarrierSystem",
    "Kinematics",
    "HyperbolicState",
    "kinematics",
    "hyperbolic_state",
]


class _BarrierFields(NamedTuple):
    a: float
    U0: float
    L: float
    m: float


class BarrierSystem(_BarrierFields):
    """Two equal rectangular barriers of width a and height U0, a gap L apart.

    All fields are SI: a, L in metres, U0 in joules, m in kilograms. The
    mass is whatever effective mass describes the particle in the medium;
    it is treated as a free positive parameter. Construction, `_replace`
    and unpickling all raise DomainError for an out-of-range field.
    """

    __slots__ = ()

    def __new__(cls, a: float, U0: float, L: float, m: float) -> "BarrierSystem":
        # One chained comparison per field rejects inf and NaN as well.
        if not 0.0 < a < math.inf:
            raise DomainError(f"barrier width a must be finite and > 0, got {a}")
        if not 0.0 < U0 < math.inf:
            raise DomainError(f"barrier height U0 must be finite and > 0, got {U0}")
        if not 0.0 <= L < math.inf:
            raise DomainError(f"gap L must be finite and >= 0, got {L}")
        if not 0.0 < m < math.inf:
            raise DomainError(f"mass m must be finite and > 0, got {m}")
        return tuple.__new__(cls, (a, U0, L, m))

    @classmethod
    def _make(cls, iterable) -> "BarrierSystem":
        return cls(*iterable)

    @classmethod
    def from_lab_units(
        cls,
        a_angstrom: float,
        U0_nev: float,
        L_angstrom: float,
        mass_ratio: float = 1.0,
    ) -> "BarrierSystem":
        """Build a system from angstroms, neV and a mass ratio to the CODATA 2018
        free neutron mass, converted by the helpers of `constants`."""
        return cls(
            a=metre_from_angstrom(a_angstrom),
            U0=joule_from_nev(U0_nev),
            L=metre_from_angstrom(L_angstrom),
            m=mass_ratio * CODATA2018.m_neutron,
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
    imaginary) and raise DomainError, as do energies so close to either end
    that 2mE or 2m(U0 - E) rounds to zero, and systems whose k^2 + q^2
    overflows (a huge mass or U0). Otherwise k and q are both above 1e-128
    (the root of the smallest double, over hbar), so k q is a normal double,
    and k^2, q^2, delta and sigma are finite.
    """
    _, U0, _, m = sys
    if not E > 0.0:
        raise DomainError(f"energy must be > 0, got {E} J")
    if not E < U0:
        raise DomainError(
            f"energy must be below the barrier top U0={U0} J, got {E} J"
        )
    hbar = CODATA2018.hbar
    k = math.sqrt(2.0 * m * E) / hbar
    q = math.sqrt(2.0 * m * (U0 - E)) / hbar
    kq = k * q
    if not kq > 0.0:
        raise DomainError(f"energy {E} J too close to 0 or to U0={U0} J: k q underflows to 0")
    delta = (q * q - k * k) / kq
    sigma = (k * k + q * q) / kq
    if not sigma < math.inf:
        raise DomainError(f"k^2 + q^2 overflows at E={E} J, U0={U0} J, m={m} kg")
    return tuple.__new__(Kinematics, (E, k, q, delta, sigma, hbar, m))


class HyperbolicState(NamedTuple):
    """u, v, w and their k-derivatives, stored scaled by exp(-2qa).

    True values, which overflow near qa ~ 355, are <name>_scaled *
    exp(log_scale) with log_scale = 2qa (up_scaled is u' scaled, and so on).
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

    return HyperbolicState(two_qa, e_neg, one_minus_e, u_s, v_s, w_s, up_s, vp_s, wp_s)

