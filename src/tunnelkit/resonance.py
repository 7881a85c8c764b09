"""Resonance location, parameter inversion and the Breit-Wigner description.

With chi = atan((delta/2) tanh(qa)) and psi = kL - chi, the double barrier
is fully transparent (|A_T|^2 = 1 + 4w(1+w) cos^2(psi) = 1) exactly where
cos(psi) = 0, i.e. where

    cos(kL) + (delta/2) tanh(qa) sin(kL) = cos(psi) / cos(chi) = 0.

That residual is O(1) however opaque the barriers are. Every root located
by the search is certified against the independent full-transparency
condition |A_T(k_r)|^2 = 1 before it is accepted; the certification is
what makes the tanh form self-validating.

Near a certified resonance the denominator linearizes to
D = C_r (E - E_r + i beta) with |D(E_r)| = 1, so beta = 1/|D'(E_r)|:

    beta = hbar^2 k / (2m G),   G = wL - (1+w) chi' > 0,

(chi' = d chi/dk; G is the scaled record's width_bracket), which turns the
transmission into the Lorentzian beta^2/((E-E_r)^2+beta^2) and adds
hbar beta/((E-E_r)^2+beta^2) of time delay on top of the free flight over
the gap. The tests check beta and tau_r against an independent mpmath
evaluation of 1/|D'(E_r)| and of the phase-time (tests/neutron_reference.py).

Root search: chi decreases with k at every energy (chi' < 0), so psi is
strictly increasing and each resonance is the single crossing of one
branch psi = (n + 1/2) pi. find_resonances counts the branches between
the window ends and bisects each one, so its cost grows with the number
of roots, not with a grid, and no root is skipped however densely the
roots crowd (wide gaps at low energy). The closed form itself stays
exact at a root; what runs out is the placing of the root: certification
within 1e-9 needs the root within ~3e-5 beta, which doubles cannot
resolve once beta/E_r is near 1e-12 (qa ~ 14.5 at E ~ U0/2).
find_resonances then raises rather than return an uncertified root.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DegenerateResonanceError,
    DomainError,
    MassFitError,
    ResonanceValidationError,
)
from .kinematics import BarrierSystem, kinematics
from .transmission import ScaledDenominator, scaled_denominator

__all__ = [
    "Resonance",
    "CERTIFICATION_TOL",
    "resonance_residual",
    "find_resonances",
    "fit_effective_mass",
    "breit_wigner_width",
    "bw_probability",
    "bw_phase_time",
]

CERTIFICATION_TOL = 1e-9


@dataclass(frozen=True)
class Resonance:
    """A certified transparency point: energy, wavenumber, half-width, ordinal."""

    E_r: float     # J
    k_r: float     # 1/m
    beta: float    # J
    index: int


def resonance_residual(sys: BarrierSystem, E: float) -> float:
    """cos(kL) + (delta/2) tanh(qa) sin(kL); zero exactly at resonances."""
    kin = kinematics(sys, E)
    return math.cos(kin.k * sys.L) + 0.5 * kin.delta * math.tanh(
        kin.q * sys.a
    ) * math.sin(kin.k * sys.L)


def _bisect(f, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Bisection down to adjacent floats; returns the end where |f| is smaller."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if (fmid < 0.0) == (flo < 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
    return lo if abs(flo) <= abs(fhi) else hi


def _psi(sys: BarrierSystem, E: float) -> float:
    """psi = kL - chi, increasing in E, rounded exactly as in scaled_denominator."""
    kin = kinematics(sys, E)
    two_qa = 2.0 * kin.q * sys.a
    chi = math.atan(0.5 * kin.delta * -math.expm1(-two_qa) / (1.0 + math.exp(-two_qa)))
    return kin.k * sys.L - chi


def _branch_offset(sys: BarrierSystem, E: float, n: int) -> float:
    """psi(E) - (n + 1/2) pi, or within a radian of it its sine (-1)^(n+1) cos(psi),
    which changes sign where the certified cos(psi) does, not at a rounded target."""
    psi = _psi(sys, E)
    offset = psi - (n + 0.5) * math.pi
    return offset if abs(offset) > 1.0 else (-1.0) ** (n + 1) * math.cos(psi)


def _certified(sys: BarrierSystem, E_r: float) -> ScaledDenominator:
    """The record at E_r, once |A_T|^2 there is within CERTIFICATION_TOL of
    unity; raises ResonanceValidationError otherwise."""
    sc = scaled_denominator(sys, E_r)
    p = math.exp(-sc.log_mod_squared)
    if abs(p - 1.0) > CERTIFICATION_TOL:
        raise ResonanceValidationError(
            f"|A_T|^2 = {p} at E_r={E_r} J, off unity by {abs(p - 1.0):.3e} "
            f"(> {CERTIFICATION_TOL}); not a resonance, or one too narrow to "
            "place in double precision"
        )
    return sc


def find_resonances(sys: BarrierSystem, E_min: float, E_max: float) -> list[Resonance]:
    """All certified resonances in (E_min, E_max), ordered by energy.

    psi(E) is strictly increasing, so the window holds one root for each
    n with (n + 1/2) pi between psi(E_min) and psi(E_max). Each root is
    bisected on psi(E) - (n + 1/2) pi over [previous root, E_max], then
    must pass |A_T|^2 = 1 within 1e-9; a failed certification raises
    ResonanceValidationError (the resonance is too narrow for double
    precision to place).
    """
    if not (0.0 < E_min < E_max < sys.U0):
        raise DomainError(
            f"window must satisfy 0 < E_min < E_max < U0, got ({E_min}, {E_max})"
        )
    psi_lo, psi_hi = _psi(sys, E_min), _psi(sys, E_max)
    results: list[Resonance] = []
    lo = E_min
    for n in range(math.floor(psi_lo / math.pi - 0.5) + 1, math.ceil(psi_hi / math.pi - 0.5)):
        target = (n + 0.5) * math.pi
        offset = lambda E: _branch_offset(sys, E, n)
        root = _bisect(offset, lo, E_max, psi_lo - target, psi_hi - target)
        sc = _certified(sys, root)
        results.append(
            Resonance(E_r=root, k_r=sc.kin.k, beta=_width(sc, sys.L), index=len(results))
        )
        lo, psi_lo = root, target
    return results


def fit_effective_mass(
    a: float,
    U0: float,
    L: float,
    E_r_target: float,
    m_bracket: tuple[float, float],
) -> float:
    """Mass for which (a, U0, L, m) resonates exactly at E_r_target.

    Bisection on the residual as a function of mass; raises MassFitError
    when the bracket does not straddle a sign change. The root is polished
    to float resolution, so feeding the result back into find_resonances
    reproduces E_r_target to ~1e-12 relative.
    """
    if not (0.0 < E_r_target < U0):
        raise DomainError(
            f"target E_r must lie in (0, U0), got {E_r_target} vs U0={U0}"
        )
    m_lo, m_hi = m_bracket
    if not (0.0 < m_lo < m_hi):
        raise DomainError(f"mass bracket must satisfy 0 < lo < hi, got {m_bracket}")

    def g(m: float) -> float:
        return resonance_residual(BarrierSystem(a=a, U0=U0, L=L, m=m), E_r_target)

    g_lo, g_hi = g(m_lo), g(m_hi)
    if g_lo == 0.0:
        return m_lo
    if g_hi == 0.0:
        return m_hi
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise MassFitError(
            f"residual does not change sign over mass bracket {m_bracket}"
        )
    return _bisect(g, m_lo, m_hi, g_lo, g_hi)


def _width(sc: ScaledDenominator, L: float) -> float:
    """beta = hbar^2 k / (2m G) from the record at a certified root."""
    bracket = sc.width_bracket(L)
    if bracket <= 0.0:
        raise DegenerateResonanceError(
            f"width bracket {bracket} <= 0 at E_r={sc.kin.E} J"
        )
    kin = sc.kin
    return (kin.hbar**2 * kin.k / (2.0 * kin.m)) * sc.e_neg / bracket


def breit_wigner_width(sys: BarrierSystem, res: Resonance) -> float:
    """Half-width beta of the Lorentzian transmission profile.

    beta = hbar^2 k / (2m [wL - (1+w) chi']) = 1/|D'(E_r)|, evaluated in
    the exp(-2qa)-scaled representation so opaque systems underflow
    gracefully instead of overflowing. Like find_resonances, it first
    certifies |A_T(E_r)|^2 = 1 within CERTIFICATION_TOL.
    """
    return _width(_certified(sys, res.E_r), sys.L)


def bw_probability(res: Resonance, E: float) -> float:
    """Lorentzian transmission beta^2 / ((E - E_r)^2 + beta^2)."""
    de = E - res.E_r
    return res.beta**2 / (de * de + res.beta**2)


def bw_phase_time(sys: BarrierSystem, res: Resonance, E: float) -> float:
    """Near-resonance phase-time: free flight over the gap plus the
    quasi-bound-state delay hbar beta / ((E - E_r)^2 + beta^2)."""
    kin = kinematics(sys, E)
    de = E - res.E_r
    return kin.m * sys.L / (kin.hbar * kin.k) + kin.hbar * res.beta / (
        de * de + res.beta**2
    )
