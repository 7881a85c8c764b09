"""Resonance location, parameter inversion and the Breit-Wigner description.

The double barrier is fully transparent (|A_T|^2 = 1) exactly where

    cosh(qa) cos(kL) + (delta/2) sinh(qa) sin(kL) = 0,

i.e. cot(kL) = -(delta/2) tanh(qa). The residual implemented here is that
factor divided by cosh(qa), which keeps it O(1) however opaque the
barriers are. Every root located by the scan is certified against the
independent full-transparency condition |A_T(k_r)|^2 = 1 before it is
accepted; the certification is what makes the tanh form self-validating.

Near a certified resonance the denominator linearizes to
D = C_r (E - E_r + i beta) with

    beta   = (hbar^2 k q / m) / [delta k a + 2 q L w + sigma^2 cosh qa sinh qa]
    |C_r|  = 1 / beta,

which turns the transmission into the Lorentzian beta^2/((E-E_r)^2+beta^2)
and adds hbar beta/((E-E_r)^2+beta^2) of time delay on top of the
free flight over the gap.

Scan resolution: the default 2000-cell grid resolves the neutron-filter
regime comfortably, but the width beta shrinks roughly like exp(-2qa) both
for wider gaps and for more opaque barriers, so narrow resonances need a
finer grid; past qa ~ 16 a root can no longer be pinned tightly enough in
double precision for the certification to succeed, and find_resonances
raises rather than return an uncertified root.
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
from .kinematics import BarrierSystem, _exp, hyperbolic_state, kinematics
from .transmission import scaled_denominator

__all__ = [
    "Resonance",
    "ResonanceExpansion",
    "DEFAULT_GRID_CELLS",
    "CERTIFICATION_TOL",
    "resonance_residual",
    "find_resonances",
    "fit_effective_mass",
    "breit_wigner_width",
    "resonance_expansion",
    "uv_wronskian_closed_form",
    "bw_probability",
    "bw_phase_time",
]

DEFAULT_GRID_CELLS = 2000
CERTIFICATION_TOL = 1e-9


@dataclass(frozen=True)
class Resonance:
    """A certified transparency point: energy, wavenumber, half-width, ordinal."""

    E_r: float     # J
    k_r: float     # 1/m
    beta: float    # J
    index: int


@dataclass(frozen=True)
class ResonanceExpansion:
    """Denominator value and linear-coefficient modulus at a resonance."""

    D_r: complex
    C_r_mod: float  # 1/J


def resonance_residual(sys: BarrierSystem, E: float) -> float:
    """cos(kL) + (delta/2) tanh(qa) sin(kL); zero exactly at resonances."""
    kin = kinematics(sys, E)
    return math.cos(kin.k * sys.L) + 0.5 * kin.delta * math.tanh(
        kin.q * sys.a
    ) * math.sin(kin.k * sys.L)


def _transmission_probability(sys: BarrierSystem, E: float) -> float:
    return math.exp(-scaled_denominator(sys, E).log_mod_squared)


def _bisect(f, lo: float, hi: float, flo: float) -> float:
    """Bisection down to float resolution of the bracket."""
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
            hi = mid
    return 0.5 * (lo + hi)


def find_resonances(
    sys: BarrierSystem,
    E_min: float,
    E_max: float,
    grid_cells: int = DEFAULT_GRID_CELLS,
) -> list[Resonance]:
    """All certified resonances in (E_min, E_max), ordered by energy.

    Sign changes of the residual on a uniform grid are polished by
    bisection, then each candidate must pass |A_T|^2 = 1 within 1e-9;
    a failed certification raises ResonanceValidationError (grid too
    coarse, or the resonance is too narrow for double precision).
    """
    if not (0.0 < E_min < E_max < sys.U0):
        raise DomainError(
            f"window must satisfy 0 < E_min < E_max < U0, got ({E_min}, {E_max})"
        )
    if grid_cells < 1:
        raise DomainError(f"grid_cells must be >= 1, got {grid_cells}")

    f = lambda E: resonance_residual(sys, E)
    results: list[Resonance] = []
    e_prev = E_min
    f_prev = f(e_prev)
    for i in range(1, grid_cells + 1):
        e_cur = E_min + (E_max - E_min) * i / grid_cells
        f_cur = f(e_cur)
        if f_prev == 0.0 or (f_prev < 0.0) != (f_cur < 0.0):
            root = e_prev if f_prev == 0.0 else _bisect(f, e_prev, e_cur, f_prev)
            p = _transmission_probability(sys, root)
            if abs(p - 1.0) > CERTIFICATION_TOL:
                raise ResonanceValidationError(
                    f"candidate at E={root} J has |A_T|^2={p}, off unity by "
                    f"{abs(p - 1.0):.3e} (> {CERTIFICATION_TOL}); refine the grid "
                    "or accept that the resonance is unresolvable in double precision"
                )
            kin = kinematics(sys, root)
            res = Resonance(E_r=root, k_r=kin.k, beta=math.nan, index=len(results))
            beta = breit_wigner_width(sys, res)
            results.append(
                Resonance(E_r=root, k_r=kin.k, beta=beta, index=len(results))
            )
        e_prev, f_prev = e_cur, f_cur
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
    return _bisect(g, m_lo, m_hi, g_lo)


def breit_wigner_width(sys: BarrierSystem, res: Resonance) -> float:
    """Half-width beta of the Lorentzian transmission profile.

    beta = (hbar^2 k q / m) / [delta k a + 2 q L w + sigma^2 cosh qa sinh qa],
    evaluated in the exp(-2qa)-scaled representation so opaque systems
    underflow gracefully instead of overflowing.
    """
    kin = kinematics(sys, res.E_r)
    state = hyperbolic_state(kin, sys.a)
    e = state.e_neg
    chsh = (1.0 + e) * state.one_minus_e / 4.0
    bracket_scaled = (
        kin.delta * kin.k * sys.a * e
        + 2.0 * kin.q * sys.L * state.w_scaled
        + kin.sigma_sq * chsh
    )
    if bracket_scaled <= 0.0:
        raise DegenerateResonanceError(
            f"width bracket {bracket_scaled} <= 0 at E_r={res.E_r} J"
        )
    return (kin.hbar**2 * kin.k * kin.q / kin.m) * e / bracket_scaled


def uv_wronskian_closed_form(sys: BarrierSystem, E: float) -> float:
    """u'v - uv' = (1 + w) [delta k a + sigma^2 cosh(qa) sinh(qa)] / q.

    Exact at every energy (not only at resonances); the direct-arithmetic
    route through the state derivatives cross-checks it. Overflows to inf
    once qa is past ~177, like the quantity itself.
    """
    kin = kinematics(sys, E)
    state = hyperbolic_state(kin, sys.a)
    e = state.e_neg
    chsh = (1.0 + e) * state.one_minus_e / 4.0
    scaled = (
        (e + state.w_scaled)
        * (kin.delta * kin.k * sys.a * e + kin.sigma_sq * chsh)
        / kin.q
    )
    return scaled * _exp(2.0 * state.log_scale)


def resonance_expansion(sys: BarrierSystem, res: Resonance) -> ResonanceExpansion:
    """D(k_r) = (u + iv)/(1 + w) and |C_r| = (m/hbar^2 k) [(u'v - uv')/(1+w) + 2Lw].

    |C_r| is built from the direct derivative products, independently of
    the closed-form bracket inside beta, so |C_r| beta = 1 is a genuine
    cross-check of the two routes rather than an identity of the code.
    """
    kin = kinematics(sys, res.E_r)
    state = hyperbolic_state(kin, sys.a)
    e = state.e_neg
    one_w = e + state.w_scaled
    d_r = complex(state.u_scaled, state.v_scaled) / one_w
    wronskian_scaled = (
        state.up_scaled * state.v_scaled - state.u_scaled * state.vp_scaled
    )
    # (u'v - uv')/(1+w) and 2Lw each carry one factor exp(2qa).
    bracket_scaled = wronskian_scaled / one_w + 2.0 * sys.L * state.w_scaled
    c_mod = (kin.m / (kin.hbar**2 * kin.k)) * bracket_scaled * math.exp(
        state.log_scale
    )
    return ResonanceExpansion(D_r=d_r, C_r_mod=c_mod)


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
