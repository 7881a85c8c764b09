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

(chi' = d chi/dk; _resonance reads G from the scaled record), which turns the
transmission into the Lorentzian beta^2/((E-E_r)^2+beta^2) and adds
hbar beta/((E-E_r)^2+beta^2) of time delay on top of the free flight over
the gap: the phase-time at the root is tau_r = (m / hbar k)(L + 2G).

One private reader, _resonance, makes every Resonance from the record at
E_r it is handed: it certifies the root and reads G once for both beta and
tau_r, and find_resonances, breit_wigner_width and phase_time_at_resonance
all go through it. The tests check beta and tau_r against an independent
mpmath evaluation of 1/|D'(E_r)| and of the phase-time
(tests/neutron_reference.py).

Root search: chi decreases with k at every energy (chi' < 0), so psi is
strictly increasing and each resonance is the single crossing of one
branch psi = (n + 1/2) pi. find_resonances counts the branches between
the window ends and places each root with _illinois, the one solver (the
mass fit runs it as plain Illinois regula falsi). Here each step reads
one scaled_denominator record, which holds psi, cos(psi) and the slope
dpsi/dk = L - chi', and proposes a Newton point; the step is taken in k,
where psi ~ kL is nearly linear. The Illinois bracket catches every
Newton point that leaves it. _illinois keeps the record of each bracket
end and hands back the one at the root, which certifies it, so no record
is built outside the search. Each branch starts from the Newton point at
the previous root, or at E_min, read from the record already built there
(the root's certificate, or the window end). A root costs about 5-9
records, window ends and certificate included (5 where the roots crowd,
9 for a lone root between the window ends), against about 13 for
Illinois alone. The cost grows with the number of roots, not with a
grid, and no root is skipped however densely the roots crowd (wide gaps
at low energy). The closed form itself stays exact at a root; what runs
out is the placing of the root: certification within 1e-9 needs the
root within ~3e-5 beta, which doubles cannot resolve once beta/E_r falls
to about 3e-12: qa ~ 13.7 at L = 195 A, but ~ 10.4 at L = 1e5 A, as one
ulp of E moves psi by about kL 2^-53. find_resonances then raises rather
than return an uncertified root.
"""

import math
from typing import NamedTuple

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
    "phase_time_at_resonance",
    "bw_probability",
    "bw_phase_time",
]

CERTIFICATION_TOL = 1e-9


class Resonance(NamedTuple):
    """A certified transparency point: energy, wavenumber, half-width, ordinal
    and phase-time."""

    E_r: float     # J
    k_r: float     # 1/m
    beta: float    # J
    index: int
    tau_r: float   # s


def resonance_residual(sys: BarrierSystem, E: float) -> float:
    """cos(kL) + (delta/2) tanh(qa) sin(kL); zero exactly at resonances."""
    _, k, q, delta, _, _, _ = kinematics(sys, E)
    a, _, L, _ = sys
    return math.cos(k * L) + 0.5 * delta * math.tanh(q * a) * math.sin(k * L)


def _illinois(
    f, lo: float, hi: float, flo: float, fhi: float, x: float | None = None, rlo=None, rhi=None
):
    """Illinois regula falsi (Dowell & Jarratt 1971) with optional Newton points,
    down to adjacent floats; returns (end, its record), the end being the one
    where the true |f| is smaller.

    f(x) returns (f value, next point or None, record or None), x is the
    first point to try, and rlo, rhi are the records of the two ends. Each
    end keeps the record f returned with it, so the record of the end
    returned is handed back, not built again. Each step keeps a sign change
    across [lo, hi]. A point is tried only strictly inside the bracket: the
    next point f proposed (safeguarded Newton, rtsafe of Numerical Recipes
    section 9.4), else the interpolate, else the midpoint. A proposed point
    that rounds back onto the point just tried (Newton has converged to
    within an ulp) is replaced by the next float into the bracket, the
    smallest step that can close it. The end that survives two steps in a
    row has its stored value halved, so the interpolate moves towards it and
    the bracket closes from both sides.
    """
    glo, ghi, kept = flo, fhi, 0
    while True:
        if x is None or not lo < x < hi:
            x = hi - ghi * ((hi - lo) / (ghi - glo))
            if not lo < x < hi:
                x = 0.5 * (lo + hi)
                if not lo < x < hi:
                    break
        fx, x_next, record = f(x)
        if fx == 0.0:
            return x, record
        if (fx < 0.0) == (flo < 0.0):
            lo, flo, glo, rlo = x, fx, fx, record
            if kept > 0:
                ghi *= 0.5
            kept = 1
        else:
            hi, fhi, ghi, rhi = x, fx, fx, record
            if kept < 0:
                glo *= 0.5
            kept = -1
        if x_next == x:
            x_next = math.nextafter(x, hi if x == lo else lo)
        x = x_next
    return (lo, rlo) if abs(flo) <= abs(fhi) else (hi, rhi)


def _branch_offset(sys: BarrierSystem, L: float, n: int):
    """The function (E, record=None) -> (offset, Newton point, record) of
    branch n, which builds the scaled_denominator record at E unless it is
    handed one already built there.

    The offset is psi - (n + 1/2) pi, with psi = kL - chi as the record
    forms it, or within a radian of it its sine (-1)^(n+1) cos(psi), which
    changes sign where the certified cos(psi) does, not at a rounded target.
    The Newton point takes the step in k, where psi ~ kL is nearly linear:
    E (k'/k)^2 with k' = k - d/(L - chi') and d = psi - (n + 1/2) pi. It is
    None unless L - chi' is finite and positive and k' > 0.
    """
    target, sign = (n + 0.5) * math.pi, (-1.0) ** (n + 1)

    def offset(E, sc=None):
        if sc is None:
            sc = scaled_denominator(sys, E)
        (E, k, _, _, _, _, _), _, _, _, _, chi, chi_k, c, _, _ = sc
        d = k * L - chi - target
        slope = L - chi_k
        k_next = k - d / slope if 0.0 < slope < math.inf else 0.0
        r = k_next / k  # r * r, not r**2, which raises OverflowError
        return (d if abs(d) > 1.0 else sign * c), (E * (r * r) if k_next > 0.0 else None), sc

    return offset


def _resonance(sc: ScaledDenominator, L: float, index: int) -> Resonance:
    """The Resonance at the record's energy: certified, then beta and tau_r
    read from the width bracket G.

    G exp(-2qa) = w~ L - (e + w~) chi' (in m, e = exp(-2qa), w~ = w e) is
    G = wL - (1+w) chi' > 0 scaled. At a resonance (cos psi = 0)
    D' = dD/dE has modulus 2mG/(hbar^2 k), so the Breit-Wigner half-width
    is beta = hbar^2 k / (2mG) and the phase-time is
    tau_r = (m/hbar k)(L + 2G); away from it u'v - uv' = 2(1+w) G at L = 0.

    Raises ResonanceValidationError unless |A_T|^2 is within
    CERTIFICATION_TOL of unity there, and DegenerateResonanceError unless
    G > 0. The record is read by one unpacking and the Resonance built by
    one tuple.__new__ call, the construction rule of the per-energy records
    (kinematics module docstring).
    """
    (E_r, k, _, _, _, hbar, m), log_scale, e, w, _, _, chi_k, _, _, mod_sq = sc
    p = math.exp(-(2.0 * log_scale + math.log(mod_sq)))
    if abs(p - 1.0) > CERTIFICATION_TOL:
        raise ResonanceValidationError(
            f"|A_T|^2 = {p} at E_r={E_r} J, off unity by {abs(p - 1.0):.3e} "
            f"(> {CERTIFICATION_TOL}); not a resonance, or one too narrow to "
            "place in double precision"
        )
    bracket = w * L - (e + w) * chi_k
    if bracket <= 0.0:
        raise DegenerateResonanceError(f"width bracket {bracket} <= 0 at E_r={E_r} J")
    beta = (hbar**2 * k / (2.0 * m)) * e / bracket
    tau_r = (m / (hbar * k)) * (e * L + 2.0 * bracket) * math.exp(log_scale)
    return tuple.__new__(Resonance, (E_r, k, beta, index, tau_r))


def find_resonances(sys: BarrierSystem, E_min: float, E_max: float) -> list[Resonance]:
    """All certified resonances in (E_min, E_max), ordered by energy.

    psi(E) is strictly increasing, so the window holds one root for each
    n with (n + 1/2) pi between psi(E_min) and psi(E_max). Each root is
    placed on psi(E) - (n + 1/2) pi over [previous root, E_max] by Newton
    steps in k inside an Illinois bracket, starting from the Newton point
    at the previous root, down to adjacent floats. The record _illinois
    hands back with the root must then pass |A_T|^2 = 1 within 1e-9; a
    failed certification raises ResonanceValidationError (the resonance is
    too narrow for double precision to place). Every record is built by a
    step of the search, apart from the two window ends.
    """
    if not (0.0 < E_min < E_max < sys.U0):
        raise DomainError(
            f"window must satisfy 0 < E_min < E_max < U0, got ({E_min}, {E_max})"
        )
    L = sys.L
    # sc is the record at the bracket's lower end, E_min, then each root;
    # top is the record at its upper end, E_max.
    sc, top = scaled_denominator(sys, E_min), scaled_denominator(sys, E_max)
    psi_lo, psi_hi = sc.kin.k * L - sc.chi, top.kin.k * L - top.chi
    results: list[Resonance] = []
    lo = E_min
    for n in range(math.floor(psi_lo / math.pi - 0.5) + 1, math.ceil(psi_hi / math.pi - 0.5)):
        target = (n + 0.5) * math.pi
        offset = _branch_offset(sys, L, n)
        lo, sc = _illinois(
            offset, lo, E_max, psi_lo - target, psi_hi - target, offset(lo, sc)[1], sc, top
        )
        results.append(_resonance(sc, L, len(results)))
        psi_lo = target
    return results


def fit_effective_mass(
    a: float,
    U0: float,
    L: float,
    E_r_target: float,
    m_bracket: tuple[float, float],
) -> float:
    """Mass for which (a, U0, L, m) resonates exactly at E_r_target.

    Solves g(m) = resonance_residual(system with mass m, E_r_target) = 0
    by Illinois regula falsi on m_bracket, down to adjacent floats, and
    returns the end with the smaller |g|: 11 evaluations of g for
    the neutron filter, where bisection takes 55. Raises MassFitError when
    g has the same sign at both ends of the bracket.

    When the bracket holds several sign changes (several masses resonate
    at E_r_target), the result is one of them, with g changing sign
    between it and a neighbouring float. Which one is not specified, and it
    may differ from the one that bisecting the same bracket finds.

    Feeding the result back into find_resonances reproduces E_r_target to
    ~1e-12 relative at the nearest returned root.
    """
    if not (0.0 < E_r_target < U0):
        raise DomainError(
            f"target E_r must lie in (0, U0), got {E_r_target} vs U0={U0}"
        )
    m_lo, m_hi = m_bracket
    if not (0.0 < m_lo < m_hi):
        raise DomainError(f"mass bracket must satisfy 0 < lo < hi, got {m_bracket}")

    # Only the bracket ends go through BarrierSystem's checks: every mass strictly
    # between two valid ends is finite and positive, so g builds its system unchecked.
    def g(m):
        return resonance_residual(tuple.__new__(BarrierSystem, (a, U0, L, m)), E_r_target), None, None

    g_lo = resonance_residual(BarrierSystem(a, U0, L, m_lo), E_r_target)
    g_hi = resonance_residual(BarrierSystem(a, U0, L, m_hi), E_r_target)
    if g_lo == 0.0:
        return m_lo
    if g_hi == 0.0:
        return m_hi
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise MassFitError(
            f"residual does not change sign over mass bracket {m_bracket}"
        )
    return _illinois(g, m_lo, m_hi, g_lo, g_hi)[0]


def breit_wigner_width(sys: BarrierSystem, res: Resonance) -> float:
    """Half-width beta of the Lorentzian transmission profile.

    beta = hbar^2 k / (2m [wL - (1+w) chi']) = 1/|D'(E_r)|, evaluated in
    the exp(-2qa)-scaled representation so opaque systems underflow
    gracefully instead of overflowing. Like find_resonances, it first
    certifies |A_T(E_r)|^2 = 1 within CERTIFICATION_TOL.
    """
    return _resonance(scaled_denominator(sys, res.E_r), sys.L, res.index).beta


def phase_time_at_resonance(sys: BarrierSystem, res: Resonance) -> float:
    """tau_r = (m / hbar k) [(1 + 2w)(L - chi') - chi'] = (m / hbar k)(L + 2G).

    G = wL - (1+w) chi' is the width bracket. Only meaningful at a
    genuine transparency point, so the resonance is re-certified (|A_T|^2
    within CERTIFICATION_TOL of unity, as find_resonances requires) before
    evaluating, and G must be positive, as for breit_wigner_width.
    """
    return _resonance(scaled_denominator(sys, res.E_r), sys.L, res.index).tau_r


def _require_width(res: Resonance) -> None:
    if not 0.0 < res.beta < math.inf:
        raise DomainError(f"Breit-Wigner half-width must be finite and > 0, got {res.beta} J")


def bw_probability(res: Resonance, E: float) -> float:
    """Lorentzian transmission beta^2 / ((E - E_r)^2 + beta^2), written in
    y = (E - E_r)/beta as 1/(1 + y^2): beta^2 underflows below ~1.5e-162 J.

    Raises DomainError unless 0 < beta < inf and 0 < E < inf.
    """
    _require_width(res)
    if not 0.0 < E < math.inf:
        raise DomainError(f"energy must be finite and > 0, got {E} J")
    y = (E - res.E_r) / res.beta
    return 1.0 / (1.0 + y * y)


def bw_phase_time(sys: BarrierSystem, res: Resonance, E: float) -> float:
    """Near-resonance phase-time: free flight over the gap plus the
    quasi-bound-state delay hbar beta / ((E - E_r)^2 + beta^2), written in
    y = (E - E_r)/beta as (hbar/beta)/(1 + y^2), as bw_probability is.

    Raises DomainError unless 0 < beta < inf, and, as kinematics does,
    unless 0 < E < U0.
    """
    _require_width(res)
    kin = kinematics(sys, E)
    y = (E - res.E_r) / res.beta
    return kin.m * sys.L / (kin.hbar * kin.k) + (kin.hbar / res.beta) / (1.0 + y * y)
