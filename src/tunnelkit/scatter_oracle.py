"""Brute-force scattering engine for piecewise-constant 1D potentials.

Standard 2x2 transfer-matrix assembly in the (psi, psi') basis: psi and
psi' are continuous at every interface, so each constant segment is one
real matrix of determinant one that carries them across it. This is the
independent reference the closed-form modules are certified against, so
it deliberately shares no hyperbolic code with them and pulls hbar
straight from the constants module.

Conventions. Segments start at x = 0 and the potential vanishes outside
them. The incident wave is exp(ikx) from the left; the transmitted wave is
written t * exp(ikx) with the same origin, so for an empty profile t = 1
and for the double barrier t is directly comparable to the closed-form
amplitude.

Scaling. `solve` needs one row of the chain M, v = (i, -1/k) M, so it
walks that row alone, from the right end of the profile to the left in
one pass. A propagating segment of width d is [[cos kd, sin kd / k],
[-k sin kd, cos kd]]; an evanescent one is e^{qd} [[c, sh/q], [q sh, c]]
with c = (1 + e^{-2qd})/2 and sh = (1 - e^{-2qd})/2, and e^{qd} goes into
log_scale, so entries stay O(1) and qa ~ 700 is overflow-free. At E equal
to a height both tend to [[1, d], [0, 1]]: sin kd / k is formed as
d sin(kd)/(kd), and it and sh/q are d at a zero wavenumber, so that
point is regular. Growth no exponential accounts for (sinh(qd)/q >> 1/k,
say) is caught by one rule, tested after every step: v is divided by
max(|v1|, |v2|) when that leaves (1e-50, 1e50), so O(1) entries pass
with their bits untouched. v annihilates the outgoing state
t e^{ikX} (1, ik) at the right end X, and det M = 1 gives t without
forming the cancellation-prone determinant.
"""

import cmath
import math
from typing import NamedTuple

from .constants import CODATA2018
from .errors import DomainError

__all__ = [
    "PotentialProfile",
    "ScatterSolution",
    "double_barrier_profile",
    "solve",
]

_TINY, _HUGE = 1e-50, 1e50  # the rescaling window (see Scaling above)


class _ProfileFields(NamedTuple):
    segments: tuple[tuple[float, float], ...]
    m: float


class PotentialProfile(_ProfileFields):
    """Ordered constant-potential segments (width m, height J) plus the mass.

    Construction, `_replace` and unpickling all raise DomainError for a
    non-finite or out-of-range field.
    """

    __slots__ = ()

    def __new__(
        cls, segments: tuple[tuple[float, float], ...], m: float
    ) -> "PotentialProfile":
        if not 0.0 < m < math.inf:
            raise DomainError(f"mass must be finite and > 0, got {m}")
        for width, height in segments:
            if not 0.0 < width < math.inf:
                raise DomainError(f"segment widths must be finite and > 0, got {width}")
            if not math.isfinite(height):
                raise DomainError(f"segment heights must be finite, got {height}")
        return tuple.__new__(cls, (segments, m))

    @classmethod
    def _make(cls, iterable) -> "PotentialProfile":
        return cls(*iterable)


class ScatterSolution(NamedTuple):
    t: complex
    r: complex

    @property
    def transmission(self) -> float:
        return abs(self.t) ** 2

    @property
    def reflection(self) -> float:
        return abs(self.r) ** 2


def double_barrier_profile(sys) -> PotentialProfile:
    """Profile [(a, U0), (L, 0), (a, U0)] with origin at the first barrier edge.

    A zero gap degenerates into the single merged barrier [(2a, U0)].
    """
    if sys.L == 0.0:
        return PotentialProfile(segments=((2.0 * sys.a, sys.U0),), m=sys.m)
    return PotentialProfile(
        segments=((sys.a, sys.U0), (sys.L, 0.0), (sys.a, sys.U0)), m=sys.m
    )


def _segment_kappa(E: float, height: float, m: float, hbar: float) -> float:
    """sqrt(2 m |E - height|) / hbar: k above the height, q below it."""
    kappa = math.sqrt(2.0 * m * abs(E - height)) / hbar
    if not kappa < math.inf:
        raise DomainError(f"wavenumber overflows at E={E} J, segment height {height} J")
    return kappa


def solve(profile: PotentialProfile, E: float) -> ScatterSolution:
    """Transmission and reflection amplitudes for a wave incident from the left.

    Raises DomainError unless 0 < E < inf, where the outer wavenumber
    underflows to 0, where a wavenumber overflows (a huge mass or
    |E - height|), where a phase k d overflows (a segment, or the whole
    profile, wider than ~1e308 / k), and where the walk overflows. A segment
    at E's height, or whose wavenumber underflows, is the limit kd -> 0.

    Each distinct height's wavenumber is found once. max(|v1|, |v2|) is
    taken by a conditional: calling the max builtin costs ~15 % of a walk.
    """
    if not 0.0 < E < math.inf:
        raise DomainError(f"energy must be finite and > 0, got {E} J")
    hbar, m = CODATA2018.hbar, profile.m
    k = _segment_kappa(E, 0.0, m, hbar)
    if k == 0.0:
        raise DomainError(f"wavenumber underflows to 0 at E={E} J")
    kappas = {0.0: k}
    v1, v2 = 1j, -1.0 / k
    log_scale, total_width = 0.0, 0.0
    for width, height in reversed(profile.segments):
        total_width += width
        kappa = kappas.get(height)
        if kappa is None:
            kappa = kappas[height] = _segment_kappa(E, height, m, hbar)
        kd = kappa * width
        if height <= E:
            if not kd < math.inf:
                raise DomainError(f"phase k d overflows in a segment of width {width} m at E={E} J")
            c, s = math.cos(kd), math.sin(kd)
            v1, v2 = v1 * c - v2 * (kappa * s), v1 * (width * (s / kd) if kd else width) + v2 * c
        else:  # sh / q, not d sh / (qd), keeps 1 / (2q) where qd overflows
            c, s = 0.5 + 0.5 * math.exp(-2.0 * kd), -0.5 * math.expm1(-2.0 * kd)
            v1, v2 = v1 * c + v2 * (kappa * s), v1 * (s / kappa if kappa else width) + v2 * c
            log_scale += kd
        a1, a2 = abs(v1), abs(v2)
        mag = a1 if a1 > a2 else a2
        if not _TINY < mag < _HUGE:
            v1, v2, log_scale = v1 / mag, v2 / mag, log_scale + math.log(mag)
    kw = k * total_width
    if not kw < math.inf and log_scale < math.inf:  # where log_scale is inf, t is 0
        raise DomainError(f"phase k x overflows across a total width of {total_width} m at E={E} J")
    ikv2 = 1j * k * v2
    den = v1 - ikv2
    t, r = 2j * cmath.exp(complex(-log_scale, -kw)) / den, -(v1 + ikv2) / den
    if not (cmath.isfinite(t) and cmath.isfinite(r)):
        raise DomainError(f"transfer-matrix walk overflows at E={E} J")
    return tuple.__new__(ScatterSolution, (t, r))
