"""Brute-force scattering engine for piecewise-constant 1D potentials.

Standard 2x2 transfer-matrix assembly: plane-wave (or real-exponential)
solutions in each constant segment, psi and psi' matched at every
interface. This is the independent reference the closed-form modules are
certified against, so it deliberately shares no hyperbolic code with them
and pulls hbar straight from the constants module.

Conventions. Segments start at x = 0 and the potential vanishes outside
them. The incident wave is exp(ikx) from the left; the transmitted wave is
written t * exp(ikx) with the same origin, so for an empty profile t = 1
and for the double barrier t is directly comparable to the closed-form
amplitude.

Scaling. `solve` needs only the row (m21, m22) of the chain, so it walks
that row alone, (r1, r2) = (0, 1) times each factor, from the right end of
the profile to the left in one pass. An interface applies [[p, n], [n, p]]
with p, n = (1 +- rho)/2, a segment a diagonal scale. An evanescent segment
of thickness d multiplies coefficients by exp(+-qd); the growing
exponential goes into log_scale, so entries stay O(1) and qa ~ 700 is
overflow-free. Growth from mismatched interfaces (|rho| >> 1) is caught by
one rule, tested after every step: (r1, r2) is divided by max(|r1|, |r2|)
when that leaves (1e-50, 1e50), so O(1) entries pass with their bits
untouched. The chain telescopes to determinant one for equal outer media;
the transmitted amplitude uses that identity rather than the
cancellation-prone computed determinant.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from .constants import CODATA2018
from .errors import DegenerateMatchingError, DomainError

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


def _segment_kappa(E: float, height: float, m: float, hbar: float) -> complex:
    """Local wavenumber; imaginary for evanescent segments."""
    if abs(E - height) <= 1e-12 * max(E, abs(height)):
        raise DegenerateMatchingError(
            f"energy {E} J coincides with segment height {height} J; "
            "perturb E to restore plane-wave matching"
        )
    kappa = math.sqrt(2.0 * m * abs(E - height)) / hbar
    if not 0.0 < kappa < math.inf:
        fault = "underflows to 0" if kappa == 0.0 else "overflows"
        raise DomainError(f"wavenumber {fault} at E={E} J, segment height {height} J")
    return complex(kappa, 0.0) if E > height else complex(0.0, kappa)


def solve(profile: PotentialProfile, E: float) -> ScatterSolution:
    """Transmission and reflection amplitudes for a wave incident from the left.

    Raises DomainError unless 0 < E < inf, or where a wavenumber underflows
    to 0 or overflows (a huge mass or |E - height|), or where a phase k d
    overflows (a segment, or the whole profile, wider than ~1e308 / k);
    DegenerateMatchingError where E coincides with a segment height.

    Each distinct height's wavenumber is found once. max(|r1|, |r2|) is
    taken by a conditional: calling the max builtin costs ~15 % of a walk.
    """
    if not 0.0 < E < math.inf:
        raise DomainError(f"energy must be finite and > 0, got {E} J")
    hbar, m = CODATA2018.hbar, profile.m
    k_out = _segment_kappa(E, 0.0, m, hbar)
    kappas = {0.0: k_out}
    r1, r2 = 0.0, 1.0
    log_scale, total_width, kappa_right = 0.0, 0.0, k_out
    for width, height in reversed(profile.segments):
        total_width += width
        kappa = kappas.get(height)
        if kappa is None:
            kappa = kappas[height] = _segment_kappa(E, height, m, hbar)
        # Interface: [[p, n], [n, p]] with rho = kappa / kappa_right.
        rho = kappa / kappa_right
        p, n = 0.5 * (1.0 + rho), 0.5 * (1.0 - rho)
        r1, r2 = r1 * p + r2 * n, r1 * n + r2 * p
        a1, a2 = abs(r1), abs(r2)
        mag = a1 if a1 > a2 else a2
        if not (mag == 0.0 or _TINY < mag < _HUGE):
            r1, r2, log_scale = r1 / mag, r2 / mag, log_scale + math.log(mag)
        # Propagation: diag(e^{ikd}, e^{-ikd}); evanescent diag(e^{-qd}, e^{qd})
        # is written e^{qd} diag(e^{-2qd}, 1) with e^{qd} kept in log_scale.
        if kappa.imag == 0.0:
            kd = kappa.real * width
            if not kd < math.inf:
                raise DomainError(f"phase k d overflows in a segment of width {width} m at E={E} J")
            phase = cmath.exp(1j * kd)
            r1, r2 = r1 * phase, r2 / phase
        else:
            q = kappa.imag
            r1, log_scale = r1 * math.exp(-2.0 * q * width), log_scale + q * width
        a1, a2 = abs(r1), abs(r2)
        mag = a1 if a1 > a2 else a2
        if not (mag == 0.0 or _TINY < mag < _HUGE):
            r1, r2, log_scale = r1 / mag, r2 / mag, log_scale + math.log(mag)
        kappa_right = kappa
    # The outer left interface.
    rho = k_out / kappa_right
    p, n = 0.5 * (1.0 + rho), 0.5 * (1.0 - rho)
    r1, r2 = r1 * p + r2 * n, r1 * n + r2 * p
    a1, a2 = abs(r1), abs(r2)
    mag = a1 if a1 > a2 else a2
    if not (mag == 0.0 or _TINY < mag < _HUGE):
        r1, r2, log_scale = r1 / mag, r2 / mag, log_scale + math.log(mag)
    if r2 == 0:
        raise DegenerateMatchingError("singular transfer matrix")
    # (r1, r2) is (M21, M22) and (A_out, 0) = e^lam M (1, r); det(e^lam M) = 1
    # for equal outer media, so A_out = e^-lam / M22 without forming the
    # cancellation-prone determinant.
    kw = k_out.real * total_width
    if not kw < math.inf and log_scale < math.inf:  # where log_scale is inf, t is 0
        raise DomainError(f"phase k x overflows across a total width of {total_width} m at E={E} J")
    a_out = cmath.exp(complex(-log_scale, -kw)) / r2
    return tuple.__new__(ScatterSolution, (a_out, -r1 / r2))


