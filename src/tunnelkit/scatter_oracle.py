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

Scaling. `_row` carries one row (r1, r2) of the chain from the right end of
the profile to the left: solve walks (0, 1), the row (m21, m22) it reads,
and transfer_matrix walks both rows and brings them to one log_scale. An
interface applies [[p, n], [n, p]] with p, n = (1 +- rho)/2, a segment a
diagonal scale. An evanescent segment of thickness d multiplies
coefficients by exp(+-qd); the growing exponential goes into log_scale, so
entries stay O(1) and qa ~ 700 is overflow-free. Growth from mismatched
interfaces (|rho| >> 1) is caught by one rule, after every step of `_row`
and in `_normalized`: entries are divided by the largest |entry| when it
leaves (1e-50, 1e50). The chain telescopes to determinant one for equal
outer media; the transmitted amplitude uses that identity rather than the
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
    "TransferMatrix",
    "double_barrier_profile",
    "transfer_matrix",
    "solve",
]

_TINY, _HUGE = 1e-50, 1e50  # the rescaling window (see _normalized)


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


class TransferMatrix(NamedTuple):
    """2x2 complex matrix with an exp(log_scale) scalar factored out."""

    m11: complex
    m12: complex
    m21: complex
    m22: complex
    log_scale: float

    def __matmul__(self, other: "TransferMatrix") -> "TransferMatrix":
        a11, a12, a21, a22, scale_a = self
        b11, b12, b21, b22, scale_b = other
        return tuple.__new__(TransferMatrix, _normalized(
            a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22, scale_a + scale_b,
        ))


def _normalized(
    m11: complex, m12: complex, m21: complex, m22: complex, log_scale: float
) -> tuple[complex, complex, complex, complex, float]:
    """The one rescaling rule: pull the largest |entry| into exp(log_scale)
    when it leaves (_TINY, _HUGE), so entries that are O(1) pass through
    with their bits untouched. _row inlines the rule for its row."""
    mag = max(abs(m11), abs(m12), abs(m21), abs(m22))
    if mag == 0.0 or _TINY < mag < _HUGE:
        return m11, m12, m21, m22, log_scale
    return m11 / mag, m12 / mag, m21 / mag, m22 / mag, log_scale + math.log(mag)


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
    if kappa == 0.0:
        raise DomainError(f"wavenumber underflows to 0 at E={E} J, segment height {height} J")
    return complex(kappa, 0.0) if E > height else complex(0.0, kappa)


def transfer_matrix(profile: PotentialProfile, E: float) -> TransferMatrix:
    """Total coefficient map from the left outer region to the right one.

    Includes the outer-medium interfaces on both ends, so profile matrices
    compose by plain multiplication (the inner outer-medium interfaces of
    adjacent profiles cancel exactly).
    """
    m11, m12, scale1, _ = _row(profile, E, 1.0, 0.0)
    m21, m22, scale2, _ = _row(profile, E, 0.0, 1.0)
    log_scale = max(scale1, scale2)
    s1, s2 = math.exp(scale1 - log_scale), math.exp(scale2 - log_scale)
    mat = _normalized(m11 * s1, m12 * s1, m21 * s2, m22 * s2, log_scale)
    return tuple.__new__(TransferMatrix, mat)


def _row(profile: PotentialProfile, E: float, r1: complex, r2: complex) -> tuple:
    """(r1, r2) times transfer_matrix, its log_scale, and k times the summed
    segment widths, in one pass over the segments from the right end to the
    left; each distinct height's wavenumber is found once. max(|r1|, |r2|) is
    taken by a conditional: calling the max builtin costs ~15 % of a walk."""
    if not 0.0 < E < math.inf:
        raise DomainError(f"energy must be finite and > 0, got {E} J")
    hbar, m = CODATA2018.hbar, profile.m
    k_out = _segment_kappa(E, 0.0, m, hbar)
    kappas = {0.0: k_out}
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
            phase = cmath.exp(1j * kappa.real * width)
            r1, r2 = r1 * phase, r2 / phase
        else:
            q = kappa.imag
            r1, log_scale = r1 * math.exp(-2.0 * q * width), log_scale + q * width
        a1, a2 = abs(r1), abs(r2)
        mag = a1 if a1 > a2 else a2
        if not (mag == 0.0 or _TINY < mag < _HUGE):
            r1, r2, log_scale = r1 / mag, r2 / mag, log_scale + math.log(mag)
        kappa_right = kappa
    rho = k_out / kappa_right
    p, n = 0.5 * (1.0 + rho), 0.5 * (1.0 - rho)
    r1, r2 = r1 * p + r2 * n, r1 * n + r2 * p
    a1, a2 = abs(r1), abs(r2)
    mag = a1 if a1 > a2 else a2
    if not (mag == 0.0 or _TINY < mag < _HUGE):
        r1, r2, log_scale = r1 / mag, r2 / mag, log_scale + math.log(mag)
    return r1, r2, log_scale, k_out.real * total_width


def solve(profile: PotentialProfile, E: float) -> ScatterSolution:
    """Transmission and reflection amplitudes for a wave incident from the left."""
    m21, m22, log_scale, k_width = _row(profile, E, 0.0, 1.0)
    if m22 == 0:
        raise DegenerateMatchingError("singular transfer matrix")
    # (A_out, 0) = e^lam M (1, r); det(e^lam M) = 1 for equal outer media,
    # so A_out = e^-lam / M22 without forming the cancellation-prone determinant.
    a_out = cmath.exp(complex(-log_scale, -k_width)) / m22
    return tuple.__new__(ScatterSolution, (a_out, -m21 / m22))
