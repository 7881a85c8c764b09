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

Scaling. The chain is kept in five locals (m11, m12, m21, m22, log_scale);
transfer_matrix builds one TransferMatrix at the end, and solve reads the
locals without one. Both records are built by the package's construction
rule (one `tuple.__new__` call; see the kinematics module). Each interface applies
[[p, n], [n, p]] with p, n = (1 +- rho)/2; each segment applies a diagonal
scale. An evanescent segment of thickness d multiplies coefficients by
exp(+-qd); the growing exponential goes into log_scale, so the entries stay
O(1) and qa ~ 700 is overflow-free. Growth from mismatched interfaces
(|rho| >> 1) is caught by the one rescaling rule, `_normalized`: after every
step, and in `TransferMatrix.__matmul__`, the entries are divided by the
largest |entry| when it leaves (1e-50, 1e50). The chain telescopes to
determinant one for equal outer media; the transmitted amplitude uses that
identity rather than the cancellation-prone computed determinant.
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
        return tuple.__new__(
            TransferMatrix,
            _normalized(
                self.m11 * other.m11 + self.m12 * other.m21,
                self.m11 * other.m12 + self.m12 * other.m22,
                self.m21 * other.m11 + self.m22 * other.m21,
                self.m21 * other.m12 + self.m22 * other.m22,
                self.log_scale + other.log_scale,
            )
        )


def _normalized(
    m11: complex, m12: complex, m21: complex, m22: complex, log_scale: float
) -> tuple[complex, complex, complex, complex, float]:
    """The one rescaling rule: pull the largest |entry| into exp(log_scale).

    Applied only when that entry leaves (1e-50, 1e50), so entries that are
    O(1) pass through with their bits untouched.
    """
    mag = max(abs(m11), abs(m12), abs(m21), abs(m22))
    if mag == 0.0 or 1e-50 < mag < 1e50:
        return m11, m12, m21, m22, log_scale
    inv = 1.0 / mag
    return m11 * inv, m12 * inv, m21 * inv, m22 * inv, log_scale + math.log(mag)


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
    return tuple.__new__(TransferMatrix, _walk(profile, E)[0])


def _walk(
    profile: PotentialProfile, E: float
) -> tuple[tuple[complex, complex, complex, complex, float], float]:
    """The entries of transfer_matrix and k times the summed segment widths, in
    one pass over the segments; each distinct height's wavenumber is found once."""
    if not 0.0 < E < math.inf:
        raise DomainError(f"energy must be finite and > 0, got {E} J")
    hbar = CODATA2018.hbar
    m = profile.m
    k_out = _segment_kappa(E, 0.0, m, hbar)
    kappas = {0.0: k_out}
    m11, m12, m21, m22, log_scale = 1.0 + 0j, 0j, 0j, 1.0 + 0j, 0.0
    kappa_prev, total_width = k_out, 0.0
    for width, height in profile.segments:
        total_width += width
        kappa = kappas.get(height)
        if kappa is None:
            kappa = kappas[height] = _segment_kappa(E, height, m, hbar)
        # Interface: [[p, n], [n, p]] with rho = kappa_prev / kappa.
        rho = kappa_prev / kappa
        p, n = 0.5 * (1.0 + rho), 0.5 * (1.0 - rho)
        m11, m12, m21, m22, log_scale = _normalized(
            p * m11 + n * m21, p * m12 + n * m22,
            n * m11 + p * m21, n * m12 + p * m22, log_scale,
        )
        # Propagation: diag(e^{ikd}, e^{-ikd}); evanescent diag(e^{-qd}, e^{qd})
        # is written e^{qd} diag(e^{-2qd}, 1) with e^{qd} kept in log_scale.
        if kappa.imag == 0.0:
            phase = cmath.exp(1j * kappa.real * width)
            inv_phase = 1.0 / phase
            m11, m12 = phase * m11, phase * m12
            m21, m22 = inv_phase * m21, inv_phase * m22
        else:
            q = kappa.imag
            decay = math.exp(-2.0 * q * width)
            m11, m12, log_scale = decay * m11, decay * m12, log_scale + q * width
        m11, m12, m21, m22, log_scale = _normalized(m11, m12, m21, m22, log_scale)
        kappa_prev = kappa
    rho = kappa_prev / k_out
    p, n = 0.5 * (1.0 + rho), 0.5 * (1.0 - rho)
    mat = _normalized(
        p * m11 + n * m21, p * m12 + n * m22,
        n * m11 + p * m21, n * m12 + p * m22, log_scale,
    )
    return mat, k_out.real * total_width


def solve(profile: PotentialProfile, E: float) -> ScatterSolution:
    """Transmission and reflection amplitudes for a wave incident from the left."""
    (_, _, m21, m22, log_scale), k_width = _walk(profile, E)
    if m22 == 0:
        raise DegenerateMatchingError("singular transfer matrix")
    # (A_out, 0) = e^lam M (1, r); det(e^lam M) = 1 for equal outer media,
    # so A_out = e^-lam / M22 without forming the cancellation-prone determinant.
    a_out = cmath.exp(complex(-log_scale, -k_width)) / m22
    return tuple.__new__(ScatterSolution, (a_out, -m21 / m22))
