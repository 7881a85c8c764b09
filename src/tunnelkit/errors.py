"""Exception types shared across the package.

The CLI maps these onto its exit-code contract, so user-facing entry
points catch the base classes rather than bare ValueError.
"""

from __future__ import annotations

__all__ = [
    "TunnelkitError",
    "DomainError",
    "StepError",
    "PhaseUnwrapError",
    "OpaqueBracketError",
    "DegenerateResonanceError",
    "ResonanceValidationError",
    "MassFitError",
    "DegenerateMatchingError",
]


class TunnelkitError(Exception):
    """Base class for every error raised by this package."""


class DomainError(TunnelkitError, ValueError):
    """Input outside the supported physical domain (e.g. E outside (0, U0))."""


class StepError(TunnelkitError, ValueError):
    """A finite-difference stencil would leave the valid energy interval."""


class PhaseUnwrapError(TunnelkitError):
    """Formerly raised where a wrapped phase step exceeded pi/2.

    The package no longer raises it: phase_time_numeric differences the
    continuous phase. It stays exported because the benchmark's oracle
    workload catches it by name (tests/test_public_api.py checks this).
    """


class OpaqueBracketError(TunnelkitError):
    """An opaque-barrier asymptotic form does not apply at this energy.

    Raised inside the resonance band, where the opaque expansions of the
    transmission and of the phase-time are meaningless, and by the
    phase-time expansion where its gap term is not finite (vanishing
    barrier widths).
    """


class DegenerateResonanceError(TunnelkitError):
    """Half-width bracket came out non-positive for a claimed resonance."""


class ResonanceValidationError(TunnelkitError):
    """A candidate resonance failed the full-transparency certification.

    Usually means the resonance is too narrow to place in double
    precision.
    """


class MassFitError(TunnelkitError):
    """Mass bracket does not enclose a sign change of the residual."""


class DegenerateMatchingError(TunnelkitError):
    """Energy coincides with a segment height; plane-wave matching breaks."""
