"""Physical constants (CODATA 2018) and unit conversions.

Internal unit system is SI throughout; the neV and angstrom helpers exist
only for the API boundary. Keep this module dependency-free: the
transfer-matrix reference engine imports it directly and must not pull in
the closed-form machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "CODATA2018",
    "joule_from_nev",
    "nev_from_joule",
    "metre_from_angstrom",
    "angstrom_from_metre",
]

# CODATA 2018: hbar in J s, free neutron mass in kg, 1 neV in J.
_HBAR = 1.054571817e-34
_M_NEUTRON = 1.67492749804e-27
_J_PER_NEV = 1.602176634e-28
_M_PER_ANGSTROM = 1e-10


@dataclass(frozen=True)
class PhysicalConstants:
    """Fundamental constants and the two boundary conversion factors."""

    hbar: float = _HBAR                       # J s
    m_neutron: float = _M_NEUTRON             # kg
    neV_per_J: float = 1.0 / _J_PER_NEV
    m_per_angstrom: float = _M_PER_ANGSTROM

    def __post_init__(self) -> None:
        for name in ("hbar", "m_neutron", "neV_per_J", "m_per_angstrom"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"constant {name} must be strictly positive")


CODATA2018 = PhysicalConstants()


def joule_from_nev(e_nev: float) -> float:
    return e_nev / CODATA2018.neV_per_J


def nev_from_joule(e_joule: float) -> float:
    return e_joule * CODATA2018.neV_per_J


def metre_from_angstrom(x_angstrom: float) -> float:
    return x_angstrom * CODATA2018.m_per_angstrom


def angstrom_from_metre(x_metre: float) -> float:
    return x_metre / CODATA2018.m_per_angstrom
