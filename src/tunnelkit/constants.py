"""Physical constants and the only unit conversions of the package.

Everything internal is SI. Since the 2019 SI the electron-volt (so 1 neV =
1.602176634e-28 J), the angstrom (1e-10 m) and hbar = h / 2 pi (h =
6.62607015e-34 J s) are exact by definition (BIPM SI Brochure, 9th ed.);
hbar is carried as its CODATA 2018 value, and the free neutron mass is
CODATA 2018's. The values are fixed: no function takes another set.

Every neV <-> J conversion and every angstrom -> m conversion, in the
library and at the CLI, goes through the three helpers below, so one input
in lab units gives one double whichever entry point reads it. No metre ->
angstrom helper is needed: the CLI writes each length back as the number
it was given, not converted there and back. Keep this module
dependency-free: the transfer-matrix reference engine imports it directly
and must not pull in the closed-form machinery.
"""

from typing import NamedTuple

__all__ = [
    "CODATA2018",
    "joule_from_nev",
    "nev_from_joule",
    "metre_from_angstrom",
]


class _Constants(NamedTuple):
    hbar: float             # J s
    m_neutron: float        # kg
    neV_per_J: float
    m_per_angstrom: float


CODATA2018 = _Constants(
    hbar=1.054571817e-34,
    m_neutron=1.67492749804e-27,
    neV_per_J=1.0 / 1.602176634e-28,
    m_per_angstrom=1e-10,
)


def joule_from_nev(e_nev: float) -> float:
    return e_nev / CODATA2018.neV_per_J


def nev_from_joule(e_joule: float) -> float:
    return e_joule * CODATA2018.neV_per_J


def metre_from_angstrom(x_angstrom: float) -> float:
    return x_angstrom * CODATA2018.m_per_angstrom
