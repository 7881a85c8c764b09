from __future__ import annotations

import pytest

from tunnelkit.kinematics import BarrierSystem

# The cold-neutron interference filter geometry used throughout the suite:
# barrier width 300 A, height 230 neV, gap 195 A.
NEUTRON_A_ANGSTROM = 300.0
NEUTRON_U0_NEV = 230.0
NEUTRON_L_ANGSTROM = 195.0


def neutron_system(mass_ratio: float = 1.0) -> BarrierSystem:
    return BarrierSystem.from_lab_units(
        NEUTRON_A_ANGSTROM, NEUTRON_U0_NEV, NEUTRON_L_ANGSTROM, mass_ratio
    )


@pytest.fixture
def neutron() -> BarrierSystem:
    return neutron_system()

