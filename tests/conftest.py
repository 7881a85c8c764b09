from __future__ import annotations

import math

import pytest

from tunnelkit import resonance as resonance_module
from tunnelkit.constants import CODATA2018, joule_from_nev
from tunnelkit.kinematics import BarrierSystem
from tunnelkit.resonance import find_resonances, fit_effective_mass
from tunnelkit.transmission import scaled_denominator

# The cold-neutron interference filter geometry used throughout the suite:
# barrier width 300 A, height 230 neV, gap 195 A.
NEUTRON_A_ANGSTROM = 300.0
NEUTRON_U0_NEV = 230.0
NEUTRON_L_ANGSTROM = 195.0


# Largest x = 1/(w cos^2 psi) at which the opaque forms answer (documented).
OPAQUE_X_MAX = 0.01


def opaque_x(sc) -> float:
    """The opaque expansion parameter x = 1/(w cos^2 psi) of a record."""
    bracket = sc.w_scaled * sc.cos_psi**2
    return sc.e_neg / bracket if bracket > 0.0 else math.inf


def unscaled(state) -> tuple[float, ...]:
    """(u, v, w, u', v', w') of a HyperbolicState: the scaled fields times
    exp(log_scale), with math.exp raising OverflowError past qa ~ 355."""
    scale = math.exp(state.log_scale)
    return tuple(
        x * scale
        for x in (state.u_scaled, state.v_scaled, state.w_scaled,
                  state.up_scaled, state.vp_scaled, state.wp_scaled)
    )


def neutron_system(mass_ratio: float = 1.0) -> BarrierSystem:
    return BarrierSystem.from_lab_units(
        NEUTRON_A_ANGSTROM, NEUTRON_U0_NEV, NEUTRON_L_ANGSTROM, mass_ratio
    )


def fitted_neutron():
    """The filter at the mass that moves its resonance to 127 neV, and that root."""
    sys0 = neutron_system()
    m0 = CODATA2018.m_neutron
    m = fit_effective_mass(
        sys0.a, sys0.U0, sys0.L, joule_from_nev(127.0), (0.5 * m0, 1.5 * m0)
    )
    sys = sys0._replace(m=m)
    (res,) = find_resonances(sys, 1e-3 * sys.U0, 0.999 * sys.U0)
    return sys, res


def _sign_changes(values) -> int:
    """Changes of sign (-1, 0 or +1) along a sequence; an exact zero counts."""
    signs = [(v > 0.0) - (v < 0.0) for v in values]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def _floats_around(x: float, n: int) -> list[float]:
    """The n floats below x, x, and the n floats above it."""
    below, above = [x], [x]
    for _ in range(n):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], math.inf))
    return below[:0:-1] + above


@pytest.fixture
def neutron() -> BarrierSystem:
    return neutron_system()


@pytest.fixture
def records(monkeypatch):
    """Counts the scaled_denominator records the resonance module builds."""
    calls = [0]

    def counted(sys, E):
        calls[0] += 1
        return scaled_denominator(sys, E)

    monkeypatch.setattr(resonance_module, "scaled_denominator", counted)
    return calls
