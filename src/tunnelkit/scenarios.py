"""Canned, citable computations: the cold-neutron filter and Hartman sweeps.

The neutron scenario reproduces the published interference-filter analysis
end to end: locate the transparency resonance at the free neutron mass,
invert the effective mass that moves it to the measured 127 neV, then
evaluate the half-width, the resonance phase-time and the phase-time
averaged over [E_r - beta, E_r + beta] (uniform weighting over the window;
the experiment's own averaging procedure is not specified further).

The measured values (time delay (2.17 +- 0.2)e-7 s on resonance, 1.9e-8 s
off resonance from non-tunneling neutrons, half-width ~4 neV) ride along
as annotations for human comparison; the model does not target them, since
beam spread and detector resolution are outside its scope.

Sweep rows flag resonance collisions instead of failing: a row is flagged
when the opaque phase-time expansion rejects it, inside the resonance band
cos^2(psi) <= 0.025 (5% of the mean sigma^2/4 of the opaque bracket, which
vanishes exactly on the resonance locus).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Literal, Optional

from .constants import CODATA2018, PhysicalConstants
from .errors import DomainError, OpaqueBracketError
from .kinematics import BarrierSystem
from .phase_time import (
    _phase_time_of,
    _phase_time_opaque_of,
    average_phase_time,
    phase_time_at_resonance,
)
from .resonance import find_resonances, fit_effective_mass
from .transmission import scaled_denominator

__all__ = [
    "NEUTRON_BARRIER_WIDTH_ANGSTROM",
    "NEUTRON_BARRIER_HEIGHT_NEV",
    "NEUTRON_GAP_ANGSTROM",
    "MEASURED_ANNOTATIONS",
    "NeutronReport",
    "SweepRow",
    "SweepTable",
    "neutron_filter_system",
    "run_neutron_scenario",
    "hartman_sweep",
]

# Geometry of the neutron interference filter: two 300 A barriers of about
# 230 neV separated by a 195 A well.
NEUTRON_BARRIER_WIDTH_ANGSTROM = 300.0
NEUTRON_BARRIER_HEIGHT_NEV = 230.0
NEUTRON_GAP_ANGSTROM = 195.0
NEUTRON_TARGET_E_R_NEV = 127.0

# Experimental reference numbers, annotation-only.
MEASURED_ANNOTATIONS = {
    "measured_delay_s": 2.17e-7,
    "measured_delay_uncertainty_s": 0.2e-7,
    "measured_off_resonance_delay_s": 1.9e-8,
    "measured_half_width_neV": 4.0,
}

@dataclass(frozen=True)
class NeutronReport:
    """Scenario outputs in presentation units (neV for energies, s for times)."""

    E_r_free_mass: float      # neV
    fitted_mass_ratio: float
    beta: float               # neV
    tau_r: float              # s
    tau_avg: float            # s

    def to_json_dict(self) -> dict:
        return {
            "E_r_free_mass": self.E_r_free_mass,
            "fitted_mass_ratio": self.fitted_mass_ratio,
            "beta": self.beta,
            "tau_r": self.tau_r,
            "tau_avg": self.tau_avg,
            "annotations": dict(MEASURED_ANNOTATIONS),
        }


@dataclass(frozen=True)
class SweepRow:
    sweep_value: float               # m
    probability: float
    tau_exact: float                 # s
    tau_asymptotic: Optional[float]  # s; None on flagged rows
    flagged: bool
    flag_reason: Optional[str]


@dataclass(frozen=True)
class SweepTable:
    axis: Literal["barrier_width", "gap_length"]
    energy: float                    # J
    rows: tuple[SweepRow, ...]

    def to_json_dict(self) -> dict:
        return {
            "axis": self.axis,
            "energy_neV": self.energy * CODATA2018.neV_per_J,
            "rows": [
                {
                    "sweep_value_angstrom": r.sweep_value / CODATA2018.m_per_angstrom,
                    "probability": r.probability,
                    "tau_exact_s": r.tau_exact,
                    "tau_asymptotic_s": r.tau_asymptotic,
                    "flagged": r.flagged,
                    "flag_reason": r.flag_reason,
                }
                for r in self.rows
            ],
        }


def neutron_filter_system(
    mass_ratio: float = 1.0, constants: PhysicalConstants = CODATA2018
) -> BarrierSystem:
    return BarrierSystem.from_lab_units(
        NEUTRON_BARRIER_WIDTH_ANGSTROM,
        NEUTRON_BARRIER_HEIGHT_NEV,
        NEUTRON_GAP_ANGSTROM,
        mass_ratio,
        constants,
    )


def run_neutron_scenario(constants: PhysicalConstants = CODATA2018) -> NeutronReport:
    """Free-mass resonance, effective-mass fit, width, tau_r and window average."""
    free = neutron_filter_system(1.0, constants)
    window = (1e-3 * free.U0, 0.999 * free.U0)
    free_res = find_resonances(free, *window)
    if len(free_res) != 1:
        raise DomainError(
            f"expected exactly one free-mass resonance, found {len(free_res)}"
        )
    e_r_free_nev = free_res[0].E_r * constants.neV_per_J

    target = NEUTRON_TARGET_E_R_NEV / constants.neV_per_J
    m_fit = fit_effective_mass(
        free.a,
        free.U0,
        free.L,
        target,
        (0.5 * constants.m_neutron, 1.5 * constants.m_neutron),
    )
    fitted = dataclasses.replace(free, m=m_fit)
    (res,) = find_resonances(fitted, *window)

    tau_r = phase_time_at_resonance(fitted, res)
    tau_avg = average_phase_time(fitted, res.E_r - res.beta, res.E_r + res.beta)
    return NeutronReport(
        E_r_free_mass=e_r_free_nev,
        fitted_mass_ratio=m_fit / constants.m_neutron,
        beta=res.beta * constants.neV_per_J,
        tau_r=tau_r,
        tau_avg=tau_avg,
    )


def _swept_system(sys: BarrierSystem, axis: str, value: float) -> BarrierSystem:
    if axis == "barrier_width":
        return dataclasses.replace(sys, a=value)
    if axis == "gap_length":
        return dataclasses.replace(sys, L=value)
    raise DomainError(f"unknown sweep axis {axis!r}")


def hartman_sweep(
    sys: BarrierSystem,
    E: float,
    axis: Literal["barrier_width", "gap_length"],
    values: list[float],
) -> SweepTable:
    """Exact probability, exact tau and asymptotic tau along one geometry axis.

    Values must be positive and ascending. Rows whose geometry puts E on
    top of a resonance are flagged (asymptotic column dropped), not fatal.
    Each row evaluates the denominator once: probability, exact tau and
    asymptotic tau all come from that one scaled_denominator.
    """
    if not values:
        raise DomainError("sweep needs at least one value")
    if any(v <= 0.0 for v in values):
        raise DomainError("sweep values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError("sweep values must be strictly ascending")

    rows = []
    for value in values:
        probe = _swept_system(sys, axis, value)
        sc = scaled_denominator(probe, E)  # raises DomainError unless 0 < E < U0
        prob = math.exp(-sc.log_mod_squared)
        tau_exact = _phase_time_of(sc, probe.L).total
        try:
            tau_asym: Optional[float] = _phase_time_opaque_of(sc, probe.L)
            flagged, reason = False, None
        except OpaqueBracketError as exc:
            tau_asym, flagged, reason = None, True, str(exc)
        rows.append(
            SweepRow(
                sweep_value=value,
                probability=prob,
                tau_exact=tau_exact,
                tau_asymptotic=tau_asym,
                flagged=flagged,
                flag_reason=reason,
            )
        )
    return SweepTable(axis=axis, energy=E, rows=tuple(rows))
