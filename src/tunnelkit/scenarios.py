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

Sweep rows outside the opaque regime are flagged instead of failing: a
row is flagged when the opaque phase-time expansion rejects it, where its
parameter x = 1/(w cos^2 psi) exceeds 0.01 (near a resonance, or where the
barriers are too thin or transparent for the expansion).
"""

import math
from typing import Literal, NamedTuple, Optional

from .constants import CODATA2018, joule_from_nev, nev_from_joule
from .errors import DomainError, OpaqueBracketError
from .kinematics import BarrierSystem
from .phase_time import _phase_time_of, _phase_time_opaque_of, average_phase_time
from .resonance import find_resonances, fit_effective_mass
from .transmission import scaled_denominator

__all__ = [
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
# Effective masses (kg) the fit searches: 0.5 to 1.5 free neutron masses.
NEUTRON_MASS_BRACKET = (0.5 * CODATA2018.m_neutron, 1.5 * CODATA2018.m_neutron)

# Experimental reference numbers, annotation-only.
MEASURED_ANNOTATIONS = {
    "measured_delay_s": 2.17e-7,
    "measured_delay_uncertainty_s": 0.2e-7,
    "measured_off_resonance_delay_s": 1.9e-8,
    "measured_half_width_neV": 4.0,
}


class NeutronReport(NamedTuple):
    """Scenario outputs in presentation units (neV for energies, s for times)."""

    E_r_free_mass: float      # neV
    fitted_mass_ratio: float
    beta: float               # neV
    tau_r: float              # s
    tau_avg: float            # s


class SweepRow(NamedTuple):
    sweep_value: float               # m
    probability: float
    tau_exact: float                 # s
    tau_asymptotic: Optional[float]  # s; None on flagged rows
    flagged: bool
    flag_reason: Optional[str]


class SweepTable(NamedTuple):
    axis: Literal["barrier_width", "gap_length"]
    energy: float                    # J
    rows: tuple[SweepRow, ...]


def neutron_filter_system(mass_ratio: float = 1.0) -> BarrierSystem:
    return BarrierSystem.from_lab_units(
        NEUTRON_BARRIER_WIDTH_ANGSTROM,
        NEUTRON_BARRIER_HEIGHT_NEV,
        NEUTRON_GAP_ANGSTROM,
        mass_ratio,
    )


def run_neutron_scenario() -> NeutronReport:
    """Free-mass resonance, effective-mass fit, width, tau_r and window average.

    Energies are reported in neV and masses as ratios to the CODATA 2018
    free neutron mass, converted by the helpers of `constants`.
    """
    free = neutron_filter_system()
    window = (1e-3 * free.U0, 0.999 * free.U0)
    free_res = find_resonances(free, *window)
    if len(free_res) != 1:
        raise DomainError(
            f"expected exactly one free-mass resonance, found {len(free_res)}"
        )
    e_r_free_nev = nev_from_joule(free_res[0].E_r)

    target = joule_from_nev(NEUTRON_TARGET_E_R_NEV)
    m_fit = fit_effective_mass(free.a, free.U0, free.L, target, NEUTRON_MASS_BRACKET)
    fitted = free._replace(m=m_fit)
    (res,) = find_resonances(fitted, *window)

    tau_avg = average_phase_time(fitted, res.E_r - res.beta, res.E_r + res.beta)
    return NeutronReport(
        E_r_free_mass=e_r_free_nev,
        fitted_mass_ratio=m_fit / CODATA2018.m_neutron,
        beta=nev_from_joule(res.beta),
        tau_r=res.tau_r,
        tau_avg=tau_avg,
    )


# The BarrierSystem field each sweep axis sets.
_SWEEP_FIELDS = {"barrier_width": "a", "gap_length": "L"}


def hartman_sweep(
    sys: BarrierSystem,
    E: float,
    axis: Literal["barrier_width", "gap_length"],
    values: list[float],
) -> SweepTable:
    """Exact probability, exact tau and asymptotic tau along one geometry axis.

    Values must be positive and ascending. Rows where the opaque expansion
    parameter x = 1/(w cos^2 psi) exceeds 0.01 are flagged (asymptotic
    column dropped), not fatal; elsewhere it is within ~16 x^2 of exact.
    Each row evaluates the denominator once: probability, exact tau and
    asymptotic tau all come from that one scaled_denominator.
    """
    if not values:
        raise DomainError("sweep needs at least one value")
    if any(v <= 0.0 for v in values):
        raise DomainError("sweep values must be positive")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise DomainError("sweep values must be strictly ascending")
    if axis not in _SWEEP_FIELDS:
        raise DomainError(f"unknown sweep axis {axis!r}")

    rows = []
    for value in values:
        probe = sys._replace(**{_SWEEP_FIELDS[axis]: value})
        sc = scaled_denominator(probe, E)  # raises DomainError unless 0 < E < U0
        prob = math.exp(-sc.log_mod_squared)
        tau_exact = _phase_time_of(sc, probe.L).total
        try:
            tau_asym: Optional[float] = _phase_time_opaque_of(sc, probe.L)
            flagged, reason = False, None
        except OpaqueBracketError as exc:
            tau_asym, flagged, reason = None, True, str(exc)
        rows.append(tuple.__new__(SweepRow, (value, prob, tau_exact, tau_asym, flagged, reason)))
    return SweepTable(axis=axis, energy=E, rows=tuple(rows))
