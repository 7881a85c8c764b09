"""Double rectangular barrier tunneling: transmission, resonances, phase-times.

Everything internal is SI; angstrom/neV conversions happen only at the CLI
and report boundaries. All public values are immutable: the per-energy
records (Kinematics, ScaledDenominator, TransmissionResult,
PhaseTimeBreakdown) are NamedTuples, which are cheap to build, and the
rest are frozen dataclasses. All operations are pure functions of their
inputs, so the API is safe for concurrent use without synchronization.
"""

from __future__ import annotations

from .constants import CODATA2018, PhysicalConstants
from .errors import (
    DegenerateMatchingError,
    DegenerateResonanceError,
    DomainError,
    MassFitError,
    OpaqueBracketError,
    PhaseUnwrapError,
    ResonanceValidationError,
    StepError,
    TunnelkitError,
)
from .kinematics import (
    BarrierSystem,
    HyperbolicState,
    Kinematics,
    hyperbolic_state,
    kinematics,
)
from .phase_time import (
    PhaseTimeBreakdown,
    average_phase_time,
    hartman_limit,
    phase_time,
    phase_time_at_resonance,
    phase_time_numeric,
    phase_time_opaque,
)
from .resonance import (
    Resonance,
    breit_wigner_width,
    bw_phase_time,
    bw_probability,
    find_resonances,
    fit_effective_mass,
    resonance_residual,
)
from .scatter_oracle import (
    PotentialProfile,
    ScatterSolution,
    TransferMatrix,
    double_barrier_profile,
    solve,
    transfer_matrix,
)
from .scenarios import (
    NeutronReport,
    SweepRow,
    SweepTable,
    hartman_sweep,
    neutron_filter_system,
    run_neutron_scenario,
)
from .transmission import (
    TransmissionResult,
    amplitude,
    log_probability,
    probability,
    probability_opaque,
    transmitted_phase,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # constants
    "CODATA2018",
    "PhysicalConstants",
    # errors
    "TunnelkitError",
    "DomainError",
    "StepError",
    "PhaseUnwrapError",
    "OpaqueBracketError",
    "DegenerateResonanceError",
    "ResonanceValidationError",
    "MassFitError",
    "DegenerateMatchingError",
    # kinematics
    "BarrierSystem",
    "Kinematics",
    "HyperbolicState",
    "kinematics",
    "hyperbolic_state",
    # transmission
    "TransmissionResult",
    "amplitude",
    "probability",
    "log_probability",
    "transmitted_phase",
    "probability_opaque",
    # phase time
    "PhaseTimeBreakdown",
    "phase_time",
    "phase_time_numeric",
    "phase_time_at_resonance",
    "phase_time_opaque",
    "average_phase_time",
    "hartman_limit",
    # resonance
    "Resonance",
    "resonance_residual",
    "find_resonances",
    "fit_effective_mass",
    "breit_wigner_width",
    "bw_probability",
    "bw_phase_time",
    # transfer-matrix reference engine
    "PotentialProfile",
    "ScatterSolution",
    "TransferMatrix",
    "double_barrier_profile",
    "transfer_matrix",
    "solve",
    # scenarios
    "NeutronReport",
    "SweepRow",
    "SweepTable",
    "neutron_filter_system",
    "run_neutron_scenario",
    "hartman_sweep",
]
