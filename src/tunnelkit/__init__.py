"""Double rectangular barrier tunneling: transmission, resonances, phase-times.

Everything internal is SI; angstrom/neV conversions happen only at the CLI
and report boundaries, through the helpers of `constants`, whose values
(CODATA 2018 and the exact SI units) are fixed. Every public record is an
immutable NamedTuple, cheap to import since the package never loads
`dataclasses` (which brings in `inspect`); the per-energy records are built
by `tuple.__new__` (see the kinematics module). BarrierSystem and
PotentialProfile validate in `__new__`, so `_replace` checks its fields as
construction does. All operations are pure functions of their inputs, so
the API is safe for concurrent use without synchronization.
"""

from .constants import CODATA2018
from .errors import (
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
    phase_time_at_resonance,
    resonance_residual,
)
from .scatter_oracle import (
    PotentialProfile,
    ScatterSolution,
    double_barrier_profile,
    solve,
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
    # errors
    "TunnelkitError",
    "DomainError",
    "StepError",
    "PhaseUnwrapError",
    "OpaqueBracketError",
    "DegenerateResonanceError",
    "ResonanceValidationError",
    "MassFitError",
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
    "phase_time_opaque",
    "average_phase_time",
    "hartman_limit",
    # resonance
    "Resonance",
    "resonance_residual",
    "find_resonances",
    "fit_effective_mass",
    "breit_wigner_width",
    "phase_time_at_resonance",
    "bw_probability",
    "bw_phase_time",
    # transfer-matrix reference engine
    "PotentialProfile",
    "ScatterSolution",
    "double_barrier_profile",
    "solve",
    # scenarios
    "NeutronReport",
    "SweepRow",
    "SweepTable",
    "neutron_filter_system",
    "run_neutron_scenario",
    "hartman_sweep",
]
