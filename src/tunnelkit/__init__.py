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

`tunnelkit` publishes each module's `__all__`; the module-level helpers,
such as the unit conversions of `constants`, are imported from their modules.
"""

from . import constants as _constants
from . import errors as _errors
from . import kinematics as _kinematics
from . import transmission as _transmission
from . import phase_time as _phase_time
from . import resonance as _resonance
from . import scatter_oracle as _scatter_oracle
from . import scenarios as _scenarios
from .constants import *
from .errors import *
from .kinematics import *
from .transmission import *
from .phase_time import *
from .resonance import *
from .scatter_oracle import *
from .scenarios import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *_constants.__all__,
    *_errors.__all__,
    *_kinematics.__all__,
    *_transmission.__all__,
    *_phase_time.__all__,
    *_resonance.__all__,
    *_scatter_oracle.__all__,
    *_scenarios.__all__,
]
