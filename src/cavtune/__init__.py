"""cavtune: coupled-cavity vacuum-field tuning simulator and fitting toolkit.

A two-cavity / one-emitter model in which detuning an adjacent low-Q cavity
reshapes the vacuum field seen by the emitter: static anticrossing and
Q-modulation sweeps, time-dependent master-equation dynamics producing
spontaneous-emission bursts and dips, and parameter recovery from measured
anticrossing tables.
"""

__version__ = "0.1.0"

from .errors import (
    CavtuneError,
    InvalidInput,
    NoFeature,
    NumericalFailure,
    SchemaError,
)
from .modespace import (
    BareMode,
    CoupledModes,
    EmitterParams,
    SystemParams,
    anticrossing_sweep,
    couple,
    coupled_hamiltonian,
    detuning_wl_to_omega,
    hamiltonian_bare_basis,
    omega_to_wl,
    q_factor,
    se_rate_ratio,
    wl_to_omega,
)
from .tuning import (
    FreeCarrierPulse,
    HilbertSpec,
    PumpPulse,
    PumpSchedule,
    ThermoOpticModel,
    TuningProfile,
    fp_shift_at,
    thermo_shift,
)
from .spectra import (
    BurstMetrics,
    DecayCurve,
    PLMap,
    apply_filter,
    burst_metrics,
    irf_convolve,
    synthesize_map,
)
from .fitting import (
    AnticrossingData,
    FitOptions,
    FitResult,
    fit,
    read_anticrossing_csv,
)

# The master-equation solver imports scipy, which costs more start-up time than
# the rest of the package together; its names load on first access (PEP 562).
_LINDBLAD_NAMES = frozenset(
    {
        "Trajectory",
        "build_space",
        "dense_superoperator",
        "emitter_excited_state",
        "evolve",
        "fock_state",
        "liouvillian_apply",
        "mode_populations",
        "steady_state",
        "vacuum_state",
    }
)


def __getattr__(name):
    if name in _LINDBLAD_NAMES:
        from . import lindblad

        return getattr(lindblad, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
