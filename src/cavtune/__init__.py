"""cavtune: coupled-cavity vacuum-field tuning simulator and fitting toolkit.

A two-cavity / one-emitter model in which detuning an adjacent low-Q cavity
reshapes the vacuum field seen by the emitter: static anticrossing and
Q-modulation sweeps, time-dependent master-equation dynamics producing
spontaneous-emission bursts and dips, and parameter recovery from measured
anticrossing tables.

Importing the package loads neither numpy nor scipy and changes no thread
setting: each public name below loads its module on first access (PEP 562).
That leaves :mod:`cavtune.cli` free to pick the BLAS thread count before numpy
starts its pool.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the module that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "errors": "CavtuneError InvalidInput NoFeature NumericalFailure SchemaError",
        "modespace": "BareMode CoupledModes EmitterParams SystemParams anticrossing_sweep couple"
        " coupled_hamiltonian detuning_wl_to_omega hamiltonian_bare_basis omega_to_wl q_factor"
        " wl_to_omega",
        "tuning": "FreeCarrierPulse HilbertSpec PumpPulse PumpSchedule ThermoOpticModel"
        " TuningProfile fp_shift_at thermo_shift",
        "spectra": "BurstMetrics DecayCurve PLMap apply_filter burst_metrics irf_convolve"
        " synthesize_map",
        "fitting": "AnticrossingData FitOptions FitResult fit read_anticrossing_csv",
        "lindblad": "Trajectory build_space dense_superoperator emitter_excited_state evolve"
        " fock_state liouvillian_apply mode_populations steady_state vacuum_state",
    }.items()
    for name in names.split()
}
__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
