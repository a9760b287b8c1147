"""Time-dependent drives: FP-cavity wavelength shift models and emitter pumping.

Sign discipline: thermo-optic heating shifts the FP resonance to longer
wavelength (positive nm), photoexcited free carriers shift it to shorter
wavelength (negative nm) with an exponential recovery.

The pump schedule and the Fock-space truncation that a master-equation run
takes are plain dataclasses kept here, beside the tuning profile, so that
configuration and the scipy-free commands never import :mod:`cavtune.lindblad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, require_finite

SECONDS_PER_PS = 1e-12  # multiplies rad/s rates into rad/ps
_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


@dataclass(frozen=True)
class ThermoOpticModel:
    """Linear red shift per unit CW heating power."""

    coeff_nm_per_mw: float
    power_mw: float

    def __post_init__(self):
        require_finite(self, "coeff_nm_per_mw", "power_mw")
        if self.coeff_nm_per_mw < 0.0:
            raise InvalidInput(f"thermo-optic coefficient must be >= 0, got {self.coeff_nm_per_mw}")
        if self.power_mw < 0.0:
            raise InvalidInput(f"heating power must be >= 0, got {self.power_mw}")


def thermo_shift(model: ThermoOpticModel) -> float:
    """Red shift in nm: coeff * power."""
    return model.coeff_nm_per_mw * model.power_mw


@dataclass(frozen=True)
class FreeCarrierPulse:
    """A single free-carrier injection event.

    Blue-shifts the FP mode by ``delta_lambda_max_nm`` at ``t0_ps`` and
    recovers exponentially with time constant ``tau_fc_ps``.
    """

    t0_ps: float
    delta_lambda_max_nm: float
    tau_fc_ps: float

    def __post_init__(self):
        require_finite(self, "t0_ps", "delta_lambda_max_nm", "tau_fc_ps")
        if self.delta_lambda_max_nm < 0.0:
            raise InvalidInput(f"peak blue shift must be >= 0, got {self.delta_lambda_max_nm}")
        if self.tau_fc_ps <= 0.0:
            raise InvalidInput(f"free-carrier lifetime must be positive, got {self.tau_fc_ps}")


@dataclass(frozen=True)
class TuningProfile:
    """Static offset plus thermo-optic and free-carrier contributions.

    ``static_detuning_nm`` is lambda_FP - lambda_t at baseline; the default
    ``thermo`` heats nothing.  Pulses are kept sorted by arrival time;
    overlapping pulses add.
    """

    static_detuning_nm: float = 0.0
    thermo: ThermoOpticModel = ThermoOpticModel(0.0, 0.0)
    pulses: tuple = field(default_factory=tuple)

    def __post_init__(self):
        require_finite(self, "static_detuning_nm")
        ordered = tuple(sorted(self.pulses, key=lambda p: p.t0_ps))
        object.__setattr__(self, "pulses", ordered)


def fp_shift_at(profile: TuningProfile, t_ps):
    """FP wavelength shift (nm, relative to lambda_t) at time(s) ``t_ps``.

    Pulses with arrival times in the future of ``t_ps`` contribute nothing.
    An array of times is answered by :func:`fp_shift_scalar` at each time, so
    the model is written once and every caller sees the same bits.
    """
    t = np.asarray(t_ps, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InvalidInput("evaluation time must be finite")
    if t.ndim == 0:
        return fp_shift_scalar(profile, float(t))
    shifts = [fp_shift_scalar(profile, tk) for tk in t.ravel().tolist()]
    return np.array(shifts, dtype=float).reshape(t.shape)


def fp_shift_scalar(profile: TuningProfile, t_ps: float) -> float:
    """The shift model at one float time, in float arithmetic and unchecked.

    The master-equation integrator calls this on every right-hand-side
    evaluation, where array arithmetic would cost more than the step it feeds.
    """
    shift = float(profile.static_detuning_nm) + thermo_shift(profile.thermo)
    for pulse in profile.pulses:
        dt = t_ps - pulse.t0_ps
        if dt >= 0.0:
            shift -= pulse.delta_lambda_max_nm * math.exp(-dt / pulse.tau_fc_ps)
    return shift


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the two bosonic modes: up to ``n_max`` photons per mode."""

    n_max: int = 2

    def __post_init__(self):
        if not isinstance(self.n_max, int) or self.n_max < 1:
            raise InvalidInput(f"n_max must be an integer >= 1, got {self.n_max}")

    @property
    def dim(self) -> int:
        return 2 * (self.n_max + 1) ** 2

    def index(self, e: int, n_t: int, n_fp: int) -> int:
        m = self.n_max + 1
        if e not in (0, 1) or not (0 <= n_t <= self.n_max and 0 <= n_fp <= self.n_max):
            raise InvalidInput(f"basis labels out of range: {(e, n_t, n_fp)}")
        return (e * m + n_t) * m + n_fp


@dataclass(frozen=True)
class PumpPulse:
    """One incoherent pump pulse: Gaussian rate envelope of given area and FWHM width."""

    t0_ps: float
    area: float
    width_ps: float

    def __post_init__(self):
        require_finite(self, "t0_ps", "area", "width_ps")
        if self.area < 0.0:
            raise InvalidInput(f"pump area must be >= 0, got {self.area}")
        if self.width_ps <= 0.0:
            raise InvalidInput(f"pump width must be positive, got {self.width_ps}")

    @property
    def sigma_ps(self) -> float:
        return self.width_ps * _FWHM_TO_SIGMA


@dataclass(frozen=True)
class PumpSchedule:
    """CW plus pulsed incoherent pumping of the emitter.

    Each pulse adds its Gaussian rate envelope to the CW rate.
    ``cavity_cw_rate`` is an optional incoherent pump of the target mode
    (D[a_t^dag]); it defaults to off.
    """

    cw_rate: float = 0.0
    pulse_events: tuple = field(default_factory=tuple)
    cavity_cw_rate: float = 0.0

    def __post_init__(self):
        require_finite(self, "cw_rate", "cavity_cw_rate")
        if self.cw_rate < 0.0:
            raise InvalidInput(f"CW pump rate must be >= 0, got {self.cw_rate}")
        if self.cavity_cw_rate < 0.0:
            raise InvalidInput(f"cavity pump rate must be >= 0, got {self.cavity_cw_rate}")
        object.__setattr__(
            self, "pulse_events", tuple(sorted(self.pulse_events, key=lambda p: p.t0_ps))
        )

    def rate_at_ps(self, t_ps: float) -> float:
        """Instantaneous pump rate in 1/ps."""
        rate = self.cw_rate * SECONDS_PER_PS
        for p in self.pulse_events:
            sig = p.sigma_ps
            rate += p.area * math.exp(-0.5 * ((t_ps - p.t0_ps) / sig) ** 2) / (
                sig * math.sqrt(2.0 * math.pi)
            )
        return rate
