"""Time- and power-dependent FP-cavity wavelength shift models.

Sign discipline: thermo-optic heating shifts the FP resonance to longer
wavelength (positive nm), photoexcited free carriers shift it to shorter
wavelength (negative nm) with an exponential recovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidInput
from .modespace import BareMode, wl_to_omega


@dataclass(frozen=True)
class ThermoOpticModel:
    """Linear red shift per unit CW heating power."""

    coeff_nm_per_mw: float
    power_mw: float

    def __post_init__(self):
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

    Blue-shifts the FP mode by ``delta_lambda_max_nm`` at ``t0_ps`` (after an
    optional rise of time constant ``tau_rise_ps``) and recovers exponentially
    with time constant ``tau_fc_ps``.
    """

    t0_ps: float
    delta_lambda_max_nm: float
    tau_fc_ps: float
    tau_rise_ps: float = 0.0

    def __post_init__(self):
        if self.delta_lambda_max_nm < 0.0:
            raise InvalidInput(f"peak blue shift must be >= 0, got {self.delta_lambda_max_nm}")
        if self.tau_fc_ps <= 0.0:
            raise InvalidInput(f"free-carrier lifetime must be positive, got {self.tau_fc_ps}")
        if self.tau_rise_ps < 0.0:
            raise InvalidInput(f"rise time must be >= 0, got {self.tau_rise_ps}")


@dataclass(frozen=True)
class TuningProfile:
    """Static offset plus thermo-optic and free-carrier contributions.

    ``static_detuning_nm`` is lambda_FP - lambda_t at baseline.  Pulses are
    kept sorted by arrival time; overlapping pulses add.
    """

    static_detuning_nm: float = 0.0
    thermo: Optional[ThermoOpticModel] = None
    pulses: tuple = field(default_factory=tuple)

    def __post_init__(self):
        ordered = tuple(sorted(self.pulses, key=lambda p: p.t0_ps))
        object.__setattr__(self, "pulses", ordered)


def fp_shift_at(profile: TuningProfile, t_ps):
    """FP wavelength shift (nm, relative to lambda_t) at time(s) ``t_ps``.

    Pulses with arrival times in the future of ``t_ps`` contribute nothing.
    """
    t = np.asarray(t_ps, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InvalidInput("evaluation time must be finite")
    if t.ndim == 0:
        return fp_shift_scalar(profile, float(t))
    shift = np.full(t.shape, profile.static_detuning_nm, dtype=float)
    if profile.thermo is not None:
        shift += thermo_shift(profile.thermo)
    for pulse in profile.pulses:
        dt = t - pulse.t0_ps
        env = np.exp(-np.clip(dt, 0.0, None) / pulse.tau_fc_ps)
        if pulse.tau_rise_ps > 0.0:
            env = env * (1.0 - np.exp(-np.clip(dt, 0.0, None) / pulse.tau_rise_ps))
        shift -= np.where(dt >= 0.0, pulse.delta_lambda_max_nm * env, 0.0)
    return shift


def fp_shift_scalar(profile: TuningProfile, t_ps: float) -> float:
    """:func:`fp_shift_at` at one float time, in float arithmetic and unchecked.

    The master-equation integrator calls this on every right-hand-side
    evaluation, where the array path would cost more than the step it feeds;
    :func:`fp_shift_at` answers a scalar time through it.
    """
    shift = float(profile.static_detuning_nm)
    if profile.thermo is not None:
        shift += thermo_shift(profile.thermo)
    for pulse in profile.pulses:
        dt = t_ps - pulse.t0_ps
        if dt >= 0.0:
            env = math.exp(-dt / pulse.tau_fc_ps)
            if pulse.tau_rise_ps > 0.0:
                env *= 1.0 - math.exp(-dt / pulse.tau_rise_ps)
            shift -= pulse.delta_lambda_max_nm * env
    return shift


def sample_profile(
    profile: TuningProfile,
    t_grid_ps: Sequence[float],
    lambda_t_nm: float,
    kappa_fp: float,
    kappa_scale: float = 1.0,
) -> list[BareMode]:
    """FP-mode snapshots over a strictly increasing time grid.

    The FP frequency tracks ``lambda_t + shift(t)``; the loss rate is held
    constant (``kappa_scale`` is a hook for a uniform loss multiplier,
    default off at 1.0).
    """
    t = np.asarray(t_grid_ps, dtype=float)
    if t.size == 0:
        raise InvalidInput("time grid must be non-empty")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise InvalidInput("time grid must be strictly increasing")
    if kappa_scale <= 0.0:
        raise InvalidInput(f"loss multiplier must be positive, got {kappa_scale}")
    shifts = np.atleast_1d(fp_shift_at(profile, t))
    kappa = kappa_fp * kappa_scale
    return [BareMode(wl_to_omega(lambda_t_nm + s), kappa) for s in shifts]
