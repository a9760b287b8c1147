"""Time-dependent drives: free-carrier shifts of the FP cavity and emitter pumping.

Where the FP mode sits before any pulse is ``SystemParams.fp``.  A run's FP drive is
a plain tuple of :class:`FreeCarrierPulse`: free carriers shift the FP resonance from
there to shorter wavelength (negative nm) with an exponential recovery; pulses add.

The emitter's pump schedule, the model's one incoherent pump, and the
Fock-space truncation that a master-equation run takes are plain dataclasses
kept here, beside the pulses, so that configuration and the scipy-free
commands never import :mod:`cavtune.lindblad`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, require, require_finite

SECONDS_PER_PS = 1e-12  # multiplies rad/s rates into rad/ps
_FWHM_TO_SIGMA = 1.0 / (2.0 * np.sqrt(2.0 * np.log(2.0)))


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
        require(self, "delta_lambda_max_nm", self.delta_lambda_max_nm >= 0.0, ">= 0")
        require(self, "tau_fc_ps", self.tau_fc_ps > 0.0, "positive")


def fp_shift_at(pulses, t_ps):
    """The FP wavelength shift (nm) of ``pulses`` at time(s) ``t_ps``, from ``SystemParams.fp``.

    Pulses with arrival times in the future of ``t_ps`` contribute nothing.
    An array of times is answered by :func:`fp_shift_scalar` at each time, so
    the model is written once and every caller sees the same bits.
    """
    t = np.asarray(t_ps, dtype=float)
    if not np.all(np.isfinite(t)):
        raise InvalidInput("evaluation time must be finite")
    if t.ndim == 0:
        return fp_shift_scalar(pulses, float(t))
    shifts = [fp_shift_scalar(pulses, tk) for tk in t.ravel().tolist()]
    return np.array(shifts, dtype=float).reshape(t.shape)


def fp_shift_scalar(pulses, t_ps: float) -> float:
    """The shift model at one float time, in float arithmetic and unchecked.

    The master-equation integrator calls this on every right-hand-side
    evaluation, where array arithmetic would cost more than the step it feeds.
    """
    shift = 0.0
    for pulse in pulses:
        dt = t_ps - pulse.t0_ps
        if dt >= 0.0:
            shift -= pulse.delta_lambda_max_nm * math.exp(-dt / pulse.tau_fc_ps)
    return shift


@dataclass(frozen=True)
class HilbertSpec:
    """Truncation of the two bosonic modes: up to ``n_max`` photons per mode."""

    n_max: int = 2

    def __post_init__(self):
        require(self, "n_max", isinstance(self.n_max, int) and self.n_max >= 1, "an integer >= 1")

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
        require(self, "area", self.area >= 0.0, ">= 0")
        require(self, "width_ps", self.width_ps > 0.0, "positive")

    @property
    def sigma_ps(self) -> float:
        return self.width_ps * _FWHM_TO_SIGMA


@dataclass(frozen=True)
class PumpSchedule:
    """CW plus pulsed incoherent pumping of the emitter, the model's one pump (D[sigma+]).

    Each pulse adds its Gaussian rate envelope to the CW rate.
    """

    cw_rate: float = 0.0
    pulse_events: tuple = field(default_factory=tuple)

    def __post_init__(self):
        require_finite(self, "cw_rate")
        require(self, "cw_rate", self.cw_rate >= 0.0, ">= 0")
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
