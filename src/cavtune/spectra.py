"""Time-resolved PL maps, bandpass-filtered decay curves, and burst/dip metrics.

Map synthesis is quasi-static: at each recorded time the emission of coupled
mode l is a Lorentzian line at the instantaneous mode wavelength with
linewidth set by the instantaneous loss rate, weighted by the photon flux
``2*kappa_l*n_l`` and a collection weight ``|target amplitude|**(2p)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import InvalidInput, NoFeature
from .modespace import TWO_PI_C_NM
from .tuning import SECONDS_PER_PS

if TYPE_CHECKING:
    from .lindblad import Trajectory


@dataclass(frozen=True)
class PLMap:
    """Intensity (arbitrary units) over (time x wavelength)."""

    lambda_grid_nm: np.ndarray
    t_grid_ps: np.ndarray
    intensity: np.ndarray  # shape (n_times, n_wavelengths)

    def __post_init__(self):
        lam = np.asarray(self.lambda_grid_nm, dtype=float)
        t = np.asarray(self.t_grid_ps, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if lam.size == 0 or t.size == 0:
            raise InvalidInput("map grids must be non-empty")
        if lam.size > 1 and not np.all(np.diff(lam) > 0.0):
            raise InvalidInput("wavelength grid must be strictly increasing")
        if t.size > 1 and not np.all(np.diff(t) > 0.0):
            raise InvalidInput("time grid must be strictly increasing")
        if inten.shape != (t.size, lam.size):
            raise InvalidInput(
                f"intensity shape {inten.shape} does not match grids {(t.size, lam.size)}"
            )
        if inten.min() < 0.0:
            raise InvalidInput(f"map intensities must be >= 0, min {inten.min()}")
        object.__setattr__(self, "lambda_grid_nm", lam)
        object.__setattr__(self, "t_grid_ps", t)
        object.__setattr__(self, "intensity", inten)


@dataclass(frozen=True)
class DecayCurve:
    """Bandpass-filtered time trace."""

    t_grid_ps: np.ndarray
    intensity: np.ndarray
    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        t = np.asarray(self.t_grid_ps, dtype=float)
        inten = np.asarray(self.intensity, dtype=float)
        if t.size != inten.size:
            raise InvalidInput("time grid and intensity must have equal length")
        if inten.size and inten.min() < 0.0:
            raise InvalidInput(f"curve intensities must be >= 0, min {inten.min()}")
        object.__setattr__(self, "t_grid_ps", t)
        object.__setattr__(self, "intensity", inten)


@dataclass(frozen=True)
class BurstMetrics:
    kind: str  # "burst" or "dip"
    depth: float  # I_max/I_0 for bursts, I_0/I_min for dips
    fwhm_ps: float
    extremum_time_ps: float
    baseline: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "modulation_depth": self.depth,
            "fwhm_ps": self.fwhm_ps,
            "extremum_time_ps": self.extremum_time_ps,
            "baseline_au": self.baseline,
        }


def synthesize_map(
    traj: Trajectory, lambda_grid_nm: Sequence[float], collection_exponent: float = 1.0
) -> PLMap:
    """Quasi-static emission map from a trajectory's coupled-mode records.

    ``S(lambda, t) = sum_l w_l 2 kappa_t n_l L(lambda; lambda_l, dlambda_l)``
    with ``L`` an area-normalized Lorentzian of linewidth set by the mode's
    instantaneous loss rate and ``w_l`` the detected-channel weight
    ``(|target amplitude|^2)**p``.  The flux factor uses the *bare target*
    loss rate: detection looks at the target cavity, so mode l contributes
    photons through the target mirror at ``2*kappa_t*|alpha_l|^2*n_l``.
    Weighting the flux with the eigenmode loss rate instead double-counts the
    FP-channel loss near resonance and washes out the burst/dip contrast.
    Fluxes use rad/ps units so values are O(1).
    """
    lam = np.asarray(lambda_grid_nm, dtype=float)
    if lam.size == 0:
        raise InvalidInput("wavelength grid must be non-empty")
    if collection_exponent < 0.0:
        raise InvalidInput(f"collection exponent must be >= 0, got {collection_exponent}")

    p = collection_exponent
    out = np.zeros((traj.t_ps.size, lam.size))
    # tiny negative populations from integrator tolerance are clipped
    pops = {1: np.clip(traj.n1, 0.0, None), 2: np.clip(traj.n2, 0.0, None)}
    centers = {1: traj.lambda1_nm, 2: traj.lambda2_nm}
    kappas = {1: traj.kappa1, 2: traj.kappa2}
    weights = {1: traj.w1**p, 2: traj.w2**p}
    for mode in (1, 2):
        lam_l = centers[mode][:, None]
        # spectral FWHM in angular frequency is 2*kappa_l; convert at the line position
        gamma_nm = 2.0 * kappas[mode][:, None] * lam_l**2 / TWO_PI_C_NM
        lorentz = (gamma_nm / (2.0 * np.pi)) / ((lam[None, :] - lam_l) ** 2 + (gamma_nm / 2.0) ** 2)
        flux = weights[mode] * 2.0 * traj.kappa_t * SECONDS_PER_PS * pops[mode]
        out += flux[:, None] * lorentz
    return PLMap(lam, traj.t_ps, out)


def apply_filter(pl_map: PLMap, lambda_c_nm: float, fwhm_nm: float) -> DecayCurve:
    """Integrate the map against a unit-peak Lorentzian bandpass filter."""
    lam = pl_map.lambda_grid_nm
    if not (lam[0] <= lambda_c_nm <= lam[-1]):
        raise InvalidInput(
            f"filter center {lambda_c_nm} nm outside map grid [{lam[0]}, {lam[-1]}] nm"
        )
    if fwhm_nm <= 0.0:
        raise InvalidInput(f"filter FWHM must be positive, got {fwhm_nm}")
    half = fwhm_nm / 2.0
    profile = half**2 / ((lam - lambda_c_nm) ** 2 + half**2)
    intensity = np.trapezoid(pl_map.intensity * profile[None, :], lam, axis=1)
    return DecayCurve(pl_map.t_grid_ps, intensity, lambda_c_nm, fwhm_nm)


def burst_metrics(curve: DecayCurve, baseline_window_ps: tuple) -> BurstMetrics:
    """Detect the post-window extremum and quantify it against the baseline.

    The baseline is the mean over ``[t_a, t_b)``; the extremum search covers
    ``t >= t_b``.  Raises :class:`NoFeature` when the curve is flat against
    the baseline scatter, and when the baseline is 0, where the depth is undefined.
    """
    t = curve.t_grid_ps
    y = curve.intensity
    t_a, t_b = baseline_window_ps
    if not t_a < t_b:
        raise InvalidInput(f"baseline window must satisfy t_a < t_b, got {baseline_window_ps}")
    base_mask = (t >= t_a) & (t < t_b)
    if base_mask.sum() < 3:
        raise InvalidInput("baseline window must contain at least 3 samples")
    base = y[base_mask]
    i0 = float(base.mean())
    noise = float(base.std())

    post = np.nonzero(t >= t_b)[0]
    if post.size == 0:
        raise InvalidInput("no samples after the baseline window")
    y_post = y[post]
    i_hi = post[int(np.argmax(y_post))]
    i_lo = post[int(np.argmin(y_post))]
    rise = y[i_hi] - i0
    fall = i0 - y[i_lo]
    kind = "burst" if rise >= fall else "dip"
    i_ext = i_hi if kind == "burst" else i_lo
    ext = float(y[i_ext])

    threshold = max(3.0 * noise, 1e-9 * max(abs(i0), 1e-300))
    if abs(ext - i0) <= threshold:
        raise NoFeature(
            f"no feature: extremum deviates {abs(ext - i0):.3e} from baseline "
            f"(threshold {threshold:.3e})"
        )

    if i0 == 0.0:
        raise NoFeature("depth undefined on a zero baseline")
    if kind == "dip" and ext <= 0.0:
        depth = float("inf")
    else:
        depth = ext / i0 if kind == "burst" else i0 / ext
    half_level = 0.5 * (i0 + ext)
    t_left = _half_crossing(t, y, i_ext, half_level, direction=-1)
    t_right = _half_crossing(t, y, i_ext, half_level, direction=+1)
    return BurstMetrics(
        kind=kind,
        depth=depth,
        fwhm_ps=t_right - t_left,
        extremum_time_ps=float(t[i_ext]),
        baseline=i0,
    )


def _half_crossing(t, y, i_ext, level, direction):
    """Linear-interpolated time where y crosses ``level`` walking from the extremum."""
    i = i_ext
    while 0 <= i + direction < t.size:
        j = i + direction
        if (y[i] - level) * (y[j] - level) <= 0.0 and y[i] != y[j]:
            frac = (level - y[i]) / (y[j] - y[i])
            return float(t[i] + frac * (t[j] - t[i]))
        i = j
    raise NoFeature(
        f"curve does not re-cross the half level {level:.3e} on the "
        f"{'right' if direction > 0 else 'left'} side of the extremum"
    )


def irf_convolve(curve: DecayCurve, sigma_ps: float) -> DecayCurve:
    """Convolve with a discrete Gaussian instrument response; sigma 0 is identity."""
    if sigma_ps < 0.0:
        raise InvalidInput(f"IRF sigma must be >= 0, got {sigma_ps}")
    if sigma_ps == 0.0:
        return DecayCurve(curve.t_grid_ps, curve.intensity.copy(), curve.center_nm, curve.fwhm_nm)
    t = curve.t_grid_ps
    if t.size < 2:
        raise InvalidInput("curve too short for convolution")
    dt = np.diff(t)
    if np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
        raise InvalidInput("IRF convolution requires a uniform time grid")
    step = float(dt[0])
    half_n = int(np.ceil(5.0 * sigma_ps / step))
    k = np.arange(-half_n, half_n + 1) * step
    kernel = np.exp(-0.5 * (k / sigma_ps) ** 2)
    kernel /= kernel.sum()
    # the full convolution at the curve's times; mode "same" would return a
    # kernel-length array when the kernel is the longer one
    smeared = np.convolve(curve.intensity, kernel, mode="full")[half_n : half_n + t.size]
    return DecayCurve(t, smeared, curve.center_nm, curve.fwhm_nm)
