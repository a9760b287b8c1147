"""Coupled-mode theory of a two-cavity / one-emitter system.

Conventions used throughout the package:

- Complex mode frequencies are written ``w = omega - 1j*kappa`` where ``kappa``
  is the *field-amplitude* decay rate (rad/s).  The photon number of a bare
  mode therefore decays at ``2*kappa`` and the quality factor is
  ``Q = omega / (2*kappa)``.
- The weak-coupling emitter decay rate into the bare target cavity is
  ``2*g**2/kappa_t`` (adiabatic elimination under the amplitude convention).
- The cavity pair is evaluated by one array-valued kernel, :func:`pair_modes`;
  :func:`couple`, the sweep, the master-equation trajectory and the fit all
  go through it.  Mode 1 is the eigenmode with the smaller real frequency;
  ties are broken by the smaller loss rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput, require, require_finite
from .tuning import PumpSchedule

C_M_PER_S = 2.99792458e8  # vacuum speed of light

TWO_PI_C_NM = 2.0 * np.pi * C_M_PER_S * 1e9  # omega = TWO_PI_C_NM / lambda_nm


def wl_to_omega(lambda_nm):
    """Convert a vacuum wavelength in nm to an angular frequency in rad/s.

    A float argument takes a float-only path: the master-equation integrator
    converts one wavelength on every right-hand-side evaluation.
    """
    if isinstance(lambda_nm, float):
        if not 0.0 < lambda_nm < np.inf:  # false for NaN too
            raise InvalidInput(f"wavelength must be positive and finite, got {lambda_nm}")
        return float(TWO_PI_C_NM / lambda_nm)
    lam = np.asarray(lambda_nm, dtype=float)
    if not np.all((0.0 < lam) & (lam < np.inf)):
        raise InvalidInput(f"wavelength must be positive and finite, got {lambda_nm}")
    out = TWO_PI_C_NM / lam
    return float(out) if np.isscalar(lambda_nm) or out.ndim == 0 else out


def omega_to_wl(omega):
    """Convert an angular frequency in rad/s to a vacuum wavelength in nm."""
    om = np.asarray(omega, dtype=float)
    if not np.all((0.0 < om) & (om < np.inf)):
        raise InvalidInput(f"angular frequency must be positive and finite, got {omega}")
    out = TWO_PI_C_NM / om
    return float(out) if np.isscalar(omega) or om.ndim == 0 else out


def detuning_wl_to_omega(delta_lambda_nm, lambda_ref_nm):
    """First-order wavelength detuning -> angular-frequency detuning (rad/s).

    A shift to longer wavelength is a shift to lower frequency:
    ``d_omega = -2*pi*c*d_lambda/lambda**2``.
    """
    if not 0.0 < lambda_ref_nm < np.inf:
        raise InvalidInput(f"reference wavelength must be positive and finite, got {lambda_ref_nm}")
    delta = np.asarray(delta_lambda_nm, dtype=float)
    if not np.all(np.isfinite(delta)):
        raise InvalidInput(f"wavelength detuning must be finite, got {delta_lambda_nm}")
    return -TWO_PI_C_NM * delta / lambda_ref_nm**2


@dataclass(frozen=True)
class BareMode:
    """One uncoupled cavity mode: center frequency and amplitude loss rate (rad/s).

    ``omega`` may be an array (one FP frequency per detuning) for :func:`couple`.
    """

    omega: float
    kappa: float

    def __post_init__(self):
        require(self, "omega", np.all((0.0 < self.omega) & (self.omega < np.inf)),
                "positive and finite")
        require(self, "kappa", 0.0 < self.kappa < np.inf, "positive and finite")
        require(self, "kappa", np.all(self.q > 1.0), "below omega/2 (quality factor above 1)")

    @property
    def q(self) -> float:
        return self.omega / (2.0 * self.kappa)

    def complex_freq(self) -> complex:
        return self.omega - 1j * self.kappa


@dataclass(frozen=True)
class EmitterParams:
    """Two-level emitter coupled to the target cavity.

    ``g`` is the emitter/target coupling rate (rad/s); ``gamma_leaky`` is the
    background decay rate into leaky modes (1/s).
    """

    omega0: float
    g: float
    gamma_leaky: float

    def __post_init__(self):
        require(self, "omega0", 0.0 < self.omega0 < np.inf, "positive and finite")
        require_finite(self, "g", "gamma_leaky")
        require(self, "g", self.g >= 0.0, ">= 0")
        require(self, "gamma_leaky", self.gamma_leaky >= 0.0, ">= 0")


@dataclass(frozen=True)
class SystemParams:
    """Full parameter set of the three-oscillator model; ``PumpSchedule()`` pumps nothing."""

    emitter: EmitterParams
    target: BareMode
    fp: BareMode
    eta: float
    pump: PumpSchedule = PumpSchedule()

    def __post_init__(self):
        require_finite(self, "eta")
        require(self, "eta", self.eta >= 0.0, ">= 0")
        if not isinstance(self.pump, PumpSchedule):
            raise InvalidInput(f"pump must be a PumpSchedule, got {self.pump!r}")
        kmin = min(self.target.kappa, self.fp.kappa)
        if not self.emitter.g < kmin:
            raise InvalidInput(
                f"weak-coupling guard violated: g={self.emitter.g} must be below "
                f"min(kappa_t, kappa_fp)={kmin}"
            )

    @property
    def purcell_rate(self) -> float:
        """Bare-cavity weak-coupling decay rate 2*g^2/kappa_t (1/s)."""
        return 2.0 * self.emitter.g**2 / self.target.kappa


@dataclass(frozen=True)
class CoupledModes:
    """Eigenmodes of the cavity pair.

    ``alpha`` is the target-cavity amplitude of mode 1 and ``beta`` the
    target-cavity amplitude of mode 2; the FP amplitudes are ``-beta`` and
    ``alpha`` respectively, with Euclidean normalization
    ``|alpha|**2 + |beta|**2 = 1``.  ``alpha`` is made real nonnegative by the
    phase convention (the FP component carries the complex phase); where it
    vanishes (``eta == 0`` with the FP mode as mode 1) ``beta`` is -1.  Every
    field is an array when :func:`couple` was given an array FP frequency.
    """

    omega1: float
    omega2: float
    kappa1: float
    kappa2: float
    alpha: complex
    beta: complex
    degenerate: bool = False

    def eigenvalue(self, mode: int) -> complex:
        self._check_mode(mode)
        if mode == 1:
            return self.omega1 - 1j * self.kappa1
        return self.omega2 - 1j * self.kappa2

    def q(self, mode: int) -> float:
        self._check_mode(mode)
        if mode == 1:
            return self.omega1 / (2.0 * self.kappa1)
        return self.omega2 / (2.0 * self.kappa2)

    def wavelength_nm(self, mode: int) -> float:
        return omega_to_wl(self.omega1 if mode == 1 else self.omega2)

    @staticmethod
    def _check_mode(mode: int):
        if mode not in (1, 2):
            raise InvalidInput(f"mode index must be 1 or 2, got {mode}")


_DEGENERACY_RTOL = 1e-12


def pair_modes(wt, wf, eta: float):
    """Eigenvalues and target weights of the cavity pair.

    The complex-symmetric pair ``[[wt, eta], [eta, wf]]`` (``w = omega -
    1j*kappa``; ``wt`` and ``wf`` broadcast, ``eta`` is a float) has the
    eigenvalues ``mu_a, mu_b = mean +- split`` with ``mean = (wt+wf)/2`` and
    ``split`` the principal square root of ``((wt-wf)/2)**2 + eta**2``.  Its
    real part is nonnegative, so ``Re mu_a >= Re mu_b``.  At ``eta == 0`` the
    eigenvalues are the bare ones, exactly, in the same order.

    ``w_a = eta**2/(eta**2 + |mu_a - wt|**2)`` is the squared target-cavity
    component of the Euclidean-normalized ``mu_a`` eigenvector; that of
    ``mu_b`` is ``1 - w_a``.  It takes ``mu_a - wt`` as ``split - half``:
    forming ``mean + split - wt`` at the 1e15 rad/s scale of the optical
    frequencies would cancel most of its digits near the exceptional point.

    The fit evaluates this on every residual evaluation, and its seeded fits
    are pinned bit for bit: reordering these floating-point operations moves
    the fit's path.  The degeneracy flag, which the fit never reads, is left
    to :func:`couple`.
    """
    if eta == 0.0:
        # the principal root's order: higher real part first, ties to the lower loss
        t_first = (wt.real > wf.real) | ((wt.real == wf.real) & (wt.imag > wf.imag))
        mu_a, mu_b = np.where(t_first, wt, wf), np.where(t_first, wf, wt)
        w_a = np.where(t_first, 1.0, 0.0)
    else:
        mean = 0.5 * (wt + wf)
        half = 0.5 * (wt - wf)
        split = np.sqrt(half * half + eta * eta + 0j)
        mu_a = mean + split
        mu_b = mean - split
        w_a = eta**2 / (eta**2 + np.abs(split - half) ** 2)
    return mu_a, mu_b, w_a


def decay_rate(g: float, gamma_leaky: float, w_a, kappa_a, kappa_b):
    """Emitter decay rate ``gamma_leaky + 2*g**2*sum_l w_l/kappa_l`` (1/s) over both modes.

    ``w_a`` is the target weight of the mode with loss rate ``kappa_a``; the
    other mode carries ``1 - w_a``.
    """
    return gamma_leaky + 2.0 * g**2 * (w_a / kappa_a + (1.0 - w_a) / kappa_b)


def couple(target: BareMode, fp: BareMode, eta: float) -> CoupledModes:
    """Diagonalize the 2x2 cavity sub-block with :func:`pair_modes`.

    ``fp.omega`` may be an array; the result's fields then are arrays too.
    Mode 1 is ``mu_b``, the lower real frequency, except where the real parts
    tie and ``mu_a`` has the lower loss.  The target amplitudes follow from
    the weights: ``alpha = sqrt(w_1)``, and ``|beta| = sqrt(w_2)`` with the
    phase of the mode-1 eigenvector ``(eta, mu_1 - w_t)``, whose FP component
    is ``-beta``.  Eigenvalues that coincide to ``_DEGENERACY_RTOL`` of the
    pair's scale (an exceptional point, where the eigenvectors coalesce at
    weight 1/2) are flagged degenerate.
    """
    if eta < 0.0:
        raise InvalidInput(f"cavity-cavity coupling must be >= 0, got {eta}")

    wt, wf = target.complex_freq(), fp.complex_freq()
    mu_a, mu_b, w_a = pair_modes(wt, wf, eta)
    scale = np.maximum(np.maximum(abs(wt), np.abs(wf)), eta)
    degenerate = np.abs(mu_a - mu_b) <= _DEGENERACY_RTOL * scale
    a_first = (mu_a.real == mu_b.real) & (mu_a.imag > mu_b.imag)
    mu1, mu2 = np.where(a_first, mu_a, mu_b), np.where(a_first, mu_b, mu_a)
    w1, w2 = np.where(a_first, w_a, 1.0 - w_a), np.where(a_first, 1.0 - w_a, w_a)
    kappa1, kappa2 = -mu1.imag, -mu2.imag
    if np.any(kappa1 <= 0.0) or np.any(kappa2 <= 0.0):
        raise InvalidInput("coupled-mode loss rates must stay positive")

    alpha = np.sqrt(w1) + 0j
    if eta == 0.0:
        beta = -np.sqrt(w2) + 0j
    else:
        # (mu1 - wt)(mu2 - wt) = -eta**2: read the phase of mu1 - wt off the
        # larger of the two factors, whose rounding error is the smaller
        d1, d2 = mu1 - wt, np.conj(wt - mu2)
        d = np.where(np.abs(d1) >= np.abs(d2), d1, d2)
        beta = -np.sqrt(w2) * (d / np.abs(d))
    fields = (mu1.real, mu2.real, kappa1, kappa2, alpha, beta, degenerate)
    if np.ndim(fp.omega) == 0:  # scalar callers get Python scalars
        fields = tuple(np.asarray(f).item() for f in fields)
    return CoupledModes(*fields)


def hamiltonian_bare_basis(params: SystemParams) -> np.ndarray:
    """3x3 complex-symmetric matrix in the (emitter, target, FP) basis."""
    wt = params.target.complex_freq()
    wf = params.fp.complex_freq()
    g = params.emitter.g
    return np.array(
        [
            [params.emitter.omega0, g, 0.0],
            [g, wt, params.eta],
            [0.0, params.eta, wf],
        ],
        dtype=complex,
    )


def coupled_hamiltonian(params: SystemParams) -> np.ndarray:
    """3x3 matrix in the (emitter, mode 1, mode 2) basis of ``couple`` on ``params``.

    The emitter couples to mode l with rate g times the target-cavity
    amplitude of that mode.  The couplings use the complex-orthonormal
    amplitudes ``(alpha, beta)/sqrt(alpha**2 + beta**2)``: the basis change of
    a complex-symmetric matrix is a complex-orthogonal rotation, so only that
    normalization makes this form an exact similarity of the bare-basis
    matrix.  (The stored CoupledModes amplitudes stay Euclidean-normalized
    for magnitude-based quantities.)  Raises at an exceptional point, where
    the eigenvectors coalesce and no coupled-mode basis exists.
    """
    coupled = couple(params.target, params.fp, params.eta)
    ortho_norm_sq = coupled.alpha**2 + coupled.beta**2
    if coupled.degenerate or abs(ortho_norm_sq) < 1e-9:
        raise InvalidInput(
            "coupled modes are degenerate (exceptional point): the pair is not "
            "diagonalizable and the coupled-basis form does not exist"
        )
    s = np.sqrt(ortho_norm_sq)
    g = params.emitter.g
    g1 = coupled.alpha / s * g
    g2 = coupled.beta / s * g
    return np.array(
        [
            [params.emitter.omega0, g1, g2],
            [g1, coupled.eigenvalue(1), 0.0],
            [g2, 0.0, coupled.eigenvalue(2)],
        ],
        dtype=complex,
    )


def _decay_time(params: SystemParams, coupled: CoupledModes):
    """Emitter decay time 1/(gamma_leaky + 2*g**2*sum_l |c_l|**2/kappa_l) in seconds."""
    e = params.emitter
    gamma = decay_rate(e.g, e.gamma_leaky, abs(coupled.alpha) ** 2, coupled.kappa1, coupled.kappa2)
    if np.any(gamma <= 0.0):
        raise InvalidInput("total decay rate is zero: no leaky or cavity channel")
    return 1.0 / gamma


@dataclass(frozen=True)
class Sweep:
    """The coupled pair over a detuning grid: one array per column, in grid order."""

    lambda1_nm: np.ndarray
    lambda2_nm: np.ndarray
    q1: np.ndarray
    q2: np.ndarray
    decay_time_s: np.ndarray


def anticrossing_sweep(params: SystemParams, omega_fp: Sequence[float]) -> Sweep:
    """Couple the target to the FP mode of ``params`` moved to each ``omega_fp`` (rad/s)."""
    omega = np.asarray(omega_fp, dtype=float)
    if omega.size == 0:
        raise InvalidInput("FP frequency grid must be non-empty")
    cm = couple(params.target, BareMode(omega, params.fp.kappa), params.eta)
    return Sweep(cm.wavelength_nm(1), cm.wavelength_nm(2), cm.q(1), cm.q(2),
                 _decay_time(params, cm))
