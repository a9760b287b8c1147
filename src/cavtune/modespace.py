"""Coupled-mode theory of a two-cavity / one-emitter system.

Conventions used throughout the package:

- Complex mode frequencies are written ``w = omega - 1j*kappa`` where ``kappa``
  is the *field-amplitude* decay rate (rad/s).  The photon number of a bare
  mode therefore decays at ``2*kappa`` and the quality factor is
  ``Q = omega / (2*kappa)``.
- The weak-coupling emitter decay rate into the bare target cavity is
  ``2*g**2/kappa_t`` (adiabatic elimination under the amplitude convention).
- Mode 1 of a coupled pair is the eigenmode with the smaller real frequency;
  ties are broken by the smaller loss rate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidConfiguration, InvalidInput

C_M_PER_S = 2.99792458e8  # vacuum speed of light

TWO_PI_C_NM = 2.0 * np.pi * C_M_PER_S * 1e9  # omega = TWO_PI_C_NM / lambda_nm


def wl_to_omega(lambda_nm):
    """Convert a vacuum wavelength in nm to an angular frequency in rad/s.

    A float argument takes a float-only path: the master-equation integrator
    converts one wavelength on every right-hand-side evaluation.
    """
    if isinstance(lambda_nm, float):
        if lambda_nm <= 0.0:
            raise InvalidInput(f"wavelength must be positive, got {lambda_nm}")
        return float(TWO_PI_C_NM / lambda_nm)
    lam = np.asarray(lambda_nm, dtype=float)
    if np.any(lam <= 0.0):
        raise InvalidInput(f"wavelength must be positive, got {lambda_nm}")
    out = TWO_PI_C_NM / lam
    return float(out) if np.isscalar(lambda_nm) or out.ndim == 0 else out


def omega_to_wl(omega):
    """Convert an angular frequency in rad/s to a vacuum wavelength in nm."""
    om = np.asarray(omega, dtype=float)
    if np.any(om <= 0.0):
        raise InvalidInput(f"angular frequency must be positive, got {omega}")
    out = TWO_PI_C_NM / om
    return float(out) if np.isscalar(omega) or om.ndim == 0 else out


def detuning_wl_to_omega(delta_lambda_nm, lambda_ref_nm):
    """First-order wavelength detuning -> angular-frequency detuning (rad/s).

    A shift to longer wavelength is a shift to lower frequency:
    ``d_omega = -2*pi*c*d_lambda/lambda**2``.
    """
    if lambda_ref_nm <= 0.0:
        raise InvalidInput(f"reference wavelength must be positive, got {lambda_ref_nm}")
    return -TWO_PI_C_NM * np.asarray(delta_lambda_nm, dtype=float) / lambda_ref_nm**2


def detuning_omega_to_wl(delta_omega, lambda_ref_nm):
    """Inverse of :func:`detuning_wl_to_omega` at the same reference wavelength."""
    if lambda_ref_nm <= 0.0:
        raise InvalidInput(f"reference wavelength must be positive, got {lambda_ref_nm}")
    return -np.asarray(delta_omega, dtype=float) * lambda_ref_nm**2 / TWO_PI_C_NM


@dataclass(frozen=True)
class BareMode:
    """One uncoupled cavity mode: center frequency and amplitude loss rate (rad/s)."""

    omega: float
    kappa: float

    def __post_init__(self):
        if not (self.omega > 0.0 and np.isfinite(self.omega)):
            raise InvalidInput(f"mode frequency must be positive and finite, got {self.omega}")
        if not (self.kappa > 0.0 and np.isfinite(self.kappa)):
            raise InvalidInput(f"loss rate must be positive and finite, got {self.kappa}")
        if not self.q > 1.0:
            raise InvalidInput(f"quality factor {self.q} must exceed 1 (kappa < omega/2)")

    @property
    def q(self) -> float:
        return self.omega / (2.0 * self.kappa)

    @property
    def wavelength_nm(self) -> float:
        return omega_to_wl(self.omega)

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
        if not (self.omega0 > 0.0 and np.isfinite(self.omega0)):
            raise InvalidInput(f"emitter frequency must be positive, got {self.omega0}")
        if self.g < 0.0:
            raise InvalidInput(f"coupling rate must be >= 0, got {self.g}")
        if self.gamma_leaky < 0.0:
            raise InvalidInput(f"leaky decay rate must be >= 0, got {self.gamma_leaky}")


@dataclass(frozen=True)
class SystemParams:
    """Full parameter set of the three-oscillator model.

    ``pump`` is a :class:`cavtune.lindblad.PumpSchedule`; it may be ``None``
    for purely spectral (non-dynamical) work.
    """

    emitter: EmitterParams
    target: BareMode
    fp: BareMode
    eta: float
    pump: Optional[object] = None

    def __post_init__(self):
        if self.eta < 0.0:
            raise InvalidInput(f"cavity-cavity coupling must be >= 0, got {self.eta}")
        kmin = min(self.target.kappa, self.fp.kappa)
        if not self.emitter.g < kmin:
            raise InvalidConfiguration(
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
    phase convention (the FP component carries the complex phase).
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

    def target_amp(self, mode: int) -> complex:
        """Target-cavity amplitude of the selected mode."""
        self._check_mode(mode)
        return self.alpha if mode == 1 else self.beta

    def fp_amp(self, mode: int) -> complex:
        self._check_mode(mode)
        return -self.beta if mode == 1 else self.alpha

    def q(self, mode: int) -> float:
        self._check_mode(mode)
        if mode == 1:
            return q_factor(self.omega1, self.kappa1)
        return q_factor(self.omega2, self.kappa2)

    def wavelength_nm(self, mode: int) -> float:
        return omega_to_wl(self.omega1 if mode == 1 else self.omega2)

    @staticmethod
    def _check_mode(mode: int):
        if mode not in (1, 2):
            raise InvalidInput(f"mode index must be 1 or 2, got {mode}")


def q_factor(mode_or_omega, kappa: Optional[float] = None) -> float:
    """Quality factor Q = omega/(2*kappa) of a bare mode or an (omega, kappa) pair."""
    if isinstance(mode_or_omega, BareMode):
        omega, kappa = mode_or_omega.omega, mode_or_omega.kappa
    else:
        omega = mode_or_omega
        if kappa is None:
            raise InvalidInput("q_factor needs a BareMode or an (omega, kappa) pair")
    if kappa <= 0.0:
        raise InvalidInput(f"loss rate must be positive, got {kappa}")
    return omega / (2.0 * kappa)


_DEGENERACY_RTOL = 1e-12


def couple(target: BareMode, fp: BareMode, eta: float) -> CoupledModes:
    """Diagonalize the 2x2 cavity sub-block.

    The complex-symmetric sub-matrix ``[[w_t, eta], [eta, w_fp]]`` with
    ``w = omega - 1j*kappa`` has eigenvalues
    ``(w_t+w_fp)/2 +- sqrt(((w_t-w_fp)/2)**2 + eta**2)``.  At an exact
    eigenvalue degeneracy (exceptional point) the eigenvectors coalesce to
    ``|alpha|**2 = |beta|**2 = 1/2`` and the result is flagged degenerate.
    """
    if eta < 0.0:
        raise InvalidInput(f"cavity-cavity coupling must be >= 0, got {eta}")

    wt = target.complex_freq()
    wf = fp.complex_freq()

    if eta == 0.0:
        modes = sorted(((wt, "t"), (wf, "f")), key=lambda p: (p[0].real, -p[0].imag))
        (mu1, tag1), (mu2, _) = modes
        degenerate = mu1 == mu2
        if tag1 == "t":
            alpha, beta = 1.0 + 0.0j, 0.0 + 0.0j
        else:
            alpha, beta = 0.0 + 0.0j, -1.0 + 0.0j
        return CoupledModes(mu1.real, mu2.real, -mu1.imag, -mu2.imag, alpha, beta, degenerate)

    mean = 0.5 * (wt + wf)
    half = 0.5 * (wt - wf)
    split = np.sqrt(complex(half * half + eta * eta))
    mu_a, mu_b = mean + split, mean - split
    mu1, mu2 = sorted((mu_a, mu_b), key=lambda m: (m.real, -m.imag))

    scale = max(abs(wt), abs(wf), eta)
    degenerate = abs(mu_a - mu_b) <= _DEGENERACY_RTOL * scale

    # Eigenvector of mode 1; two algebraically equivalent forms, keep the
    # better-conditioned one.
    u = np.array([eta, mu1 - wt], dtype=complex)
    v = np.array([mu1 - wf, eta], dtype=complex)
    vec = u if np.linalg.norm(u) >= np.linalg.norm(v) else v
    norm = np.linalg.norm(vec)
    if norm == 0.0:
        raise InvalidInput("degenerate uncoupled modes with eta=0 reached coupled branch")
    vec = vec / norm
    # Phase: target component real >= 0 when possible, FP component otherwise.
    ref = vec[0] if abs(vec[0]) > 1e-14 else vec[1]
    vec = vec * (np.conj(ref) / abs(ref))

    alpha = complex(vec[0])
    beta = complex(-vec[1])
    kappa1, kappa2 = -mu1.imag, -mu2.imag
    if kappa1 <= 0.0 or kappa2 <= 0.0:
        raise InvalidInput("coupled-mode loss rates must stay positive")
    return CoupledModes(mu1.real, mu2.real, kappa1, kappa2, alpha, beta, degenerate)


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


def coupled_hamiltonian(params: SystemParams, coupled: CoupledModes) -> np.ndarray:
    """3x3 matrix in the (emitter, mode 1, mode 2) basis.

    The emitter couples to mode l with rate g times the target-cavity
    amplitude of that mode.  The couplings use the complex-orthonormal
    amplitudes ``(alpha, beta)/sqrt(alpha**2 + beta**2)``: the basis change of
    a complex-symmetric matrix is a complex-orthogonal rotation, so only that
    normalization makes this form an exact similarity of the bare-basis
    matrix.  (The stored CoupledModes amplitudes stay Euclidean-normalized
    for magnitude-based quantities.)  Raises if ``coupled`` was not derived
    from ``params`` or sits at an exceptional point, where the eigenvectors
    coalesce and no coupled-mode basis exists.
    """
    ref = couple(params.target, params.fp, params.eta)
    scale = max(abs(ref.eigenvalue(1)), abs(ref.eigenvalue(2)))
    for mode in (1, 2):
        if abs(ref.eigenvalue(mode) - coupled.eigenvalue(mode)) > 1e-9 * scale:
            raise InvalidInput("coupled modes are inconsistent with the system parameters")
    if abs(ref.alpha - coupled.alpha) > 1e-9 or abs(ref.beta - coupled.beta) > 1e-9:
        raise InvalidInput("coupled-mode amplitudes are inconsistent with the system parameters")

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


def se_rate_ratio(coupled: CoupledModes, mode_index: int, kappa_t: float) -> float:
    """SE rate into one coupled mode over the rate in the bare target cavity.

    ``|c|**2 * kappa_t / kappa_l`` with ``c`` the target-cavity amplitude of
    the selected mode.
    """
    if kappa_t <= 0.0:
        raise InvalidInput(f"target loss rate must be positive, got {kappa_t}")
    c = coupled.target_amp(mode_index)
    kappa_l = coupled.kappa1 if mode_index == 1 else coupled.kappa2
    return float(abs(c) ** 2 * kappa_t / kappa_l)


def total_decay_time(params: SystemParams, detuning: float = 0.0) -> float:
    """Emitter decay time 1/(gamma_leaky + sum_l gamma_t * ratio_l) in seconds.

    ``detuning`` (rad/s) is added to the FP mode frequency before coupling.
    """
    fp = BareMode(params.fp.omega + detuning, params.fp.kappa)
    coupled = couple(params.target, fp, params.eta)
    gamma_t = params.purcell_rate
    gamma = params.emitter.gamma_leaky + gamma_t * (
        se_rate_ratio(coupled, 1, params.target.kappa)
        + se_rate_ratio(coupled, 2, params.target.kappa)
    )
    if gamma <= 0.0:
        raise InvalidConfiguration("total decay rate is zero: no leaky or cavity channel")
    return 1.0 / gamma


@dataclass(frozen=True)
class SweepRow:
    detuning: float  # rad/s, applied to the FP mode
    lambda1_nm: float
    lambda2_nm: float
    q1: float
    q2: float
    decay_time_s: float
    degenerate: bool


def anticrossing_sweep(params: SystemParams, detuning_grid: Sequence[float]) -> list[SweepRow]:
    """Couple the cavity pair at each detuning; one row per grid point, input order."""
    grid = np.asarray(detuning_grid, dtype=float)
    if grid.size == 0:
        raise InvalidInput("detuning grid must be non-empty")
    if not np.all(np.isfinite(grid)):
        raise InvalidInput("detuning grid must be finite")
    rows = []
    for d in grid:
        fp = BareMode(params.fp.omega + d, params.fp.kappa)
        cm = couple(params.target, fp, params.eta)
        rows.append(
            SweepRow(
                detuning=float(d),
                lambda1_nm=cm.wavelength_nm(1),
                lambda2_nm=cm.wavelength_nm(2),
                q1=cm.q(1),
                q2=cm.q(2),
                decay_time_s=total_decay_time(params, float(d)),
                degenerate=cm.degenerate,
            )
        )
    return rows
