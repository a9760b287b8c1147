"""Open-system dynamics of emitter x target-mode x FP-mode in a truncated Fock space.

The master equation is

    drho/dt = -i[H, rho] + 2*kappa_t D[a_t] + 2*kappa_fp D[a_fp]
              + gamma_leaky D[sigma-] + P(t) D[sigma+]          (rates 1/s)

with H the Hermitian part of the three-oscillator model and
``D[L]rho = L rho L^dag - 1/2 {L^dag L, rho}``.  The cavity Lindblad rates are
``2*kappa`` so that field amplitudes decay at ``kappa``, matching the
complex-frequency convention of :mod:`cavtune.modespace`; ``P(t)`` is ``params.pump``.

Integration is carried out in a frame rotating at the target-cavity frequency
(numerics only; observables are frame-invariant) and in picosecond time units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.integrate import DenseOutput, OdeSolver
from scipy.integrate import solve_ivp  # a module-level name: bench/tracer.py wraps it
from scipy.linalg.lapack import zgetrf, zgetrs

from .config import SOLVER_ATOL, SOLVER_RTOL
from .errors import InvalidInput, NumericalFailure
from .modespace import (
    BareMode,
    SystemParams,
    couple,
    omega_to_wl,
    wl_to_omega,
)
from . import tuning
from .tuning import SECONDS_PER_PS as _PS, fp_shift_at, fp_shift_scalar

# steady_state fails above this residual ||L rho|| / ||rho|| (rad/ps)
STEADY_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True)
class OperatorSet:
    """Dense operators over the (emitter, target, FP) product basis."""

    dim: int
    sigma_minus: np.ndarray
    sigma_plus: np.ndarray
    n_e: np.ndarray
    a_t: np.ndarray
    a_fp: np.ndarray
    n_t: np.ndarray
    n_fp: np.ndarray


def build_space(spec: tuning.HilbertSpec) -> OperatorSet:
    """Truncated-boson and emitter operators for the given Hilbert space."""
    m = spec.n_max + 1
    a = np.zeros((m, m))
    for n in range(1, m):
        a[n - 1, n] = np.sqrt(n)
    cavities = np.eye(m * m)  # the identity on (target, FP)
    sigma_minus = np.kron(np.array([[0.0, 1.0], [0.0, 0.0]]), cavities)
    a_t = np.kron(np.eye(2), np.kron(a, np.eye(m)))
    a_fp = np.kron(np.eye(2 * m), a)
    return OperatorSet(
        dim=2 * m * m,
        sigma_minus=sigma_minus,
        sigma_plus=sigma_minus.T.copy(),
        n_e=np.kron(np.diag([0.0, 1.0]), cavities),
        a_t=a_t,
        a_fp=a_fp,
        n_t=a_t.T @ a_t,
        n_fp=a_fp.T @ a_fp,
    )


def fock_state(spec: tuning.HilbertSpec, e: int, n_t: int, n_fp: int) -> np.ndarray:
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    k = spec.index(e, n_t, n_fp)
    rho[k, k] = 1.0
    return rho


def vacuum_state(spec: tuning.HilbertSpec) -> np.ndarray:
    return fock_state(spec, 0, 0, 0)


def emitter_excited_state(spec: tuning.HilbertSpec) -> np.ndarray:
    return fock_state(spec, 1, 0, 0)


def _spec_from_dim(dim: int) -> tuning.HilbertSpec:
    m = round(np.sqrt(dim / 2.0))
    if 2 * m * m != dim or m < 2:
        raise InvalidInput(f"state dimension {dim} is not 2*(n_max+1)**2 with n_max >= 1")
    return tuning.HilbertSpec(m - 1)


def _frame_omega(params: SystemParams) -> float:
    """The frequency (rad/s) of the frame that the model is written in: the target's."""
    return params.target.omega


def _model(params: SystemParams, spec: tuning.HilbertSpec):
    """Operators, the Hamiltonian without its FP term, and the fixed channels, in rad/ps.

    Returns ``(ops, h0, channels)``.  Each channel ``(rate, L)`` adds
    ``rate * D[L] rho``; every operator is real.  The FP term is
    ``delta_fp * n_fp``, with ``delta_fp`` the FP frequency in the frame.
    """
    ref = _frame_omega(params)
    ops = build_space(spec)
    em = params.emitter
    g = em.g * _PS
    eta = params.eta * _PS
    coupling = g * (ops.a_t @ ops.sigma_plus + ops.a_t.T @ ops.sigma_minus) + eta * (
        ops.a_t.T @ ops.a_fp + ops.a_fp.T @ ops.a_t
    )
    h0 = (em.omega0 - ref) * _PS * ops.n_e + (params.target.omega - ref) * _PS * ops.n_t + coupling

    channels = [
        (2.0 * params.target.kappa * _PS, ops.a_t),
        (2.0 * params.fp.kappa * _PS, ops.a_fp),
    ]
    if em.gamma_leaky > 0.0:
        channels.append((em.gamma_leaky * _PS, ops.sigma_minus))
    return ops, h0, channels


def _fixed_delta(params: SystemParams) -> float:
    """The FP term ``delta_fp`` (rad/ps) of the FP mode ``params.fp``."""
    return (params.fp.omega - _frame_omega(params)) * _PS


class _Generator:
    """The master equation as ``L(t) = l0 + delta_fp(t) d_fp + (p(t) - p_cw) l_pump``
    (rad/ps) on the row-major vec(rho), where ``vec(A rho B) = (A kron B^T) vec(rho)``.

    ``terms`` holds ``l0`` as pairs ``(A, B)`` of d x d matrices, one per
    product ``A rho B``: ``-iH - 1/2 sum rate L^dag L`` on the left (H
    without its FP term; the sum over every fixed channel and the CW emitter
    pump ``p_cw``), its adjoint on the right, and ``(rate L, L^T)`` per
    channel.  ``pump_terms`` holds D[sigma+] at unit rate, which costs a
    product only while a pulse adds to the CW rate; ``d_fp`` is the diagonal
    of ``-i(n_fp kron 1 - 1 kron n_fp)``.
    """

    def __init__(self, params, spec):
        ops, h0, channels = _model(params, spec)
        self.p_cw = params.pump.cw_rate * _PS
        channels = channels + [(self.p_cw, ops.sigma_plus)]
        decay = sum(0.5 * rate * (op.T @ op) for rate, op in channels)
        self.dim, eye = ops.dim, np.eye(ops.dim)
        self.terms = [(-1j * h0 - decay, eye), (eye, 1j * h0 - decay)]
        self.terms += [(rate * op, op.T) for rate, op in channels]
        sp = ops.sigma_plus
        self.pump_terms = [(-0.5 * sp.T @ sp, eye), (eye, -0.5 * sp.T @ sp), (sp, sp.T)]
        n_fp = np.diag(ops.n_fp)
        self.d_fp = -1j * (n_fp[:, None] - n_fp[None, :]).ravel()

    def reach(self, support, pumped: bool) -> np.ndarray:
        """Sorted indices of vec(rho) that ``L`` populates from the nonzero entries of
        ``support`` (d x d, or its vec), with ``l_pump`` if ``pumped``.

        The d x d pattern grows as ``P <- P or |A| P |B|`` over the terms until
        it stops changing, so ``L`` maps vectors on the result to vectors on it.
        Every channel conserves ``N_bra - N_ket``, so from a state of one such
        excitation block (the vacuum, the excited emitter and the steady state
        are all in block 0) the result lies in that block.
        """
        terms = self.terms + self.pump_terms if pumped else self.terms
        flows = [(abs(a), abs(b)) for a, b in terms]
        seen = np.reshape(support, (self.dim, self.dim)) != 0.0
        while True:
            grown = seen | (sum(a @ seen @ b for a, b in flows) > 0.0)
            if np.array_equal(grown, seen):
                return np.flatnonzero(seen)
            seen = grown

    def block(self, keep: np.ndarray, pumped: bool) -> tuple[np.ndarray, Optional[np.ndarray]]:
        """Dense ``l0`` on the entries ``keep`` of vec(rho), and ``l_pump`` if ``pumped``
        (else None).  Term ``(A, B)`` puts ``A[r, r'] B[c', c]`` at entry ``(r, c), (r', c')``.
        """
        d = self.dim
        r, c = np.divmod(keep, d)
        left, right = (r[:, None] * d + r).ravel(), (c * d + c[:, None]).ravel()

        def dense(terms):
            return sum(a.take(left) * b.take(right) for a, b in terms).reshape(keep.size, -1)

        return dense(self.terms), dense(self.pump_terms) if pumped else None


def _delta_fp_fn(params: SystemParams, pulses: tuple):
    """``delta_fp(t_ps)`` in rad/ps, in float arithmetic: it runs on every RHS call."""
    lambda_fp = omega_to_wl(params.fp.omega)
    ref = _frame_omega(params)

    def delta_fp(t_ps: float) -> float:
        return (wl_to_omega(lambda_fp + fp_shift_scalar(pulses, t_ps)) - ref) * _PS

    return delta_fp


def liouvillian_apply(params: SystemParams, rho: np.ndarray) -> np.ndarray:
    """drho/dt (1/s) with the FP mode at ``params.fp`` and the CW pump of ``params.pump``.

    For another FP mode or pump rate pass ``dataclasses.replace(params, ...)``.
    This matrix-free commutator form shares nothing with :class:`_Generator`
    but :func:`_model`, so it serves as the independent oracle for it.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise InvalidInput(f"density matrix must be square, got shape {rho.shape}")
    ops, h0, channels = _model(params, _spec_from_dim(rho.shape[0]))
    h = h0 + _fixed_delta(params) * ops.n_fp
    out = -1j * (h @ rho - rho @ h)
    for rate, op in channels + [(params.pump.cw_rate * _PS, ops.sigma_plus)]:
        ldl = op.T @ op
        out += rate * (op @ rho @ op.T) - 0.5 * rate * (ldl @ rho + rho @ ldl)
    return out / _PS


@dataclass
class Trajectory:
    """Recorded observables of one master-equation integration (times in ps).

    ``states[i]`` holds the entries ``keep`` (sorted indices) of the row-major
    vec(rho) at the i-th time, rho being ``dim`` x ``dim``; its other entries
    are exactly 0.  :meth:`density` gives the whole matrix.
    """

    t_ps: np.ndarray
    n_e: np.ndarray
    n_t: np.ndarray
    n_fp: np.ndarray
    n1: np.ndarray
    n2: np.ndarray
    lambda1_nm: np.ndarray
    lambda2_nm: np.ndarray
    kappa1: np.ndarray  # rad/s
    kappa2: np.ndarray
    w1: np.ndarray  # |target amplitude|^2 of mode 1
    w2: np.ndarray
    states: np.ndarray  # (t, keep.size)
    keep: np.ndarray
    dim: int
    kappa_t: float  # bare target loss rate (rad/s), constant over the run
    trace_dev_max: float
    hermiticity_dev_max: float
    min_eigenvalue: float

    def density(self, i: int) -> np.ndarray:
        """The density matrix at the ``i``-th time."""
        rho = np.zeros(self.dim * self.dim, dtype=complex)
        rho[self.keep] = self.states[i]
        return rho.reshape(self.dim, self.dim)


def _segments(pulses: tuple, pump: tuning.PumpSchedule, t0: float, t1: float, extra):
    """The integrator segments ``(a, b, max_step)`` that cover ``[t0, t1]``.

    A segment ends at each time where the RHS is non-smooth (a pulse onset,
    either edge of a pump pulse's +-5 sigma window) and at each ``extra``
    time.  A segment that overlaps pump windows steps at most the smallest of
    their sigma/2 (at least 1e-3 ps); every step cap is at least 1e-6 ps.
    """
    windows = [
        (p.t0_ps - 5.0 * p.sigma_ps, p.t0_ps + 5.0 * p.sigma_ps, max(p.sigma_ps / 2.0, 1e-3))
        for p in pump.pulse_events
    ]
    points = {*extra, *(p.t0_ps for p in pulses), *(t for w in windows for t in w[:2])}
    bounds = [t0] + sorted(t for t in points if t0 < t < t1) + [t1]
    for a, b in zip(bounds[:-1], bounds[1:]):
        step = min([b - a] + [cap for ca, cb, cap in windows if a < cb and b > ca])
        yield a, b, max(step, 1e-6)


# The NDF of Shampine & Reichelt (SIAM J. Sci. Comput. 18, 1, 1997) in the
# form and with the constants of scipy's BDF: kappa[k] modifies the order-k
# formula, and its error estimate is error_const[k] times the corrector's change.
_MAX_ORDER = 5
_NEWTON_MAXITER = 4
_KAPPA = np.array([0.0, -0.1850, -1.0 / 9.0, -0.0823, -0.0415, 0.0])
_GAMMA = np.hstack((0.0, np.cumsum(1.0 / np.arange(1, _MAX_ORDER + 1))))
_ALPHA = (1.0 - _KAPPA) * _GAMMA
_ERROR_CONST = _KAPPA * _GAMMA + 1.0 / np.arange(1, _MAX_ORDER + 2)


def _step_change(order: int, factor: float) -> np.ndarray:
    """scipy's ``R`` of the step change by ``factor`` at ``order``: with the one
    of ``factor`` 1, ``(R(factor) @ R(1)).T @ D[:order + 1]`` holds the backward
    differences of the step ``factor * h``, ``D`` those of the step ``h``."""
    i = np.arange(1, order + 1)[:, None]
    m = np.zeros((order + 1, order + 1))
    m[1:, 1:] = (i - 1 - factor * np.arange(1, order + 1)) / i
    m[0] = 1.0
    return np.cumprod(m, axis=0)


_UNIT_STEP_CHANGE = [_step_change(order, 1.0) for order in range(_MAX_ORDER + 1)]


class _LinearNDF(OdeSolver):
    """The NDF, orders 1 to 5, for ``y' = A(t) y`` on the entries ``keep`` of ``y0``.

    A ``solve_ivp`` method: ``solve_ivp(fun, t_span, y0, method=_LinearNDF,
    keep=keep, matrix=matrix, rtol=..., atol=..., ...)``.  ``y0`` is a whole
    vector that is 0 off the sorted indices ``keep``, and ``A(t)`` maps such
    vectors to such vectors.  ``fun(t, y)`` is ``A(t) y`` and ``matrix(t)``
    a new array holding ``A(t)``, both dense on ``keep`` alone; the stepper
    works there too, and so does the dense output: ``solve_ivp``'s ``y`` at
    ``t_eval`` has ``keep.size`` rows, the block of each state.  ``t_eval``
    is required, since without it ``solve_ivp`` would record the stepper's
    own vectors and try to stack them with the whole ``y0``.

    Steps and orders follow scipy's BDF, which is this quasi-constant-step
    NDF; the error norm is the RMS over ``keep``, of the local error estimate
    over ``atol + rtol |y|``.  The Newton matrix ``I - c A(t)``, ``c`` the
    step over the formula's leading coefficient, is factored by LAPACK at the
    ``t`` of the step that needs it.  The factors are kept while ``c`` stays
    within 30% of theirs, as CVODE keeps its iteration matrix (Hindmarsh et
    al., ACM TOMS 31, 363, 2005), and are redone when the Newton iteration
    fails.  ``njev`` counts the evaluations of ``matrix`` and ``nlu`` the
    factorizations; each factorization takes one evaluation.
    """

    def __init__(self, fun, t0, y0, t_bound, *, keep, matrix, rtol, atol, max_step=np.inf,
                 vectorized=False):
        super().__init__(fun, t0, np.asarray(y0, dtype=complex)[keep], t_bound, vectorized,
                         support_complex=True)
        self.matrix, self.rtol, self.atol, self.max_step = matrix, rtol, atol, max_step
        self.newton_tol = max(10.0 * np.finfo(float).eps / rtol, min(0.03, rtol**0.5))
        f = self.fun(self.t, self.y)
        self.h_abs = self._initial_step(f)
        self.D = np.zeros((_MAX_ORDER + 3, self.n), dtype=complex)
        self.D[0] = self.y
        self.D[1] = f * (self.h_abs * self.direction)
        self.order, self.n_equal_steps = 1, 0
        self.lu = self.piv = self.c_lu = None

    def _norm(self, x) -> float:
        """The RMS of ``x`` over the block."""
        return float(np.sqrt(np.vdot(x, x).real / self.n))

    def _initial_step(self, f0) -> float:
        """The first step of Hairer, Norsett & Wanner (Solving ODEs I, II.4), for order 1."""
        span = abs(self.t_bound - self.t)
        if span == 0.0:
            return 0.0
        scale = self.atol + self.rtol * np.abs(self.y)
        d0, d1 = self._norm(self.y / scale), self._norm(f0 / scale)
        h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, span)
        f1 = self.fun(self.t + h0 * self.direction, self.y + h0 * self.direction * f0)
        d2 = self._norm((f1 - f0) / scale) / h0
        h1 = max(1e-6, h0 * 1e-3) if max(d1, d2) <= 1e-15 else (0.01 / max(d1, d2)) ** 0.5
        return min(100.0 * h0, h1, span, self.max_step)

    def _rescale(self, factor: float):
        """Change the step by ``factor``: rescale the differences, and restart the count."""
        order = self.order
        change = _step_change(order, factor) @ _UNIT_STEP_CHANGE[order]
        self.D[: order + 1] = change.T @ self.D[: order + 1]
        self.n_equal_steps = 0

    def _factor(self, t: float, c: float):
        """Factor ``I - c A(t)``, as its transpose so that LAPACK reads it in place."""
        m = self.matrix(t)
        m *= -c
        m.flat[:: self.n + 1] += 1.0
        self.lu, self.piv, _ = zgetrf(m.T, overwrite_a=True)  # a zero pivot fails _newton
        self.c_lu = c
        self.njev += 1
        self.nlu += 1

    def _newton(self, t_new, y_predict, c, psi, scale):
        """scipy's BDF corrector on the current factors: ``(iterations, y, d)``, or None
        if it does not converge; ``d`` is the corrector's change from ``y_predict``."""
        y, d = y_predict.copy(), np.zeros_like(y_predict)
        dy_norm_old = None
        for k in range(_NEWTON_MAXITER):
            residual = self.fun(t_new, y) * c
            residual -= psi
            residual -= d
            dy = zgetrs(self.lu, self.piv, residual, trans=1, overwrite_b=True)[0]
            dy_norm = self._norm(dy / scale)
            if not np.isfinite(dy_norm):  # a derivative that is not finite, or a zero pivot
                return None
            rate = None if dy_norm_old is None else dy_norm / dy_norm_old
            if rate is not None and (
                rate >= 1.0 or rate ** (_NEWTON_MAXITER - k) / (1.0 - rate) * dy_norm > self.newton_tol
            ):
                return None
            y += dy
            d += dy
            if dy_norm == 0.0 or rate is not None and rate / (1.0 - rate) * dy_norm < self.newton_tol:
                return k + 1, y, d
            dy_norm_old = dy_norm
        return None

    def _step_impl(self):
        t, D = self.t, self.D
        min_step = 10.0 * abs(np.nextafter(t, self.direction * np.inf) - t)
        h_abs = min(max(self.h_abs, min_step), self.max_step)
        if h_abs != self.h_abs:
            self._rescale(h_abs / self.h_abs)

        while True:
            if not h_abs >= min_step:  # NaN fails too
                return False, self.TOO_SMALL_STEP
            t_new = t + h_abs * self.direction
            if self.direction * (t_new - self.t_bound) > 0:
                t_new = self.t_bound
                self._rescale(abs(t_new - t) / h_abs)
            h = t_new - t
            h_abs = abs(h)
            order = self.order
            y_predict = D[: order + 1].sum(axis=0)
            scale = self.atol + self.rtol * np.abs(y_predict)
            psi = _GAMMA[1 : order + 1] @ D[1 : order + 1] / _ALPHA[order]
            c = h / _ALPHA[order]

            kept = self.lu is not None and abs(c / self.c_lu - 1.0) <= 0.3
            if not kept:
                self._factor(t_new, c)
            solved = self._newton(t_new, y_predict, c, psi, scale)
            if solved is None and kept:
                self._factor(t_new, c)
                solved = self._newton(t_new, y_predict, c, psi, scale)
            if solved is None:
                h_abs *= 0.5
                self._rescale(0.5)
                continue

            n_iter, y_new, d = solved
            safety = 0.9 * (2 * _NEWTON_MAXITER + 1) / (2 * _NEWTON_MAXITER + n_iter)
            scale = self.atol + self.rtol * np.abs(y_new)
            error_norm = _ERROR_CONST[order] * self._norm(d / scale)
            if error_norm <= 1.0:
                break
            factor = max(0.2, safety * error_norm ** (-1.0 / (order + 1)))
            h_abs *= factor
            self._rescale(factor)

        self.n_equal_steps += 1
        self.t, self.y, self.h_abs = t_new, y_new, h_abs
        # d is the (order + 1)-th difference of the new step: update the others
        D[order + 2] = d - D[order + 1]
        D[order + 1] = d
        for i in reversed(range(order + 1)):
            D[i] += D[i + 1]
        if self.n_equal_steps < order + 1:
            return True, None

        # after order + 1 equal steps: the order, of the three next to it,
        # that allows the longest step
        norms = [np.inf, error_norm, np.inf]
        if order > 1:
            norms[0] = _ERROR_CONST[order - 1] * self._norm(D[order] / scale)
        if order < _MAX_ORDER:
            norms[2] = _ERROR_CONST[order + 1] * self._norm(D[order + 2] / scale)
        with np.errstate(divide="ignore"):
            factors = np.array(norms) ** (-1.0 / np.arange(order, order + 3))
        self.order = order + int(np.argmax(factors)) - 1
        factor = min(10.0, safety * float(np.max(factors)))
        self.h_abs *= factor
        self._rescale(factor)
        return True, None

    def _dense_output_impl(self):
        return _BlockDenseOutput(self, self.D[: self.order + 1].copy())


class _BlockDenseOutput(DenseOutput):
    """The NDF's interpolating polynomial over the last step, on the block ``keep``."""

    def __init__(self, solver: _LinearNDF, D: np.ndarray):
        super().__init__(solver.t_old, solver.t)
        h = solver.h_abs * solver.direction
        order = D.shape[0] - 1
        self.t_shift = solver.t - h * np.arange(order)
        self.denom = h * (1 + np.arange(order))
        self.D = D

    def _call_impl(self, t):
        x = (np.atleast_1d(t) - self.t_shift[:, None]) / self.denom[:, None]
        y = self.D[0][:, None] + self.D[1:].T @ np.cumprod(x, axis=0)
        return y if t.ndim else y[:, 0]


def evolve(
    params: SystemParams,
    pulses: tuple,
    rho0: np.ndarray,
    t_grid_ps: Sequence[float],
    rtol: float = SOLVER_RTOL,
    atol: float = SOLVER_ATOL,
    breakpoints_ps: Sequence[float] = (),
) -> Trajectory:
    """Integrate the master equation over ``t_grid_ps`` under the free-carrier ``pulses``.

    The Fock space is that of ``rho0``.  The FP wavelength at time ``t`` is
    that of ``params.fp`` plus ``fp_shift_at(pulses, t)``, ``pulses`` being a
    tuple of :class:`cavtune.tuning.FreeCarrierPulse` in any order: under
    ``()`` the FP mode stays at ``params.fp``, so a steady state of ``params``
    is stationary.  The pump rate follows ``params.pump``.  The integration
    restarts at every pulse onset and at each time of ``breakpoints_ps``, so
    the state recorded at such a time is the end of an integrator segment.
    A free-carrier pulse that starts at a grid time acts only after the state
    there is recorded.  Only the entries of vec(rho) that ``rho0`` reaches
    (see :meth:`_Generator.reach`) are integrated; the others stay exactly 0, and the
    trajectory records the reached entries alone (``Trajectory.keep``).  The
    closure of any recorded state lies inside ``keep``, so a run started from
    one records a subset of these entries.  Each segment is integrated by
    :class:`_LinearNDF` on those entries, with the dense generator there as
    its Newton matrix, at ``rtol``/``atol`` (defaults
    ``config.SOLVER_RTOL``/``SOLVER_ATOL``).
    Raises :class:`InvalidInput` for a non-square ``rho0`` or ``atol <= 0``,
    and :class:`NumericalFailure` with the failing time on integrator
    breakdown and when a recorded state is not valid (:func:`make_trajectory`).
    A state whose trace leaves 1 fails at the first right-hand-side evaluation
    that sees it, which names an evaluation time of the integrator, not a grid time.
    """
    t_grid = np.asarray(t_grid_ps, dtype=float)
    if t_grid.size < 2 or not np.all(np.diff(t_grid) > 0.0):
        raise InvalidInput("time grid must be strictly increasing with >= 2 points")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.ndim != 2 or rho0.shape[0] != rho0.shape[1]:
        raise InvalidInput(f"density matrix must be square, got shape {rho0.shape}")
    spec = _spec_from_dim(rho0.shape[0])
    if not atol > 0.0:  # the error scale atol + rtol*|y| would be 0 where y stays 0
        raise InvalidInput(f"atol must be positive, got {atol}")

    gen = _Generator(params, spec)
    pump = params.pump
    # l_pump acts only while a pump pulse adds to the CW rate, which l0 holds,
    # so without pulses it stays out; the terms outside keep multiply zeros
    pump_pulses = bool(pump.pulse_events)
    keep = gen.reach(rho0, pump_pulses)
    l0, l_pump = gen.block(keep, pump_pulses)
    d_fp, p_cw = gen.d_fp[keep], gen.p_cw
    diag = np.flatnonzero(keep % (spec.dim + 1) == 0)  # the diagonal of rho in the block

    def drive(t):  # the FP term's diagonal, and the pump rate above the CW one
        return delta_fp(t) * d_fp, pump.rate_at_ps(t) - p_cw

    def rhs(t, y):
        trace_dev = abs(y[diag].sum() - 1.0)
        if not trace_dev <= 1e-8:  # the trace limit of _state_fault
            raise NumericalFailure(f"state evaluated at t = {t} ps {_state_fault(trace_dev, 0, 0)}")
        fp, pulsed = drive(t)
        dy = l0 @ y
        dy += fp * y
        if pulsed != 0.0:
            dy += pulsed * (l_pump @ y)
        return dy

    def matrix(t):
        fp, pulsed = drive(t)
        m = l0.copy()
        m.flat[:: keep.size + 1] += fp
        if pulsed != 0.0:
            m += pulsed * l_pump
        return m

    states = np.empty((t_grid.size, keep.size), dtype=complex)
    y = rho0.ravel()
    states[0] = y[keep]
    for a, b, max_step in _segments(pulses, pump, float(t_grid[0]), float(t_grid[-1]),
                                    breakpoints_ps):
        # Only the pulses started by a act on the segment [a, b].  At t = b
        # that is the left limit of delta_fp: a pulse that starts at b stays
        # out of the evaluations there, and out of the Newton matrix.
        delta_fp = _delta_fp_fn(params, tuple(p for p in pulses if p.t0_ps <= a))
        inside = np.flatnonzero((t_grid > a) & (t_grid <= b))
        t_eval = np.unique(np.append(t_grid[inside], b))
        # (fun, t_span, y0) positionally, y0 the whole vec(rho): the benchmark's
        # tracer reads n_max from len(y0)
        sol = solve_ivp(
            rhs, (a, b), y, method=_LinearNDF, t_eval=t_eval, rtol=rtol, atol=atol,
            max_step=max_step, keep=keep, matrix=matrix,
        )
        if not sol.success:
            raise NumericalFailure(f"integrator failed in segment [{a}, {b}] ps: {sol.message}")
        states[inside] = sol.y[:, : inside.size].T
        y = np.zeros_like(y)
        y[keep] = sol.y[:, -1]
        del sol  # the segment's output, freed before the next segment and post-processing

    return make_trajectory(params, pulses, t_grid, states, keep, spec.dim)


def make_trajectory(params, pulses, t_grid, states, keep, dim) -> Trajectory:
    """The observables of ``states`` under ``params`` and ``pulses``, one per time of ``t_grid``.

    ``states`` is ``(t, keep.size)``: the entries ``keep`` of each vec(rho),
    rho ``dim`` x ``dim`` and 0 elsewhere.  Raises :class:`NumericalFailure`,
    naming the first failing time, if a state is not valid (:func:`_state_fault`).
    """
    ops = build_space(_spec_from_dim(dim))

    def mean(op):  # tr(op rho) = vec(op^T) . vec(rho), at each time
        return np.einsum("tk,k->t", states, op.T.ravel()[keep])

    n_e = mean(ops.n_e).real
    n_t = mean(ops.n_t).real
    n_fp = mean(ops.n_fp).real
    coherence = mean(ops.a_t.T @ ops.a_fp)

    trace_dev, herm_dev, min_eig = _require_valid(states, keep, dim, t_grid)

    shifts = np.atleast_1d(fp_shift_at(pulses, t_grid))
    fp = BareMode(wl_to_omega(omega_to_wl(params.fp.omega) + shifts), params.fp.kappa)
    cm = couple(params.target, fp, params.eta)
    a_re = cm.alpha.real
    w1, w2 = abs(cm.alpha) ** 2, abs(cm.beta) ** 2
    cross = 2.0 * a_re * (cm.beta * coherence).real
    n1 = a_re**2 * n_t + w2 * n_fp - cross
    n2 = w2 * n_t + a_re**2 * n_fp + cross

    return Trajectory(
        t_ps=t_grid.copy(),
        n_e=n_e,
        n_t=n_t,
        n_fp=n_fp,
        n1=n1,
        n2=n2,
        lambda1_nm=omega_to_wl(cm.omega1),
        lambda2_nm=omega_to_wl(cm.omega2),
        kappa1=cm.kappa1,
        kappa2=cm.kappa2,
        w1=w1,
        w2=w2,
        states=states,
        keep=keep,
        dim=dim,
        kappa_t=params.target.kappa,
        trace_dev_max=trace_dev,
        hermiticity_dev_max=herm_dev,
        min_eigenvalue=min_eig,
    )


def _components(keep: np.ndarray, dim: int) -> np.ndarray:
    """A label per basis index, shared by i and j when a chain of kept entries joins them.

    Each kept entry ``k`` of vec(rho) is an edge between its row ``k // dim``
    and its column ``k % dim``; an index in no kept entry keeps a label of its own.
    """
    rows, cols = np.divmod(keep, dim)
    labels = np.arange(dim)
    while True:  # each component's smallest index spreads along the edges
        grown = labels.copy()
        low = np.minimum(labels[rows], labels[cols])
        np.minimum.at(grown, rows, low)
        np.minimum.at(grown, cols, low)
        if np.array_equal(grown, labels):
            return labels
        labels = grown


def _block_checks(states: np.ndarray, keep: np.ndarray, dim: int) -> tuple[np.ndarray, ...]:
    """Per state: the trace deviation from 1, the largest deviation from
    Hermiticity and the smallest eigenvalue of the Hermitian part.

    Each row of ``states`` holds the entries ``keep`` of the row-major vec(rho)
    of a ``dim`` x ``dim`` matrix that is 0 elsewhere.  A nonzero rho_ij has i
    and j in one component of :func:`_components`, so rho is block-diagonal
    over the components (an index in no kept entry is a zero 1 x 1 block), and
    its eigenvalues are those of the components' submatrices.
    """
    rows, cols = np.divmod(keep, dim)
    trace_dev = np.abs(states[:, rows == cols].sum(axis=1) - 1.0)
    column = np.full(dim * dim, keep.size)  # the column of states of each entry of vec(rho)
    column[keep] = np.arange(keep.size)
    labels = _components(keep, dim)
    members = [np.flatnonzero(labels == label) for label in np.unique(labels)]
    # per component size, the columns of the submatrices of the components of that size
    wheres = []
    for size in sorted({m.size for m in members}):
        basis = np.array([m for m in members if m.size == size])
        wheres.append(column[basis[:, :, None] * dim + basis[:, None, :]])
    herm_dev = np.empty(len(states))
    eigenvalues = np.empty((len(states), dim))  # the components' dim eigenvalues together
    # 128 states at a time, so that the temporaries stay small beside the states;
    # the last column, at index keep.size, holds the entries that are 0
    padded = np.zeros((min(len(states), 128), keep.size + 1), dtype=complex)
    for start in range(0, len(states), 128):
        at = slice(start, start + 128)
        chunk = padded[: len(states[at])]
        chunk[:, :-1] = states[at]
        adjoints = np.conj(chunk[:, column[cols * dim + rows]])
        herm_dev[at] = np.abs(chunk[:, :-1] - adjoints).max(axis=1)
        filled = 0
        for where in wheres:
            blocks = chunk[:, where]
            hermitian_parts = np.conj(np.swapaxes(blocks, -1, -2))
            hermitian_parts += blocks
            hermitian_parts *= 0.5
            values = np.linalg.eigvalsh(hermitian_parts).reshape(len(chunk), -1)
            eigenvalues[at, filled : filled + values.shape[1]] = values
            filled += values.shape[1]
    return trace_dev, herm_dev, eigenvalues.min(axis=1)


def _state_fault(trace_dev: float, herm_dev: float, min_eig: float) -> Optional[str]:
    """Why states with these :func:`_block_checks` values are not valid, or None if they are.

    The limits of every checked state: Hermitian within 1e-10, no eigenvalue
    of the Hermitian part below -1e-8 and the trace within 1e-8 of 1.  A NaN
    fails each of them.
    """
    if not herm_dev <= 1e-10:
        return f"not Hermitian within 1e-10 (deviation {herm_dev:.3e})"
    if not min_eig >= -1e-8:
        return f"not positive within 1e-8 (min eigenvalue {min_eig:.3e})"
    if not trace_dev <= 1e-8:
        return f"trace of rho deviates from 1 by {trace_dev:.3e}, more than 1e-8"
    return None


def _require_valid(states, keep, dim, times=None) -> tuple[float, float, float]:
    """The extremes of :func:`_block_checks` over ``states``; raises
    :class:`NumericalFailure` if a state is not valid.

    The message names the first failing time of ``times``; without ``times``
    the one state is a steady state.
    """
    trace_dev, herm_dev, min_eig = _block_checks(states, keep, dim)
    extremes = float(trace_dev.max()), float(herm_dev.max()), float(min_eig.min())
    fault = _state_fault(*extremes)
    if fault is None:
        return extremes
    if times is None:
        raise NumericalFailure(f"steady state {fault}")
    for t, *checks in zip(times, trace_dev, herm_dev, min_eig):
        fault = _state_fault(*checks)
        if fault is not None:
            raise NumericalFailure(f"state at t = {t} ps {fault}")


def dense_superoperator(params: SystemParams, spec: tuning.HilbertSpec) -> np.ndarray:
    """The generator (1/s) on row-major vec(rho), as a dense matrix: :meth:`_Generator.block`
    over all d^2 entries.

    Like :func:`liouvillian_apply` it applies the FP mode ``params.fp`` and the
    CW pump of ``params.pump``: checks of the generator compare the two.
    """
    gen = _Generator(params, spec)
    l0, _ = gen.block(np.arange(spec.dim**2), False)
    l0.flat[:: l0.shape[0] + 1] += _fixed_delta(params) * gen.d_fp
    return l0 / _PS


def steady_state(params: SystemParams, spec: tuning.HilbertSpec) -> np.ndarray:
    """The steady state reached from the vacuum under CW pumping, the FP mode at ``params.fp``.

    Solves ``L vec(rho) = 0``, ``tr rho = 1`` by a dense LU solve on the
    entries that ``L`` populates from the vacuum (:meth:`_Generator.reach`;
    the others are 0), so an emitter with neither coupling nor decay stays in
    its ground state.  Raises :class:`NumericalFailure` when the solve is
    singular, when the residual ``||L rho|| / ||rho||`` (rad/ps) is not below
    ``STEADY_RESIDUAL_TOL``, or when rho is not a valid state.  Unpumped,
    that closure is rho_00 alone: the vacuum.
    """
    d = spec.dim
    gen = _Generator(params, spec)
    keep = gen.reach(vacuum_state(spec), False)
    mat, _ = gen.block(keep, False)
    mat.flat[:: keep.size + 1] += _fixed_delta(params) * gen.d_fp[keep]
    # the rho_00 row is redundant, since L preserves the trace: put tr rho = 1 there
    system = mat.copy()
    system[0] = keep % (d + 1) == 0
    rhs = np.zeros(keep.size, dtype=complex)
    rhs[0] = 1.0
    x = np.zeros(d * d, dtype=complex)
    try:
        x[keep] = np.linalg.solve(system, rhs)
    except np.linalg.LinAlgError as exc:  # exactly singular
        raise NumericalFailure(f"steady state is not unique: {exc}") from exc
    residual = np.linalg.norm(mat @ x[keep]) / max(np.linalg.norm(x), 1e-300)
    if not residual < STEADY_RESIDUAL_TOL:
        raise NumericalFailure(
            f"steady-state residual {residual:.3e} not below {STEADY_RESIDUAL_TOL:.3e}"
        )
    _require_valid(x[keep][None], keep, d)
    return x.reshape(d, d)
