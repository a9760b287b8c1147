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

from copy import copy
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.integrate import solve_ivp  # a module-level name: bench/tracer.py wraps it
from scipy.sparse.linalg import splu

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
    """The master equation compiled as ``L(t) = l0 + delta_fp(t) d_fp + (p(t) - p_cw) l_pump``.

    Acts in rad/ps on the row-major vectorization of rho, where
    ``vec(A rho B) = (A kron B^T) vec(rho)``: ``l0`` (CSR) holds the
    Hamiltonian without its FP term and every time-independent dissipator,
    the CW emitter pump ``p_cw`` included; ``d_fp`` is the diagonal of
    ``-i(n_fp kron 1 - 1 kron n_fp)`` and ``l_pump`` (CSR) the emitter pump
    dissipator D[sigma+] at unit rate, so the pump term costs a product only
    while a pulse adds to the CW rate.
    """

    def __init__(self, params, spec):
        ops, h0, channels = _model(params, spec)
        eye = sparse.identity(ops.dim, format="csr")

        def kron(a, b):
            return sparse.kron(a, b, format="csr")

        def dissipator(rate, op):
            op = sparse.csr_matrix(op)
            ldl = (op.T @ op).tocsr()
            return rate * kron(op, op) - 0.5 * rate * (kron(ldl, eye) + kron(eye, ldl.T))

        self.p_cw = params.pump.cw_rate * _PS
        self.l_pump = dissipator(1.0, ops.sigma_plus)
        h0 = sparse.csr_matrix(h0)
        l0 = -1j * (kron(h0, eye) - kron(eye, h0.T)) + self.p_cw * self.l_pump
        for channel in channels:
            l0 = l0 + dissipator(*channel)
        l0.eliminate_zeros()
        self.l0 = l0
        n_fp = np.diag(ops.n_fp)
        self.d_fp = -1j * (n_fp[:, None] - n_fp[None, :]).ravel()

    def rhs(self, y: np.ndarray, delta_fp: float, pump: float) -> np.ndarray:
        dy = self.l0 @ y + (delta_fp * self.d_fp) * y
        if pump != self.p_cw:
            dy += (pump - self.p_cw) * (self.l_pump @ y)
        return dy

    def matrix(self, delta_fp: float, pump: float) -> sparse.csr_matrix:
        """``L`` at one ``(delta_fp, pump)``: evolve's BDF Jacobian, and what steady_state solves."""
        shift = sparse.diags(delta_fp * self.d_fp)
        return (self.l0 + shift + (pump - self.p_cw) * self.l_pump).tocsr()

    def restricted(self, keep: np.ndarray) -> "_Generator":
        """This generator for vectors that are 0 off the entries ``keep`` of vec(rho).

        ``keep`` must be closed under the pattern of ``l0`` and ``l_pump`` (see
        :func:`_closure`).  The terms that act on the other entries are
        dropped: they multiply zeros, so on such vectors every product is the
        same, bit for bit, and the other entries stay exactly 0.
        """
        outside = np.ones(self.d_fp.size, dtype=bool)
        outside[keep] = False
        block = copy(self)
        block.l0, block.l_pump = self.l0.copy(), self.l_pump.copy()
        for mat in (block.l0, block.l_pump):
            mat.data[outside[mat.indices]] = 0.0
            mat.eliminate_zeros()
        return block


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
    This matrix-free commutator form never compiles the sparse generator, so
    it serves as the independent oracle for it.
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
    Each segment is integrated by BDF, with the generator as its Jacobian, at
    ``rtol``/``atol`` (defaults ``config.SOLVER_RTOL``/``SOLVER_ATOL``).  A
    free-carrier pulse that starts at a grid time acts only after the state
    there is recorded.  The right-hand side
    computes only the entries of vec(rho) that ``rho0`` reaches (see
    :func:`_closure`); the others stay exactly 0, so the result is that of
    the whole generator, and the trajectory records only the reached entries
    (``Trajectory.keep``).  The closure of any recorded state lies inside
    ``keep``, so a run started from one records a subset of these entries.
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
    if not atol > 0.0:  # BDF's error scale atol + rtol*|y| would be 0 where y stays 0
        raise InvalidInput(f"atol must be positive, got {atol}")

    full = _Generator(params, spec)
    # every term of L(t) keeps to the pattern of l0 + l_pump (the diagonal
    # d_fp adds no entries)
    keep = _closure(abs(full.l0) + abs(full.l_pump), rho0.ravel())
    gen = full.restricted(keep)
    pump = params.pump
    diag = slice(None, None, spec.dim + 1)  # the diagonal of rho in vec(rho)

    def rhs(t, y):
        trace_dev = abs(y[diag].sum() - 1.0)
        if not trace_dev <= 1e-8:  # the trace limit of _state_fault
            raise NumericalFailure(f"state evaluated at t = {t} ps {_state_fault(trace_dev, 0, 0)}")
        return gen.rhs(y, delta_fp(t), pump.rate_at_ps(t))

    def jac(t, y):
        return gen.matrix(delta_fp(t), pump.rate_at_ps(t))

    states = np.empty((t_grid.size, keep.size), dtype=complex)
    y = rho0.ravel()
    states[0] = y[keep]
    for a, b, max_step in _segments(pulses, pump, float(t_grid[0]), float(t_grid[-1]),
                                    breakpoints_ps):
        # Only the pulses started by a act on the segment [a, b].  At t = b
        # that is the left limit of delta_fp: a pulse that starts at b stays
        # out of the BDF evaluations there, and out of the Jacobian.
        delta_fp = _delta_fp_fn(params, tuple(p for p in pulses if p.t0_ps <= a))
        inside = np.flatnonzero((t_grid > a) & (t_grid <= b))
        t_eval = np.unique(np.append(t_grid[inside], b))
        # (fun, t_span, y0) positionally, y0 the whole vec(rho): the benchmark's
        # tracer reads n_max from len(y0)
        sol = solve_ivp(
            rhs, (a, b), y, method="BDF", t_eval=t_eval, jac=jac, rtol=rtol, atol=atol,
            max_step=max_step,
        )
        if not sol.success:
            raise NumericalFailure(f"integrator failed in segment [{a}, {b}] ps: {sol.message}")
        states[inside] = sol.y[keep, : inside.size].T
        y = sol.y[:, -1].copy()
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
    """The compiled generator (1/s) on row-major vec(rho), as a dense matrix.

    Like :func:`liouvillian_apply` it applies the FP mode ``params.fp`` and the
    CW pump of ``params.pump``: checks of the compiled operator compare the two.
    """
    gen = _Generator(params, spec)
    return gen.matrix(_fixed_delta(params), gen.p_cw).toarray() / _PS


def steady_state(params: SystemParams, spec: tuning.HilbertSpec) -> np.ndarray:
    """The steady state reached from the vacuum under CW pumping, the FP mode at ``params.fp``.

    Solves ``L vec(rho) = 0``, ``tr rho = 1`` by sparse LU on the entries that
    ``L`` populates from the vacuum (:func:`_closure`; the others are 0), so an
    emitter with neither coupling nor decay stays in its ground state.  Raises
    :class:`NumericalFailure` when the solve is singular, when the residual
    ``||L rho|| / ||rho||`` (rad/ps) is not below ``STEADY_RESIDUAL_TOL``, or
    when rho is not a valid state.  Unpumped, that closure is rho_00 alone: the
    vacuum.
    """
    d = spec.dim
    gen = _Generator(params, spec)
    mat = gen.matrix(_fixed_delta(params), gen.p_cw)
    keep = _closure(mat, vacuum_state(spec).ravel())
    sub = mat[keep][:, keep]
    # the rho_00 row is redundant, since L preserves the trace: put tr rho = 1 there
    trace_row = sparse.csr_matrix((keep % (d + 1) == 0).astype(complex)[None, :])
    rhs = np.zeros(keep.size, dtype=complex)
    rhs[0] = 1.0
    x = np.zeros(d * d, dtype=complex)
    try:
        x[keep] = splu(sparse.vstack([trace_row, sub[1:]], format="csc")).solve(rhs)
    except RuntimeError as exc:  # exactly singular
        raise NumericalFailure(f"steady state is not unique: {exc}") from exc
    residual = np.linalg.norm(mat @ x) / max(np.linalg.norm(x), 1e-300)
    if not residual < STEADY_RESIDUAL_TOL:
        raise NumericalFailure(
            f"steady-state residual {residual:.3e} not below {STEADY_RESIDUAL_TOL:.3e}"
        )
    _require_valid(x[keep][None], keep, d)
    return x.reshape(d, d)


def _closure(mat: sparse.spmatrix, vec_rho0: np.ndarray) -> np.ndarray:
    """Sorted indices of vec(rho) that ``mat`` populates from the nonzero entries of ``vec_rho0``.

    The entries of the result are the support of ``vec_rho0`` grown under the
    sparsity pattern of ``mat``, so ``mat`` maps vectors on them to vectors on
    them, and the other entries stay 0.  Every channel of the model conserves
    ``N_bra - N_ket``, so from a state of one such excitation block (the
    vacuum, the excited emitter and the steady state are all in block 0) the
    result lies in that block.
    """
    flow = abs(mat)
    seen = vec_rho0 != 0.0
    while True:
        grown = seen | (flow @ seen.astype(float) > 0.0)
        if np.array_equal(grown, seen):
            return np.flatnonzero(seen)
        seen = grown

