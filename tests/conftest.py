from contextlib import contextmanager

import numpy as np
import pytest
from scipy import sparse

from cavtune import (
    AnticrossingData,
    BareMode,
    CoupledModes,
    EmitterParams,
    InvalidInput,
    PumpSchedule,
    SystemParams,
    build_space,
    evolve,
    lindblad,
    wl_to_omega,
)
from cavtune.fitting import FitOptions, _active_params, _bounds_for, _CompiledModel, _starts
from cavtune.lindblad import _Generator
from cavtune.runs import _observe

KAPPA_T = 1.564e11
ETA = 1.564e11
LAMBDA_T = 1552.0


def make_params(
    g=1e10,
    gamma_leaky=5e8,
    eta=ETA,
    kappa_t=KAPPA_T,
    kappa_fp=3 * KAPPA_T,
    lambda_fp=LAMBDA_T,
    pump=None,
):
    omega_t = wl_to_omega(LAMBDA_T)
    return SystemParams(
        EmitterParams(omega_t, g, gamma_leaky),
        BareMode(omega_t, kappa_t),
        BareMode(wl_to_omega(lambda_fp), kappa_fp),
        eta,
        pump if pump is not None else PumpSchedule(),
    )


def se_rate_ratio(coupled: CoupledModes, mode_index: int, kappa_t: float) -> float:
    """SE rate into one coupled mode over the rate in the bare target cavity.

    ``|c|**2 * kappa_t / kappa_l`` with ``c`` the target-cavity amplitude of
    the selected mode.
    """
    if kappa_t <= 0.0:
        raise InvalidInput(f"target loss rate must be positive, got {kappa_t}")
    coupled._check_mode(mode_index)
    c = coupled.alpha if mode_index == 1 else coupled.beta
    kappa_l = coupled.kappa1 if mode_index == 1 else coupled.kappa2
    return float(abs(c) ** 2 * kappa_t / kappa_l)


def run_from(cfg, profile, rho0):
    """``runs.simulate_dynamic(cfg, profile)`` started from ``rho0`` instead of ``cfg``'s state."""
    traj = evolve(cfg.params, profile, rho0, cfg.time_grid_ps, rtol=cfg.rtol, atol=cfg.atol)
    return _observe(cfg, traj)


class broken_target_generator(_Generator):
    """The compiled generator with the sign of the target channel's anticommutator
    flipped: a negative control whose generator breaks the trace.

    The flip adds ``rate * (n_t kron 1 + 1 kron n_t)`` to ``l0``, with ``rate``
    the target channel's ``2 kappa_t`` in rad/ps.
    """

    def __init__(self, params, spec):
        super().__init__(params, spec)
        n_t = sparse.csr_matrix(build_space(spec).n_t)
        eye = sparse.identity(spec.dim, format="csr")
        rate = 2.0 * params.target.kappa * 1e-12
        self.l0 = (self.l0 + rate * (sparse.kron(n_t, eye) + sparse.kron(eye, n_t))).tocsr()


@pytest.fixture
def in_frame(monkeypatch):
    """``in_frame(frame)``: a context in which the lindblad module works in ``frame``.

    "rotating" is the package's own frame.  "lab" patches the one seam,
    ``lindblad._frame_omega``, to 0.0: the frame-invariance reference.
    """

    @contextmanager
    def context(frame):
        with monkeypatch.context() as patch:
            if frame == "lab":
                patch.setattr(lindblad, "_frame_omega", lambda params: 0.0)
            yield

    return context


def densities(traj) -> np.ndarray:
    """The ``(t, d, d)`` density matrices of a trajectory, through ``Trajectory.density``."""
    return np.array([traj.density(i) for i in range(traj.t_ps.size)])


@pytest.fixture
def default_params():
    return make_params()


@pytest.fixture
def rng():
    return np.random.RandomState(20240811)


def random_valid_system(rng, with_pump=False):
    """Random parameter draw satisfying every domain invariant."""
    omega0 = 1e15 * rng.uniform(0.5, 2.0)
    kappa_t = 1e11 * rng.uniform(0.3, 4.0)
    kappa_fp = 1e11 * rng.uniform(0.3, 4.0)
    g = rng.uniform(0.0, 0.5) * min(kappa_t, kappa_fp)
    return SystemParams(
        EmitterParams(omega0, g, 1e8 * rng.uniform(0.0, 10.0)),
        BareMode(1e15 * rng.uniform(0.5, 2.0), kappa_t),
        BareMode(1e15 * rng.uniform(0.5, 2.0), kappa_fp),
        1e11 * rng.uniform(0.0, 4.0),
        PumpSchedule(cw_rate=1e8 if with_pump else 0.0),
    )


def polished_eigenvalues(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalues of a 3x3 matrix, refined past LAPACK's roundoff floor.

    Shifts by the first diagonal entry, runs LAPACK, then applies Newton steps
    on the characteristic polynomial whose coefficients are computed exactly
    from the matrix entries.  On mixed-scale 3x3 matrices the direct eigvals
    call leaves O(1e-9 * ||A||) errors on delicate eigenvalues; polishing
    pushes them to the polynomial evaluation floor.
    """
    a = np.asarray(matrix, dtype=complex)
    assert a.shape == (3, 3)
    shift = a[0, 0]
    b = a - shift * np.eye(3)
    trace = b[0, 0] + b[1, 1] + b[2, 2]
    minors = (
        b[0, 0] * b[1, 1] - b[0, 1] * b[1, 0]
        + b[0, 0] * b[2, 2] - b[0, 2] * b[2, 0]
        + b[1, 1] * b[2, 2] - b[1, 2] * b[2, 1]
    )
    coeffs = np.array([1.0, -trace, minors, -np.linalg.det(b)], dtype=complex)
    deriv = np.polyder(coeffs)
    roots = np.linalg.eigvals(b)
    for _ in range(3):
        p = np.polyval(coeffs, roots)
        dp = np.polyval(deriv, roots)
        safe = np.abs(dp) > 0
        roots = np.where(safe, roots - p / np.where(safe, dp, 1.0), roots)
    return np.sort_complex(roots + shift)


def model_predictions(theta: dict, data: AnticrossingData):
    """Branch wavelengths (ascending), Q's and decay times (None without a tau column)."""
    names = _active_params(data)
    model = _CompiledModel(data, names, _bounds_for(names, data))
    pred = model.predict(np.array([theta[n] for n in names], dtype=float))
    return pred[0], pred[1], pred[2], pred[3], pred[4] if data.tau_ns is not None else None


def residuals(theta_vec, data: AnticrossingData, bounds=None) -> np.ndarray:
    """The fit's weighted residual vector; ``bounds`` overrides some, as in ``fit``."""
    names = _active_params(data)
    return _CompiledModel(data, names, _bounds_for(names, data, bounds)).residuals(theta_vec)


def synthetic_data(
    eta,
    kappa_t,
    kappa_fp,
    lambda_t,
    detunings_nm,
    g=None,
    gamma_leaky=None,
    control_kind="detuning_nm",
    cal_slope=0.1,
    cal_offset=0.0,
    noise_sigma_nm=0.0,
    seed=0,
    with_q=True,
) -> AnticrossingData:
    """A model-exact table, with optional seeded Gaussian noise on the wavelengths."""
    theta = {"eta": eta, "kappa_t": kappa_t, "kappa_fp": kappa_fp, "lambda_t": lambda_t}
    detunings_nm = np.asarray(detunings_nm, dtype=float)
    if control_kind == "power_mw":
        control = (detunings_nm - cal_offset) / cal_slope
        theta["cal_slope"], theta["cal_offset"] = cal_slope, cal_offset
    else:
        control = detunings_nm
    include_tau = g is not None
    if include_tau:
        theta["g"], theta["gamma_leaky"] = g, gamma_leaky

    probe = AnticrossingData(
        control=control,
        lambda1=np.full(control.size, lambda_t),
        lambda2=np.full(control.size, lambda_t + 1.0),
        control_kind=control_kind,
        tau_ns=np.ones(control.size) if include_tau else None,
    )
    lam1, lam2, q1, q2, tau = model_predictions(theta, probe)
    if noise_sigma_nm > 0.0:
        rng = np.random.RandomState(seed)
        lam1 = lam1 + rng.normal(0.0, noise_sigma_nm, lam1.size)
        lam2 = lam2 + rng.normal(0.0, noise_sigma_nm, lam2.size)
    return AnticrossingData(
        control=control,
        lambda1=lam1,
        lambda2=lam2,
        control_kind=control_kind,
        q1=q1 if with_q else None,
        q2=q2 if with_q else None,
        tau_ns=tau,
    )


def nelder_mead(func, x0, steps, spread_tol, max_evals):
    """Simplex minimizer; coefficients (1, 2, 0.5, 0.5); relative-spread stop.

    Returns ``(x, f, n_evals, converged)``.
    """
    n = x0.size
    simplex = [x0.copy()]
    for j in range(n):
        v = x0.copy()
        v[j] += steps[j]
        simplex.append(v)
    simplex = np.array(simplex)
    values = np.array([func(v) for v in simplex])
    n_evals = n + 1

    while n_evals < max_evals:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]

        scale = np.maximum(np.abs(simplex[0]), 1e-300)
        spread_x = np.max(np.abs(simplex[1:] - simplex[0]) / scale)
        if spread_x < spread_tol:
            return simplex[0], values[0], n_evals, True

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + 1.0 * (centroid - worst)
        f_ref = func(reflected)
        n_evals += 1
        if f_ref < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_exp = func(expanded)
            n_evals += 1
            if f_exp < f_ref:
                simplex[-1], values[-1] = expanded, f_exp
            else:
                simplex[-1], values[-1] = reflected, f_ref
        elif f_ref < values[-2]:
            simplex[-1], values[-1] = reflected, f_ref
        else:
            if f_ref < values[-1]:
                contracted = centroid + 0.5 * (reflected - centroid)
            else:
                contracted = centroid + 0.5 * (worst - centroid)
            f_con = func(contracted)
            n_evals += 1
            if f_con < min(f_ref, values[-1]):
                simplex[-1], values[-1] = contracted, f_con
            else:
                best = simplex[0]
                for j in range(1, n + 1):
                    simplex[j] = best + 0.5 * (simplex[j] - best)
                    values[j] = func(simplex[j])
                n_evals += n

    return simplex[np.argmin(values)], values.min(), n_evals, False


def simplex_fit(data: AnticrossingData, init: dict, options=None):
    """The derivative-free oracle for ``fit``: from each of its starts, rounds of a
    fresh Nelder-Mead simplex (steps of 5% of each parameter, then 0.5%) until a
    round stops improving, to a relative spread of 1e-10.

    Returns ``(estimates, objective, n_evals)`` of the lowest objective.
    """
    options = options or FitOptions()
    names = _active_params(data)
    bounds = _bounds_for(names, data)
    model = _CompiledModel(data, names, bounds)

    def func(vec):
        r = model.residuals(vec)
        return float(r @ r)

    best, total_evals = None, 0
    x0 = np.array([float(init[n]) for n in names])
    for start in _starts(names, x0, bounds, options):
        x, fval = start, np.inf
        budget = options.max_evals
        for round_no in range(6):
            if budget <= 0:
                break
            frac = 0.05 if round_no == 0 else 0.005
            steps = np.array([frac * abs(s) if s != 0.0 else frac for s in x])
            x_new, f_new, n_evals, ok = nelder_mead(func, x, steps, 1e-10, budget)
            total_evals += n_evals
            budget -= n_evals
            improved = f_new < fval * (1.0 - 1e-9) if np.isfinite(fval) else True
            x, fval = x_new, f_new
            if not ok or not improved:
                break
        if best is None or fval < best[1]:
            best = (x, fval)
    return dict(zip(names, (float(v) for v in best[0]))), best[1], total_evals
