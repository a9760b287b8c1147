"""Embedded invariant suite behind the ``selftest`` CLI command.

Each check is small, named, and independent; the suite is the quick field
diagnostic, not a replacement for the full pytest suite.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from .config import DEFAULT_SYSTEM
from .lindblad import (
    _Generator,
    _LinearNDF,
    dense_superoperator,
    emitter_excited_state,
    evolve,
    fock_state,
    liouvillian_apply,
    make_trajectory,
    vacuum_state,
)
from .modespace import (
    TWO_PI_C_NM,
    BareMode,
    EmitterParams,
    SystemParams,
    couple,
    coupled_hamiltonian,
    hamiltonian_bare_basis,
    omega_to_wl,
    wl_to_omega,
)
from .spectra import DecayCurve, apply_filter, burst_metrics, synthesize_map
from .tuning import FreeCarrierPulse, HilbertSpec, PumpSchedule, fp_shift_at


def _default_params(pump=PumpSchedule(), fp_red_nm=0.0, **rates) -> SystemParams:
    """``DEFAULT_SYSTEM``, the FP mode ``fp_red_nm`` red of the target, with
    ``rates`` (g, gamma_leaky, eta) replaced."""
    system = {**DEFAULT_SYSTEM, **rates}
    omega_t = wl_to_omega(system["lambda_t_nm"])
    return SystemParams(
        EmitterParams(omega_t, system["g"], system["gamma_leaky"]),
        BareMode(omega_t, system["kappa_t"]),
        BareMode(wl_to_omega(system["lambda_t_nm"] + fp_red_nm), system["kappa_fp"]),
        system["eta"],
        pump,
    )


def _check_roundtrip():
    lam = 1550.0
    back = omega_to_wl(wl_to_omega(lam))
    return abs(back - lam) / lam < 1e-12, f"roundtrip error {abs(back - lam) / lam:.2e}"


def _check_trace_conservation():
    # d tr(rho)/dt from the entry j of vec(rho) is the sum of column j over the
    # rows of the diagonal entries: 0 for every j when the generator keeps the trace
    spec = HilbertSpec(2)
    sup = dense_superoperator(_default_params(pump=PumpSchedule(cw_rate=1e8)), spec)
    dev = np.max(np.abs(sup[:: spec.dim + 1].sum(axis=0))) / np.max(np.abs(sup))
    return dev < 1e-12, f"max |column trace of L|/max |L| = {dev:.2e}"


def _check_eigen_trace_det():
    rng = np.random.RandomState(11)
    devs = []
    for _ in range(50):
        t = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
        f = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
        eta = 1e11 * rng.uniform(0, 5)
        cm = couple(t, f, eta)
        wt, wf = t.complex_freq(), f.complex_freq()
        mu1, mu2 = cm.eigenvalue(1), cm.eigenvalue(2)
        devs.append(abs((wt + wf) - (mu1 + mu2)) / abs(wt + wf))
        devs.append(abs((wt * wf - eta**2) - mu1 * mu2) / abs(wt * wf))
    worst = np.max(devs)
    return worst <= 1e-12, f"max relative trace/determinant deviation {worst:.2e} over 50 draws"


def _check_exceptional_point():
    # equal frequencies and eta = (kappa_fp - kappa_t)/2: both coupled modes
    # decay at the mean of the two loss rates, so Q falls to kappa_t over that mean
    p = _default_params()
    kappa_t, kappa_fp = p.target.kappa, p.fp.kappa
    cm = couple(p.target, p.fp, (kappa_fp - kappa_t) / 2.0)
    expected = kappa_t / (0.5 * (kappa_t + kappa_fp))
    r1, r2 = cm.q(1) / p.target.q, cm.q(2) / p.target.q
    ok = cm.degenerate and abs(r1 - expected) < 1e-6 and abs(r2 - expected) < 1e-6
    return ok, f"Q ratios ({r1:.6f}, {r2:.6f}) vs {expected:.6f}, degenerate={cm.degenerate}"


def _check_basis_equivalence():
    rng = np.random.RandomState(3)
    devs = []
    for _ in range(200):
        p = SystemParams(
            EmitterParams(1e15 * rng.uniform(0.5, 2), 1e9 * rng.uniform(0, 5), 1e8),
            BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.5, 3)),
            BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.5, 3)),
            1e11 * rng.uniform(0, 3),
            PumpSchedule(),
        )
        e1 = np.sort_complex(np.linalg.eigvals(hamiltonian_bare_basis(p)))
        e2 = np.sort_complex(np.linalg.eigvals(coupled_hamiltonian(p)))
        scale = max(abs(e1).max(), 1.0)
        devs.append(np.max(np.abs(e1 - e2)) / scale)
    worst = np.max(devs)
    return worst <= 1e-10, f"max eigenvalue distance / scale {worst:.2e} over 200 draws"


def _check_master_equation_trace():
    p = _default_params(pump=PumpSchedule(cw_rate=1e8))
    pulses = (FreeCarrierPulse(50.0, 0.6, 150.0),)
    t = np.linspace(0.0, 400.0, 101)
    traj = evolve(p, pulses, emitter_excited_state(HilbertSpec(1)), t)
    return traj.trace_dev_max < 1e-12, f"max trace deviation {traj.trace_dev_max:.2e}"


ROTATING_DECAY_KEEP = np.array([1, 3, 4])


def rotating_decay(rtol: float):
    """``_LinearNDF`` on ``y' = (-k + i w(t)) y``, ``w(t) = w0 + w1 cos t``, against its closed form.

    The entries ``ROTATING_DECAY_KEEP`` of a 6-vector start at 1 and the
    others at 0; over t in [0, 10] the fastest entry turns about 16 times.
    Returns the ``solve_ivp`` result at ``rtol`` and ``atol = rtol / 100`` on
    101 times, whose ``y`` holds the kept entries alone, and its largest
    deviation from ``y(t) = exp(-k t + i (w0 t + w1 sin t))``.
    """
    keep = ROTATING_DECAY_KEEP
    k, w0, w1 = np.array([0.1, 0.5, 2.0]), np.array([1.0, -3.0, 10.0]), np.array([2.0, 0.5, 5.0])
    t = np.linspace(0.0, 10.0, 101)

    def rates(tk):
        return -k + 1j * (w0 + w1 * np.cos(tk))

    y0 = np.zeros(6, dtype=complex)
    y0[keep] = 1.0
    sol = solve_ivp(lambda tk, y: rates(tk) * y, (0.0, 10.0), y0, method=_LinearNDF, t_eval=t,
                    rtol=rtol, atol=rtol / 100.0, keep=keep, matrix=lambda tk: np.diag(rates(tk)))
    exact = np.exp(-np.outer(k, t) + 1j * (np.outer(w0, t) + np.outer(w1, np.sin(t))))
    return sol, float(np.max(np.abs(sol.y - exact)))


def _check_integrator_closed_form():
    sol, err = rotating_decay(1e-10)
    return sol.success and err < 1e-8, f"max error {err:.2e} at rtol 1e-10"


def _check_cavity_decay():
    p = _default_params(g=0.0, gamma_leaky=0.0, eta=0.0)
    spec = HilbertSpec(1)
    kappa = p.target.kappa
    t_half = 1.0 / (2.0 * kappa) * 1e12  # ps
    t = np.linspace(0.0, t_half, 51)
    traj = evolve(p, (), fock_state(spec, 0, 1, 0), t, rtol=1e-10, atol=1e-14)
    expected = np.exp(-1.0)
    got = traj.n_t[-1]
    return abs(got - expected) / expected < 1e-6, f"n_t(1/2kappa) = {got:.8f} vs e^-1"


def _check_emitter_leaky_decay():
    gamma = 1e9
    p = _default_params(g=0.0, gamma_leaky=gamma)
    spec = HilbertSpec(1)
    t = np.linspace(0.0, 1000.0, 101)
    traj = evolve(p, (), emitter_excited_state(spec), t, rtol=1e-10, atol=1e-14)
    expected = np.exp(-gamma * 1e-12 * t[-1])
    got = traj.n_e[-1]
    return abs(got - expected) / expected < 1e-6, f"n_e(t_end) = {got:.8f} vs {expected:.8f}"


def _check_purcell_rate():
    # no cavity-pair coupling and the FP mode 8 nm off: the emitter decays
    # through the target at the adiabatic (weak-coupling) rate
    p = _default_params(fp_red_nm=8.0, g=DEFAULT_SYSTEM["kappa_t"] / 20.0, eta=0.0)
    expected = p.emitter.gamma_leaky + p.purcell_rate
    t = np.linspace(0.0, 2.0 / (expected * 1e-12), 201)
    traj = evolve(p, (), emitter_excited_state(HilbertSpec(1)), t)
    mask = (t > 50.0) & (traj.n_e > 1e-12)
    rate = -np.polyfit(t[mask] * 1e-12, np.log(traj.n_e[mask]), 1)[0]
    return abs(rate - expected) / expected < 0.05, (
        f"fitted {rate:.4e} vs adiabatic {expected:.4e} (1/s)"
    )


def _check_dense_oracle():
    p = _default_params(pump=PumpSchedule(cw_rate=2e8))
    spec = HilbertSpec(1)
    rng = np.random.RandomState(23)
    x = rng.randn(spec.dim, spec.dim) + 1j * rng.randn(spec.dim, spec.dim)
    rho = x @ x.conj().T
    rho /= np.trace(rho).real
    direct = liouvillian_apply(p, rho)
    sup = dense_superoperator(p, spec)
    via_sup = (sup @ rho.reshape(-1)).reshape(spec.dim, spec.dim)
    dev = np.max(np.abs(direct - via_sup)) / np.max(np.abs(direct))
    return dev < 1e-10, f"matrix-free vs compiled generator deviation {dev:.2e}"


def _check_mode_population_sum():
    # the closed-form n1, n2 that the emission model reads, on random valid
    # states over the vacuum's closure under a CW pump
    spec = HilbertSpec(2)
    p = _default_params(pump=PumpSchedule(cw_rate=1e8))
    keep = _Generator(p, spec).reach(vacuum_state(spec), True)
    rng = np.random.RandomState(5)
    x = rng.randn(10, spec.dim, spec.dim) + 1j * rng.randn(10, spec.dim, spec.dim)
    rhos = (x @ np.conj(np.swapaxes(x, 1, 2))).reshape(10, -1)[:, keep]  # positive, pinched
    rhos /= rhos[:, keep % (spec.dim + 1) == 0].sum(axis=1, keepdims=True).real
    traj = make_trajectory(p, (), np.arange(10.0), rhos, keep, spec.dim)
    dev = np.max(np.abs(traj.n1 + traj.n2 - (traj.n_t + traj.n_fp)))
    return dev < 1e-8, f"max |n1 + n2 - <n_t> - <n_fp>| = {dev:.2e} on random states"


def _single_line():
    """One target photon, the FP uncoupled 5 nm red, over 8001 points of +-80 linewidths.

    Mode 2 is then a line of unit population and weight at the target, and
    mode 1 carries no flux.
    """
    lam_t = DEFAULT_SYSTEM["lambda_t_nm"]
    p = _default_params(fp_red_nm=5.0, eta=0.0)
    spec = HilbertSpec(1)
    rho = fock_state(spec, 0, 1, 0).ravel()
    keep = np.flatnonzero(rho)
    traj = make_trajectory(p, (), np.linspace(0.0, 10.0, 5),
                           np.tile(rho[keep], (5, 1)), keep, spec.dim)
    line_fwhm = 2.0 * p.target.kappa * lam_t**2 / TWO_PI_C_NM
    return traj, np.linspace(lam_t - 80 * line_fwhm, lam_t + 80 * line_fwhm, 8001)


def _check_map_area():
    # single bright line of constant population: integrated map = flux;
    # +-80 linewidths: the Lorentzian tails then carry ~0.4% < 0.5% of the area
    traj, grid = _single_line()
    integral = np.trapezoid(synthesize_map(traj, grid).intensity[0], grid)
    flux = 2.0 * traj.kappa_t * 1e-12
    return abs(integral - flux) / flux < 5e-3, f"map integral {integral:.4e} vs flux {flux:.4e}"


def _check_filter_quadrature():
    # the line through a 0.5 nm filter 0.3 nm off it; ~1e-7 of its light lies off the grid
    (traj, grid), lambda_c = _single_line(), DEFAULT_SYSTEM["lambda_t_nm"] + 0.3
    closed = apply_filter(traj, lambda_c, 0.5).intensity[0]
    profile = 0.25**2 / ((grid - lambda_c) ** 2 + 0.25**2)
    quadrature = np.trapezoid(synthesize_map(traj, grid).intensity[0] * profile, grid)
    dev = abs(closed - quadrature) / quadrature
    return dev < 1e-5, f"closed form vs trapezoid rule: deviation {dev:.2e}"


def _check_metric_scale_invariance():
    t = np.linspace(-500.0, 1500.0, 801)
    base = 1.0 + 2.0 * np.exp(-0.5 * ((t - 200.0) / 100.0) ** 2)
    m1 = burst_metrics(DecayCurve(t, base, 1552.0, 0.5), (-500.0, 0.0))
    m2 = burst_metrics(DecayCurve(t, 137.0 * base, 1552.0, 0.5), (-500.0, 0.0))
    ok = abs(m1.depth - m2.depth) < 1e-12 and abs(m1.fwhm_ps - m2.fwhm_ps) < 1e-9
    return ok, f"depth {m1.depth:.6f} and FWHM {m1.fwhm_ps:.1f} ps unchanged under scaling"


def _check_pulse_superposition():
    p1 = FreeCarrierPulse(0.0, 0.4, 120.0)
    p2 = FreeCarrierPulse(300.0, 0.7, 220.0)
    t = np.linspace(-100.0, 1500.0, 641)
    lhs = fp_shift_at((p1, p2), t)
    rhs = fp_shift_at((p1,), t) + fp_shift_at((p2,), t)
    dev = np.max(np.abs(lhs - rhs))
    return dev == 0.0, f"max |two-pulse shift - sum of single shifts| = {dev:.2e} nm"


CHECKS = [
    ("wavelength-frequency roundtrip", _check_roundtrip),
    ("generator trace conservation", _check_trace_conservation),
    ("cavity-pair trace/determinant conservation", _check_eigen_trace_det),
    ("exceptional-point Q ratio", _check_exceptional_point),
    ("bare/coupled basis eigenvalue equivalence", _check_basis_equivalence),
    ("master-equation trace preservation", _check_master_equation_trace),
    ("integrator against closed form", _check_integrator_closed_form),
    ("bare-cavity photon decay", _check_cavity_decay),
    ("emitter leaky-mode decay", _check_emitter_leaky_decay),
    ("weak-coupling emitter rate", _check_purcell_rate),
    ("dense superoperator oracle", _check_dense_oracle),
    ("coupled-mode population sum rule", _check_mode_population_sum),
    ("spectral map area", _check_map_area),
    ("closed-form filter against quadrature", _check_filter_quadrature),
    ("metric scale invariance", _check_metric_scale_invariance),
    ("pulse superposition", _check_pulse_superposition),
]


def run_selftest():
    """Run every check; returns a list of (name, passed, detail), in which a
    check that raises has failed with the exception as its detail."""
    results = []
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a check that cannot run has failed; the table goes on
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        results.append((name, bool(passed), detail))
    return results
