"""An oracle for ``evolve`` that shares no code with its generator: the
one-excitation wavefunction.

Unpumped and started from ``|e,0,0>``, every jump of the master equation
ends in the ground state ``|g,0,0>``.  So the one-excitation block of rho is
``c c^dag``, with ``c = (c_e, c_t, c_fp)`` the solution of
``i dc/dt = H_eff(t) c``, and the ground state holds ``1 - |c|^2``.  In the
target's frame, in rad/ps,

    H_eff = diag(w0 - wt - i gamma_leaky/2, -i kappa_t, delta_fp(t) - i kappa_fp)

plus ``g`` between emitter and target and ``eta`` between target and FP:
the Lindblad rates ``2 kappa`` of the cavities damp amplitudes at ``kappa``.
``delta_fp(t)`` is the FP frequency of ``params.fp`` shifted by
``tuning.fp_shift_at``.  The oracle solves this 3-vector equation by DOP853
at rtol 1e-13, in segments that end at each pulse onset, and the test holds
``evolve`` to it at n_max 1, 2 and 3.
"""

from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from cavtune import (
    HilbertSpec,
    PumpSchedule,
    apply_filter,
    emitter_excited_state,
    evolve,
    fp_shift_at,
    omega_to_wl,
    wl_to_omega,
)
from cavtune.config import load_config, scenario_config
from cavtune.lindblad import make_trajectory
from conftest import densities

PS = 1e-12  # s per ps

# the largest deviation of a compared series from the oracle, relative to the
# oracle's maximum of it.  Measured over the cases below: at most 3.7e-9 (n_fp
# of fig3-dip, whose maximum is 2.4e-4) and 8.1e-10 elsewhere, so the bound
# keeps a margin of 27.  Scaling kappa_t's Lindblad rate by 1 + 1e-6 moves every
# case by 1.5e-6 or more.
BOUND = 1e-7


def h_eff(params, omega_fp: float) -> np.ndarray:
    """``H_eff`` of ``params`` (rad/ps) with the FP mode at ``omega_fp`` (rad/s)."""
    omega_t, em = params.target.omega, params.emitter
    return PS * np.array([
        [em.omega0 - omega_t - 0.5j * em.gamma_leaky, em.g, 0.0],
        [em.g, -1j * params.target.kappa, params.eta],
        [0.0, params.eta, omega_fp - omega_t - 1j * params.fp.kappa],
    ])


def wavefunction(params, pulses, t_grid) -> np.ndarray:
    """``c(t)`` at each time of ``t_grid``, from ``c = (1, 0, 0)`` at its first.

    A pulse acts from its onset on: the segment that ends at an onset runs
    without that pulse.
    """
    lambda_fp = omega_to_wl(params.fp.omega)
    onsets = sorted({p.t0_ps for p in pulses if t_grid[0] < p.t0_ps < t_grid[-1]})
    bounds = [t_grid[0], *onsets, t_grid[-1]]
    c = np.array([1.0, 0.0, 0.0], dtype=complex)
    out = np.empty((t_grid.size, 3), dtype=complex)
    out[0] = c
    for a, b in zip(bounds[:-1], bounds[1:]):
        started = tuple(p for p in pulses if p.t0_ps <= a)

        def rhs(t, y):
            return -1j * (h_eff(params, wl_to_omega(lambda_fp + fp_shift_at(started, t))) @ y)

        inside = np.flatnonzero((t_grid > a) & (t_grid <= b))
        t_eval = np.unique(np.append(t_grid[inside], b))
        sol = solve_ivp(rhs, (a, b), c, method="DOP853", t_eval=t_eval, rtol=1e-13, atol=1e-16)
        assert sol.success, sol.message
        out[inside] = sol.y[:, : inside.size].T
        c = sol.y[:, -1]
    return out


def _scenario(name, **profile_keys):
    """A fig3 scenario's system, pulses, time grid and filter, unpumped."""
    raw = scenario_config(name)
    raw["profile"].update(profile_keys)
    cfg = load_config(raw)
    params = replace(cfg.params, pump=PumpSchedule())
    t = np.linspace(-20.0, 500.0, 261)
    return params, cfg.pulses, t, cfg.filters[0]


CASES = {
    "fig3-burst": lambda: _scenario("fig3-burst"),
    "fig3-dip": lambda: _scenario("fig3-dip"),
    # eta = (kappa_fp - kappa_t)/2 puts the exceptional point at zero
    # detuning: a static FP 0.2 nm to either side of it
    "static-blue-of-EP": lambda: _scenario("fig3-burst", static_detuning_nm=-0.2, pulses=[]),
    "static-red-of-EP": lambda: _scenario("fig3-burst", static_detuning_nm=0.2, pulses=[]),
}


def oracle_trajectory(params, pulses, t, keep, spec):
    """``c(t)`` and, for the filtered curve, its states as a trajectory:
    ``make_trajectory`` of ``c c^dag`` plus the ground state, on the entries
    ``keep`` of vec(rho)."""
    c = wavefunction(params, pulses, t)
    d = spec.dim
    rho = np.zeros((t.size, d, d), dtype=complex)
    one = [spec.index(1, 0, 0), spec.index(0, 1, 0), spec.index(0, 0, 1)]
    rho[:, np.array(one)[:, None], one] = c[:, :, None] * np.conj(c[:, None, :])
    rho[:, spec.index(0, 0, 0), spec.index(0, 0, 0)] = 1.0 - np.sum(np.abs(c) ** 2, axis=1)
    flat = rho.reshape(t.size, -1)
    outside = np.delete(flat, keep, axis=1)
    assert not outside.any()
    return c, make_trajectory(params, pulses, t, flat[:, keep], keep, d)


def deviations(params, pulses, t, lambda_fwhm, n_max):
    """The relative deviation of ``evolve`` from the oracle, per compared series."""
    spec = HilbertSpec(n_max)
    traj = evolve(params, pulses, emitter_excited_state(spec), t)
    c, oracle = oracle_trajectory(params, pulses, t, traj.keep, spec)

    def relative(got, want):
        return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))

    dev = {name: relative(getattr(traj, name), np.abs(c[:, i]) ** 2)
           for i, name in enumerate(("n_e", "n_t", "n_fp"))}
    # <a_t^dag a_fp> = tr(a_t^dag a_fp rho) = rho[(g,0,1), (g,1,0)] = conj(c_t) c_fp
    rho = densities(traj)
    dev["coherence"] = relative(rho[:, spec.index(0, 0, 1), spec.index(0, 1, 0)],
                                np.conj(c[:, 1]) * c[:, 2])
    dev["curve"] = relative(apply_filter(traj, *lambda_fwhm).intensity,
                            apply_filter(oracle, *lambda_fwhm).intensity)
    return dev


# each case at one truncation, each truncation in some case: n_max changes
# only which empty levels evolve carries, and a case costs about 0.2-0.7 s
@pytest.mark.parametrize("case, n_max", [
    ("fig3-burst", 1), ("fig3-dip", 2), ("static-blue-of-EP", 3), ("static-red-of-EP", 1),
])
def test_evolve_follows_the_wavefunction(case, n_max):
    dev = deviations(*CASES[case](), n_max)
    assert max(dev.values()) < BOUND, dev


def test_accuracy_does_not_loosen_with_n_max():
    # evolve's error norm runs over the entries it integrates, and without
    # pump pulses those are the ones l0 reaches from |e,0,0>: the same ten at
    # every n_max.  Measured, n_fp of fig3-burst deviates by 8.1e-10 at n_max 1
    # and 3 alike (before: 1.7e-9 and 5.1e-9, a ratio of 3.0, when the norm
    # ran over all of vec(rho)); the ratio may grow by at most 25%
    case = CASES["fig3-burst"]()
    ratio = deviations(*case, 3)["n_fp"] / deviations(*case, 1)["n_fp"]
    assert ratio <= 1.25, ratio
