"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy dynamic runs
are shared through module-scoped fixtures; each criterion still checks its
stated tolerance.
"""

import json
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from cavtune import (
    BareMode,
    FitOptions,
    FreeCarrierPulse,
    HilbertSpec,
    PumpSchedule,
    TuningProfile,
    couple,
    coupled_hamiltonian,
    dense_superoperator,
    emitter_excited_state,
    evolve,
    fit,
    fock_state,
    hamiltonian_bare_basis,
    liouvillian_apply,
    wl_to_omega,
)
from cavtune.cli import main as cli_main
from cavtune.config import TAU_FC_CALIBRATED_PS, load_config, scenario_config
from cavtune.runs import delay_scan, initial_state_for, simulate_dynamic
from cavtune.spectra import burst_metrics
from conftest import (
    ETA,
    KAPPA_T,
    LAMBDA_T,
    make_params,
    polished_eigenvalues,
    random_valid_system,
    run_from,
    se_rate_ratio,
    synthetic_data,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS")


@pytest.fixture(scope="module")
def burst_run():
    cfg = load_config(scenario_config("fig3-burst"))
    return cfg, simulate_dynamic(cfg)


@pytest.fixture(scope="module")
def dip_run():
    cfg = load_config(scenario_config("fig3-dip"))
    return cfg, simulate_dynamic(cfg)


@pytest.fixture(scope="module")
def delay_runs():
    cfg = load_config(scenario_config("fig4-delay"))
    rho0 = initial_state_for(cfg)
    template = cfg.profile.pulses[0]

    def run(profile):
        return run_from(cfg, profile, rho0.copy())

    reference = run(TuningProfile(static_detuning_nm=0.0))
    delays = {}
    for delay in (1500.0, 2000.0, 2500.0):
        pulse = FreeCarrierPulse(delay, template.delta_lambda_max_nm, template.tau_fc_ps)
        delays[delay] = run(TuningProfile(static_detuning_nm=0.0, pulses=(pulse,)))
    return cfg, reference, delays, run


def test_delay_scan_matches_fig4_delay_runs(delay_runs):
    # the production scan at shipped scale against the from-scratch runs, within
    # the bound of tests/test_runs.py; the run at 1500 ps restarts only where
    # its from-scratch run does, at the reference's first segment end
    cfg, _, delays, _ = delay_runs
    t = cfg.time_grid_ps
    (_, ref_map, ref_curves), *scanned = delay_scan(cfg)
    assert list(cfg.delays_ps) == list(delays)
    for (delay, (_, oracle_map, oracle_curves)), (_, pl_map, curves) in zip(delays.items(), scanned):
        if delay == 1500.0:
            np.testing.assert_array_equal(pl_map.intensity, oracle_map.intensity)
        col_max = oracle_map.intensity.max(axis=0)
        assert np.all(np.abs(pl_map.intensity - oracle_map.intensity) <= 5e-10 * col_max)
        for curve, oracle in zip(curves, oracle_curves):
            diff = np.abs(curve.intensity - oracle.intensity)
            assert diff.max() <= 5e-10 * oracle.intensity.max()
        # before its pulse a delayed run is the scan's reference, to the last bit
        before = t < delay
        assert before.sum() == {1500.0: 425, 2000.0: 550, 2500.0: 675}[delay]
        np.testing.assert_array_equal(pl_map.intensity[before], ref_map.intensity[before])
        for curve, ref_curve in zip(curves, ref_curves):
            np.testing.assert_array_equal(curve.intensity[before], ref_curve.intensity[before])


def test_acceptance_1_exceptional_point_q_halving():
    with criterion(1, "exceptional-point Q halving"):
        omega = wl_to_omega(LAMBDA_T)
        target = BareMode(omega, KAPPA_T)
        fp = BareMode(omega, 3.0 * KAPPA_T)
        cm = couple(target, fp, KAPPA_T)
        q_t = target.q
        assert cm.degenerate
        assert abs(cm.q(1) / q_t - 0.5) < 1e-6
        assert abs(cm.q(2) / q_t - 0.5) < 1e-6


def test_acceptance_2_basis_equivalence_1000_draws():
    with criterion(2, "bare/coupled basis eigenvalue equivalence, 1000 draws"):
        rng = np.random.RandomState(1234)
        for _ in range(1000):
            p = random_valid_system(rng)
            e1 = polished_eigenvalues(hamiltonian_bare_basis(p))
            e2 = polished_eigenvalues(coupled_hamiltonian(p))
            scale = np.abs(e1).max()
            assert np.max(np.abs(e1 - e2)) <= 1e-10 * scale


def test_acceptance_3_master_equation_oracles(burst_run, dip_run, delay_runs):
    with criterion(3, "master-equation oracles"):
        # (a) trace deviation on every shipped trajectory
        for _, (traj, _, _) in (burst_run, dip_run):
            assert traj.trace_dev_max < 1e-8
        _, reference, delays, _ = delay_runs
        assert reference[0].trace_dev_max < 1e-8
        for traj, _, _ in delays.values():
            assert traj.trace_dev_max < 1e-8

        # (b) bare-cavity photon decay matches exp(-2 kappa t) to 1e-6 relative
        p = make_params(g=0.0, gamma_leaky=0.0, eta=0.0)
        spec = HilbertSpec(1)
        t_grid = np.linspace(0.0, 1e12 / (2.0 * KAPPA_T), 41)
        traj = evolve(
            p, TuningProfile(), fock_state(spec, 0, 1, 0), t_grid, rtol=1e-10, atol=1e-14
        )
        expected = np.exp(-2.0 * KAPPA_T * 1e-12 * t_grid[1:])
        assert np.max(np.abs(traj.n_t[1:] - expected) / expected) < 1e-6

        # (c) weak-coupling decay rate gamma_leaky + 2 g^2 / kappa_t within 5%
        g = KAPPA_T / 20.0
        gamma_leaky = 5e8
        p = make_params(g=g, gamma_leaky=gamma_leaky, eta=0.0, lambda_fp=1560.0)
        expected_rate = gamma_leaky + 2.0 * g**2 / KAPPA_T
        t_grid = np.linspace(0.0, 2e12 / expected_rate, 201)
        traj = evolve(
            p, TuningProfile(static_detuning_nm=8.0), emitter_excited_state(HilbertSpec(1)), t_grid
        )
        mask = t_grid > 50.0
        rate = -np.polyfit(t_grid[mask] * 1e-12, np.log(traj.n_e[mask]), 1)[0]
        assert abs(rate - expected_rate) / expected_rate < 0.05

        # (d) matrix-free generator equals the compiled operator made dense, n_max <= 2
        rng = np.random.RandomState(7)
        p = make_params(pump=PumpSchedule(cw_rate=2e8))
        for n_max in (1, 2):
            spec = HilbertSpec(n_max)
            x = rng.randn(spec.dim, spec.dim) + 1j * rng.randn(spec.dim, spec.dim)
            rho = x @ x.conj().T
            rho /= np.trace(rho).real
            direct = liouvillian_apply(p, rho, pump_rate=2e8)
            sup = dense_superoperator(p, pump_rate=2e8, spec=spec)
            via = (sup @ rho.reshape(-1)).reshape(spec.dim, spec.dim)
            assert np.max(np.abs(direct - via)) <= 1e-10 * np.max(np.abs(direct))


def test_acceptance_4_cmt_master_equation_consistency():
    # The master-equation decay rate of the excited emitter is checked three
    # ways at detunings -1, 0 and +1 nm:
    # (a) everywhere, against the exact coupled-mode rate -2 max Im(lambda) of
    #     the 3x3 bare-basis matrix (hamiltonian_bare_basis, with
    #     -i gamma_leaky/2 on the emitter diagonal), an oracle built from
    #     modespace and not from the Lindblad generator;
    # (b) at +-1 nm, against the Euclidean mode sum
    #     gamma_leaky + gamma_t * sum_l |c_l|^2 kappa_t/kappa_l;
    # (c) at 0 nm, where the default parameters sit exactly at the cavity
    #     pair's exceptional point, the mode sum does not hold: the coalesced
    #     modes form a double pole of the cavity response, and the exact rate
    #     gamma_leaky + 2 g^2 * 3 kappa_t/(3 kappa_t^2 + eta^2) exceeds the
    #     mode sum by 50% in the in-mode part.  The check pins that 2/3 ratio
    #     of the in-mode parts (see tests/test_lindblad.py::TestWeakCouplingRates).
    with criterion(4, "coupled-mode vs master-equation SE rates"):
        g = KAPPA_T / 10.0
        gamma_leaky = 5e8
        failures = []
        for det_nm in (-1.0, 0.0, 1.0):
            p = make_params(g=g, gamma_leaky=gamma_leaky)
            fp = BareMode(wl_to_omega(LAMBDA_T + det_nm), p.fp.kappa)
            cm = couple(p.target, fp, p.eta)
            gamma_t = p.purcell_rate
            predicted = gamma_leaky + gamma_t * (
                se_rate_ratio(cm, 1, KAPPA_T) + se_rate_ratio(cm, 2, KAPPA_T)
            )
            matrix = hamiltonian_bare_basis(replace(p, fp=fp))
            matrix[0, 0] -= 0.5j * gamma_leaky
            exact = -2.0 * polished_eigenvalues(matrix).imag.max()
            t_grid = np.linspace(0.0, 2.5e12 / predicted, 301)
            traj = evolve(
                p,
                TuningProfile(static_detuning_nm=det_nm),
                emitter_excited_state(HilbertSpec(1)),
                t_grid,
            )
            mask = (t_grid > 60.0) & (traj.n_e > 1e-12)
            rate = -np.polyfit(t_grid[mask] * 1e-12, np.log(traj.n_e[mask]), 1)[0]
            rel_exact = abs(rate - exact) / exact
            rel_sum = abs(rate - predicted) / predicted
            print(
                f"  detuning {det_nm:+.1f} nm: simulated {rate:.4e} 1/s, "
                f"exact {exact:.4e} 1/s, mode-sum {predicted:.4e} 1/s, "
                f"deviation from exact {rel_exact:.1e}, "
                f"from mode-sum {rel_sum * 100:.1f}%"
            )
            if rel_exact >= 0.10:
                failures.append(("(a) exact rate", det_nm, rel_exact))
            if det_nm == 0.0:
                in_mode_ratio = (predicted - gamma_leaky) / (rate - gamma_leaky)
                ep_ratio = (gamma_t / 2.0) / (
                    2.0 * g**2 * 3.0 * KAPPA_T / (3.0 * KAPPA_T**2 + p.eta**2)
                )
                print(
                    f"  exceptional point: in-mode mode-sum / simulated "
                    f"{in_mode_ratio:.4f}, closed form {ep_ratio:.4f}"
                )
                if abs(in_mode_ratio - ep_ratio) / ep_ratio >= 0.03:
                    failures.append(("(c) in-mode ratio", det_nm, in_mode_ratio))
            elif rel_sum >= 0.10:
                failures.append(("(b) mode sum", det_nm, rel_sum))
        found = ", ".join(f"{check} at {det:+.1f} nm: {val:.4g}" for check, det, val in failures)
        assert not failures, (
            "master-equation SE rate inconsistent with coupled-mode theory "
            f"({found}); (a) needs the rate within 10% of -2 max Im(lambda) of "
            "the 3x3 coupled-mode matrix at every detuning, (b) within 10% of the "
            "mode sum at +-1 nm, (c) the mode sum's in-mode part at 2/3 of the "
            "simulated one (within 3%) at the exceptional point"
        )


def calibrate_burst_tau_fc(cfg):
    """Bisect the free-carrier lifetime in [120, 620] ps, in at most 40 steps, until the
    burst FWHM is within 2 ps of 232 ps.

    Returns (tau_fc_ps, achieved_fwhm_ps).  The burst FWHM grows monotonically
    with the recovery time, so a bracketing bisection is reliable.
    """
    target_fwhm_ps, tol_ps = 232.0, 2.0
    rho0 = initial_state_for(cfg)

    def fwhm_for(tau):
        profile = replace(cfg.profile, pulses=(replace(cfg.profile.pulses[0], tau_fc_ps=tau),))
        _, _, curves = run_from(cfg, profile, rho0.copy())
        return burst_metrics(curves[0], cfg.baseline_window_ps).fwhm_ps

    lo, hi = 120.0, 620.0
    f_lo, f_hi = fwhm_for(lo), fwhm_for(hi)
    assert f_lo < target_fwhm_ps < f_hi, f"bracket misses the target: f({lo})={f_lo}, f({hi})={f_hi}"
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        f_mid = fwhm_for(mid)
        if abs(f_mid - target_fwhm_ps) <= tol_ps:
            return mid, f_mid
        if f_mid < target_fwhm_ps:
            lo = mid
        else:
            hi = mid
    mid = 0.5 * (lo + hi)
    return mid, fwhm_for(mid)


def test_acceptance_5_calibrated_burst_and_dip(burst_run, dip_run):
    with criterion(5, "calibrated burst/dip reproduction"):
        # one-dimensional scan pins the burst FWHM at 232 ps
        cfg_burst, (traj_b, _, curves_b) = burst_run
        tau_scan, fwhm_scan = calibrate_burst_tau_fc(cfg_burst)
        assert abs(fwhm_scan - 232.0) <= 5.0
        assert abs(tau_scan - TAU_FC_CALIBRATED_PS) <= 10.0  # frozen value re-derived

        burst = burst_metrics(curves_b[0], cfg_burst.baseline_window_ps)
        assert burst.kind == "burst"
        assert abs(burst.fwhm_ps - 232.0) <= 5.0
        assert 2.0 <= burst.depth <= 5.0

        cfg_dip, (traj_d, _, curves_d) = dip_run
        dip = burst_metrics(curves_d[0], cfg_dip.baseline_window_ps)
        assert dip.kind == "dip"
        assert 1.4 <= dip.depth <= 3.0
        assert abs(dip.fwhm_ps - 246.0) <= 0.30 * 246.0


def test_acceptance_6_delay_tracking_and_inversion(delay_runs):
    with criterion(6, "delayed-control waveform shaping"):
        cfg, reference, delays, run = delay_runs
        t = cfg.time_grid_ps
        ref = reference[2][0].intensity
        safe_ref = np.where(ref > 0, ref, np.inf)
        for delay, (_, _, curves) in delays.items():
            ratio = curves[0].intensity / safe_ref
            mask = t > 100.0  # past the pump pulse
            t_ext = t[mask][np.argmax(ratio[mask])]
            assert abs(t_ext - delay) <= 50.0
            assert ratio[mask].max() > 1.5

        # +0.6 nm static detuning: the blue control pulse transits the
        # resonance and the feature inverts
        template = cfg.profile.pulses[0]
        pulse = FreeCarrierPulse(2000.0, template.delta_lambda_max_nm, template.tau_fc_ps)
        dipped = run(TuningProfile(static_detuning_nm=0.6, pulses=(pulse,)))
        detuned_ref = run(TuningProfile(static_detuning_nm=0.6))
        ref2 = np.where(detuned_ref[2][0].intensity > 0, detuned_ref[2][0].intensity, np.inf)
        ratio = dipped[2][0].intensity / ref2
        mask = t > 100.0
        t_min = t[mask][np.argmin(ratio[mask])]
        assert ratio[mask].min() < 0.7  # inverted: a dip, not a burst
        assert abs(t_min - 2000.0) <= 50.0


def test_acceptance_7_fit_recovery():
    with criterion(7, "fit recovery"):
        eta_true, kt_true, kfp_true, lam_true = ETA, KAPPA_T, 3 * KAPPA_T, LAMBDA_T
        grid = np.linspace(-1.2, 1.2, 25)
        init = dict(eta=1.3e11, kappa_t=1.2e11, kappa_fp=5.5e11, lambda_t=1552.1)

        noiseless = synthetic_data(eta_true, kt_true, kfp_true, lam_true, grid)
        result = fit(noiseless, init)
        assert result.converged
        assert abs(result.estimates["eta"] - eta_true) / eta_true < 1e-3
        assert abs(result.estimates["kappa_t"] - kt_true) / kt_true < 1e-3
        assert abs(result.estimates["kappa_fp"] - kfp_true) / kfp_true < 1e-3
        assert abs(result.estimates["lambda_t"] - lam_true) / lam_true < 1e-3

        errors = []
        options = FitOptions(max_evals=20000)
        for seed in range(100):
            noisy = synthetic_data(
                eta_true, kt_true, kfp_true, lam_true, grid, noise_sigma_nm=0.01, seed=seed
            )
            res = fit(noisy, init, options=options)
            errors.append(abs(res.estimates["eta"] - eta_true) / eta_true)
        median_err = float(np.median(errors))
        assert median_err < 0.05, f"median eta error {median_err:.4f}"


def _run_cli(args):
    result = CliRunner().invoke(cli_main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def _snapshot(outdir):
    files = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            files[path.relative_to(outdir).as_posix()] = path.read_bytes()
    return files


def test_acceptance_8_determinism(tmp_path):
    with criterion(8, "byte-identical repeated runs"):
        plans = [
            ("fig2-sweep", "static-sweep"),
            ("fig3-burst", "dynamic"),
            ("fig3-dip", "dynamic"),
            ("fig4-delay", "dynamic"),
        ]
        for scenario, command in plans:
            runs = []
            for tag, threads in (("a", 1), ("b", 2)):
                out = tmp_path / f"{scenario}-{tag}"
                _run_cli(
                    [command, "--scenario", scenario, "--out", str(out),
                     "--threads", str(threads), "--render"]
                )
                runs.append(_snapshot(out))
            first, second = runs
            assert first.keys() == second.keys()
            for name in first:
                if name == "manifest.json":
                    m1 = json.loads(first[name])
                    m2 = json.loads(second[name])
                    m1.pop("duration_s")
                    m2.pop("duration_s")
                    assert m1 == m2, f"{scenario}: manifest mismatch"
                else:
                    assert first[name] == second[name], f"{scenario}: {name} differs"
