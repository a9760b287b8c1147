"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The heavy dynamic runs
are shared through module-scoped fixtures; each criterion still checks its
stated tolerance.
"""

import json
from contextlib import contextmanager
from dataclasses import fields, replace

import numpy as np
import pytest

from cavtune import (
    BareMode,
    FitOptions,
    FreeCarrierPulse,
    HilbertSpec,
    PumpSchedule,
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
from cavtune.config import TAU_FC_CALIBRATED_PS, load_config, scenario_config
from cavtune.runs import delay_scan, filtered_curves, initial_state_for, simulate_dynamic
from cavtune.spectra import burst_metrics, synthesize_map
from snapshot import (
    SE_RATE_DETUNINGS_NM,
    SHIPPED_RUNS,
    SNAPSHOT_PATH,
    distances,
    measure,
    run_cli,
    run_shipped,
)
from conftest import (
    ETA,
    KAPPA_T,
    LAMBDA_T,
    filter_by_quadrature,
    make_params,
    map_and_curves,
    polished_eigenvalues,
    random_valid_system,
    run_from,
    se_rates,
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
    traj = simulate_dynamic(cfg)
    return cfg, traj, filtered_curves(cfg, traj)


@pytest.fixture(scope="module")
def dip_run():
    cfg = load_config(scenario_config("fig3-dip"))
    traj = simulate_dynamic(cfg)
    return cfg, traj, filtered_curves(cfg, traj)


@pytest.fixture(scope="module")
def delay_runs():
    cfg = load_config(scenario_config("fig4-delay"))
    rho0 = initial_state_for(cfg)
    template = cfg.pulses[0]

    def run(pulses, params=cfg.params):
        traj = run_from(replace(cfg, params=params), pulses, rho0.copy())
        return traj, filtered_curves(cfg, traj)

    reference = run(())
    delays = {}
    for delay in (1500.0, 2000.0, 2500.0):
        pulse = FreeCarrierPulse(delay, template.delta_lambda_max_nm, template.tau_fc_ps)
        delays[delay] = run((pulse,))
    return cfg, reference, delays, run


def test_delay_scan_matches_fig4_delay_runs(delay_runs):
    # the production scan at shipped scale against the from-scratch runs, within
    # the bound of tests/test_runs.py; the run at 1500 ps restarts only where
    # its from-scratch run does, at the reference's first segment end
    cfg, _, delays, _ = delay_runs
    t = cfg.time_grid_ps
    reference, *scanned = delay_scan(cfg)
    ref_map, ref_curves = map_and_curves(cfg, reference)
    assert list(cfg.delays_ps) == list(delays)
    for (delay, (oracle_traj, _)), traj in zip(delays.items(), scanned):
        oracle_map, oracle_curves = map_and_curves(cfg, oracle_traj)
        pl_map, curves = map_and_curves(cfg, traj)
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


def test_closed_form_filter_matches_quadrature(burst_run):
    # every 50th row of the burst's curve against the trapezoid rule of its map
    # on +-200 nm at 1e-3 nm: beyond +-L a line leaves gamma h^2 / (3 pi L^3)
    # of its flux through the filter (under 1e-9 here), and the trapezoid rule
    # on Lorentzians sampled this finely errs far less
    cfg, traj, curves = burst_run
    (lambda_c, fwhm), = cfg.filters
    grid = LAMBDA_T + 1e-3 * np.arange(-200000, 200001)
    n = traj.t_ps.size
    rows = np.arange(0, n, 50)
    per_time = [f.name for f in fields(traj) if np.shape(getattr(traj, f.name))[:1] == (n,)]
    quadrature = np.concatenate([
        filter_by_quadrature(
            synthesize_map(replace(traj, **{f: getattr(traj, f)[chunk] for f in per_time}), grid),
            lambda_c, fwhm,
        )
        for chunk in np.array_split(rows, 7)  # 3 rows, 10 MB, at a time
    ])
    closed = curves[0].intensity[rows]
    assert np.max(np.abs(closed - quadrature)) <= 1e-8 * np.max(quadrature)


def test_curves_do_not_depend_on_the_map_grid(shipped_outputs, tmp_path):
    raw = scenario_config("fig3-burst")
    raw["grids"]["lambda_nm"] = {"start": 1551.0, "stop": 1553.0, "n": 41}
    path = tmp_path / "narrow.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    run_cli(["dynamic", "--config", path, "--out", tmp_path / "narrow"])
    shipped = shipped_outputs / "fig3-burst"
    for name in ("curve_1552.20nm.csv", "metrics.json"):
        assert (tmp_path / "narrow" / name).read_bytes() == (shipped / name).read_bytes(), name
    assert (tmp_path / "narrow" / "map.csv").read_bytes() != (shipped / "map.csv").read_bytes()


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
        for _, traj, _ in (burst_run, dip_run):
            assert traj.trace_dev_max < 1e-8
        _, reference, delays, _ = delay_runs
        assert reference[0].trace_dev_max < 1e-8
        for traj, _ in delays.values():
            assert traj.trace_dev_max < 1e-8

        # (b) bare-cavity photon decay matches exp(-2 kappa t) to 1e-6 relative
        p = make_params(g=0.0, gamma_leaky=0.0, eta=0.0)
        spec = HilbertSpec(1)
        t_grid = np.linspace(0.0, 1e12 / (2.0 * KAPPA_T), 41)
        traj = evolve(
            p, (), fock_state(spec, 0, 1, 0), t_grid, rtol=1e-10, atol=1e-14
        )
        expected = np.exp(-2.0 * KAPPA_T * 1e-12 * t_grid[1:])
        assert np.max(np.abs(traj.n_t[1:] - expected) / expected) < 1e-6

        # (c) weak-coupling decay rate gamma_leaky + 2 g^2 / kappa_t within 5%
        g = KAPPA_T / 20.0
        gamma_leaky = 5e8
        p = make_params(g=g, gamma_leaky=gamma_leaky, eta=0.0, lambda_fp=1560.0)
        expected_rate = gamma_leaky + 2.0 * g**2 / KAPPA_T
        t_grid = np.linspace(0.0, 2e12 / expected_rate, 201)
        traj = evolve(p, (), emitter_excited_state(HilbertSpec(1)), t_grid)
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
            direct = liouvillian_apply(p, rho)
            sup = dense_superoperator(p, spec)
            via = (sup @ rho.reshape(-1)).reshape(spec.dim, spec.dim)
            assert np.max(np.abs(direct - via)) <= 1e-10 * np.max(np.abs(direct))


@pytest.fixture(scope="module")
def acceptance_4_rates():
    """``{detuning_nm: (simulated, exact, mode_sum)}`` at g = kappa_t/10 (:func:`conftest.se_rates`)."""
    return {det_nm: se_rates(det_nm) for det_nm in SE_RATE_DETUNINGS_NM}


def test_acceptance_4_cmt_master_equation_consistency(acceptance_4_rates):
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
        p = make_params(g=g, gamma_leaky=gamma_leaky)
        gamma_t = p.purcell_rate
        failures = []
        for det_nm, (rate, exact, predicted) in acceptance_4_rates.items():
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
        pulses = (replace(cfg.pulses[0], tau_fc_ps=tau),)
        curves = filtered_curves(cfg, run_from(cfg, pulses, rho0.copy()))
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
        cfg_burst, traj_b, curves_b = burst_run
        tau_scan, fwhm_scan = calibrate_burst_tau_fc(cfg_burst)
        assert abs(fwhm_scan - 232.0) <= 5.0
        assert abs(tau_scan - TAU_FC_CALIBRATED_PS) <= 10.0  # frozen value re-derived

        burst = burst_metrics(curves_b[0], cfg_burst.baseline_window_ps)
        assert burst.kind == "burst"
        assert abs(burst.fwhm_ps - 232.0) <= 5.0
        assert 2.0 <= burst.depth <= 5.0

        cfg_dip, traj_d, curves_d = dip_run
        dip = burst_metrics(curves_d[0], cfg_dip.baseline_window_ps)
        assert dip.kind == "dip"
        assert 1.4 <= dip.depth <= 3.0
        assert abs(dip.fwhm_ps - 246.0) <= 0.30 * 246.0


def test_acceptance_6_delay_tracking_and_inversion(delay_runs):
    with criterion(6, "delayed-control waveform shaping"):
        cfg, reference, delays, run = delay_runs
        t = cfg.time_grid_ps
        ref = reference[1][0].intensity
        safe_ref = np.where(ref > 0, ref, np.inf)
        for delay, (_, curves) in delays.items():
            ratio = curves[0].intensity / safe_ref
            mask = t > 100.0  # past the pump pulse
            t_ext = t[mask][np.argmax(ratio[mask])]
            assert abs(t_ext - delay) <= 50.0
            assert ratio[mask].max() > 1.5

        # the FP 0.6 nm red of the target: the blue control pulse transits the
        # resonance and the feature inverts
        template = cfg.pulses[0]
        pulse = FreeCarrierPulse(2000.0, template.delta_lambda_max_nm, template.tau_fc_ps)
        detuned = replace(
            cfg.params, fp=BareMode(wl_to_omega(cfg.lambda_t_nm + 0.6), cfg.params.fp.kappa)
        )
        dipped = run((pulse,), detuned)
        detuned_ref = run((), detuned)
        ref2 = np.where(detuned_ref[1][0].intensity > 0, detuned_ref[1][0].intensity, np.inf)
        ratio = dipped[1][0].intensity / ref2
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


@pytest.fixture(scope="module")
def shipped_outputs(tmp_path_factory):
    """The README's CLI block with the shipped scenarios: ``snapshot.run_shipped``."""
    return run_shipped(tmp_path_factory.mktemp("shipped"))


def _snapshot(outdir):
    files = {}
    for path in sorted(outdir.rglob("*")):
        if path.is_file():
            files[path.relative_to(outdir).as_posix()] = path.read_bytes()
    return files


def test_acceptance_8_determinism(tmp_path, shipped_outputs):
    with criterion(8, "byte-identical repeated runs"):
        # the shipped outputs ran with --threads 1; this run takes 2
        first = _snapshot(shipped_outputs)
        second = _snapshot(run_shipped(tmp_path, threads=2))
        assert first.keys() == second.keys()
        assert {name.split("/")[0] for name in first} == {s for s, _ in SHIPPED_RUNS} | {"fit"}
        for name in first:
            if name.endswith("manifest.json"):
                m1 = json.loads(first[name])
                m2 = json.loads(second[name])
                m1.pop("duration_s")
                m2.pop("duration_s")
                assert m1 == m2, f"{name}: manifest mismatch"
            else:
                assert first[name] == second[name], f"{name} differs"


def test_shipped_outputs_match_snapshot(shipped_outputs, acceptance_4_rates):
    # -rP prints the largest distance of each group and quantity beside its
    # tolerance, so each platform's distances are on record
    snapshot = json.loads(SNAPSHOT_PATH.read_text(encoding="utf-8"))
    found = distances(snapshot, measure(shipped_outputs, acceptance_4_rates))
    failed = []
    for group, dist in found.items():
        rel = snapshot["groups"][group]["rel"]
        worst = {}
        for key, d in dist.items():
            quantity = key.rsplit(" ", 1)[-1].rsplit(".", 1)[-1].split("[")[0]
            if d > worst.get(quantity, (-1.0, ""))[0]:
                worst[quantity] = (d, key)
            if d > rel:
                failed.append(f"{key}: distance {d:.3g} > {rel:.3g} ({group})")
        for quantity, (d, key) in sorted(worst.items()):
            print(f"  snapshot {group} {quantity}: largest distance {d:.3g} "
                  f"(tolerance {rel:.3g}) at {key}")
    assert not failed, f"{len(failed)} entries moved:\n" + "\n".join(failed[:20])
