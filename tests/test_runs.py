"""The delay scan and the map writer of cavtune.runs."""

import filecmp
import json
from dataclasses import replace

import numpy as np
import pytest

from cavtune import NoFeature, evolve, runs
from cavtune.config import load_config, scenario_config
from cavtune.render import render_csv_file, render_heatmap_ppm
from cavtune.runs import (
    _metrics_entry,
    delay_pulses,
    delay_scan,
    format_number,
    initial_state_for,
    run_dynamic,
    simulate_dynamic,
    write_map_csv,
)
from cavtune.modespace import BareMode, wl_to_omega
from cavtune.spectra import DecayCurve, PLMap, burst_metrics, synthesize_map
from conftest import densities, map_and_curves, run_from

# on the 4 ps grid from -100 to 2000 ps: on the grid, 1502 off it, -300 before
# the grid start and 2400 after its end
DELAYS = [700.0, 1000.0, 1502.0, -300.0, 2400.0]
# the runs the shared prefix must reproduce bit for bit: 700 ps ends the first
# segment of the reference, and -300 ps is a full run from the initial state
EXACT = (700.0, -300.0)
# at the pump pulse's centre, the grid time 0 ps, and off the grid just after
# it: their tails start inside the pump pulse's window of +-5 sigma.  The run
# at 0 ps restarts only where the from-scratch run does, so it is exact; the
# reference's restart at 0 ps moves the later delays off their own runs.
PUMP_WINDOW_DELAYS = [0.0, 2.0, 700.0, 1502.0, -300.0]
PUMP_WINDOW_EXACT = (0.0, -300.0)


def delay_raw(delays=DELAYS):
    """The mini delay scan's config document, at ``n_max = 1``; without
    ``delays``, a plain run with its pulse at 0 ps."""
    pulse = {"delta_lambda_max_nm": 0.6, "tau_fc_ps": 352.0}
    if delays is None:
        pulse["t0_ps"] = 0.0
    return {
        "schema": 1,
        "scenario": "mini-delay",
        "kind": "dynamic",
        "system": {
            "lambda_t_nm": 1552.0,
            "kappa_t": 1.564e11,
            "kappa_fp": 4.692e11,
            "eta": 1.564e11,
            "g": 1.0e10,
            "gamma_leaky": 5.0e8,
        },
        "pump": {
            "cw_rate": 0.0,
            "pulses": [{"t0_ps": 0.0, "area": 1.0, "width_ps": 6.0}],
        },
        "profile": {
            "static_detuning_nm": 0.0,
            "pulses": [pulse],
        },
        "grids": {
            "time_ps": {"start": -100.0, "stop": 2000.0, "n": 526},
            "lambda_nm": {"start": 1550.8, "stop": 1553.2, "n": 31},
        },
        "filters": [{"lambda_nm": 1552.2, "fwhm_nm": 0.5}],
        "solver": {"n_max": 1, "initial_state": "vacuum"},
        "delays_ps": delays,
    }


def delay_config(delays=DELAYS):
    return load_config(delay_raw(delays))


@pytest.mark.parametrize(
    "delays, exact, tol",
    [
        # a delayed run restarts where the reference does, at every delay,
        # and that moves it at the level of the integrator's tolerances:
        # measured, the farthest off is by 1.56e-10 (pulses after the pump)
        # and 6.0e-11 (tails in the pump window) of the maxima
        pytest.param(DELAYS, EXACT, 5e-10, id="pulses-after-pump"),
        pytest.param(PUMP_WINDOW_DELAYS, PUMP_WINDOW_EXACT, 5e-10, id="tails-in-pump-window"),
    ],
)
def test_delay_scan_matches_from_scratch_runs(delays, exact, tol):
    cfg = delay_config(delays)
    t = cfg.time_grid_ps
    assert 1502.0 not in t and 700.0 in t and 0.0 in t
    rho0 = initial_state_for(cfg)
    reference, *delayed = delay_scan(cfg)
    ref_map, ref_curves = map_and_curves(cfg, reference)
    assert len(delayed) == len(delays)
    for delay, traj in zip(delays, delayed):
        pl_map, curves = map_and_curves(cfg, traj)
        # the independent oracle: one from-scratch run with the pulse at the delay
        oracle_traj = run_from(cfg, delay_pulses(cfg, delay), rho0)
        oracle_map, oracle_curves = map_and_curves(cfg, oracle_traj)
        if delay in exact:
            np.testing.assert_array_equal(densities(traj), densities(oracle_traj))
            np.testing.assert_array_equal(pl_map.intensity, oracle_map.intensity)
        col_max = oracle_map.intensity.max(axis=0)
        assert np.all(np.abs(pl_map.intensity - oracle_map.intensity) <= tol * col_max)
        for curve, oracle in zip(curves, oracle_curves):
            diff = np.abs(curve.intensity - oracle.intensity)
            assert diff.max() <= tol * oracle.intensity.max()
        # before its pulse a delayed run is the reference, to the last bit
        before = t < delay
        np.testing.assert_array_equal(pl_map.intensity[before], ref_map.intensity[before])
        for curve, ref_curve in zip(curves, ref_curves):
            np.testing.assert_array_equal(curve.intensity[before], ref_curve.intensity[before])



@pytest.mark.parametrize("delays", [None, [1000.0, 700.0]], ids=["plain", "delay-scan"])
def test_a_map_is_synthesized_only_where_it_is_written(tmp_path, monkeypatch, delays):
    # the truncation rerun and a scan's pulse-free reference write no map
    raw = delay_raw(delays)
    raw["solver"]["check_truncation"] = True
    syntheses = []

    def counting_synthesize_map(*args, **kwargs):
        syntheses.append(None)
        return synthesize_map(*args, **kwargs)

    monkeypatch.setattr(runs, "synthesize_map", counting_synthesize_map)
    run_dynamic(load_config(raw), tmp_path)
    assert len(syntheses) == len(list(tmp_path.glob("*map.csv"))) == len(delays or [None])


def test_delay_scan_checks_truncation_on_its_first_delay(tmp_path, monkeypatch):
    # the first delay in the config's order, not the earliest, is rerun one
    # Fock level higher
    raw = delay_raw([1000.0, 700.0])
    raw["solver"]["check_truncation"] = True
    cfg = load_config(raw)
    reruns = []

    def recording_simulate_dynamic(run_cfg, pulses=None):
        reruns.append((run_cfg.hilbert.n_max, pulses))
        return simulate_dynamic(run_cfg, pulses)

    monkeypatch.setattr(runs, "simulate_dynamic", recording_simulate_dynamic)
    run_dynamic(cfg, tmp_path)
    check = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))["truncation_check"]
    assert (check["n_max"], check["n_max_check"]) == (1, 2)
    assert check["max_relative_drift"] < 0.01 and check["within_1_percent"] is True
    assert reruns == [(2, delay_pulses(cfg, 1000.0))]


def test_simulate_dynamic_without_pulses():
    # () asks for a run without pulses; only None takes the config's
    cfg = load_config(scenario_config("fig3-burst"))
    free = simulate_dynamic(cfg, ())
    oracle = evolve(cfg.params, (), initial_state_for(cfg), cfg.time_grid_ps,
                    rtol=cfg.rtol, atol=cfg.atol)
    np.testing.assert_array_equal(densities(free), densities(oracle))
    np.testing.assert_array_equal(free.lambda1_nm, oracle.lambda1_nm)
    assert not np.array_equal(free.n_e, simulate_dynamic(cfg).n_e)


def test_shipped_dip_is_near_a_tight_tolerance_run():
    # fig3-dip's map and curve against the same run at rtol 1e-13, atol 1e-15,
    # relative to the reference's maxima.  Measured 1.09e-9 (map) and 1.61e-9
    # (curve); scipy's BDF on the whole vec(rho) was 2.23e-9 and 3.28e-9 off
    # the same reference, so the bound is three quarters of that.
    cfg = load_config(scenario_config("fig3-dip"))
    tight = replace(cfg, rtol=1e-13, atol=1e-15)
    got = map_and_curves(cfg, simulate_dynamic(cfg))
    ref = map_and_curves(tight, simulate_dynamic(tight))
    for name, a, b, bscipy in (("map", got[0], ref[0], 2.23e-9),
                               ("curve", got[1][0], ref[1][0], 3.28e-9)):
        off = np.abs(a.intensity - b.intensity).max() / np.abs(b.intensity).max()
        assert off < 0.75 * bscipy, name


def _thermo_scaled_dip():
    # the dip's 0.6 nm offset plus a 0.03 nm/mW thermo-optic shift at 7 mW
    raw = scenario_config("fig3-dip")
    raw["profile"]["static_detuning_nm"] = 0.6 + 0.03 * 7.0
    raw["system"]["kappa_fp"] *= 1.7
    return raw


@pytest.mark.parametrize(
    "raw, lambda_fp, kappa_fp",
    [
        (scenario_config("fig3-burst"), 1552.0, 4.692e11),
        (scenario_config("fig3-dip"), 1552.0 + 0.6, 4.692e11),
        # lambda_t + static_detuning_nm
        (_thermo_scaled_dip(), 1552.0 + (0.6 + 0.03 * 7.0), 4.692e11 * 1.7),
    ],
    ids=["fig3-burst", "fig3-dip", "thermo-kappa-scaled"],
)
def test_config_places_the_fp_mode_in_params(raw, lambda_fp, kappa_fp):
    # params.fp is the one statement of where the FP mode sits before any
    # pulse: the steady state and every evolve start from it
    cfg = load_config(raw)
    assert cfg.params.fp == BareMode(wl_to_omega(lambda_fp), kappa_fp)


def test_map_csv_matches_per_value_writer(tmp_path):
    lam = np.linspace(1550.6, 1553.4, 29)
    t = np.linspace(-200.0, 600.0, 17)
    values = 10.0 ** np.random.default_rng(5).uniform(-300.0, 3.0, (t.size, lam.size))
    values[0, 0] = 0.0
    values[3, 7] = 5e-324
    pl_map = PLMap(lam, t, values)
    write_map_csv(tmp_path / "map.csv", pl_map)
    with open(tmp_path / "reference.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("t_ps,lambda_nm,intensity_au\n")
        for ti, row in zip(pl_map.t_grid_ps, pl_map.intensity):
            for lam_j, v in zip(pl_map.lambda_grid_nm, row):
                fh.write(f"{format_number(ti)},{format_number(lam_j)},{format_number(v)}\n")
    assert filecmp.cmp(tmp_path / "map.csv", tmp_path / "reference.csv", shallow=False)


def test_render_of_the_written_map_is_the_heatmap_of_the_run(tmp_path):
    # `cavtune render map.csv --colormap --log` is the one way to restyle a
    # run's heatmap: the %.17g cells of map.csv give back the map exactly
    cfg = delay_config(None)
    run_dynamic(cfg, tmp_path, render=True)
    pl_map, _ = map_and_curves(cfg, simulate_dynamic(cfg))
    assert (tmp_path / "map.ppm").read_bytes() == render_heatmap_ppm(pl_map.intensity)
    for colormap, log_scale in (("heat", False), ("gray", True)):
        out = render_csv_file(tmp_path / "map.csv", tmp_path / "restyled.ppm",
                              colormap=colormap, log_scale=log_scale)
        assert out.read_bytes() == render_heatmap_ppm(pl_map.intensity, colormap, log_scale)


def test_dip_to_zero_is_an_error_entry():
    # its depth I_0 / I_min would be infinite, which JSON cannot hold
    t = np.linspace(-600.0, 1200.0, 3601)
    y = 1.0 - np.exp(-0.5 * ((t - 450.0) / 80.0) ** 2)
    curve = DecayCurve(t, y, 1552.0, 0.5)
    assert y.min() == 0.0
    with pytest.raises(NoFeature, match="^depth undefined: the dip reaches zero$"):
        burst_metrics(curve, (-600.0, 0.0))
    entry = _metrics_entry(curve, (-600.0, 0.0))
    assert entry["error"] == "depth undefined: the dip reaches zero"
    json.dumps(entry, allow_nan=False)
