"""The delay scan and the map writer of cavtune.runs."""

import filecmp
from dataclasses import replace

import numpy as np
import pytest

from cavtune.config import load_config, scenario_config
from cavtune.lindblad import steady_state
from cavtune.runs import (
    delay_profile,
    delay_scan,
    format_number,
    initial_state_for,
    write_map_csv,
)
from cavtune.modespace import BareMode, wl_to_omega
from cavtune.spectra import PLMap
from cavtune.tuning import fp_shift_at
from conftest import densities, run_from

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


def delay_config(delays=DELAYS):
    return load_config(
        {
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
                "pulses": [{"t0_ps": 0.0, "delta_lambda_max_nm": 0.6, "tau_fc_ps": 352.0}],
            },
            "grids": {
                "time_ps": {"start": -100.0, "stop": 2000.0, "n": 526},
                "lambda_nm": {"start": 1550.8, "stop": 1553.2, "n": 31},
            },
            "filters": [{"lambda_nm": 1552.2, "fwhm_nm": 0.5}],
            "solver": {"n_max": 1, "initial_state": "vacuum"},
            "delays_ps": delays,
        }
    )


@pytest.mark.parametrize(
    "delays, exact, tol",
    [
        # a delayed run restarts where the reference does, at every delay,
        # and that moves it at the level of BDF's tolerances: measured, the
        # farthest off is by 1.65e-10 (pulses after the pump) and 8.2e-11
        # (tails in the pump window) of the maxima
        pytest.param(DELAYS, EXACT, 5e-10, id="pulses-after-pump"),
        pytest.param(PUMP_WINDOW_DELAYS, PUMP_WINDOW_EXACT, 5e-10, id="tails-in-pump-window"),
    ],
)
def test_delay_scan_matches_from_scratch_runs(delays, exact, tol):
    cfg = delay_config(delays)
    t = cfg.time_grid_ps
    assert 1502.0 not in t and 700.0 in t and 0.0 in t
    rho0 = initial_state_for(cfg)
    (_, ref_map, ref_curves), *delayed = delay_scan(cfg)
    assert len(delayed) == len(delays)
    for delay, (traj, pl_map, curves) in zip(delays, delayed):
        # the independent oracle: one from-scratch run with the pulse at the delay
        oracle_traj, oracle_map, oracle_curves = run_from(cfg, delay_profile(cfg, delay), rho0)
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


def _thermo_scaled_dip():
    raw = scenario_config("fig3-dip")
    raw["profile"]["thermo"] = {"coeff_nm_per_mw": 0.03, "power_mw": 7.0}
    raw["system"]["kappa_fp"] *= 1.7
    return raw


@pytest.mark.parametrize(
    "raw",
    [scenario_config("fig3-burst"), scenario_config("fig3-dip"), _thermo_scaled_dip()],
    ids=["fig3-burst", "fig3-dip", "thermo-kappa-scaled"],
)
def test_initial_state_is_the_steady_state_of_the_config(raw):
    # initial_state_for takes the FP mode of the steady state from params.fp:
    # that must be the pre-pulse (baseline) profile's mode at 0 ps, bit for bit
    cfg = load_config(raw)
    assert cfg.initial_state == "steady"
    baseline = replace(cfg.profile, pulses=())
    fp0 = BareMode(wl_to_omega(cfg.lambda_t_nm + fp_shift_at(baseline, 0.0)), cfg.params.fp.kappa)
    assert fp0 == cfg.params.fp
    expected = steady_state(replace(cfg.params, fp=fp0), spec=cfg.hilbert)
    assert np.array_equal(initial_state_for(cfg), expected)


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
