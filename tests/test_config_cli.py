import errno
import json
import os
import re
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from cavtune import (
    FitOptions,
    NumericalFailure,
    SchemaError,
    apply_filter,
    config,
    couple,
    irf_convolve,
    lindblad,
    render,
    selftest,
    wl_to_omega,
)
from cavtune.cli import main
from cavtune.config import (
    SCENARIO_NAMES,
    TAU_FC_CALIBRATED_PS,
    config_hash,
    load_config,
    load_config_file,
    scenario_config,
)
from cavtune.runs import simulate_dynamic
from conftest import broken_target_generator, map_and_curves, synthetic_data


def small_dynamic_config(**overrides):
    cfg = {
        "schema": 1,
        "scenario": "mini",
        "kind": "dynamic",
        "system": {
            "lambda_t_nm": 1552.0,
            "kappa_t": 1.564e11,
            "kappa_fp": 4.692e11,
            "eta": 1.564e11,
            "g": 1.0e10,
            "gamma_leaky": 5.0e8,
        },
        "pump": {"cw_rate": 1.0e8},
        "profile": {
            "static_detuning_nm": 0.0,
            "pulses": [{"t0_ps": 0.0, "delta_lambda_max_nm": 0.6, "tau_fc_ps": 352.0}],
        },
        "grids": {
            "time_ps": {"start": -520.0, "stop": 900.0, "n": 240},
            "lambda_nm": {"start": 1550.8, "stop": 1553.2, "n": 61},
        },
        "filters": [{"lambda_nm": 1552.2, "fwhm_nm": 0.5}],
        "solver": {"n_max": 1, "initial_state": "steady"},
    }
    cfg.update(overrides)
    return cfg


# the keys of the instant pump map, the free-carrier rise time, the target-mode
# pump and the collection exponent
DROPPED_KEYS = ["pump.mode", "profile.pulses[0].tau_rise_ps", "pump.cavity_cw_rate",
                "spectra.collection_exponent"]


def with_key(raw, path, value=1.0):
    """``raw`` with ``value`` set at ``path``, such as ``profile.pulses[0].tau_rise_ps``;
    a missing section on the way is added empty."""
    *parents, key = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = raw
    for k in parents:
        node = node[k] if isinstance(k, int) else node.setdefault(k, {})
    node[key] = value
    return raw


def without_key(raw, path):
    """``raw`` with the key at ``path``, such as ``grids.lambda_nm``, deleted."""
    *parents, key = path.split(".")
    node = raw
    for k in parents:
        node = node[k]
    del node[key]
    return raw


# (document, message): each document holds one error that load_config or
# load_config_file must report with its key's path, or the file's
CONFIG_ERRORS = {
    "required": (without_key(scenario_config("fig3-burst"), "system.lambda_t_nm"),
                 "system.lambda_t_nm: required key missing"),
    "null": (with_key(scenario_config("fig3-burst"), "system.kappa_t", None),
             "system.kappa_t: must not be null"),
    "flag": (with_key(scenario_config("fig3-burst"), "solver.check_truncation", 1),
             "solver.check_truncation: expected true or false, got 1"),
    "section": (with_key(scenario_config("fig3-burst"), "pump", []),
                "pump: expected an object, got list"),
    "sweep grid": (without_key(scenario_config("fig2-sweep"), "grids.detuning_nm"),
                   "grids.detuning_nm: required for a static sweep"),
    "dynamic grid": (without_key(scenario_config("fig3-burst"), "grids.lambda_nm"),
                     "grids: dynamic runs need time_ps and lambda_nm grids"),
    "list document": ([scenario_config("fig3-burst")],
                      "{file}: top-level document must be an object"),
}


class TestConfigValidation:
    def test_scenarios_all_load(self):
        for name in SCENARIO_NAMES:
            cfg = load_config(scenario_config(name))
            assert cfg.scenario == name

    # neither a typo nor a key the schema has dropped may pass
    @pytest.mark.parametrize("path", [
        "system.kapa_t", "solver.frame", "solver.fixed_step_ps", "profile.kappa_fp_scale",
        *DROPPED_KEYS, "render", "profile.thermo", "fit.seed",
    ])
    def test_unknown_key_reports_path(self, path):
        with pytest.raises(SchemaError, match=re.escape(f"{path}: unknown key")):
            load_config(with_key(small_dynamic_config(), path))

    def test_unknown_scenario(self):
        with pytest.raises(SchemaError, match="unknown scenario 'fig9'; shipped scenarios: "):
            scenario_config("fig9")

    def test_unknown_top_level_key(self):
        raw = small_dynamic_config(extra_section={})
        with pytest.raises(SchemaError, match="extra_section"):
            load_config(raw)

    def test_physical_invariant_rechecked(self):
        raw = small_dynamic_config()
        raw["system"]["g"] = 1.0e12  # breaks the weak-coupling guard
        with pytest.raises(SchemaError, match="weak-coupling"):
            load_config(raw)

    def test_wrong_schema_version(self):
        raw = small_dynamic_config(schema=99)
        with pytest.raises(SchemaError, match="schema"):
            load_config(raw)

    def test_negative_rate_reports_key(self):
        raw = small_dynamic_config()
        raw["pump"]["cw_rate"] = -5.0
        with pytest.raises(SchemaError, match="pump.cw_rate"):
            load_config(raw)

    def test_bad_grid(self):
        raw = small_dynamic_config()
        raw["grids"]["time_ps"] = {"start": 10.0, "stop": -10.0, "n": 5}
        with pytest.raises(SchemaError, match="grids.time_ps"):
            load_config(raw)

    def test_baseline_window_default_from_pulse(self):
        cfg = load_config(small_dynamic_config())
        assert cfg.baseline_window_ps == (-500.0, 0.0)

    def test_hash_stable_and_order_independent(self):
        raw = small_dynamic_config()
        reordered = json.loads(json.dumps(raw, sort_keys=True))
        assert config_hash(raw) == config_hash(reordered)
        raw2 = small_dynamic_config()
        raw2["pump"]["cw_rate"] = 2.0e8
        assert config_hash(raw) != config_hash(raw2)

    def test_baseline_window_rejected_with_delays(self, tmp_path):
        # a delay scan judges each delay against the window before it
        raw = scenario_config("fig4-delay")
        raw["baseline_window_ps"] = [-100.0, 0.0]
        with pytest.raises(SchemaError, match="^baseline_window_ps: "):
            load_config(raw)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        res = CliRunner().invoke(
            main, ["dynamic", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 2, res.output
        assert "baseline_window_ps: " in res.output

    @pytest.mark.parametrize("t0_ps", [2000.0, -12345.0])
    def test_template_pulse_time_rejected_with_delays(self, tmp_path, t0_ps):
        # delays_ps states each run's pulse time; the template's own changed no output
        assert load_config(scenario_config("fig4-delay")).baseline_window_ps is None
        raw = scenario_config("fig4-delay")
        raw["profile"]["pulses"][0]["t0_ps"] = t0_ps
        message = "profile.pulses[0].t0_ps: delays_ps sets each run's pulse time in a delay scan"
        with pytest.raises(SchemaError, match="^" + re.escape(message) + "$"):
            load_config(raw)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        res = CliRunner().invoke(
            main, ["dynamic", "--config", str(cfg), "--out", str(tmp_path / "out")]
        )
        assert res.exit_code == 2, res.output
        assert message in res.output

    @pytest.mark.parametrize("offsets, lambda_fp", [
        ({"profile.static_detuning_nm": -2000.0}, "-448.0"),
        ({"profile.static_detuning_nm": -1552.0}, "0.0"),
        ({"system.lambda_t_nm": 1e308, "profile.static_detuning_nm": 1e308}, "inf"),
    ])
    def test_fp_baseline_out_of_range_reports_the_profile(self, offsets, lambda_fp):
        # the FP wavelength is lambda_t_nm plus the profile's offset: the
        # error names the offset key and the wavelength, not the system section
        raw = small_dynamic_config()
        for path, value in offsets.items():
            with_key(raw, path, value)
        with pytest.raises(SchemaError, match=re.escape(
            f"profile.static_detuning_nm: puts the FP mode at {lambda_fp} nm; its wavelength "
            "must be positive and finite"
        )):
            load_config(raw)

    def test_delays_need_single_template_pulse(self):
        raw = small_dynamic_config(delays_ps=[100.0, 200.0])
        raw["profile"]["pulses"].append(
            {"t0_ps": 50.0, "delta_lambda_max_nm": 0.1, "tau_fc_ps": 100.0}
        )
        with pytest.raises(SchemaError, match="delays_ps"):
            load_config(raw)


# One row per config value that was once accepted silently, crashed with a
# traceback or was reported without its key, and one per rule that a domain
# type states for a config key: (section or None for the top level, key,
# value, reported path).
FC_PULSE = {"t0_ps": 0.0, "delta_lambda_max_nm": 0.6, "tau_fc_ps": 300.0}
PUMP_PULSE = {"t0_ps": 0.0, "area": 1.0, "width_ps": 6.0}
GAP_ROWS = [
    ("fit", "init", {"etaa": 1}, "fit.init.etaa"),
    ("fit", "bounds", {"etaa": [1, 2]}, "fit.bounds.etaa"),
    ("fit", "multistart", "3", "fit.multistart"),
    ("fit", "bounds", {"eta": 5}, "fit.bounds.eta"),
    ("fit", "init", {"eta": "x"}, "fit.init.eta"),
    ("pump", "pulses", 5, "pump.pulses"),
    (None, "filters", 5, "filters"),
    ("fit", "max_evals", -5, "fit.max_evals"),
    ("pump", "pulses", [{**PUMP_PULSE, "width_ps": 0.0}], "pump.pulses[0].width_ps"),
    ("pump", "mode", "bogus", "pump.mode"),
    (None, "filters", [{"lambda_nm": 1552.2, "fwhm_nm": 0.0}], "filters[0].fwhm_nm"),
    (None, "filters", [{"lambda_nm": 0.0}], "filters[0].lambda_nm"),
    (None, "delays_ps", [1500.4, 1499.6], "delays_ps"),
    (None, "filters", [{"lambda_nm": 1552.2}, {"lambda_nm": 1552.204}], "filters[1].lambda_nm"),
    ("solver", "atol", 0.0, "solver.atol"),
    ("profile", "static_detuning_nm", -2000.0, "profile.static_detuning_nm"),
    ("system", "kappa_t", 0, "system.kappa_t"),
    ("system", "kappa_fp", 0, "system.kappa_fp"),
    ("system", "kappa_t", 1e300, "system.kappa_t"),
    ("profile", "pulses", [{**FC_PULSE, "tau_fc_ps": 0.0}], "profile.pulses[0].tau_fc_ps"),
    ("system", "g", -1, "system.g"),
    ("system", "gamma_leaky", -1, "system.gamma_leaky"),
    ("system", "eta", -1, "system.eta"),
    ("pump", "cw_rate", -1, "pump.cw_rate"),
    ("pump", "pulses", [{**PUMP_PULSE, "area": -1}], "pump.pulses[0].area"),
    ("profile", "pulses", [{**FC_PULSE, "delta_lambda_max_nm": -1}],
     "profile.pulses[0].delta_lambda_max_nm"),
    ("solver", "n_max", 0, "solver.n_max"),
    ("fit", "multistart", -1, "fit.multistart"),
]
# a row whose path an earlier row reports has its value in its test id too
GAP_IDS = [path if all(row[-1] != path for row in GAP_ROWS[:i]) else f"{path}={value}"
           for i, (*_, value, path) in enumerate(GAP_ROWS)]


class TestOptionalKeys:
    def test_emitter_wavelength(self):
        raw = small_dynamic_config()
        raw["system"]["lambda0_nm"] = 1551.5
        params = load_config(raw).params
        assert params.emitter.omega0 == wl_to_omega(1551.5)
        assert params.target.omega == wl_to_omega(1552.0)

    def test_irf_sigma_smears_each_filtered_curve(self):
        spectra = {"irf_sigma_ps": 40.0}
        cfg = load_config(small_dynamic_config(spectra=spectra))
        traj = simulate_dynamic(cfg)
        pl_map, curves = map_and_curves(cfg, traj)
        plain_cfg = replace(cfg, irf_sigma_ps=0.0)
        plain_map, plain_curves = map_and_curves(plain_cfg, simulate_dynamic(plain_cfg))
        assert np.array_equal(pl_map.intensity, plain_map.intensity)
        for (lam_c, fwhm), curve, plain in zip(cfg.filters, curves, plain_curves, strict=True):
            filtered = apply_filter(traj, lam_c, fwhm)
            assert np.array_equal(plain.intensity, filtered.intensity)
            assert np.array_equal(curve.intensity, irf_convolve(filtered, 40.0).intensity)
            assert not np.allclose(curve.intensity, plain.intensity)


    def test_filter_outside_the_map_grid(self, tmp_path):
        # a filtered curve integrates the lines over every wavelength, so its
        # centre need not lie in grids.lambda_nm [1550.8, 1553.2]
        raw = small_dynamic_config(filters=[{"lambda_nm": 1552.2}, {"lambda_nm": 1554.0}])
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        res = CliRunner().invoke(main, ["dynamic", "--config", str(path), "--out", str(tmp_path / "o")])
        assert res.exit_code == 0, res.output
        traj = simulate_dynamic(load_config(raw))
        rows = (tmp_path / "o" / "curve_1554.00nm.csv").read_text().splitlines()[1:]
        written = np.array([float(row.split(",")[1]) for row in rows])
        assert np.array_equal(written, apply_filter(traj, 1554.0, 0.5).intensity)
        assert written.min() > 0.0


def gap_config(section, key, value):
    # a dynamic scenario, since delays are read against its pulse
    raw = scenario_config("fig3-burst")
    (raw.setdefault(section, {}) if section else raw)[key] = value
    return raw


class TestConfigGaps:
    @pytest.mark.parametrize("section,key,value,path", GAP_ROWS, ids=GAP_IDS)
    def test_load_config_names_the_key(self, section, key, value, path):
        with pytest.raises(SchemaError, match="^" + re.escape(path) + ":"):
            load_config(gap_config(section, key, value))

    @pytest.mark.parametrize("section,key,value,path", GAP_ROWS, ids=GAP_IDS)
    def test_fit_command_exits_2(self, tmp_path, section, key, value, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(gap_config(section, key, value)))
        table = small_table(tmp_path)
        res = CliRunner().invoke(
            main, ["fit", str(table), "--config", str(cfg), "--out", str(tmp_path / "f")]
        )
        assert res.exit_code == 2, res.output
        assert f"error: {path}:" in res.output

    def test_fit_section_resolves_onto_fit_options(self):
        raw = gap_config("fit", "bounds", {"g": [1e7, 1e12]})
        raw["fit"].update(control="power_mw", init={"eta": 2}, multistart=3)
        fit = load_config(raw).fit
        assert fit["control"] == "power_mw"
        assert fit["init"] == {"eta": 2.0} and fit["bounds"] == {"g": (1e7, 1e12)}
        assert fit["options"] == FitOptions(multistart=3)

    def test_bounds_must_be_ordered(self):
        with pytest.raises(SchemaError, match=r"fit\.bounds\.g: expected \[lo, hi\]"):
            load_config(gap_config("fit", "bounds", {"g": [2.0, 1.0]}))


class TestCliStaticSweep:
    def test_sweep_and_fit_roundtrip(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sweep"
        res = runner.invoke(main, ["static-sweep", "--scenario", "fig2-sweep", "--out", str(out)])
        assert res.exit_code == 0, res.output
        sweep_csv = out / "sweep.csv"
        assert sweep_csv.exists()
        header = sweep_csv.read_text().splitlines()[0]
        assert header == "detuning_nm,lambda1_nm,lambda2_nm,q1,q2,tau_ns"

        fit_out = tmp_path / "fit"
        res = runner.invoke(
            main, ["fit", str(sweep_csv), "--out", str(fit_out)], catch_exceptions=False
        )
        assert res.exit_code == 0, res.output
        result = json.loads((fit_out / "fit.json").read_text())
        assert result["converged"]
        est = result["estimates"]
        assert est["eta"] == pytest.approx(1.564e11, rel=1e-3)
        assert est["kappa_t"] == pytest.approx(1.564e11, rel=1e-3)
        assert est["kappa_fp"] == pytest.approx(4.692e11, rel=1e-3)
        assert est["lambda_t"] == pytest.approx(1552.0, abs=1e-4)
        assert (fit_out / "residuals.csv").exists()

    def test_manifest_written(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sweep"
        runner.invoke(main, ["static-sweep", "--scenario", "fig2-sweep", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["scenario"] == "fig2-sweep"
        assert manifest["config_sha256"] == config_hash(scenario_config("fig2-sweep"))
        assert "sweep.csv" in manifest["outputs"]
        assert manifest["duration_s"] >= 0.0

    def test_requires_config_or_scenario(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["static-sweep", "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_rejects_both_config_and_scenario(self, tmp_path):
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(scenario_config("fig2-sweep")))
        runner = CliRunner()
        res = runner.invoke(
            main,
            ["static-sweep", "--config", str(cfg_path), "--scenario", "fig2-sweep",
             "--out", str(tmp_path / "x")],
        )
        assert res.exit_code == 2

    def test_kind_mismatch_rejected(self, tmp_path):
        runner = CliRunner()
        res = runner.invoke(main, ["dynamic", "--scenario", "fig2-sweep", "--out", str(tmp_path / "x")])
        assert res.exit_code == 2

    def test_csv_seventeen_digit_roundtrip(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "sweep"
        runner.invoke(main, ["static-sweep", "--scenario", "fig2-sweep", "--out", str(out)])
        lines = (out / "sweep.csv").read_text().splitlines()[1:]
        values = [float(x) for x in lines[3].split(",")]
        rendered = [f"{v:.17g}" for v in values]
        assert lines[3] == ",".join(rendered)


def write_table(path, data):
    """An anticrossing table as the CSV that `cavtune fit` reads."""
    columns = [data.control, data.lambda1, data.lambda2, data.q1, data.q2]
    header = "control,lambda1,lambda2,q1,q2"
    if data.tau_ns is not None:
        columns.append(data.tau_ns)
        header += ",tau"
    rows = [",".join(f"{v:.17g}" for v in row) for row in zip(*columns)]
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    return path


def fit_config(tmp_path, name, fit_node):
    cfg = scenario_config("fig2-sweep")
    cfg["fit"] = fit_node
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


TRUTH = {"eta": 1.564e11, "kappa_t": 1.564e11, "kappa_fp": 4.692e11, "lambda_t": 1552.0}


def small_table(tmp_path):
    return write_table(tmp_path / "table.csv",
                       synthetic_data(**TRUTH, detunings_nm=np.linspace(-1.2, 1.2, 9)))


class TestCliFit:
    def test_residuals_use_the_fit_bounds(self, tmp_path):
        # gamma_leaky = 2e4 lies below the default lower bound of 1e5
        data = synthetic_data(**TRUTH, detunings_nm=np.linspace(-1.2, 1.2, 25), g=1e10,
                              gamma_leaky=2e4)
        table = write_table(tmp_path / "table.csv", data)
        cfg = fit_config(tmp_path, "fit.json", {
            "init": dict(TRUTH, g=1e10, gamma_leaky=2e4),
            "bounds": {"gamma_leaky": [1e3, 1e14]},
        })
        out = tmp_path / "fit"
        res = CliRunner().invoke(main, ["fit", str(table), "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        norm = json.loads((out / "fit.json").read_text())["residual_norm"]
        assert norm < 1e-6
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "index,weighted_residual"
        written = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert written.size == 5 * data.n_rows
        assert np.sqrt(written @ written) == pytest.approx(norm, rel=1e-9, abs=1e-12)

    def test_fit_control_against_the_header_exits_2(self, tmp_path):
        # sweep.csv's detuning_nm column is no power, whatever fit.control says
        sweep = tmp_path / "sweep"
        res = CliRunner().invoke(main, ["static-sweep", "--scenario", "fig2-sweep",
                                        "--out", str(sweep)])
        assert res.exit_code == 0, res.output
        cfg = fit_config(tmp_path, "fit.json", {"control": "power_mw"})
        res = CliRunner().invoke(main, ["fit", str(sweep / "sweep.csv"), "--config", str(cfg),
                                        "--out", str(tmp_path / "fit")])
        assert res.exit_code == 2, res.output
        assert "header 'detuning_nm' names a detuning_nm control column, but fit.control is " \
               "'power_mw'" in res.output

    def test_seed_option_seeds_the_extra_starts(self, tmp_path):
        data = synthetic_data(**TRUTH, detunings_nm=np.linspace(-1.2, 1.2, 25),
                              noise_sigma_nm=0.01, seed=2)
        table = write_table(tmp_path / "table.csv", data)
        init = {"eta": 1.3e11, "kappa_t": 1.2e11, "kappa_fp": 5.5e11, "lambda_t": 1552.1}
        cfg = fit_config(tmp_path, "fit.json", {"init": init, "multistart": 1})

        def run(name, *extra):
            out = tmp_path / name
            res = CliRunner().invoke(
                main, ["fit", str(table), "--config", str(cfg), "--out", str(out), *extra]
            )
            assert res.exit_code == 0, res.output
            return (out / "fit.json").read_text()

        assert run("a", "--seed", "5") != run("b")
        # the default seed is FitOptions' 0
        assert run("c", "--seed", "0") == run("b")

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_out_of_range_seed_exits_2(self, tmp_path, seed):
        cfg = fit_config(tmp_path, "fit.json", {"multistart": 1})
        res = CliRunner().invoke(main, [
            "fit", str(small_table(tmp_path)), "--config", str(cfg),
            "--out", str(tmp_path / "fit"), "--seed", seed,
        ])
        assert res.exit_code == 2, res.output
        assert "error: seed must lie in [0, 2**32)" in res.output

    def test_fit_that_does_not_converge_exits_3(self, tmp_path):
        sweep = tmp_path / "sweep"
        res = CliRunner().invoke(main, ["static-sweep", "--scenario", "fig2-sweep",
                                        "--out", str(sweep)])
        assert res.exit_code == 0, res.output
        cfg = fit_config(tmp_path, "fit.json", {"max_evals": 1})
        out = tmp_path / "fit"
        res = CliRunner().invoke(main, ["fit", str(sweep / "sweep.csv"), "--config", str(cfg),
                                        "--out", str(out)])
        assert res.exit_code == 3, res.output
        assert res.output.startswith("fit DID NOT CONVERGE in ")
        assert json.loads((out / "fit.json").read_text())["converged"] is False

    def test_coupling_below_the_resolution_is_noted(self, tmp_path):
        truth = {"eta": 5e9, "kappa_t": 1.564e11, "kappa_fp": 1.7e11, "lambda_t": 1552.0}
        table = write_table(tmp_path / "table.csv",
                            synthetic_data(**truth, detunings_nm=np.linspace(-1.5, 1.5, 61)))
        cfg = fit_config(tmp_path, "fit.json", {"init": truth})
        out = tmp_path / "fit"
        res = CliRunner().invoke(main, ["fit", str(table), "--config", str(cfg), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert "note: fitted coupling is below the measurement resolution" in res.output
        assert json.loads((out / "fit.json").read_text())["near_degenerate"] is True

    def test_render_takes_the_residuals(self, tmp_path):
        out = tmp_path / "fit"
        res = CliRunner().invoke(main, ["fit", str(small_table(tmp_path)), "--out", str(out)])
        assert res.exit_code == 0, res.output
        svg = tmp_path / "residuals.svg"
        res = CliRunner().invoke(main, ["render", str(out / "residuals.csv"), "--out", str(svg)])
        assert res.exit_code == 0, res.output
        assert "weighted_residual" in svg.read_text()


class TestCliDynamic:
    def test_small_dynamic_run(self, tmp_path):
        cfg = small_dynamic_config()
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "dyn"
        runner = CliRunner()
        res = runner.invoke(main, ["dynamic", "--config", str(cfg_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "map.csv").exists()
        assert (out / "curve_1552.20nm.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["filters"][0]["metrics"]["kind"] == "burst"
        assert metrics["filters"][0]["metrics"]["modulation_depth"] > 1.5

    def test_zero_baseline_recorded_as_error(self, tmp_path):
        # from the vacuum nothing is emitted before the pump at 2100 ps, so the
        # baseline before the control pulse at 2000 ps is exactly 0
        cfg = scenario_config("fig4-delay")
        del cfg["delays_ps"]
        cfg["profile"]["pulses"][0]["t0_ps"] = 2000.0
        cfg["pump"]["pulses"][0]["t0_ps"] = 2100.0
        cfg["grids"]["time_ps"] = {"start": 1000.0, "stop": 3000.0, "n": 201}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "dyn"
        res = CliRunner().invoke(main, ["dynamic", "--config", str(cfg_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        entry = json.loads((out / "metrics.json").read_text())["filters"][0]
        assert entry["error"] == "depth undefined on a zero baseline"
        assert "metrics" not in entry

    def test_run_without_control_pulses_records_no_metrics(self, tmp_path):
        cfg = scenario_config("fig3-burst")
        cfg["profile"]["pulses"] = []
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "dyn"
        res = CliRunner().invoke(main, ["dynamic", "--config", str(cfg_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        entry = json.loads((out / "metrics.json").read_text())["filters"][0]
        assert entry["error"] == "no control pulse: no baseline window"
        assert "metrics" not in entry

    def test_numerical_failure_exits_4(self, tmp_path, monkeypatch):
        monkeypatch.setattr(lindblad, "STEADY_RESIDUAL_TOL", 1e-30)
        out = tmp_path / "dyn"
        res = CliRunner().invoke(main, ["dynamic", "--scenario", "fig3-burst", "--out", str(out)])
        assert res.exit_code == 4, res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error: ")]
        assert len(errors) == 1 and errors[0].startswith("error: steady-state residual "), errors

    @pytest.mark.parametrize("name", CONFIG_ERRORS)
    def test_config_error_exits_2_naming_its_path(self, tmp_path, name):
        document, message = CONFIG_ERRORS[name]
        kind = document["kind"] if isinstance(document, dict) else "dynamic"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(document))
        res = CliRunner().invoke(main, [kind, "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2, res.output
        assert f"error: {message.format(file=cfg_path)}\n" in res.output

    def test_schema_error_exit_code(self, tmp_path):
        bad = small_dynamic_config()
        bad["solver"]["initial_state"] = "thermal"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        runner = CliRunner()
        res = runner.invoke(main, ["dynamic", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "solver.initial_state" in res.output

    @pytest.mark.parametrize("path", DROPPED_KEYS)
    def test_dropped_drive_key_exits_2_before_integration(self, tmp_path, monkeypatch, path):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated a config with an unknown key")

        monkeypatch.setattr(lindblad, "steady_state", integrate)
        monkeypatch.setattr(lindblad, "evolve", integrate)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(with_key(scenario_config("fig3-burst"), path, 0.0)))
        res = CliRunner().invoke(
            main, ["dynamic", "--config", str(cfg_path), "--out", str(tmp_path / "x")]
        )
        assert res.exit_code == 2, res.output
        assert f"{path}: unknown key" in res.output

    def test_short_fit_csv_schema_error(self, tmp_path):
        bad_csv = tmp_path / "bad.csv"
        bad_csv.write_text("control,lambda1,lambda2\n0,1551,1553\n1,1551,1553\n2,1551,1553\n")
        runner = CliRunner()
        res = runner.invoke(main, ["fit", str(bad_csv), "--out", str(tmp_path / "f")])
        assert res.exit_code == 2
        assert "4 data rows" in res.output


class TestCliDelayScan:
    def test_delay_metrics_normalized_to_reference(self, tmp_path):
        cfg = small_dynamic_config()
        cfg["pump"] = {"cw_rate": 0.0, "pulses": [{"t0_ps": 0.0, "area": 1.0, "width_ps": 6.0}]}
        cfg["solver"]["initial_state"] = "vacuum"
        cfg["grids"]["time_ps"] = {"start": -100.0, "stop": 1600.0, "n": 426}
        del cfg["profile"]["pulses"][0]["t0_ps"]
        cfg["delays_ps"] = [700.0, 1000.0]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "delay"
        res = CliRunner().invoke(main, ["dynamic", "--config", str(cfg_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        assert (out / "reference_curve_1552.20nm.csv").exists()
        metrics = json.loads((out / "metrics.json").read_text())
        for entry, delay in zip(metrics["delays"], (700.0, 1000.0)):
            m = entry["filters"][0]["metrics"]
            assert m["kind"] == "burst"
            assert abs(m["extremum_time_ps"] - delay) < 50.0
            assert entry["filters"][0]["normalization"].startswith("ratio")


class TestTruncationCheck:
    def test_opt_in_check_reported_in_metrics(self, tmp_path):
        cfg = small_dynamic_config()
        cfg["solver"]["check_truncation"] = True
        cfg["grids"]["time_ps"] = {"start": -520.0, "stop": 500.0, "n": 120}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out = tmp_path / "dyn"
        res = CliRunner().invoke(main, ["dynamic", "--config", str(cfg_path), "--out", str(out)])
        assert res.exit_code == 0, res.output
        metrics = json.loads((out / "metrics.json").read_text())
        check = metrics["truncation_check"]
        assert check["n_max"] == 1 and check["n_max_check"] == 2
        assert check["within_1_percent"]
        assert check["max_relative_drift"] < 0.01


class TestUnwritablePath:
    def test_reports_path_and_exits(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        res = CliRunner().invoke(
            main,
            ["static-sweep", "--scenario", "fig2-sweep", "--out", str(blocker / "sub")],
        )
        assert res.exit_code == 2
        assert "blocked" in res.output

    @pytest.mark.parametrize("command,target", [("fit", "sub"), ("render", "x.svg")])
    def test_fit_and_render_report_path_and_exit(self, tmp_path, command, target):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        table = small_table(tmp_path)
        res = CliRunner().invoke(main, [command, str(table), "--out", str(blocker / target)])
        assert res.exit_code == 2
        assert f"error: cannot write outputs under {blocker / target}" in res.output


class TestUnreadableInput:
    """An input file that cannot be decoded or parsed is a schema error: exit 2
    and one ``error:`` line naming the file, not a traceback."""

    @staticmethod
    def assert_schema_error(res, path):
        assert res.exit_code == 2, res.output
        errors = [line for line in res.output.splitlines() if line.startswith("error:")]
        assert len(errors) == 1 and str(path) in errors[0], res.output
        assert "Traceback" not in res.output

    @pytest.mark.parametrize("command, target", [("fit", "fit"), ("render", "table.svg")])
    @pytest.mark.parametrize("fault", ["byte 0xff", "200000-character cell"])
    def test_fit_and_render(self, tmp_path, command, target, fault):
        table = small_table(tmp_path)
        header, first, rest = table.read_bytes().split(b"\n", 2)
        if fault == "byte 0xff":
            first = first[:3] + b"\xff" + first[3:]
        else:
            first = b"1" * 200_000 + first[first.index(b","):]
        table.write_bytes(b"\n".join([header, first, rest]))
        res = CliRunner().invoke(main, [command, str(table), "--out", str(tmp_path / target)])
        self.assert_schema_error(res, table)
        assert not (tmp_path / target).exists()

    def test_dynamic_config(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        # a Latin-1 editor saves a y-umlaut in the scenario name as the one byte 0xFF
        document = json.dumps(small_dynamic_config()).encode()
        cfg_path.write_bytes(document.replace(b"mini", b"mi\xffni"))
        res = CliRunner().invoke(main, ["dynamic", "--config", str(cfg_path),
                                        "--out", str(tmp_path / "dyn")])
        self.assert_schema_error(res, cfg_path)

    def test_dynamic_config_with_an_integer_too_long_to_convert(self, tmp_path):
        # json raises ValueError past Python's 4300-digit int conversion limit
        cfg_path = tmp_path / "cfg.json"
        document = json.dumps(small_dynamic_config()).replace('"n": 240', '"n": ' + "1" * 5000)
        cfg_path.write_text(document, encoding="utf-8")
        res = CliRunner().invoke(main, ["dynamic", "--config", str(cfg_path),
                                        "--out", str(tmp_path / "dyn")])
        self.assert_schema_error(res, cfg_path)

    ROWS = "".join(f"{d},{1551.0 + d},{1553.0 + d}\n" for d in (-1.0, -0.5, 0.5, 1.0))

    @pytest.mark.parametrize("text, message", [
        ("t_ps,lambda1,lambda2\n" + ROWS, "unknown column 't_ps'"),
        ("control,lambda1_ns,lambda2\n" + ROWS, "the lambda1 column takes"),
        ("control,lambda1,lambda2,lambda1_nm\n" + ROWS.replace("\n", ",1552\n"),
         "duplicate column"),
        ("control,lambda1\n" + "".join(r.rsplit(",", 1)[0] + "\n" for r in ROWS.splitlines()),
         "missing required column 'lambda2'"),
        ("control,lambda1,lambda2,q1_err\n" + ROWS.replace("\n", ",1\n"), "needs the column"),
        ("control,lambda1,lambda2\n" + ROWS.split("\n", 1)[1], "at least 4 data rows"),
        ("control,lambda1,lambda2\n" + re.sub(r",[^,]*\n", ",\n", ROWS), "has no values"),
        ("control,lambda1,lambda2\n" + ROWS.replace(",1554.0\n", ",\n"), "line 5: missing value"),
        ("control,lambda1,lambda2,q1\n" + ROWS.replace("\n", ",1e4\n"), "q1 and q2"),
        ("control,lambda1,lambda2\n" + ROWS.replace(",1554.0\n", ",nan\n"), "not a finite"),
    ], ids=["unknown", "unit", "duplicate", "missing-column", "unweighted-error", "3-rows",
            "no-values", "missing-value", "q1-without-q2", "parse-error"])
    def test_fit_table_errors_name_the_file(self, tmp_path, text, message):
        # the table's own rules, the data's invariants and the parser alike,
        # each naming the file once
        table = tmp_path / "table.csv"
        table.write_text(text, encoding="utf-8")
        res = CliRunner().invoke(main, ["fit", str(table), "--out", str(tmp_path / "fit")])
        self.assert_schema_error(res, table)
        assert res.output.startswith(f"error: {table}: ") and res.output.count(str(table)) == 1
        assert message in res.output

    def test_fit_control_clash_names_the_file(self, tmp_path):
        table = tmp_path / "table.csv"
        table.write_text("detuning_nm,lambda1,lambda2\n" + self.ROWS, encoding="utf-8")
        cfg = fit_config(tmp_path, "fit.json", {"control": "power_mw"})
        res = CliRunner().invoke(main, ["fit", str(table), "--config", str(cfg),
                                        "--out", str(tmp_path / "fit")])
        self.assert_schema_error(res, table)
        assert "fit.control is 'power_mw'" in res.output

    @pytest.mark.parametrize("fault", ["read", "open"])
    @pytest.mark.parametrize("command", ["fit", "render", "dynamic --config"])
    def test_input_that_fails_to_read(self, tmp_path, monkeypatch, command, fault):
        # an OSError on an input names the input, not the output directory
        if fault == "read":  # the kernel answers a read at address 0 with EIO
            source = "/proc/self/mem"
            if not os.path.exists(source):
                pytest.skip("no /proc/self/mem")
        else:
            source = str(small_table(tmp_path))

            def failing_open(*args, **kwargs):
                raise OSError(errno.EIO, "Input/output error")

            for module in (render, config):
                monkeypatch.setattr(module, "open", failing_open, raising=False)
        out = str(tmp_path / "out")
        args = {"fit": ["fit", source, "--out", out],
                "render": ["render", source, "--out", out],
                "dynamic --config": ["dynamic", "--config", source, "--out", out]}[command]
        res = CliRunner().invoke(main, args)
        self.assert_schema_error(res, source)
        assert "Input/output error" in res.output and "cannot write outputs" not in res.output


def test_json_config_with_a_byte_order_mark(tmp_path):
    # as spreadsheets and some editors save one; both CSV readers accept it too
    for name in SCENARIO_NAMES:
        path = tmp_path / f"{name}.json"
        path.write_bytes(b"\xef\xbb\xbf" + json.dumps(scenario_config(name)).encode("utf-8"))
        assert load_config_file(path).raw == load_config(scenario_config(name)).raw


def selftest_rows(output: str) -> list:
    """The ``(name, status, detail)`` rows of a ``cavtune selftest`` table."""
    rows = [re.fullmatch(r"(.+?)\s+(PASS|FAIL)  (.*)", line) for line in output.splitlines()]
    return [row.groups() for row in rows if row]


def spy_on(monkeypatch, name, alter):
    """Wrap ``selftest.<name>``; each call returns ``alter(args, result)``, recorded
    with ``args`` in the returned list."""
    calls, real = [], getattr(selftest, name)

    def wrapped(*args):
        calls.append((args, alter(args, real(*args))))
        return calls[-1][1]

    monkeypatch.setattr(selftest, name, wrapped)
    return calls


class TestSelftestCommand:
    def test_selftest_passes(self):
        runner = CliRunner()
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 0, res.output
        rows = selftest_rows(res.output)
        assert [name for name, _, _ in rows] == [name for name, _ in selftest.CHECKS]
        assert all(status == "PASS" for _, status, _ in rows)
        assert res.output.splitlines()[-1] == "16/16 checks passed"

    def test_negative_control_fails_trace_check(self, monkeypatch):
        # the trace check alone runs on a broken target dissipator
        def broken_trace_check():
            with monkeypatch.context() as patch:
                patch.setattr(lindblad, "_Generator", broken_target_generator)
                return selftest._check_master_equation_trace()

        checks = [(name, broken_trace_check if fn is selftest._check_master_equation_trace else fn)
                  for name, fn in selftest.CHECKS]
        monkeypatch.setattr(selftest, "CHECKS", checks)
        runner = CliRunner()
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 1
        assert "FAIL" in res.output
        failed = [l for l in res.output.splitlines() if "FAIL" in l]
        assert len(failed) == 1 and failed[0].startswith("master-equation trace preservation")

    def test_broken_generator_fails_exactly_the_checks_that_run_it(self, monkeypatch):
        # the whole table prints: the checks that integrate with the broken
        # generator fail on its trace instead of ending the run
        monkeypatch.setattr(lindblad, "_Generator", broken_target_generator)
        res = CliRunner().invoke(main, ["selftest"])
        assert res.exit_code == 1, res.output
        rows = selftest_rows(res.output)
        assert [name for name, _, _ in rows] == [name for name, _ in selftest.CHECKS]
        assert [name for name, status, _ in rows if status == "FAIL"] == [
            "generator trace conservation",
            "master-equation trace preservation",
            "bare-cavity photon decay",
            "weak-coupling emitter rate",
            "dense superoperator oracle",
        ]
        assert res.output.splitlines()[-1] == "11/16 checks passed"

    def test_a_check_that_raises_is_a_fail_row(self, monkeypatch):
        def raising():
            raise NumericalFailure("no spectrum")

        checks = [(name, raising if name == "spectral map area" else fn)
                  for name, fn in selftest.CHECKS]
        monkeypatch.setattr(selftest, "CHECKS", checks)
        res = CliRunner().invoke(main, ["selftest"])
        assert res.exit_code == 1, res.output
        rows = selftest_rows(res.output)
        assert len(rows) == 16
        assert [row for row in rows if row[1] == "FAIL"] == [
            ("spectral map area", "FAIL", "NumericalFailure: no spectrum")
        ]
        assert res.output.splitlines()[-1] == "15/16 checks passed"


class TestSelftestDetails:
    """Each check's detail is the worst value it measured: here under a fault
    injected where the check reads its values, measured again by the test."""

    def test_trace_determinant(self, monkeypatch):
        def detuned(args, cm):
            t, f, eta = args
            return couple(replace(t, omega=t.omega * (1.0 + 1e-8)), f, eta)

        calls = spy_on(monkeypatch, "couple", detuned)
        passed, detail = selftest._check_eigen_trace_det()
        devs = []
        for (t, f, eta), cm in calls:
            wt, wf = t.complex_freq(), f.complex_freq()
            mu1, mu2 = cm.eigenvalue(1), cm.eigenvalue(2)
            devs += [abs(wt + wf - mu1 - mu2) / abs(wt + wf),
                     abs(wt * wf - eta**2 - mu1 * mu2) / abs(wt * wf)]
        assert len(calls) == 50 and max(devs) > 1e-9
        assert not passed and f"deviation {max(devs):.2e} over 50 draws" in detail

    def test_basis_equivalence(self, monkeypatch):
        def shifted(args, h):
            h[0, 0] += 1e-6 * np.abs(h).max()
            return h

        bare = spy_on(monkeypatch, "hamiltonian_bare_basis", lambda args, h: h)
        coupled = spy_on(monkeypatch, "coupled_hamiltonian", shifted)
        passed, detail = selftest._check_basis_equivalence()
        devs = []
        for (_, h1), (_, h2) in zip(bare, coupled):
            e1 = np.sort_complex(np.linalg.eigvals(h1))
            e2 = np.sort_complex(np.linalg.eigvals(h2))
            devs.append(np.max(np.abs(e1 - e2)) / max(abs(e1).max(), 1.0))
        assert len(devs) == 200
        assert not passed and f"scale {max(devs):.2e} over 200 draws" in detail

    def test_mode_population_sum(self, monkeypatch):
        def skewed(args, traj):
            traj.n1 = traj.n1 + 1e-6 * np.arange(traj.n1.size)
            return traj

        calls = spy_on(monkeypatch, "make_trajectory", skewed)
        passed, detail = selftest._check_mode_population_sum()
        (_, traj), = calls
        dev = np.max(np.abs(traj.n1 + traj.n2 - traj.n_t - traj.n_fp))
        assert dev > 1e-6
        assert not passed and f"= {dev:.2e} on random states" in detail

    def test_pulse_superposition(self, monkeypatch):
        calls = spy_on(monkeypatch, "fp_shift_at",
                       lambda args, shift: shift + 0.25 * (len(args[0]) == 2))
        passed, detail = selftest._check_pulse_superposition()
        (_, both), (_, only1), (_, only2) = calls
        dev = np.max(np.abs(both - only1 - only2))
        assert dev == pytest.approx(0.25)
        assert not passed and detail.endswith(f"= {dev:.2e} nm")

    def test_master_equation_trace(self, monkeypatch):
        # a leak of 1e-13 rad/ps stays far below the 1e-8 at which evolve
        # raises, so the check's own limit must catch it
        class leaking_generator(lindblad._Generator):
            def __init__(self, params, spec):
                super().__init__(params, spec)
                eye = np.eye(spec.dim)
                self.terms.append((1e-13 * eye, eye))

        monkeypatch.setattr(lindblad, "_Generator", leaking_generator)
        passed, detail = selftest._check_master_equation_trace()
        dev = np.expm1(1e-13 * 400.0)  # tr(rho) = exp(1e-13 t) at the last of 400 ps
        assert not passed and detail == f"max trace deviation {dev:.2e}"


class TestCalibratedScenarioValues:
    def test_frozen_tau_matches_shipped_configs(self):
        for name in ("fig3-burst", "fig3-dip", "fig4-delay"):
            raw = scenario_config(name)
            assert raw["profile"]["pulses"][0]["tau_fc_ps"] == TAU_FC_CALIBRATED_PS

    def test_fig4_delays_from_body_text(self):
        raw = scenario_config("fig4-delay")
        assert raw["delays_ps"] == [1500.0, 2000.0, 2500.0]
