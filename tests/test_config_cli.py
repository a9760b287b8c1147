import json
import re
from dataclasses import replace

import numpy as np
import pytest
from click.testing import CliRunner

from cavtune import (
    FitOptions,
    SchemaError,
    apply_filter,
    irf_convolve,
    lindblad,
    selftest,
    wl_to_omega,
)
from cavtune.cli import main
from cavtune.config import (
    SCENARIO_NAMES,
    TAU_FC_CALIBRATED_PS,
    config_hash,
    load_config,
    scenario_config,
)
from cavtune.runs import simulate_dynamic
from conftest import broken_target_generator, synthetic_data


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


# the keys of the instant pump map and of the free-carrier rise time
DROPPED_DRIVE_KEYS = ["pump.mode", "profile.pulses[0].tau_rise_ps"]


def with_key(raw, path, value=1.0):
    """``raw`` with ``value`` set at ``path``, such as ``profile.pulses[0].tau_rise_ps``."""
    *parents, key = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]
    node = raw
    for k in parents:
        node = node[k]
    node[key] = value
    return raw


class TestConfigValidation:
    def test_scenarios_all_load(self):
        for name in SCENARIO_NAMES:
            cfg = load_config(scenario_config(name))
            assert cfg.scenario == name

    # neither a typo nor a key the schema has dropped may pass
    @pytest.mark.parametrize("path", [
        "system.kapa_t", "solver.frame", "solver.fixed_step_ps", "profile.kappa_fp_scale",
        *DROPPED_DRIVE_KEYS,
    ])
    def test_unknown_key_reports_path(self, path):
        with pytest.raises(SchemaError, match=re.escape(f"{path}: unknown key")):
            load_config(with_key(small_dynamic_config(), path))

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

    def test_delays_need_single_template_pulse(self):
        raw = small_dynamic_config(delays_ps=[100.0, 200.0])
        raw["profile"]["pulses"].append(
            {"t0_ps": 50.0, "delta_lambda_max_nm": 0.1, "tau_fc_ps": 100.0}
        )
        with pytest.raises(SchemaError, match="delays_ps"):
            load_config(raw)


# One row per config value that was once accepted silently or crashed with a
# traceback: (section or None for the top level, key, value, reported path).
GAP_ROWS = [
    ("fit", "init", {"etaa": 1}, "fit.init.etaa"),
    ("fit", "bounds", {"etaa": [1, 2]}, "fit.bounds.etaa"),
    ("fit", "multistart", "3", "fit.multistart"),
    ("fit", "bounds", {"eta": 5}, "fit.bounds.eta"),
    ("fit", "init", {"eta": "x"}, "fit.init.eta"),
    ("pump", "pulses", 5, "pump.pulses"),
    (None, "filters", 5, "filters"),
    ("fit", "max_evals", -5, "fit.max_evals"),
    ("pump", "pulses", [{"t0_ps": 0.0, "area": 1.0, "width_ps": 0.0}], "pump.pulses[0]"),
    ("pump", "mode", "bogus", "pump.mode"),
    (None, "filters", [{"lambda_nm": 1552.2, "fwhm_nm": 0.0}], "filters[0].fwhm_nm"),
    (None, "filters", [{"lambda_nm": 1549.0}], "filters[0].lambda_nm"),
    (None, "delays_ps", [1500.4, 1499.6], "delays_ps"),
    (None, "filters", [{"lambda_nm": 1552.2}, {"lambda_nm": 1552.204}], "filters[1].lambda_nm"),
    ("solver", "atol", 0.0, "solver.atol"),
]


class TestOptionalKeys:
    def test_emitter_wavelength(self):
        raw = small_dynamic_config()
        raw["system"]["lambda0_nm"] = 1551.5
        params = load_config(raw).params
        assert params.emitter.omega0 == wl_to_omega(1551.5)
        assert params.target.omega == wl_to_omega(1552.0)

    def test_irf_sigma_smears_each_filtered_curve(self):
        cfg = load_config(small_dynamic_config(spectra={"irf_sigma_ps": 40.0}))
        _, pl_map, curves = simulate_dynamic(cfg)
        _, plain_map, plain_curves = simulate_dynamic(replace(cfg, irf_sigma_ps=0.0))
        assert np.array_equal(pl_map.intensity, plain_map.intensity)
        for (lam_c, fwhm), curve, plain in zip(cfg.filters, curves, plain_curves, strict=True):
            filtered = apply_filter(pl_map, lam_c, fwhm)
            assert np.array_equal(plain.intensity, filtered.intensity)
            assert np.array_equal(curve.intensity, irf_convolve(filtered, 40.0).intensity)
            assert not np.allclose(curve.intensity, plain.intensity)


def gap_config(section, key, value):
    # a dynamic scenario, since filters and delays are read against its grids and pulse
    raw = scenario_config("fig3-burst")
    (raw.setdefault(section, {}) if section else raw)[key] = value
    return raw


class TestConfigGaps:
    @pytest.mark.parametrize("section,key,value,path", GAP_ROWS, ids=[r[-1] for r in GAP_ROWS])
    def test_load_config_names_the_key(self, section, key, value, path):
        with pytest.raises(SchemaError, match=re.escape(path) + ":"):
            load_config(gap_config(section, key, value))

    @pytest.mark.parametrize("section,key,value,path", GAP_ROWS, ids=[r[-1] for r in GAP_ROWS])
    def test_fit_command_exits_2(self, tmp_path, section, key, value, path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(gap_config(section, key, value)))
        table = small_table(tmp_path)
        res = CliRunner().invoke(
            main, ["fit", str(table), "--config", str(cfg), "--out", str(tmp_path / "f")]
        )
        assert res.exit_code == 2, res.output
        assert f"{path}:" in res.output

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

    def test_config_seed_and_override(self, tmp_path):
        data = synthetic_data(**TRUTH, detunings_nm=np.linspace(-1.2, 1.2, 25),
                              noise_sigma_nm=0.01, seed=2)
        table = write_table(tmp_path / "table.csv", data)
        init = {"eta": 1.3e11, "kappa_t": 1.2e11, "kappa_fp": 5.5e11, "lambda_t": 1552.1}
        seeded = fit_config(tmp_path, "seeded.json", {"init": init, "multistart": 1, "seed": 5})
        plain = fit_config(tmp_path, "plain.json", {"init": init, "multistart": 1})

        def run(name, cfg, *extra):
            out = tmp_path / name
            res = CliRunner().invoke(
                main, ["fit", str(table), "--config", str(cfg), "--out", str(out), *extra]
            )
            assert res.exit_code == 0, res.output
            return (out / "fit.json").read_text()

        from_config = run("a", seeded)
        assert from_config == run("b", plain, "--seed", "5")
        assert from_config != run("c", plain)
        # an explicit --seed overrides fit.seed
        assert run("d", seeded, "--seed", "0") == run("c", plain)

    @pytest.mark.parametrize("seed", ["-1", "4294967296"])
    def test_out_of_range_seed_exits_2(self, tmp_path, seed):
        cfg = fit_config(tmp_path, "fit.json", {"multistart": 1})
        res = CliRunner().invoke(main, [
            "fit", str(small_table(tmp_path)), "--config", str(cfg),
            "--out", str(tmp_path / "fit"), "--seed", seed,
        ])
        assert res.exit_code == 2, res.output
        assert "error: seed must lie in [0, 2**32)" in res.output

    def test_render_takes_the_residuals(self, tmp_path):
        out = tmp_path / "fit"
        res = CliRunner().invoke(main, ["fit", str(small_table(tmp_path)), "--out", str(out)])
        assert res.exit_code == 0, res.output
        svg = tmp_path / "residuals.svg"
        res = CliRunner().invoke(main, ["render", str(out / "residuals.csv"), "--out", str(svg)])
        assert res.exit_code == 0, res.output
        assert "weighted_residual" in svg.read_text()

    def test_bad_config_seed_rejected(self):
        raw = scenario_config("fig2-sweep")
        raw["fit"] = {"seed": -1}
        with pytest.raises(SchemaError, match="fit.seed"):
            load_config(raw)


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

    def test_schema_error_exit_code(self, tmp_path):
        bad = small_dynamic_config()
        bad["solver"]["initial_state"] = "thermal"
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(bad))
        runner = CliRunner()
        res = runner.invoke(main, ["dynamic", "--config", str(cfg_path), "--out", str(tmp_path / "x")])
        assert res.exit_code == 2
        assert "solver.initial_state" in res.output

    @pytest.mark.parametrize("path", DROPPED_DRIVE_KEYS)
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
        cfg["profile"]["pulses"][0]["t0_ps"] = 700.0
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


class TestSelftestCommand:
    def test_selftest_passes(self):
        runner = CliRunner()
        res = runner.invoke(main, ["selftest"])
        assert res.exit_code == 0, res.output
        lines = [l for l in res.output.splitlines() if "PASS" in l or "FAIL" in l]
        assert len(lines) >= 10
        assert all("PASS" in l for l in lines)

    def test_negative_control_fails_trace_check(self, monkeypatch):
        # the trace check alone runs on a broken target dissipator: with it,
        # the other evolve checks would fail uncaught
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


class TestCalibratedScenarioValues:
    def test_frozen_tau_matches_shipped_configs(self):
        for name in ("fig3-burst", "fig3-dip", "fig4-delay"):
            raw = scenario_config(name)
            assert raw["profile"]["pulses"][0]["tau_fc_ps"] == TAU_FC_CALIBRATED_PS

    def test_fig4_delays_from_body_text(self):
        raw = scenario_config("fig4-delay")
        assert raw["delays_ps"] == [1500.0, 2000.0, 2500.0]
