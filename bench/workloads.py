"""The three benchmark workloads: their inputs, their CLI commands and their gates.

Every workload drives the real ``cavtune`` CLI.  One operation of a workload
(``op``) is one complete workflow; each CLI command in it is one attempted
operation for the error rate, and it fails on a nonzero exit or a failed gate.

- ``burst-trunc``: ``dynamic`` on fig3-burst with ``solver.check_truncation``
  and ``--render``, one thread.  The CW-pumped start runs ``steady_state`` and
  an evolve at n_max=2, then both again at n_max=3.
- ``delay-scan``: ``dynamic --scenario fig4-delay`` with two threads (never
  more than the cores).  It starts from vacuum, so ``steady_state`` never
  runs; four evolves and three ``map.csv`` writes.
- ``sweep-fit``: ``static-sweep --scenario fig2-sweep``, then for each of
  ``FIT_REALIZATIONS`` seeded noise draws two fits of the noisy table, one
  with detuning control and one power-control twin.  No Lindblad code runs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

# sweep-fit: noise on the emitted table and the fit start point
NOISE_LAMBDA_NM = 0.005
NOISE_REL_Q_TAU = 0.02
POWER_SLOPE_NM_PER_MW = 0.1
INIT_FACTORS = {"eta": 1.3, "kappa_t": 0.7, "kappa_fp": 1.4}
# Each realization is one noisy table fitted twice.  With multistart 1 the two
# fits of one draw take 16k evaluations on average, varying by 26% between
# draws; four draws per operation bring that to about 13% of the fitting time,
# which is about half of wall_s.
FIT_REALIZATIONS = 4
FIT_MULTISTART = 1
# gate tolerances on the recovered parameters (worst of 80 fits at 40 seeds:
# eta 1.0%, kappa_t 0.7%, kappa_fp 0.5%, lambda_t 0.001 nm)
FIT_REL_TOL = 0.03
FIT_LAMBDA_TOL_NM = 0.005

BURST_FWHM_PS = (227.0, 237.0)
BURST_DEPTH = (2.0, 5.0)
DELAY_TOL_PS = 50.0
DELAY_MIN_RATIO = 1.5


@dataclass
class Command:
    """One CLI command of an operation and what the gates found wrong with it."""

    label: str
    args: list
    out: Path
    exit_code: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    failures: list = field(default_factory=list)
    spans: dict | None = None


@dataclass
class Workload:
    name: str
    why: str
    seeded: bool  # do the outputs depend on the seed?
    setup_config: Callable  # (inputs dir) -> config file or "scenario:NAME" for the setup probe
    prepare: Callable  # (inputs dir, seed, smoke) -> None
    op: Callable  # (cli runner, inputs dir, op dir, seed, smoke) -> None


def _load_json(path: Path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)


def _shrink(cfg: dict, smoke: bool) -> dict:
    """Smoke scale: coarse grids and n_max=1, for the harness self-test only."""
    if smoke:
        grids = cfg["grids"]
        for key, n in (("time_ps", 201), ("lambda_nm", 41), ("detuning_nm", 41)):
            if key in grids:
                grids[key]["n"] = n
        if "solver" in cfg:
            cfg["solver"]["n_max"] = 1
    return cfg


# -- gates -----------------------------------------------------------------------


def gate_burst(metrics: dict) -> list:
    """fig3-burst with truncation check: a 232 ps burst of depth 2-5 that n_max+1 confirms."""
    bad = []
    try:
        m = metrics["filters"][0]["metrics"]
    except (KeyError, IndexError):
        return [f"no burst metrics: {metrics.get('filters')}"]
    if m.get("kind") != "burst":
        bad.append(f"kind {m.get('kind')!r} is not 'burst'")
    lo, hi = BURST_FWHM_PS
    if not lo <= m.get("fwhm_ps", -1.0) <= hi:
        bad.append(f"FWHM {m.get('fwhm_ps')} ps outside [{lo}, {hi}]")
    lo, hi = BURST_DEPTH
    if not lo <= m.get("modulation_depth", -1.0) <= hi:
        bad.append(f"depth {m.get('modulation_depth')} outside [{lo}, {hi}]")
    if metrics.get("truncation_check", {}).get("within_1_percent") is not True:
        bad.append(f"truncation check failed: {metrics.get('truncation_check')}")
    return bad


def gate_delays(metrics: dict, delays: list) -> list:
    """fig4-delay: each normalized trace peaks within 50 ps of its delay, ratio > 1.5."""
    found = {d.get("delay_ps"): d for d in metrics.get("delays", [])}
    if sorted(found) != sorted(delays):
        return [f"delays {sorted(found)} differ from {sorted(delays)}"]
    bad = []
    for delay in delays:
        m = found[delay]["filters"][0].get("metrics")
        if m is None:
            bad.append(f"delay {delay}: no metrics ({found[delay]['filters'][0].get('error')})")
            continue
        if abs(m["extremum_time_ps"] - delay) > DELAY_TOL_PS:
            bad.append(f"delay {delay}: extremum at {m['extremum_time_ps']} ps")
        if not (m["kind"] == "burst" and m["modulation_depth"] > DELAY_MIN_RATIO):
            bad.append(f"delay {delay}: {m['kind']} of ratio {m['modulation_depth']}")
    return bad


def gate_fit(fit: dict, truth: dict) -> list:
    """A converged fit that recovers eta, kappa_t, kappa_fp and lambda_t."""
    bad = [] if fit.get("converged") is True else ["fit did not converge"]
    est = fit.get("estimates", {})
    for name in ("eta", "kappa_t", "kappa_fp"):
        if name not in est or abs(est[name] / truth[name] - 1.0) > FIT_REL_TOL:
            bad.append(f"{name} = {est.get(name)} vs true {truth[name]}")
    if "lambda_t" not in est or abs(est["lambda_t"] - truth["lambda_t_nm"]) > FIT_LAMBDA_TOL_NM:
        bad.append(f"lambda_t = {est.get('lambda_t')} vs true {truth['lambda_t_nm']}")
    return bad


def _gate(cmd: Command, check: Callable) -> None:
    """Run a gate on a command's outputs, unless the command already failed."""
    if cmd.exit_code != 0:
        return
    try:
        cmd.failures += check()
    except (OSError, ValueError, KeyError, TypeError) as exc:
        cmd.failures.append(f"unreadable output: {exc!r}")


# -- burst-trunc ------------------------------------------------------------------


def _prepare_burst(inputs: Path, seed: int, smoke: bool) -> None:
    from cavtune.config import scenario_config

    cfg = scenario_config("fig3-burst")
    cfg["solver"]["check_truncation"] = True
    _write_json(inputs / "burst.json", _shrink(cfg, smoke))


def _op_burst(cli, inputs: Path, op_dir: Path, seed: int, smoke: bool) -> None:
    out = op_dir / "burst"
    cmd = cli("burst", ["dynamic", "--config", str(inputs / "burst.json"), "--out", str(out),
                        "--render", "--threads", "1"], out)
    _gate(cmd, lambda: gate_burst(_load_json(out / "metrics.json")))


# -- delay-scan ---------------------------------------------------------------------


def _prepare_delay(inputs: Path, seed: int, smoke: bool) -> None:
    if smoke:
        from cavtune.config import scenario_config

        _write_json(inputs / "delay.json", _shrink(scenario_config("fig4-delay"), smoke))


def _delay_source(inputs: Path, smoke: bool) -> list:
    return ["--config", str(inputs / "delay.json")] if smoke else ["--scenario", "fig4-delay"]


def _op_delay(cli, inputs: Path, op_dir: Path, seed: int, smoke: bool) -> None:
    from cavtune.config import scenario_config

    threads = min(2, len(os.sched_getaffinity(0)))
    out = op_dir / "delay"
    cmd = cli("delay", ["dynamic", *_delay_source(inputs, smoke), "--out", str(out),
                        "--threads", str(threads)], out)
    delays = scenario_config("fig4-delay")["delays_ps"]
    _gate(cmd, lambda: gate_delays(_load_json(out / "metrics.json"), delays))


# -- sweep-fit ------------------------------------------------------------------------


def _prepare_sweep(inputs: Path, seed: int, smoke: bool) -> None:
    from cavtune.config import DEFAULT_SYSTEM, scenario_config

    sweep = _shrink(scenario_config("fig2-sweep"), smoke)
    _write_json(inputs / "sweep.json", sweep)
    init = {k: DEFAULT_SYSTEM[k] * f for k, f in INIT_FACTORS.items()}
    for control in ("detuning_nm", "power_mw"):
        cfg = dict(sweep, fit={"control": control, "init": init, "multistart": FIT_MULTISTART})
        _write_json(inputs / f"fit_{control}.json", cfg)
    _write_json(inputs / "truth.json", DEFAULT_SYSTEM)


def noisy_tables(sweep_csv: Path, rng: np.random.Generator, dest: Path) -> tuple[Path, Path]:
    """Seeded noise on an emitted sweep table, written with detuning and power control."""
    with open(sweep_csv, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header, table = rows[0], np.array(rows[1:], dtype=float)
    table[:, 1:3] += rng.normal(0.0, NOISE_LAMBDA_NM, (len(table), 2))
    table[:, 3:6] *= 1.0 + rng.normal(0.0, NOISE_REL_Q_TAU, (len(table), 3))
    power = table.copy()
    power[:, 0] /= POWER_SLOPE_NM_PER_MW
    paths = (dest / "noisy_detuning.csv", dest / "noisy_power.csv")
    for path, head, values in zip(paths, (header[0], "control_mw"), (table, power)):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(",".join([head] + header[1:]) + "\n")
            for row in values:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    return paths


def _op_sweep(cli, inputs: Path, op_dir: Path, seed: int, smoke: bool) -> None:
    out = op_dir / "sweep"
    sweep = cli("sweep", ["static-sweep", "--config", str(inputs / "sweep.json"),
                          "--out", str(out)], out)
    n_rows = _load_json(inputs / "sweep.json")["grids"]["detuning_nm"]["n"]
    _gate(sweep, lambda: [] if _count_rows(out / "sweep.csv") == n_rows
          else [f"sweep.csv does not have {n_rows} rows"])
    if sweep.failures or sweep.exit_code:
        return
    truth = _load_json(inputs / "truth.json")
    for k in range(1 if smoke else FIT_REALIZATIONS):
        draw_dir = op_dir / f"draw{k}"
        draw_dir.mkdir()
        tables = noisy_tables(out / "sweep.csv", np.random.default_rng([seed, k]), draw_dir)
        for control, table in zip(("detuning_nm", "power_mw"), tables):
            fit_out = draw_dir / f"fit_{control}"
            cmd = cli(f"draw{k}-{control}",
                      ["fit", str(table), "--config", str(inputs / f"fit_{control}.json"),
                       "--out", str(fit_out), "--seed", str(seed)], fit_out)
            _gate(cmd, lambda: gate_fit(_load_json(fit_out / "fit.json"), truth))


def _count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for _ in fh) - 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("burst-trunc", "fig3 burst with the n_max+1 truncation check: steady state "
                 "and Fock-space size dominate", False,
                 lambda inputs: inputs / "burst.json", _prepare_burst, _op_burst),
        Workload("delay-scan", "fig4 delay scan from vacuum: no steady state; integrator, "
                 "threads and file emission carry the weight", False,
                 lambda inputs: "scenario:fig4-delay", _prepare_delay, _op_delay),
        Workload("sweep-fit", "fig2 sweep then fits of seeded noisy tables: no Lindblad code; "
                 "fitting carries about half the time, modespace and CLI start-up the rest", True,
                 lambda inputs: inputs / "fit_power_mw.json", _prepare_sweep, _op_sweep),
    )
}
