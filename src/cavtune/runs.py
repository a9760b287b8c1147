"""Scenario execution: static sweeps, dynamic burst/dip runs, file emission.

All CSV output uses 17-significant-digit formatting, LF line endings and
unit-suffixed headers, so repeated runs are byte-identical.  The run manifest
is the one deliberately run-specific output (it records wall-clock duration).
"""

from __future__ import annotations

import json
import time
from dataclasses import replace
from pathlib import Path
from typing import Optional

import numpy as np

from . import __version__
from .config import BASELINE_SPAN_PS, RunConfig, config_hash, curve_stem, delay_prefix
from .errors import InvalidInput, NoFeature
from .modespace import anticrossing_sweep, wl_to_omega
from .spectra import (
    DecayCurve,
    PLMap,
    apply_filter,
    burst_metrics,
    irf_convolve,
    synthesize_map,
)
from .tuning import HilbertSpec


# every number in the CSV outputs; write_map_csv formats with it directly
NUMBER_FORMAT = ".17g"


def format_number(x: float) -> str:
    return format(x, NUMBER_FORMAT)


def write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_number(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_manifest(outdir: Path, cfg: RunConfig, outputs: list, started: float) -> Path:
    manifest = {
        "schema": 1,
        "tool": "cavtune",
        "version": __version__,
        "scenario": cfg.scenario,
        "config_sha256": config_hash(cfg.raw),
        "duration_s": time.monotonic() - started,
        "outputs": sorted(outputs),
    }
    path = outdir / "manifest.json"
    write_json(path, manifest)
    return path


def run_static_sweep(cfg: RunConfig, outdir: Path, render: bool = False):
    """Anticrossing sweep with the FP mode at lambda_t + each detuning -> sweep.csv (+ SVGs)."""
    started = time.monotonic()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    grid_nm = cfg.detuning_grid_nm
    sweep = anticrossing_sweep(cfg.params, wl_to_omega(cfg.lambda_t_nm + grid_nm))

    outputs = []
    sweep_csv = outdir / "sweep.csv"
    write_csv(
        sweep_csv,
        ["detuning_nm", "lambda1_nm", "lambda2_nm", "q1", "q2", "tau_ns"],
        zip(grid_nm, sweep.lambda1_nm, sweep.lambda2_nm, sweep.q1, sweep.q2,
            sweep.decay_time_s * 1e9),
    )
    outputs.append(sweep_csv.name)
    if render:
        from .render import render_curve_svg

        plots = (
            ("sweep_wavelengths.svg", ("lambda1_nm", "lambda2_nm"), "wavelength_nm", "wavelengths"),
            ("sweep_q.svg", ("q1", "q2"), "quality_factor", "Q"),
        )
        for name, fields, y_label, what in plots:
            svg = render_curve_svg(
                x=grid_nm,
                series=[(f, getattr(sweep, f)) for f in fields],
                x_label="detuning_nm",
                y_label=y_label,
                title=f"{cfg.scenario}: coupled-mode {what}",
            )
            (outdir / name).write_text(svg, encoding="utf-8")
            outputs.append(name)
    write_manifest(outdir, cfg, outputs, started)
    return outputs


def initial_state_for(cfg: RunConfig) -> np.ndarray:
    # cavtune.lindblad, and with it scipy, loads only for dynamic runs
    from .lindblad import emitter_excited_state, steady_state, vacuum_state

    if cfg.initial_state == "vacuum":
        return vacuum_state(cfg.hilbert)
    if cfg.initial_state == "excited":
        return emitter_excited_state(cfg.hilbert)
    return steady_state(cfg.params, spec=cfg.hilbert)


def simulate_dynamic(cfg: RunConfig, pulses: Optional[tuple] = None):
    """The trajectory of ``cfg`` from its initial state, under ``pulses`` or ``cfg.pulses``."""
    from .lindblad import evolve

    pulses = cfg.pulses if pulses is None else pulses  # not `or`: () runs without pulses
    rho0 = initial_state_for(cfg)
    return evolve(cfg.params, pulses, rho0, cfg.time_grid_ps, rtol=cfg.rtol, atol=cfg.atol)


def filtered_curves(cfg: RunConfig, traj) -> list:
    """The traces of ``traj`` through each of ``cfg.filters``, convolved with its IRF."""
    return [
        irf_convolve(apply_filter(traj, c, fwhm), cfg.irf_sigma_ps)
        for c, fwhm in cfg.filters
    ]


def delay_pulses(cfg: RunConfig, delay_ps: float) -> tuple:
    """The one template pulse of ``cfg.pulses``, moved to ``delay_ps``."""
    return (replace(cfg.pulses[0], t0_ps=delay_ps),)


def delay_scan(cfg: RunConfig):
    """The pulse-free reference, then the run of each delay of ``cfg.delays_ps``.

    Yields each run's ``Trajectory``, the reference first.  Before its pulse, a
    delayed run is the reference: the pulse adds no shift before it starts,
    and every run starts from the same initial state.  So the reference is
    integrated once, with a segment end at the last grid time at or before
    each delay.  Each delayed run is a copy of the reference's states with
    the rows from that time on written over by a run from the reference's
    state there, and its observables are formed once from those states.  A
    run's entries of vec(rho) lie inside the reference's ``keep``
    (:func:`cavtune.lindblad.evolve`).  :func:`simulate_dynamic` with
    :func:`delay_pulses` is the from-scratch run this reproduces.
    """
    from .lindblad import evolve, make_trajectory

    t_grid = cfg.time_grid_ps
    options = dict(rtol=cfg.rtol, atol=cfg.atol)
    starts = [max(int(np.searchsorted(t_grid, d, side="right")) - 1, 0) for d in cfg.delays_ps]
    reference = evolve(
        cfg.params, (), initial_state_for(cfg), t_grid,
        breakpoints_ps=t_grid[starts], **options,
    )
    yield reference
    for delay, k in zip(cfg.delays_ps, starts):
        pulses = delay_pulses(cfg, delay)
        states = reference.states.copy()
        if k < t_grid.size - 1:
            tail = evolve(cfg.params, pulses, reference.density(k), t_grid[k:], **options)
            states[k:] = 0.0
            states[k:, np.searchsorted(reference.keep, tail.keep)] = tail.states
        yield make_trajectory(cfg.params, pulses, t_grid, states, reference.keep, reference.dim)


def _metrics_entry(curve: DecayCurve, window, reference: Optional[DecayCurve] = None) -> dict:
    """The metrics of ``curve``, or of its ratio to ``reference`` when one is given."""
    entry = {"lambda_nm": curve.center_nm, "fwhm_nm": curve.fwhm_nm}
    if reference is not None:
        floor = max(float(reference.intensity.max()), 1e-300) * 1e-12
        ratio = curve.intensity / np.clip(reference.intensity, floor, None)
        curve = DecayCurve(curve.t_grid_ps, ratio, curve.center_nm, curve.fwhm_nm)
        entry["normalization"] = "ratio to the pulse-free reference decay"
    if window is None:
        entry["error"] = "no control pulse: no baseline window"
        return entry
    try:
        entry["metrics"] = burst_metrics(curve, window).to_dict()
    except (NoFeature, InvalidInput) as exc:
        entry["error"] = str(exc)
    return entry


def write_map_csv(path: Path, pl_map: PLMap) -> None:
    """``pl_map`` in long format, ``t_ps,lambda_nm,intensity_au``, one row per cell.

    The wavelengths are formatted once per map, into a template of the lines
    of one map row; each map row fills it with its time and, in one ``%``
    operation, its intensities.
    """
    template = "".join(
        f"{{t}},{format_number(lam)},%{NUMBER_FORMAT}\n" for lam in pl_map.lambda_grid_nm.tolist()
    )
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("t_ps,lambda_nm,intensity_au\n")
        for t, row in zip(pl_map.t_grid_ps.tolist(), pl_map.intensity):
            fh.write(template.replace("{t}", format_number(t)) % tuple(row.tolist()))


def _write_curve_csv(path: Path, curve: DecayCurve) -> None:
    write_csv(path, ["t_ps", "intensity_au"], zip(curve.t_grid_ps, curve.intensity))


def _emit_dynamic_outputs(outdir: Path, prefix: str, traj, curves, cfg: RunConfig, render):
    """Write the emission map of ``traj``, synthesized here, and ``curves``."""
    pl_map = synthesize_map(traj, cfg.lambda_grid_nm)
    outputs = []
    map_csv = outdir / f"{prefix}map.csv"
    write_map_csv(map_csv, pl_map)
    outputs.append(map_csv.name)

    for curve in curves:
        name = f"{prefix}{curve_stem(curve.center_nm)}.csv"
        _write_curve_csv(outdir / name, curve)
        outputs.append(name)

    if render:
        from .render import render_curve_svg, render_heatmap_ppm

        (outdir / f"{prefix}map.ppm").write_bytes(render_heatmap_ppm(pl_map.intensity))
        outputs.append(f"{prefix}map.ppm")
        for curve in curves:
            svg = render_curve_svg(
                x=curve.t_grid_ps,
                series=[("intensity_au", curve.intensity)],
                x_label="t_ps",
                y_label="intensity_au",
                title=f"{cfg.scenario}: filtered trace at {curve.center_nm:.2f} nm",
            )
            name = f"{prefix}{curve_stem(curve.center_nm)}.svg"
            (outdir / name).write_text(svg, encoding="utf-8")
            outputs.append(name)
    return outputs


def _truncation_drift(cfg: RunConfig, pulses, traj, curves) -> dict:
    """Re-run ``traj`` one Fock level higher and report the worst relative drift."""
    bigger = replace(cfg, hilbert=HilbertSpec(cfg.hilbert.n_max + 1))
    traj_b = simulate_dynamic(bigger, pulses)
    drift = 0.0
    for field in ("n_e", "n_t", "n_fp", "n1", "n2"):
        a, b = getattr(traj, field), getattr(traj_b, field)
        scale = max(float(np.max(np.abs(b))), 1e-300)
        drift = max(drift, float(np.max(np.abs(a - b))) / scale)
    for ca, cb in zip(curves, filtered_curves(bigger, traj_b)):
        scale = max(float(np.max(np.abs(cb.intensity))), 1e-300)
        drift = max(drift, float(np.max(np.abs(ca.intensity - cb.intensity))) / scale)
    return {
        "n_max": cfg.hilbert.n_max,
        "n_max_check": cfg.hilbert.n_max + 1,
        "max_relative_drift": drift,
        "within_1_percent": drift < 0.01,
    }


def run_dynamic(cfg: RunConfig, outdir: Path, render: bool = False):
    """Dynamic scenario: map CSV, filtered curve CSVs, metrics JSON, optional plots.

    A plain run and each run of a delay scan pass through one loop; a scan
    adds its reference curves and the metrics of each run's ratio to them.
    """
    started = time.monotonic()
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    outputs = []

    if cfg.delays_ps:
        # the output prefix, baseline window and pulses of each run
        plan = [(delay_prefix(d), (d - BASELINE_SPAN_PS, d), delay_pulses(cfg, d))
                for d in cfg.delays_ps]
        runs = delay_scan(cfg)
        # the decay trace without a control pulse normalizes the delayed runs:
        # against a decaying baseline, raw-trace metrics are ill-posed
        references = filtered_curves(cfg, next(runs))
        for ref_curve in references:
            name = f"reference_{curve_stem(ref_curve.center_nm)}.csv"
            _write_curve_csv(outdir / name, ref_curve)
            outputs.append(name)
    else:
        plan = [("", cfg.baseline_window_ps, cfg.pulses)]
        runs = [simulate_dynamic(cfg)]
        references = [None] * len(cfg.filters)

    metrics = {"scenario": cfg.scenario}
    entries = []
    for i, ((prefix, window, pulses), traj) in enumerate(zip(plan, runs)):
        curves = filtered_curves(cfg, traj)
        outputs += _emit_dynamic_outputs(outdir, prefix, traj, curves, cfg, render)
        entries.append([_metrics_entry(c, window, ref) for c, ref in zip(curves, references)])
        if cfg.check_truncation and i == 0:
            metrics["truncation_check"] = _truncation_drift(cfg, pulses, traj, curves)
    if cfg.delays_ps:
        metrics["delays"] = [{"delay_ps": d, "filters": e} for d, e in zip(cfg.delays_ps, entries)]
    else:
        metrics["filters"] = entries[0]

    metrics_path = outdir / "metrics.json"
    write_json(metrics_path, metrics)
    outputs.append(metrics_path.name)
    write_manifest(outdir, cfg, outputs, started)
    return outputs
