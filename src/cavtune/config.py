"""Run configuration: JSON schema, strict validation, and shipped scenarios.

Configs are plain JSON documents with a ``schema`` version field.  Unknown
keys anywhere are errors (a typo in a physics parameter must not pass
silently); every physical invariant of the underlying domain types is
re-checked on load with the offending key path in the message.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CavtuneError, SchemaError
from .modespace import BareMode, EmitterParams, SystemParams, wl_to_omega
from .tuning import (
    FreeCarrierPulse,
    HilbertSpec,
    PumpPulse,
    PumpSchedule,
    ThermoOpticModel,
    TuningProfile,
)

SCHEMA_VERSION = 1

# Free-carrier recovery time frozen from the one-dimensional calibration scan
# that pins the simulated burst FWHM to 232 ps (see tests/test_acceptance.py,
# which re-runs the scan).
TAU_FC_CALIBRATED_PS = 352.421875

# Shared baseline parameter set (I/O units: nm for wavelengths, rad/s for rates).
DEFAULT_SYSTEM = {
    "lambda_t_nm": 1552.0,
    "kappa_t": 1.564e11,
    "kappa_fp": 4.692e11,  # 3 * kappa_t
    "eta": 1.564e11,
    "g": 1.0e10,
    "gamma_leaky": 5.0e8,
    "lambda0_nm": None,  # emitter wavelength; None -> resonant with the target mode
}

_NUMBER = (int, float)


def _is_number(v) -> bool:
    return isinstance(v, _NUMBER) and not isinstance(v, bool) and np.isfinite(v)


def _err(path: str, message: str):
    raise SchemaError(f"{path}: {message}")


def _check_keys(node: dict, allowed, path: str):
    if not isinstance(node, dict):
        _err(path, f"expected an object, got {type(node).__name__}")
    for key in node:
        if key not in allowed:
            _err(f"{path}.{key}" if path else key, "unknown key")


def _get_number(
    node, key, path, default=None, minimum=None, maximum=None, allow_none=False, required=False
):
    if key not in node:
        if required:
            _err(f"{path}.{key}", "required key missing")
        return default
    value = node[key]
    if value is None:
        if allow_none:
            return None
        _err(f"{path}.{key}", "expected a number, got null")
    if not _is_number(value):
        _err(f"{path}.{key}", f"expected a finite number, got {value!r}")
    if minimum is not None and value < minimum:
        _err(f"{path}.{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _err(f"{path}.{key}", f"must be <= {maximum}, got {value}")
    return float(value)


def _get_grid(node, key, path):
    if key not in node:
        return None
    sub = node[key]
    sub_path = f"{path}.{key}"
    _check_keys(sub, {"start", "stop", "n"}, sub_path)
    start = _get_number(sub, "start", sub_path)
    stop = _get_number(sub, "stop", sub_path)
    n = sub.get("n")
    if start is None or stop is None or n is None:
        _err(sub_path, "grid needs start, stop and n")
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        _err(f"{sub_path}.n", f"expected an integer >= 2, got {n!r}")
    if not stop > start:
        _err(sub_path, f"stop ({stop}) must exceed start ({start})")
    return np.linspace(start, stop, n)


@dataclass
class RunConfig:
    """A fully validated, resolved run configuration."""

    raw: dict
    scenario: str
    kind: str  # "static-sweep" | "dynamic"
    params: SystemParams
    profile: TuningProfile
    detuning_grid_nm: Optional[np.ndarray]
    time_grid_ps: Optional[np.ndarray]
    lambda_grid_nm: Optional[np.ndarray]
    filters: list  # (lambda_nm, fwhm_nm)
    collection_exponent: float
    irf_sigma_ps: float
    hilbert: HilbertSpec
    rtol: float
    atol: float
    frame: str
    fixed_step_ps: Optional[float]
    initial_state: str  # "steady" | "vacuum" | "excited"
    check_truncation: bool
    baseline_window_ps: Optional[tuple]
    delays_ps: Optional[list]
    colormap: str
    log_scale: bool
    fit: dict

    @property
    def lambda_t_nm(self) -> float:
        return float(self.raw["system"]["lambda_t_nm"])


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


_TOP_KEYS = {
    "schema",
    "scenario",
    "kind",
    "system",
    "pump",
    "profile",
    "grids",
    "filters",
    "spectra",
    "solver",
    "baseline_window_ps",
    "delays_ps",
    "render",
    "fit",
}


def load_config(raw: dict) -> RunConfig:
    """Validate a config document and resolve it into domain objects."""
    _check_keys(raw, _TOP_KEYS, "")
    if raw.get("schema") != SCHEMA_VERSION:
        _err("schema", f"expected schema version {SCHEMA_VERSION}, got {raw.get('schema')!r}")
    kind = raw.get("kind")
    if kind not in ("static-sweep", "dynamic"):
        _err("kind", f"expected 'static-sweep' or 'dynamic', got {kind!r}")
    scenario = raw.get("scenario", "custom")
    if not isinstance(scenario, str):
        _err("scenario", f"expected a string, got {scenario!r}")

    # -- system ------------------------------------------------------------
    system = raw.get("system")
    if system is None:
        _err("system", "required section missing")
    _check_keys(system, set(DEFAULT_SYSTEM), "system")
    lambda_t = _get_number(system, "lambda_t_nm", "system", minimum=1e-6, required=True)
    kappa_t = _get_number(system, "kappa_t", "system", minimum=0.0, required=True)
    kappa_fp = _get_number(system, "kappa_fp", "system", minimum=0.0, required=True)
    eta = _get_number(system, "eta", "system", minimum=0.0, required=True)
    g = _get_number(system, "g", "system", default=0.0, minimum=0.0)
    gamma_leaky = _get_number(system, "gamma_leaky", "system", default=0.0, minimum=0.0)
    lambda0 = _get_number(system, "lambda0_nm", "system", allow_none=True, minimum=1e-6)

    # -- pump ----------------------------------------------------------------
    pump_node = raw.get("pump", {})
    _check_keys(pump_node, {"cw_rate", "mode", "cavity_cw_rate", "pulses"}, "pump")
    cw_rate = _get_number(pump_node, "cw_rate", "pump", default=0.0, minimum=0.0)
    cavity_cw = _get_number(pump_node, "cavity_cw_rate", "pump", default=0.0, minimum=0.0)
    pump_mode = pump_node.get("mode", "gaussian")
    pulses = []
    for i, p in enumerate(pump_node.get("pulses", [])):
        p_path = f"pump.pulses[{i}]"
        _check_keys(p, {"t0_ps", "area", "width_ps"}, p_path)
        pulses.append(
            (
                _get_number(p, "t0_ps", p_path, required=True),
                _get_number(p, "area", p_path, minimum=0.0, required=True),
                _get_number(p, "width_ps", p_path, default=6.0),
            )
        )

    # -- profile ---------------------------------------------------------------
    profile_node = raw.get("profile", {})
    _check_keys(
        profile_node, {"static_detuning_nm", "thermo", "pulses", "kappa_fp_scale"}, "profile"
    )
    static_det = _get_number(profile_node, "static_detuning_nm", "profile", default=0.0)
    kappa_fp_scale = _get_number(
        profile_node, "kappa_fp_scale", "profile", default=1.0, minimum=1e-6
    )
    thermo_node = profile_node.get("thermo")
    thermo = None
    if thermo_node is not None:
        _check_keys(thermo_node, {"coeff_nm_per_mw", "power_mw"}, "profile.thermo")
        thermo = (
            _get_number(thermo_node, "coeff_nm_per_mw", "profile.thermo", default=0.0, minimum=0.0),
            _get_number(thermo_node, "power_mw", "profile.thermo", default=0.0, minimum=0.0),
        )
    fc_pulses = []
    for i, p in enumerate(profile_node.get("pulses", [])):
        p_path = f"profile.pulses[{i}]"
        _check_keys(p, {"t0_ps", "delta_lambda_max_nm", "tau_fc_ps", "tau_rise_ps"}, p_path)
        fc_pulses.append(
            (
                _get_number(p, "t0_ps", p_path, required=True),
                _get_number(p, "delta_lambda_max_nm", p_path, minimum=0.0, required=True),
                _get_number(p, "tau_fc_ps", p_path, required=True),
                _get_number(p, "tau_rise_ps", p_path, default=0.0, minimum=0.0),
            )
        )

    # -- grids -----------------------------------------------------------------
    grids = raw.get("grids", {})
    _check_keys(grids, {"detuning_nm", "time_ps", "lambda_nm"}, "grids")
    detuning_grid = _get_grid(grids, "detuning_nm", "grids")
    time_grid = _get_grid(grids, "time_ps", "grids")
    lambda_grid = _get_grid(grids, "lambda_nm", "grids")
    if kind == "static-sweep" and detuning_grid is None:
        _err("grids.detuning_nm", "required for a static sweep")
    if kind == "dynamic" and (time_grid is None or lambda_grid is None):
        _err("grids", "dynamic runs need time_ps and lambda_nm grids")

    # -- filters ----------------------------------------------------------------
    filters = []
    for i, f in enumerate(raw.get("filters", [])):
        f_path = f"filters[{i}]"
        _check_keys(f, {"lambda_nm", "fwhm_nm"}, f_path)
        filters.append(
            (
                _get_number(f, "lambda_nm", f_path, minimum=1e-6, required=True),
                _get_number(f, "fwhm_nm", f_path, default=0.5),
            )
        )

    # -- spectra ------------------------------------------------------------------
    spectra_node = raw.get("spectra", {})
    _check_keys(spectra_node, {"collection_exponent", "irf_sigma_ps"}, "spectra")
    collection_exponent = _get_number(
        spectra_node, "collection_exponent", "spectra", default=1.0, minimum=0.0
    )
    irf_sigma = _get_number(spectra_node, "irf_sigma_ps", "spectra", default=0.0, minimum=0.0)

    # -- solver ------------------------------------------------------------------
    solver = raw.get("solver", {})
    _check_keys(
        solver,
        {"n_max", "rtol", "atol", "frame", "fixed_step_ps", "initial_state", "check_truncation"},
        "solver",
    )
    n_max = solver.get("n_max", 2)
    if not isinstance(n_max, int) or isinstance(n_max, bool) or n_max < 1:
        _err("solver.n_max", f"expected an integer >= 1, got {n_max!r}")
    rtol = _get_number(solver, "rtol", "solver", default=1e-8, minimum=1e-13)
    atol = _get_number(solver, "atol", "solver", default=1e-12, minimum=0.0)
    frame = solver.get("frame", "rotating")
    if frame not in ("rotating", "lab"):
        _err("solver.frame", f"expected 'rotating' or 'lab', got {frame!r}")
    fixed_step = _get_number(solver, "fixed_step_ps", "solver", allow_none=True, minimum=1e-6)
    initial_state = solver.get("initial_state", "steady")
    if initial_state not in ("steady", "vacuum", "excited"):
        _err("solver.initial_state", f"unknown initial state {initial_state!r}")
    check_truncation = solver.get("check_truncation", False)
    if not isinstance(check_truncation, bool):
        _err("solver.check_truncation", "expected a boolean")

    # -- misc -----------------------------------------------------------------
    window = raw.get("baseline_window_ps")
    if window is not None:
        if (
            not isinstance(window, list)
            or len(window) != 2
            or not all(_is_number(v) for v in window)
            or not window[0] < window[1]
        ):
            _err("baseline_window_ps", f"expected [t_a, t_b] with t_a < t_b, got {window!r}")
        window = (float(window[0]), float(window[1]))

    delays = raw.get("delays_ps")
    if delays is not None:
        if not isinstance(delays, list) or not delays or not all(_is_number(v) for v in delays):
            _err("delays_ps", f"expected a non-empty list of numbers, got {delays!r}")
        if len(fc_pulses) != 1:
            _err("delays_ps", "delay scans need exactly one template pulse in profile.pulses")
        delays = [float(d) for d in delays]

    render_node = raw.get("render", {})
    _check_keys(render_node, {"colormap", "log_scale"}, "render")
    colormap = render_node.get("colormap", "heat")
    if colormap not in ("heat", "gray"):
        _err("render.colormap", f"expected 'heat' or 'gray', got {colormap!r}")
    log_scale = render_node.get("log_scale", False)
    if not isinstance(log_scale, bool):
        _err("render.log_scale", "expected a boolean")

    fit_node = raw.get("fit", {})
    _check_keys(fit_node, {"control", "init", "bounds", "multistart", "max_evals", "seed"}, "fit")
    fit_seed = fit_node.get("seed", 0)
    if not isinstance(fit_seed, int) or isinstance(fit_seed, bool) or not 0 <= fit_seed < 2**32:
        _err("fit.seed", f"expected an integer in [0, 2**32), got {fit_seed!r}")

    # -- build domain objects, re-raising with key paths -------------------------
    try:
        omega_t = wl_to_omega(lambda_t)
        target = BareMode(omega_t, kappa_t)
        fp_baseline_shift = static_det + (thermo[0] * thermo[1] if thermo else 0.0)
        # free-carrier absorption hook: constant multiplier on the FP loss rate
        fp = BareMode(wl_to_omega(lambda_t + fp_baseline_shift), kappa_fp * kappa_fp_scale)
        omega0 = omega_t if lambda0 is None else wl_to_omega(lambda0)
        emitter = EmitterParams(omega0, g, gamma_leaky)
        schedule = PumpSchedule(
            cw_rate=cw_rate,
            pulse_events=tuple(PumpPulse(*p) for p in pulses),
            mode=pump_mode,
            cavity_cw_rate=cavity_cw,
        )
        params = SystemParams(emitter, target, fp, eta, schedule)
        profile = TuningProfile(
            static_detuning_nm=static_det,
            thermo=ThermoOpticModel(*thermo) if thermo else None,
            pulses=tuple(FreeCarrierPulse(*p) for p in fc_pulses),
        )
        hilbert = HilbertSpec(n_max)
    except CavtuneError as exc:
        raise SchemaError(f"config invalid: {exc}") from exc

    if window is None and fc_pulses:
        t0 = min(p[0] for p in fc_pulses)
        window = (t0 - 500.0, t0)

    return RunConfig(
        raw=raw,
        scenario=scenario,
        kind=kind,
        params=params,
        profile=profile,
        detuning_grid_nm=detuning_grid,
        time_grid_ps=time_grid,
        lambda_grid_nm=lambda_grid,
        filters=filters,
        collection_exponent=collection_exponent,
        irf_sigma_ps=irf_sigma,
        hilbert=hilbert,
        rtol=rtol,
        atol=atol,
        frame=frame,
        fixed_step_ps=fixed_step,
        initial_state=initial_state,
        check_truncation=check_truncation,
        baseline_window_ps=window,
        delays_ps=delays,
        colormap=colormap,
        log_scale=log_scale,
        fit=fit_node,
    )


def load_config_file(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaError(f"{path}: top-level document must be an object")
    return load_config(raw)


def _base_dynamic(scenario: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "scenario": scenario,
        "kind": "dynamic",
        "system": dict(DEFAULT_SYSTEM),
        "grids": {
            "time_ps": {"start": -600.0, "stop": 2400.0, "n": 1001},
            "lambda_nm": {"start": 1550.6, "stop": 1553.4, "n": 141},
        },
        "spectra": {"collection_exponent": 1.0, "irf_sigma_ps": 0.0},
        "solver": {"n_max": 2, "rtol": 1e-8, "atol": 1e-12, "frame": "rotating",
                   "initial_state": "steady"},
    }


def scenario_config(name: str) -> dict:
    """Raw config document for one of the shipped named scenarios."""
    if name == "fig2-sweep":
        return {
            "schema": SCHEMA_VERSION,
            "scenario": name,
            "kind": "static-sweep",
            "system": dict(DEFAULT_SYSTEM),
            "grids": {"detuning_nm": {"start": -1.5, "stop": 1.5, "n": 121}},
        }
    if name == "fig3-burst":
        cfg = _base_dynamic(name)
        cfg["pump"] = {"cw_rate": 1.0e8}
        cfg["profile"] = {
            "static_detuning_nm": 0.0,
            "pulses": [
                {"t0_ps": 0.0, "delta_lambda_max_nm": 0.6, "tau_fc_ps": TAU_FC_CALIBRATED_PS}
            ],
        }
        cfg["filters"] = [{"lambda_nm": 1552.2, "fwhm_nm": 0.5}]
        return cfg
    if name == "fig3-dip":
        cfg = _base_dynamic(name)
        cfg["pump"] = {"cw_rate": 1.0e8}
        cfg["profile"] = {
            "static_detuning_nm": 0.6,
            "pulses": [
                {"t0_ps": 0.0, "delta_lambda_max_nm": 0.6, "tau_fc_ps": TAU_FC_CALIBRATED_PS}
            ],
        }
        # same detection window as the burst scenario
        cfg["filters"] = [{"lambda_nm": 1552.2, "fwhm_nm": 0.5}]
        return cfg
    if name == "fig4-delay":
        cfg = _base_dynamic(name)
        cfg["pump"] = {"cw_rate": 0.0, "pulses": [{"t0_ps": 0.0, "area": 1.0, "width_ps": 6.0}]}
        cfg["profile"] = {
            "static_detuning_nm": 0.0,
            "pulses": [
                {"t0_ps": 2000.0, "delta_lambda_max_nm": 0.6, "tau_fc_ps": TAU_FC_CALIBRATED_PS}
            ],
        }
        cfg["delays_ps"] = [1500.0, 2000.0, 2500.0]
        cfg["grids"]["time_ps"] = {"start": -200.0, "stop": 4200.0, "n": 1101}
        cfg["filters"] = [{"lambda_nm": 1552.0, "fwhm_nm": 0.5}]
        cfg["solver"]["initial_state"] = "vacuum"
        return cfg
    raise SchemaError(
        f"unknown scenario {name!r}; shipped scenarios: fig2-sweep, fig3-burst, "
        f"fig3-dip, fig4-delay"
    )


SCENARIO_NAMES = ("fig2-sweep", "fig3-burst", "fig3-dip", "fig4-delay")
