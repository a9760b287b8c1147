"""Run configuration: JSON schema, strict validation, and shipped scenarios.

Configs are plain JSON documents with a ``schema`` version field.  Every key
is named once, at the typed getter of :class:`_Section` that reads it; the
getter checks the value's type and any range that only a config states, and
puts the key's path in any error.  Once the whole document is read, every key
that no getter read is an error (a typo in a physics parameter must not pass
silently), so an unknown key is reported only after every bad value.  A
physical rule is the domain type's own: its error is re-raised under the key
its field names, else under the section or list item it came from.  The
``fit`` section is resolved here too, into the control kind, initial values
and bounds by fit parameter name, and :class:`cavtune.fitting.FitOptions`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import CavtuneError, SchemaError
from .fitting import PARAM_NAMES, FitOptions
from .modespace import BareMode, EmitterParams, SystemParams, wl_to_omega
from .tuning import FreeCarrierPulse, HilbertSpec, PumpPulse, PumpSchedule

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

# Tolerances of the adaptive (NDF) integrator of lindblad.evolve: the defaults of
# evolve, of solver.rtol/atol and of the shipped scenarios.  Against RK45 at rtol
# 1e-12 they hold the shipped scenarios' maps and curves closer than RK45 at its
# former defaults (rtol 1e-8, atol 1e-12) did (tests/test_lindblad.py).
SOLVER_RTOL = 1e-11
SOLVER_ATOL = 1e-13

# The baseline window of a control pulse is the BASELINE_SPAN_PS before it: the
# default of baseline_window_ps, and the window of each delay of a delay scan.
BASELINE_SPAN_PS = 500.0

_REQUIRED = object()  # the default of a getter whose key must be present


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool) and np.isfinite(v)


class _Section:
    """One JSON object of a config document, read through typed getters.

    Each getter names its key once: it records the key as read, returns its
    ``default`` when the key is absent (``_REQUIRED`` makes absence an error;
    null is allowed, and reads as absent, only under a ``None`` default) and
    puts the key's path in every error.  :meth:`close` then rejects the keys
    that no getter read.
    """

    def __init__(self, node, path: str):
        if not isinstance(node, dict):
            raise SchemaError(f"{path or 'config'}: expected an object, got {type(node).__name__}")
        self.node, self.path = node, path
        self.read, self.children = set(), []

    def key_path(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def fail(self, key: str, message: str):
        raise SchemaError(f"{self.key_path(key)}: {message}")

    def _get(self, key, default):
        self.read.add(key)
        value = self.node.get(key, default)
        if value is _REQUIRED:
            self.fail(key, "required key missing")
        if value is None and default is not None:
            self.fail(key, "must not be null")
        return value

    def _at_least(self, key, value, minimum):
        if minimum is not None and value < minimum:
            self.fail(key, f"must be >= {minimum}, got {value}")
        return value

    def number(self, key, default=_REQUIRED, minimum=None) -> Optional[float]:
        value = self._get(key, default)
        if value is None:
            return None
        if not _is_number(value):
            self.fail(key, f"expected a finite number, got {value!r}")
        return float(self._at_least(key, value, minimum))

    def integer(self, key, default=_REQUIRED, minimum=None) -> int:
        value = self._get(key, default)
        if not isinstance(value, int) or isinstance(value, bool):
            self.fail(key, f"expected an integer, got {value!r}")
        return self._at_least(key, value, minimum)

    def choice(self, key, options, default=_REQUIRED) -> Optional[str]:
        """A string, one of ``options`` unless they are None."""
        value = self._get(key, default)
        if value is None:
            return None
        if not isinstance(value, str) or (options is not None and value not in options):
            expected = "a string" if options is None else "one of " + ", ".join(map(repr, options))
            self.fail(key, f"expected {expected}, got {value!r}")
        return value

    def flag(self, key) -> bool:
        value = self._get(key, False)
        if not isinstance(value, bool):
            self.fail(key, f"expected true or false, got {value!r}")
        return value

    def numbers(self, key, default=_REQUIRED) -> Optional[list]:
        """A non-empty list of finite numbers."""
        value = self._get(key, default)
        if value is None:
            return None
        if not isinstance(value, list) or not value or not all(map(_is_number, value)):
            self.fail(key, f"expected a non-empty list of finite numbers, got {value!r}")
        return [float(v) for v in value]

    def interval(self, key, default=_REQUIRED, strict=False) -> Optional[tuple]:
        """A pair ``[lo, hi]`` of finite numbers with ``lo <= hi`` (``lo < hi`` if strict)."""
        pair = self.numbers(key, default)
        if pair is None:
            return None
        if len(pair) != 2 or not (pair[0] < pair[1] if strict else pair[0] <= pair[1]):
            self.fail(key, f"expected [lo, hi] with lo {'<' if strict else '<='} hi, got {pair}")
        return tuple(pair)

    def grid(self, key) -> Optional[np.ndarray]:
        """``np.linspace`` over the object ``{start, stop, n}`` under ``key``; None if absent."""
        grid = self.section(key, None)
        if grid is None:
            return None
        start, stop, n = grid.number("start"), grid.number("stop"), grid.integer("n", minimum=2)
        if not stop > start:
            self.fail(key, f"stop ({stop}) must exceed start ({start})")
        return np.linspace(start, stop, n)

    def section(self, key, default=_REQUIRED) -> Optional["_Section"]:
        """The object under ``key``, read through its own getters."""
        value = self._get(key, default)
        if value is None:
            return None
        self.children.append(_Section(value, self.key_path(key)))
        return self.children[-1]

    def sections(self, key) -> list:
        """The objects of the list under ``key`` (absent: none)."""
        items = self._get(key, [])
        if not isinstance(items, list):
            self.fail(key, f"expected a list of objects, got {items!r}")
        path = self.key_path(key)
        found = [_Section(item, f"{path}[{i}]") for i, item in enumerate(items)]
        self.children += found
        return found

    def build(self, make, *args, keys=None, **kwargs):
        """``make(*args, **kwargs)``; a domain error is re-raised under the key its ``field``
        names if this object read it (``keys`` renames fields), else under this object."""
        try:
            return make(*args, **kwargs)
        except CavtuneError as exc:
            field = getattr(exc, "field", None)
            key = (keys or {}).get(field, field)
            path = self.key_path(key) if key in self.read else self.path
            raise SchemaError(f"{path}: {exc}") from exc

    def close(self):
        """Reject every key that no getter read, here and in the objects read from here."""
        for key in self.node:
            if key not in self.read:
                self.fail(key, "unknown key")
        for child in self.children:
            child.close()


@dataclass
class RunConfig:
    """A fully validated, resolved run configuration."""

    raw: dict
    scenario: str
    kind: str  # "static-sweep" | "dynamic"
    params: SystemParams
    pulses: tuple  # FreeCarrierPulse, sorted by t0_ps
    detuning_grid_nm: Optional[np.ndarray]
    time_grid_ps: Optional[np.ndarray]
    lambda_grid_nm: Optional[np.ndarray]
    filters: list  # (lambda_nm, fwhm_nm)
    irf_sigma_ps: float
    hilbert: HilbertSpec
    rtol: float
    atol: float
    initial_state: str  # "steady" | "vacuum" | "excited"
    check_truncation: bool
    baseline_window_ps: Optional[tuple]
    delays_ps: Optional[list]
    fit: dict  # "control" (or None), "init" and "bounds" by parameter name, "options": FitOptions

    @property
    def lambda_t_nm(self) -> float:
        return float(self.raw["system"]["lambda_t_nm"])


def config_hash(raw: dict) -> str:
    canonical = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def delay_prefix(delay_ps: float) -> str:
    """Prefix of the output files of the run at ``delay_ps``: the delay rounded to whole ps."""
    return f"delay{delay_ps:.0f}_"


def curve_stem(lambda_nm: float) -> str:
    """Stem of the output files of the filter at ``lambda_nm``: the centre rounded to 0.01 nm."""
    return f"curve_{lambda_nm:.2f}nm"


def _read_filters(root: _Section) -> list:
    """``(lambda_nm, fwhm_nm)`` of each filter, named apart."""
    filters, stems = [], set()
    for f in root.sections("filters"):
        lam, fwhm = f.number("lambda_nm", minimum=1e-6), f.number("fwhm_nm", 0.5)
        if not fwhm > 0.0:
            f.fail("fwhm_nm", f"must be positive, got {fwhm}")
        stem = curve_stem(lam)
        if stem in stems:
            f.fail("lambda_nm", f"filters name their outputs rounded to 0.01 nm, so they must "
                                f"differ when rounded, got {lam}: {stem} is taken")
        stems.add(stem)
        filters.append((lam, fwhm))
    return filters


def load_config(raw: dict) -> RunConfig:
    """Validate a config document and resolve it into domain objects."""
    root = _Section(raw, "")
    if root.integer("schema") != SCHEMA_VERSION:
        root.fail("schema", f"expected schema version {SCHEMA_VERSION}, got {raw['schema']!r}")
    kind = root.choice("kind", ("static-sweep", "dynamic"))

    system = root.section("system")
    lambda_t = system.number("lambda_t_nm", minimum=1e-6)
    kappa_t, kappa_fp, eta = map(system.number, ("kappa_t", "kappa_fp", "eta"))
    g, gamma_leaky = (system.number(k, 0.0) for k in ("g", "gamma_leaky"))
    lambda0 = system.number("lambda0_nm", None, minimum=1e-6)

    pump = root.section("pump", {})
    schedule = pump.build(
        PumpSchedule,
        cw_rate=pump.number("cw_rate", 0.0),
        pulse_events=tuple(
            p.build(PumpPulse, p.number("t0_ps"), p.number("area"), p.number("width_ps", 6.0))
            for p in pump.sections("pulses")
        ),
    )

    delays = root.numbers("delays_ps", None)
    if delays is not None and len(set(map(delay_prefix, delays))) < len(delays):
        root.fail("delays_ps", f"delays name their outputs rounded to whole ps, so they must "
                               f"differ when rounded, got {delays}")
    profile_node = root.section("profile", {})
    # the FP mode before any pulse
    lambda_fp = lambda_t + profile_node.number("static_detuning_nm", 0.0)
    if not 0.0 < lambda_fp < np.inf:
        profile_node.fail("static_detuning_nm", f"puts the FP mode at {lambda_fp} nm; its "
                                                f"wavelength must be positive and finite")
    nodes = profile_node.sections("pulses")
    if delays is not None and len(nodes) != 1:
        root.fail("delays_ps", "delay scans need exactly one template pulse in profile.pulses")
    if delays is not None and nodes[0].number("t0_ps", None) is not None:
        nodes[0].fail("t0_ps", "delays_ps sets each run's pulse time in a delay scan")
    pulses = tuple(sorted((
        # a scan's template sits at its first delay; runs.delay_pulses moves it to each
        p.build(FreeCarrierPulse, p.number("t0_ps") if delays is None else delays[0],
                p.number("delta_lambda_max_nm"), p.number("tau_fc_ps"))
        for p in nodes
    ), key=lambda p: p.t0_ps))
    omega_t = wl_to_omega(lambda_t)
    omega0 = omega_t if lambda0 is None else wl_to_omega(lambda0)
    params = system.build(
        SystemParams,
        system.build(EmitterParams, omega0, g, gamma_leaky),
        system.build(BareMode, omega_t, kappa_t, keys={"kappa": "kappa_t"}),
        system.build(BareMode, wl_to_omega(lambda_fp), kappa_fp, keys={"kappa": "kappa_fp"}),
        eta, schedule,
    )

    grids = root.section("grids", {})
    detuning_grid, time_grid, lambda_grid = map(grids.grid, ("detuning_nm", "time_ps", "lambda_nm"))
    if kind == "static-sweep" and detuning_grid is None:
        grids.fail("detuning_nm", "required for a static sweep")
    if kind == "dynamic" and (time_grid is None or lambda_grid is None):
        root.fail("grids", "dynamic runs need time_ps and lambda_nm grids")

    window = root.interval("baseline_window_ps", None, strict=True)
    if window is not None and delays is not None:
        root.fail("baseline_window_ps", "a delay scan takes the baseline window before each "
                                        "delay, so this key cannot be set with delays_ps")
    if window is None and delays is None and pulses:
        window = (pulses[0].t0_ps - BASELINE_SPAN_PS, pulses[0].t0_ps)

    spectra, solver = root.section("spectra", {}), root.section("solver", {})
    fit = root.section("fit", {})
    init, bounds = fit.section("init", {}), fit.section("bounds", {})
    atol = solver.number("atol", SOLVER_ATOL)
    if not atol > 0.0:  # the error scale atol + rtol*|y| would be 0 where y stays 0
        solver.fail("atol", f"must be positive, got {atol}")
    cfg = RunConfig(
        raw=raw,
        scenario=root.choice("scenario", None, "custom"),
        kind=kind,
        params=params,
        pulses=pulses,
        detuning_grid_nm=detuning_grid,
        time_grid_ps=time_grid,
        lambda_grid_nm=lambda_grid,
        filters=_read_filters(root),
        irf_sigma_ps=spectra.number("irf_sigma_ps", 0.0, minimum=0.0),
        hilbert=solver.build(HilbertSpec, solver.integer("n_max", 2)),
        rtol=solver.number("rtol", SOLVER_RTOL, minimum=1e-13),
        atol=atol,
        initial_state=solver.choice("initial_state", ("steady", "vacuum", "excited"), "steady"),
        check_truncation=solver.flag("check_truncation"),
        baseline_window_ps=window,
        delays_ps=delays,
        fit={
            "control": fit.choice("control", ("detuning_nm", "power_mw"), None),
            "init": {n: init.number(n) for n in PARAM_NAMES if n in init.node},
            "bounds": {n: bounds.interval(n) for n in PARAM_NAMES if n in bounds.node},
            "options": fit.build(FitOptions, fit.integer("max_evals", FitOptions.max_evals),
                                 fit.integer("multistart", FitOptions.multistart)),
        },
    )
    root.close()
    return cfg


def load_config_file(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            raw = json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8 JSON, or an integer too long
        raise SchemaError(f"{path}: cannot read as JSON: {exc}") from exc
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
        "spectra": {"irf_sigma_ps": 0.0},
        "solver": {"n_max": 2, "rtol": SOLVER_RTOL, "atol": SOLVER_ATOL, "initial_state": "steady"},
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
                {"delta_lambda_max_nm": 0.6, "tau_fc_ps": TAU_FC_CALIBRATED_PS}
            ],
        }
        cfg["delays_ps"] = [1500.0, 2000.0, 2500.0]
        cfg["grids"]["time_ps"] = {"start": -200.0, "stop": 4200.0, "n": 1101}
        cfg["filters"] = [{"lambda_nm": 1552.0, "fwhm_nm": 0.5}]
        cfg["solver"]["initial_state"] = "vacuum"
        return cfg
    raise SchemaError(f"unknown scenario {name!r}; shipped scenarios: {', '.join(SCENARIO_NAMES)}")


SCENARIO_NAMES = ("fig2-sweep", "fig3-burst", "fig3-dip", "fig4-delay")
