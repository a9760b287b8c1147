"""Span tracing of one cavtune CLI command, from outside the package.

Run as a script, this file executes one ``cavtune`` command in-process with
the public functions of each module wrapped, and writes the recorded spans
as JSON when the command ends::

    PYTHONPATH=src python3 bench/tracer.py --spans OUT.json --run-id ID -- \
        dynamic --scenario fig4-delay --out out/delay

A span is ``[name, start, end, parent, attrs]``: times from
``time.perf_counter``, ``parent`` the index of the enclosing span (-1 at the
top) and ``attrs`` a small dict or null.  Spans stay in memory until the
command has finished; the file also holds ``span_cost_s``, the time one
wrapped call adds, calibrated on a no-op in the same process.  :func:`layer_metrics` turns a list of span files into
the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import argparse
import functools
import json
import statistics
import sys
import threading
import time

N_MAX_LEVELS = (2, 3)

# (module, function, span name).  runs._emit_dynamic_outputs is private, but it
# is the only place map.csv is written, so file emission cannot be timed without it.
TRACED = (
    ("cavtune.config", "load_config", "config.load"),
    ("cavtune.config", "load_config_file", "config.load"),
    ("cavtune.lindblad", "steady_state", "lindblad.steady_state"),
    ("cavtune.lindblad", "evolve", "lindblad.evolve"),
    ("cavtune.tuning", "fp_shift_at", "tuning.fp_shift_at"),
    ("cavtune.modespace", "couple", "modespace.couple"),
    ("cavtune.modespace", "anticrossing_sweep", "modespace.anticrossing_sweep"),
    ("cavtune.spectra", "synthesize_map", "spectra.synthesize_map"),
    ("cavtune.spectra", "apply_filter", "spectra.apply_filter"),
    ("cavtune.spectra", "burst_metrics", "spectra.burst_metrics"),
    ("cavtune.fitting", "fit", "fitting.fit"),
    ("cavtune.fitting", "read_anticrossing_csv", "fitting.read_csv"),
    ("cavtune.runs", "run_static_sweep", "runs.run_static_sweep"),
    ("cavtune.runs", "run_dynamic", "runs.run_dynamic"),
    ("cavtune.runs", "_emit_dynamic_outputs", "runs.emit"),
    ("cavtune.runs", "write_csv", "runs.emit"),
    ("cavtune.runs", "write_json", "runs.emit"),
    ("cavtune.runs", "write_manifest", "runs.emit"),
    ("cavtune.render", "render_curve_svg", "render"),
    ("cavtune.render", "render_heatmap_ppm", "render"),
)


def _n_max_of_dim(dim: int) -> int:
    """Fock cutoff of a state of dimension ``dim = 2 * (n_max + 1) ** 2``."""
    return round((dim / 2.0) ** 0.5) - 1


def _spec_n_max(args, kwargs, rho_pos):
    spec = kwargs.get("spec")
    if spec is not None:
        return spec.n_max
    if rho_pos is not None and len(args) > rho_pos:
        return _n_max_of_dim(len(args[rho_pos]))
    return 2  # the default HilbertSpec of steady_state


def _fit_attrs(args, kwargs, out):
    options = kwargs.get("options") if "options" in kwargs else (args[3] if len(args) > 3 else None)
    return {"evals": out.n_evals, "starts": 1 + (options.multistart if options else 0)}


# What each span records about its call, beyond its times.
ATTRS = {
    "lindblad.steady_state": lambda a, k, out: {"n_max": _spec_n_max(a, k, None)},
    "lindblad.evolve": lambda a, k, out: {
        "n_max": _spec_n_max(a, k, 2),
        "states_bytes": int(out.states.nbytes),
    },
    "lindblad.solve_ivp": lambda a, k, out: {"n_max": _n_max_of_dim(round(len(a[2]) ** 0.5))},
    "spectra.synthesize_map": lambda a, k, out: {"cells": int(out.intensity.size)},
    "fitting.fit": _fit_attrs,
}


class Tracer:
    """Records nested spans of wrapped calls; one instance per traced command.

    Each thread keeps its own stack of open spans, so spans of ``--threads``
    workers nest correctly; a worker's outermost spans have no parent.
    """

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn):
        spans, local, lock, now = self.spans, self._local, self._lock, time.perf_counter
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            with lock:
                stack.append(len(spans))
                spans.append(rec)
            rec[1] = now()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = now()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, out)
            return out

        return traced

    def install(self):
        """Wrap every traced function wherever a cavtune module refers to it.

        Modules import each other's functions by name (``from .lindblad import
        evolve``), so each reference is replaced, not only the defining one.
        The RHS callable that cavtune.lindblad hands to ``solve_ivp`` is
        wrapped by wrapping ``solve_ivp`` itself.
        """
        import importlib

        import cavtune.cli  # noqa: F401  (imports every module the CLI uses)
        import scipy.integrate

        replacements = []
        for module_name, attr, span in TRACED:
            original = getattr(importlib.import_module(module_name), attr)
            replacements.append((original, self.wrap(span, original)))

        real_solve_ivp = scipy.integrate.solve_ivp
        timed_solve_ivp = self.wrap("lindblad.solve_ivp", real_solve_ivp)

        def solve_ivp(fun, *args, **kwargs):
            return timed_solve_ivp(self.wrap("lindblad.rhs", fun), *args, **kwargs)

        replacements.append((real_solve_ivp, solve_ivp))
        for module in [m for n, m in sys.modules.items() if n.split(".")[0] == "cavtune"]:
            for key, value in list(vars(module).items()):
                for original, wrapper in replacements:
                    if value is original:
                        setattr(module, key, wrapper)


def span_cost_s(calls: int = 10000, repeats: int = 5) -> float:
    """Seconds one wrapped call adds: the median over ``repeats`` of ``calls``
    wrapped no-op calls less as many plain ones, per call."""
    def noop(*args, **kwargs):
        return None

    wrapped = Tracer("calibration").wrap("calibration", noop)
    now, samples = time.perf_counter, []
    for _ in range(repeats):
        t0 = now()
        for _ in range(calls):
            wrapped(1.0, 2.0)
        t1 = now()
        for _ in range(calls):
            noop(1.0, 2.0)
        t2 = now()
        samples.append(((t1 - t0) - (t2 - t1)) / calls)
    return statistics.median(samples)


def run_traced(cli_args: list, spans_path: str, run_id: str) -> int:
    tracer = Tracer(run_id)
    tracer.install()
    import cavtune.cli

    root = tracer.wrap("cli." + cli_args[0], cavtune.cli.main.main)
    code = 0
    try:
        root(args=cli_args, prog_name="cavtune", standalone_mode=False)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump({"run_id": run_id, "exit_code": code, "span_cost_s": span_cost_s(),
                   "spans": tracer.spans}, fh, separators=(",", ":"))
    return code


# -- aggregation ---------------------------------------------------------------


def _group_time(spans, children, names, minus=()):
    """Time inside spans named in ``names`` that no span of the group encloses,
    less the time of their descendants named in ``minus``."""
    total = 0.0
    for i, (name, t0, t1, _, _) in enumerate(spans):
        if name not in names or _ancestor(spans, i, names) >= 0:
            continue
        total += t1 - t0 - _descendant_time(spans, children, i, minus)
    return total


def _descendant_time(spans, children, i, names) -> float:
    if not names:
        return 0.0
    total, todo = 0.0, list(children[i])
    while todo:
        j = todo.pop()
        if spans[j][0] in names:
            total += spans[j][2] - spans[j][1]
        else:
            todo.extend(children[j])
    return total


def _ancestor(spans, i, names) -> int:
    """Index of the nearest span enclosing span ``i`` that is named in ``names``, or -1."""
    i = spans[i][3]
    while i >= 0 and spans[i][0] not in names:
        i = spans[i][3]
    return i


def self_times(spans) -> dict:
    """Seconds per span name, less the time covered by direct child spans."""
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    out: dict = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0 - child_time[i])
    return out


_LINDBLAD = (
    ("steady_state.s", "s"), ("steady_state.calls", "count"), ("steady_state.rhs_calls", "count"),
    ("evolve.s", "s"), ("evolve.calls", "count"), ("evolve.rhs_calls", "count"),
    ("evolve.post_s", "s"), ("rhs.s", "s"), ("rhs.us_per_call", "us"), ("integrator.s", "s"),
    ("states.bytes", "B"),
)
_TIMED = ("tuning.fp_shift_at", "modespace.couple", "modespace.anticrossing_sweep",
          "spectra.synthesize_map", "spectra.apply_filter", "spectra.burst_metrics",
          "fitting.fit", "fitting.read_csv", "render", "config.load")
_OTHER = (
    ("runs.emit.s", "s"), ("tuning.fp_shift_at.calls", "count"),
    ("modespace.couple.calls", "count"), ("spectra.map.cells", "count"),
    ("fitting.fit.evals", "count"), ("fitting.fit.starts", "count"), ("fitting.us_per_eval", "us"),
)


def metric_units(n_max_levels=N_MAX_LEVELS) -> dict:
    """Name and unit of every metric :func:`layer_metrics` reports, Lindblad ones per n_max."""
    units = {f"lindblad.{key}.n{n}": unit for n in n_max_levels for key, unit in _LINDBLAD}
    units.update({f"{name}.s": "s" for name in _TIMED})
    units.update(_OTHER)
    return units


def layer_metrics(span_docs: list) -> tuple[dict, dict, dict]:
    """Per-layer metrics summed over the span documents of one traced operation.

    Returns ``(values, units, self_seconds)``, values and units keyed by metric.
    """
    levels = set(N_MAX_LEVELS) | {
        s[4]["n_max"] for doc in span_docs for s in doc["spans"]
        if s[0] in ("lindblad.steady_state", "lindblad.evolve")
    }
    units = metric_units(sorted(levels))
    m = {k: 0.0 if unit in ("s", "us") else 0 for k, unit in units.items()}
    selfs: dict = {}

    for doc in span_docs:
        spans = doc["spans"]
        children = [[] for _ in spans]
        for i, s in enumerate(spans):
            if s[3] >= 0:
                children[s[3]].append(i)
        for name, value in self_times(spans).items():
            selfs[name] = selfs.get(name, 0.0) + value

        for i, (name, t0, t1, parent, attrs) in enumerate(spans):
            dur = t1 - t0
            if name in ("lindblad.steady_state", "lindblad.evolve"):
                part, n = name.split(".")[1], attrs["n_max"]
                m[f"lindblad.{part}.s.n{n}"] += dur
                m[f"lindblad.{part}.calls.n{n}"] += 1
                if part == "evolve":
                    m[f"lindblad.states.bytes.n{n}"] += attrs["states_bytes"]
                    solver = _descendant_time(spans, children, i, ("lindblad.solve_ivp",))
                    m[f"lindblad.evolve.post_s.n{n}"] += dur - solver
            elif name == "lindblad.solve_ivp":
                rhs = _descendant_time(spans, children, i, ("lindblad.rhs",))
                m[f"lindblad.integrator.s.n{attrs['n_max']}"] += dur - rhs
            elif name == "lindblad.rhs":
                n = spans[parent][4]["n_max"]  # the enclosing solve_ivp span
                m[f"lindblad.rhs.s.n{n}"] += dur
                owner = _ancestor(spans, i, ("lindblad.steady_state", "lindblad.evolve"))
                if owner >= 0:
                    m[f"lindblad.{spans[owner][0].split('.')[1]}.rhs_calls.n{n}"] += 1
            elif name in ("tuning.fp_shift_at", "modespace.couple"):
                m[f"{name}.calls"] += 1
            elif name == "spectra.synthesize_map":
                m["spectra.map.cells"] += attrs["cells"]
            elif name == "fitting.fit":
                m["fitting.fit.evals"] += attrs["evals"]
                m["fitting.fit.starts"] += attrs["starts"]

        for name in _TIMED:
            m[f"{name}.s"] += _group_time(spans, children, (name,))
        m["runs.emit.s"] += _group_time(spans, children, ("runs.emit",), minus=("render",))

    for n in levels:
        calls = m[f"lindblad.steady_state.rhs_calls.n{n}"] + m[f"lindblad.evolve.rhs_calls.n{n}"]
        if calls:
            m[f"lindblad.rhs.us_per_call.n{n}"] = 1e6 * m[f"lindblad.rhs.s.n{n}"] / calls
    if m["fitting.fit.evals"]:
        m["fitting.us_per_eval"] = 1e6 * m["fitting.fit.s"] / m["fitting.fit.evals"]
    return m, units, selfs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span JSON")
    parser.add_argument("--run-id", required=True, help="identifier shared by the spans")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER, help="-- then the cavtune arguments")
    ns = parser.parse_args(argv)
    cli_args = ns.cli_args[1:] if ns.cli_args[:1] == ["--"] else ns.cli_args
    return run_traced(cli_args, ns.spans, ns.run_id)


if __name__ == "__main__":
    sys.exit(main())
