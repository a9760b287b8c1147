"""A compact numeric snapshot of the shipped outputs, and its recorder.

The snapshot holds, for the shipped scenarios run through the CLI and for
the fit of their sweep as the README runs it:

- every leaf of each ``metrics.json`` and of the sweep's ``fit.json``;
- for each map, curve and ``sweep.csv`` column: its maximum, its integral
  (trapezoid rule over the grids) and a fixed set of 20 sampled values;
- the master-equation, exact and mode-sum rates of acceptance 4.

Entries sit in groups; each group states its tolerance and why.  An entry is
``[value, scale]`` and passes when ``|fresh - value| <= rel * |scale|``; a
group with ``rel`` 0 must match exactly.  Every value is read back from the
files the CLI wrote, so the snapshot sees what a user sees.

``tests/test_acceptance.py::test_shipped_outputs_match_snapshot`` compares
fresh runs with ``tests/shipped_snapshot.json``.  A change that moves a value
on purpose re-records the values (the tolerances are kept) with::

    PYTHONPATH=src python tests/snapshot.py

and lists every moved value in ``CHANGES.md``.
"""

from __future__ import annotations

import json
import re
import tempfile
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from cavtune.cli import main as cli_main
from conftest import se_rates

SHIPPED_RUNS = (
    ("fig2-sweep", "static-sweep"),
    ("fig3-burst", "dynamic"),
    ("fig3-dip", "dynamic"),
    ("fig4-delay", "dynamic"),
)
SAMPLES = 20
SNAPSHOT_PATH = Path(__file__).with_name("shipped_snapshot.json")
SE_RATE_DETUNINGS_NM = (-1.0, 0.0, 1.0)


def run_cli(args):
    result = CliRunner().invoke(cli_main, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


def run_shipped(root: Path, threads: int = 1) -> Path:
    """Each shipped scenario, rendered, under ``root/<name>``; the sweep's fit under ``root/fit``."""
    root = Path(root)
    for scenario, command in SHIPPED_RUNS:
        run_cli([command, "--scenario", scenario, "--out", root / scenario,
                 "--threads", threads, "--render"])
    run_cli(["fit", root / "fig2-sweep" / "sweep.csv", "--out", root / "fit"])
    return root


def _leaves(node, path=""):
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _leaves(value, f"{path}[{i}]")
    else:
        yield path, node


def _read_table(path: Path) -> tuple:
    header = path.read_text(encoding="utf-8").split("\n", 1)[0].split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _trace(entries: dict, name: str, x: np.ndarray, y: np.ndarray) -> None:
    scale = float(np.max(np.abs(y)))
    entries[f"{name} max"] = [float(y.max()), scale]
    integral = float(np.trapezoid(y, x))
    entries[f"{name} integral"] = [integral, integral]
    for i in np.linspace(0, y.size - 1, SAMPLES).round().astype(int):
        entries[f"{name} sample[{i}]"] = [float(y[i]), scale]


def _map(entries: dict, exact: dict, name: str, path: Path) -> None:
    _, table = _read_table(path)
    times = np.unique(table[:, 0])
    lams = table[: table.shape[0] // times.size, 1]
    values = table[:, 2].reshape(times.size, lams.size)
    exact[f"{name} shape"] = ["{}x{}".format(*values.shape), None]
    scale = float(values.max())
    entries[f"{name} max"] = [scale, scale]
    integral = float(np.trapezoid(np.trapezoid(values, lams, axis=1), times))
    entries[f"{name} integral"] = [integral, integral]
    rows = np.linspace(0, times.size - 1, SAMPLES).round().astype(int)
    cols = np.linspace(0, lams.size - 1, SAMPLES).round().astype(int)
    for k, i in enumerate(rows):
        j = cols[(7 * k) % SAMPLES]  # 7 is prime to 20: each column once, out of step with the rows
        entries[f"{name} cell[{i},{j}]"] = [float(values[i, j]), scale]


def _json(entries: dict, exact: dict, name: str, document: dict) -> None:
    for key, value in _leaves(document):
        if isinstance(value, float) or (isinstance(value, int) and not isinstance(value, bool)):
            entries[f"{name} {key}"] = [value, value]
        else:
            exact[f"{name} {key}"] = [value, None]


def measure(root: Path, rates: dict) -> dict:
    """``{group: {entry: [value, scale]}}`` of the outputs under ``root`` and of ``rates``."""
    root = Path(root)
    dynamic, sweep, fit, exact = {}, {}, {}, {}
    header, table = _read_table(root / "fig2-sweep" / "sweep.csv")
    for column, name in enumerate(header[1:], start=1):
        _trace(sweep, f"fig2-sweep/sweep.csv {name}", table[:, 0], table[:, column])

    for scenario, _ in SHIPPED_RUNS[1:]:
        outdir = root / scenario
        metrics = json.loads((outdir / "metrics.json").read_text(encoding="utf-8"))
        _json(dynamic, exact, f"{scenario}/metrics.json", metrics)
        for path in sorted(outdir.glob("*.csv")):
            name = f"{scenario}/{path.name}"
            if path.name.endswith("map.csv"):
                _map(dynamic, exact, name, path)
            else:
                _, curve = _read_table(path)
                _trace(dynamic, name, curve[:, 0], curve[:, 1])

    result = json.loads((root / "fit" / "fit.json").read_text(encoding="utf-8"))
    name = "fit/fit.json"
    roundoff = {f"{name} residual_norm": [result.pop("residual_norm"), 1.0]}
    for param, value in result.pop("std_errors").items():
        roundoff[f"{name} std_errors.{param}"] = [value, result["estimates"][param]]
    evaluations = {f"{name} n_evals": [result.pop("n_evals")] * 2}
    _json(fit, exact, name, result)

    rate_entries = {}
    for det_nm, rates_at in rates.items():
        for which, value in zip(("simulated", "exact", "mode_sum"), rates_at):
            rate_entries[f"{det_nm:+.1f} nm {which}"] = [value, value]
    return {
        "exact": exact,
        "dynamic": dynamic,
        "sweep": sweep,
        "fit": fit,
        "fit_evaluations": evaluations,
        "fit_roundoff": roundoff,
        "acceptance_4_rates": rate_entries,
    }


def distances(snapshot: dict, fresh: dict) -> dict:
    """``{group: {entry: |fresh - value| / |scale|}}``; ``inf`` where an exact entry differs."""
    out = {}
    for group, spec in snapshot["groups"].items():
        entries, now = spec["entries"], fresh[group]
        differ = sorted(entries.keys() ^ now.keys())
        assert not differ, f"{group}: {len(differ)} entries are new or gone, {differ[:5]}"
        dist = {}
        for key, (value, scale) in entries.items():
            new = now[key][0]
            if scale:
                dist[key] = abs(new - value) / abs(scale)
            else:
                dist[key] = 0.0 if new == value else float("inf")
        out[group] = dist
    return out


def record(path: Path = SNAPSHOT_PATH) -> None:
    """Re-record the values of ``path`` from fresh runs; its groups and tolerances are kept."""
    snapshot = json.loads(path.read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        fresh = measure(run_shipped(Path(tmp)), {d: se_rates(d) for d in SE_RATE_DETUNINGS_NM})
    assert fresh.keys() == snapshot["groups"].keys(), sorted(fresh.keys() ^ snapshot["groups"].keys())
    for group, spec in snapshot["groups"].items():
        spec["entries"] = fresh[group]
    text = json.dumps(snapshot, indent=1, sort_keys=True)
    # one entry a line: [value, scale]
    text = re.sub(r"\[\s+([^\[\]]*?)\s+\]", lambda m: "[" + re.sub(r"\s+", " ", m.group(1)) + "]", text)
    path.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
