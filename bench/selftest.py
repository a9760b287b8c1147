"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Negative controls feed perturbed results to each gate and to the repeat
check and require them to fail.  Smoke runs drive every workload through
``run.run`` on shrunk grids (n_max=1, coarse grids, one noise draw), untraced
and traced, and check that every metric ``BENCHMARK.json`` names is printed,
that the traced layers show the expected work, and that a burst FWHM 20 ps
off raises the error rate.  Takes about a minute on two cores.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import traceback
from types import SimpleNamespace

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

BURST = {
    "filters": [{"metrics": {"kind": "burst", "fwhm_ps": 231.6, "modulation_depth": 2.74}}],
    "truncation_check": {"within_1_percent": True},
}
DELAYS = {"delays": [
    {"delay_ps": d, "filters": [{"metrics": {"kind": "burst", "extremum_time_ps": d + 16.0,
                                             "modulation_depth": 2.73}}]}
    for d in (1500.0, 2000.0, 2500.0)
]}
TRUTH = {"eta": 1.564e11, "kappa_t": 1.564e11, "kappa_fp": 4.692e11, "lambda_t_nm": 1552.0}
FIT = {"converged": True, "estimates": {"eta": 1.57e11, "kappa_t": 1.56e11, "kappa_fp": 4.70e11,
                                        "lambda_t": 1552.0004}}


def perturbed(doc: dict, path: tuple, value) -> dict:
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def test_gates_pass_on_good_results():
    assert workloads.gate_burst(BURST) == []
    assert workloads.gate_delays(DELAYS, [1500.0, 2000.0, 2500.0]) == []
    assert workloads.gate_fit(FIT, TRUTH) == []


def test_gates_trip_on_perturbed_results():
    m = ("filters", 0, "metrics")
    assert workloads.gate_burst(perturbed(BURST, m + ("fwhm_ps",), 251.6))
    assert workloads.gate_burst(perturbed(BURST, m + ("kind",), "dip"))
    assert workloads.gate_burst(perturbed(BURST, m + ("modulation_depth",), 1.5))
    assert workloads.gate_burst(perturbed(BURST, ("truncation_check", "within_1_percent"), False))
    late = perturbed(DELAYS, ("delays", 1, "filters", 0, "metrics", "extremum_time_ps"), 2060.0)
    assert workloads.gate_delays(late, [1500.0, 2000.0, 2500.0])
    weak = perturbed(DELAYS, ("delays", 0, "filters", 0, "metrics", "modulation_depth"), 1.2)
    assert workloads.gate_delays(weak, [1500.0, 2000.0, 2500.0])
    assert workloads.gate_delays(DELAYS, [1500.0, 2000.0])
    assert workloads.gate_fit(perturbed(FIT, ("converged",), False), TRUTH)
    assert workloads.gate_fit(perturbed(FIT, ("estimates", "eta"), 1.25e11), TRUTH)
    assert workloads.gate_fit(perturbed(FIT, ("estimates", "lambda_t"), 1552.01), TRUTH)


def test_repeat_check_trips_on_changed_bytes_and_counts():
    state = run.OUT / "selftest" / "state.json"
    shutil.rmtree(state.parent, ignore_errors=True)

    def op(digest, calls):
        spans = {"spans": [["modespace.couple", 0.0, 1e-6, -1, None]] * calls}
        cmd = SimpleNamespace(label="a", exit_code=0, spans=spans, failures=[])
        return SimpleNamespace(commands=[cmd], outputs={"a": {"x.csv": [3, digest]}})

    same = [op("d1", 2), op("d1", 2)]
    run.check_repeats(same, state)
    assert not any(c.failures for o in same for c in o.commands)
    assert state.is_file()
    later = [op("d2", 2)]  # another run of the same code, other bytes
    run.check_repeats(later, state)
    assert later[0].commands[0].failures
    counted = [op("d1", 3)]
    run.check_repeats(counted, state)
    assert counted[0].commands[0].failures
    shutil.rmtree(state.parent)


def smoke(name: str, trace: bool) -> dict:
    report = run.run(name, seed=1, seconds=1.0, trace=trace, smoke=True)
    values = {k: m["value"] for k, m in report["metrics"].items()}
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    levels = {f".n{n}" for n in range(1, 4)}
    names = {k for k in values if not any(k.endswith(s) for s in levels)}
    wanted = {k for k in expected if not any(k.endswith(s) for s in levels)}
    assert wanted <= names, f"missing metrics: {sorted(wanted - names)}"
    assert report["failed"] == 0, [c["failures"] for o in report["operations"]
                                    for c in o["commands"]]
    if not trace:
        assert all(values[k] > 0 for k in expected), values
    return values


def test_smoke_burst_trunc():
    smoke("burst-trunc", trace=False)


def test_smoke_delay_scan_traced():
    v = smoke("delay-scan", trace=True)
    assert v["lindblad.evolve.calls.n1"] == 4 and v["lindblad.evolve.rhs_calls.n1"] > 0
    assert all(v[f"lindblad.steady_state.calls.n{n}"] == 0 for n in (1, 2, 3))
    assert v["fitting.fit.evals"] == 0 and v["spectra.map.cells"] > 0
    assert v["runs.cores_busy.parallel"] > 0 and v["runs.cores_busy.serial"] == 0
    assert 0 < v["trace.overhead_s"] < 1e-4 * v["trace.spans"]


def test_smoke_sweep_fit_traced():
    v = smoke("sweep-fit", trace=True)
    smoke("sweep-fit", trace=False)
    assert all(v[f"lindblad.{p}.calls.n2"] == 0 for p in ("steady_state", "evolve"))
    assert v["fitting.fit.evals"] > 0
    assert v["fitting.fit.starts"] == 2 * (1 + workloads.FIT_MULTISTART)
    assert v["runs.cores_busy.parallel"] == 0 and v["runs.cores_busy.serial"] > 0
    assert v["modespace.couple.calls"] > 0 and v["runs.emit.bytes"] > 0


def test_perturbed_burst_raises_error_rate():
    load = workloads._load_json

    def late_burst(path):
        doc = load(path)
        if path.name == "metrics.json":
            doc["filters"][0]["metrics"]["fwhm_ps"] += 20.0
        return doc

    workloads._load_json = late_burst
    try:
        report = run.run("burst-trunc", seed=1, seconds=1.0, trace=False, smoke=True)
    finally:
        workloads._load_json = load
    assert report["failed"] == report["attempted"] == 1
    assert report["error_rate"] == 1.0


def test_spec_names_match_the_printed_metrics():
    from tracer import metric_units

    per_layer = {m["name"] for m in SPEC["per_layer"]}
    assert per_layer == set(metric_units()) | set(run.EXTRA_LAYER_METRICS), \
        sorted(per_layer ^ (set(metric_units()) | set(run.EXTRA_LAYER_METRICS)))
    assert {m["name"] for m in SPEC["end_to_end"]} == set(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    tests = [(k, f) for k, f in globals().items() if k.startswith("test_")]
    failures = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}", flush=True)
        except Exception:  # report every failing check, then exit nonzero
            failures += 1
            print(f"FAIL {name}\n{traceback.format_exc()}", flush=True)
    print(f"{len(tests) - failures}/{len(tests)} harness checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
