"""Run the benchmark over several seeds and summarize each end-to-end metric.

    python3 bench/spread.py --workloads sweep-fit --seeds 1-5
    python3 bench/spread.py --seeds 1-10 --traced --out bench/baselines/BENCH_1.json

For every workload it runs ``bench/run.py`` once per seed (untraced), then,
with ``--traced``, once traced on the first seed.  Per end-to-end metric it
reports the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, (q3 - q1) / median, next to the metric's bound from
``BENCHMARK.json``; the spread should stay below a third of the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCH, ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench_once(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-600:]}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    result["env"] = json.loads(next(ln[4:] for ln in lines if ln.startswith("env ")))
    return result


def summarize(values: list, bound: float) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / q2
    return {"values": values, "median": q2, "q1": q1, "q3": q3, "spread": spread,
            "bound": bound, "below_third_of_bound": spread < bound / 3.0}


def parse_seeds(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="a seed or a range, e.g. 1-10")
    parser.add_argument("--traced", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", help="write the summary JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}

    summary: dict = {"run_seconds": SPEC["run_seconds"], "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            runs.append(bench_once(workload, seed, 0))
            m = runs[-1]["metrics"]
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s run, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in m.items())
                  + f", failed {runs[-1]['failed']}/{runs[-1]['attempted']}", flush=True)
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {k: summarize([r["metrics"][k]["value"] for r in runs], bounds[k])
                           for k in bounds},
        }
        summary["environment"] = runs[0]["env"]
        if args.traced:
            traced = bench_once(workload, seeds[0], 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            entry["attempted"] += traced["attempted"]
            entry["failed"] += traced["failed"]
        summary["workloads"][workload] = entry
        for k, s in entry["end_to_end"].items():
            print(f"{workload} {k}: median {s['median']:.4g}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']}{'' if s['below_third_of_bound'] else ', ABOVE a third'})",
                  flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
