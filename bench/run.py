"""cavtune benchmark: run one workload through the real CLI and print its metrics.

    python3 bench/run.py --workload burst-trunc --seed 1 --seconds 30 --trace 0

Run from a checkout that holds ``src/cavtune``; nothing needs installing.  A
closed loop runs one operation of the workload at a time (see
``workloads.py``), each CLI command in a fresh process, and stops starting new
operations once another would overrun ``--seconds``; at least one runs.

``--trace 0`` prints the end-to-end metrics, medians over the operations:
``wall_s`` (one operation), ``cpu_s`` (user+sys of its processes, worker and
BLAS threads included), ``peak_rss_mb`` (largest process of the operation)
and ``setup_s`` (median of fresh processes that import cavtune and load and
validate the workload's config).

``--trace 1`` runs one operation untraced and one traced (``tracer.py``) and
prints the per-layer metrics of the traced one, its tracing overhead (spans
times a calibrated cost per span) and ``runs.cores_busy.{parallel,serial}``
(cpu_s / wall_s of the untraced one's commands with and without ``--threads``
above 1).

Each CLI command is one attempted operation; a nonzero exit or a failed gate
makes it a failed one.  Besides the workload's own gates, outputs other than
``manifest.json`` must be byte-identical across repeats, and the traced counts
must repeat exactly.  Repeats are compared within the run and, through
``.bench_out/state``, across runs of the same code and thread settings.

The last line of standard output is the JSON result.  A full report goes to
``.bench_out/reports`` and the spans of the last traced run of each workload
to ``.bench_out/spans``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS, Command

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
RUN_LIMIT_S = 160.0  # no new operation after this many seconds of a run
KILL_AFTER_S = 175.0  # a command still running this long into the run is killed

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# per-layer metrics besides those of tracer.layer_metrics
EXTRA_LAYER_METRICS = {"runs.emit.bytes": "B", "runs.cores_busy.parallel": "cores",
                       "runs.cores_busy.serial": "cores", "trace.overhead_s": "s",
                       "trace.spans": "count", "error_rate": "ratio"}

SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
import cavtune.cli
from cavtune.config import load_config, load_config_file, scenario_config
target = sys.argv[1]
if target.startswith("scenario:"):
    load_config(scenario_config(target[len("scenario:"):]))
else:
    load_config_file(target)
print(repr(time.perf_counter() - t0))
"""


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list, log_path: Path, timeout: float) -> tuple[int, float, float, float]:
    """Run one process to its end: (exit code, wall s, user+sys s, peak RSS MB)."""
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=child_env(),
                                cwd=ROOT)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


@dataclass
class Operation:
    """One workload operation: its commands, timed from the first to the last."""

    traced: bool
    commands: list
    wall_s: float
    outputs: dict  # command label -> file_digests of its output directory

    @property
    def cpu_s(self) -> float:
        return sum(c.cpu_s for c in self.commands)

    @property
    def rss_mb(self) -> float:
        return max(c.rss_mb for c in self.commands)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.commands if c.failures)

    @property
    def bytes_out(self) -> int:
        return sum(size for files in self.outputs.values() for size, _ in files.values())


def run_operation(workload, inputs: Path, op_dir: Path, seed: int, smoke: bool, traced: bool,
                  deadline: float) -> Operation:
    """Run one operation, each CLI command in a fresh (traced) process."""
    commands = []
    op_dir.mkdir(parents=True)

    def cli(label, args, out):
        cmd = Command(label, args, out)
        spans = op_dir / f"{label}.spans.json"
        argv = [sys.executable, "-m", "cavtune.cli", *args]
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"), "--spans", str(spans),
                    "--run-id", f"{workload.name}:{seed}:{op_dir.name}:{label}", "--", *args]
        cmd.exit_code, cmd.wall_s, cmd.cpu_s, cmd.rss_mb = spawn(
            argv, op_dir / f"{label}.log", deadline - time.perf_counter())
        if cmd.exit_code != 0:
            tail = (op_dir / f"{label}.log").read_text(errors="replace")[-400:]
            cmd.failures.append(f"exit code {cmd.exit_code}: {tail.strip()}")
        elif traced:
            with open(spans, encoding="utf-8") as fh:
                cmd.spans = json.load(fh)
        commands.append(cmd)
        return cmd

    t0 = time.perf_counter()
    workload.op(cli, inputs, op_dir, seed, smoke)
    wall = time.perf_counter() - t0
    return Operation(traced, commands, wall, {c.label: file_digests(c.out) for c in commands})


def file_digests(out: Path) -> dict:
    """{relative path: [size, sha256]} of a command's outputs, manifest excluded."""
    found = {}
    if out.is_dir():
        for path in sorted(out.rglob("*")):
            if path.is_file() and path.name != "manifest.json":
                data = path.read_bytes()
                found[str(path.relative_to(out))] = [len(data), hashlib.sha256(data).hexdigest()]
    return found


def command_counts(cmd) -> dict:
    values, units, _ = layer_metrics([cmd.spans])
    return {k: v for k, v in values.items() if units[k] in ("count", "B")}


def cores_busy(commands: list, parallel: bool) -> float:
    """cpu_s / wall_s over the commands that run more than one worker thread
    (``parallel``) or one; 0 when the operation has no such command."""
    def threads(cmd):
        args = cmd.args
        return int(args[args.index("--threads") + 1]) if "--threads" in args else 1

    chosen = [c for c in commands if (threads(c) > 1) == parallel]
    wall = sum(c.wall_s for c in chosen)
    return sum(c.cpu_s for c in chosen) / wall if wall else 0.0


def check_repeats(ops: list, state_path: Path) -> None:
    """Outputs and traced counts must repeat exactly, in this run and across runs."""
    state = {"outputs": {}, "counts": {}}
    if state_path.is_file():
        with open(state_path, encoding="utf-8") as fh:
            state = json.load(fh)
    seen = {"outputs": dict(state["outputs"]), "counts": dict(state["counts"])}
    for op in ops:
        for cmd in op.commands:
            if cmd.exit_code != 0:
                continue
            found = {"outputs": op.outputs[cmd.label]}
            if cmd.spans is not None:
                found["counts"] = command_counts(cmd)
            for kind, value in found.items():
                ref = seen[kind].setdefault(cmd.label, value)
                if ref != value:
                    diff = sorted(k for k in set(ref) | set(value) if ref.get(k) != value.get(k))
                    cmd.failures.append(f"{kind} differ from an earlier repeat: {diff[:6]}")
    if not any(c.failures for op in ops for c in op.commands):
        state_path.parent.mkdir(parents=True, exist_ok=True)
        tmp = state_path.with_suffix(".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(seen, fh, indent=1, sort_keys=True)
        os.replace(tmp, state_path)


def code_hash() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.joinpath("cavtune").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def thread_env() -> dict:
    return {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")}


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    src_files = sorted(SRC.joinpath("cavtune").rglob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": thread_env(),
        "git_commit": commit,
        "src_files": len(src_files),
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines()) for p in src_files),
        "code_sha256": code_hash(),
    }


def setup_seconds(target) -> float:
    proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(target)], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr[-400:]}")
    return float(proc.stdout.split()[-1])


def run(workload_name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """One benchmark run; returns the report whose metrics the command prints.

    ``smoke`` shrinks the grids; only the harness self-test sets it."""
    started = time.perf_counter()
    deadline = started + KILL_AFTER_S
    workload = WORKLOADS[workload_name]
    work = OUT / "work" / f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload.prepare(inputs, seed, smoke)
    env = environment()
    key = hashlib.sha256(json.dumps(
        [env["code_sha256"], workload_name, seed if workload.seeded else None, smoke,
         env["nproc"], env["thread_env"]]).encode()).hexdigest()[:24]

    def new_op(traced: bool) -> Operation:
        return run_operation(workload, inputs, work / f"op{len(ops)}", seed, smoke, traced,
                             deadline)

    ops: list = []
    report: dict = {"workload": workload_name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "smoke": smoke, "environment": env}
    if not trace:
        setup = [setup_seconds(workload.setup_config(inputs)) for _ in range(SETUP_REPEATS)]
        loop_start = time.perf_counter()
        while True:
            ops.append(new_op(False))
            now = time.perf_counter()
            if (now - loop_start) + ops[-1].wall_s > seconds or now - started > RUN_LIMIT_S:
                break
        check_repeats(ops, OUT / "state" / f"{workload_name}-{key}.json")
        metrics = {
            "wall_s": statistics.median(op.wall_s for op in ops),
            "cpu_s": statistics.median(op.cpu_s for op in ops),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(op.rss_mb for op in ops),
        }
        units = END_TO_END
        report["setup_samples_s"] = setup
    else:
        ops.append(new_op(False))
        ops.append(new_op(True))
        check_repeats(ops, OUT / "state" / f"{workload_name}-{key}.json")
        plain, traced = ops
        values, units, selfs = layer_metrics([c.spans for c in traced.commands if c.spans])
        metrics = dict(values)
        metrics["runs.emit.bytes"] = traced.bytes_out
        metrics["runs.cores_busy.parallel"] = cores_busy(plain.commands, True)
        metrics["runs.cores_busy.serial"] = cores_busy(plain.commands, False)
        docs = [c.spans for c in traced.commands if c.spans]
        metrics["trace.overhead_s"] = sum(len(d["spans"]) * d["span_cost_s"] for d in docs)
        metrics["trace.spans"] = sum(len(d["spans"]) for d in docs)
        units = dict(units, **EXTRA_LAYER_METRICS)
        report["self_s"] = dict(sorted(selfs.items(), key=lambda kv: -kv[1]))
        keep = OUT / "spans" / workload_name
        shutil.rmtree(keep, ignore_errors=True)
        keep.mkdir(parents=True)
        for path in (work / "op1").glob("*.spans.json"):
            shutil.move(str(path), keep / path.name)

    attempted = sum(len(op.commands) for op in ops)
    failed = sum(op.failed for op in ops)
    report["error_rate"] = failed / attempted
    if trace:
        metrics["error_rate"] = report["error_rate"]
    report["operations"] = [
        {"traced": op.traced, "wall_s": op.wall_s, "cpu_s": op.cpu_s, "rss_mb": op.rss_mb,
         "bytes_out": op.bytes_out,
         "commands": [{"label": c.label, "args": c.args, "exit_code": c.exit_code,
                       "wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb,
                       "failures": c.failures} for c in op.commands]}
        for op in ops]
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    report["attempted"], report["failed"] = attempted, failed
    shutil.rmtree(work, ignore_errors=True)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cavtune benchmark (see the module docstring)")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cavtune" / "__init__.py").is_file():
        print(f"error: no cavtune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.joinpath("reports").mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / "reports" / name, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    print("env " + json.dumps(report["environment"], sort_keys=True))
    for i, op in enumerate(report["operations"]):
        print(f"op {i}{' traced' if op['traced'] else ''}: wall {op['wall_s']:.3f} s, "
              f"cpu {op['cpu_s']:.3f} s, rss {op['rss_mb']:.1f} MB, "
              f"{op['bytes_out']} bytes emitted, {len(op['commands'])} command(s)")
        for c in op["commands"]:
            for failure in c["failures"]:
                print(f"  FAILED {c['label']}: {failure}")
    for k, m in report["metrics"].items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(f"{report['failed']} of {report['attempted']} commands failed: "
          f"error_rate {report['error_rate']!r}")
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
