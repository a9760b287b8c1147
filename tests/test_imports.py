"""Import graph and thread policy.

``import cavtune`` loads neither numpy nor scipy, only the master-equation
commands load scipy, ``cavtune/lindblad.py`` imports nothing from
``scipy.sparse``, and a CLI process runs one BLAS thread whatever
``OPENBLAS_NUM_THREADS`` says, so its outputs do not depend on it.  Each
check runs in a fresh interpreter, since the pytest process has long
imported numpy and scipy through other tests.
"""

import ast
import filecmp
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cavtune

SRC = str(Path(cavtune.__file__).resolve().parents[1])


def run_python(code: str, cwd, **env_vars) -> str:
    """Run ``code`` in a fresh interpreter with ``OPENBLAS_NUM_THREADS`` unset
    unless ``env_vars`` sets it; return its standard output."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env.update(env_vars)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_scipy_free_commands_do_not_load_scipy(tmp_path):
    out = run_python(
        """
        import sys

        def scipy_modules():
            return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

        import cavtune.cli
        assert not scipy_modules(), ("import", scipy_modules())

        from cavtune.config import SCENARIO_NAMES, load_config, scenario_config
        for name in SCENARIO_NAMES:
            load_config(scenario_config(name))
            assert not scipy_modules(), (name, scipy_modules())

        from click.testing import CliRunner
        runner = CliRunner()
        for args in (
            ["static-sweep", "--scenario", "fig2-sweep", "--out", "sweep"],
            ["fit", "sweep/sweep.csv", "--out", "fit"],
            ["render", "sweep/sweep.csv", "--out", "sweep.svg"],
        ):
            res = runner.invoke(cavtune.cli.main, args, catch_exceptions=False)
            assert res.exit_code == 0, res.output
            assert not scipy_modules(), (args[0], scipy_modules())
        assert "cavtune.lindblad" not in sys.modules
        print("ok")
        """,
        tmp_path,
    )
    assert out.strip() == "ok"


def test_lindblad_names_resolve_lazily(tmp_path):
    out = run_python(
        """
        import importlib
        import sys

        import cavtune
        loaded = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
        assert not loaded, loaded

        # each public name is its defining module's object, and every one is listed
        for name, module in cavtune._EXPORTS.items():
            value = getattr(cavtune, name)
            assert value is getattr(importlib.import_module(f"cavtune.{module}"), name), name
            assert value.__module__ == f"cavtune.{module}", (name, value.__module__)
        assert sorted(cavtune.__all__) == sorted(cavtune._EXPORTS)
        assert set(cavtune.__all__) <= set(dir(cavtune))
        star = {}
        exec("from cavtune import *", star)
        assert sorted(star.keys() - {"__builtins__"}) == sorted(cavtune.__all__)

        import cavtune.lindblad
        import scipy.integrate

        # the pump and Hilbert-space dataclasses have one home, cavtune.tuning
        assert not hasattr(cavtune.lindblad, "PumpSchedule")
        assert not hasattr(cavtune.lindblad, "HilbertSpec")
        # the benchmark tracer finds this name by identity and wraps it
        assert cavtune.lindblad.solve_ivp is scipy.integrate.solve_ivp
        try:
            cavtune.no_such_name
        except AttributeError:
            print("ok")
        """,
        tmp_path,
    )
    assert out.strip() == "ok"


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_cli_process_runs_one_thread(tmp_path):
    out = run_python(
        """
        import os
        import cavtune.cli, cavtune.lindblad
        print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
        """,
        tmp_path,
    )
    assert out.split() == ["1", "1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts threads in /proc/self/task")
def test_cli_process_runs_one_blas_thread_when_given_four(tmp_path):
    out = run_python(
        """
        import os
        import cavtune.cli, cavtune.lindblad
        print(len(os.listdir("/proc/self/task")), os.environ["OPENBLAS_NUM_THREADS"])
        """,
        tmp_path,
        OPENBLAS_NUM_THREADS="4",
    )
    assert out.split() == ["1", "1"]


def test_dynamic_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # fig3-burst at n_max 3 on a short grid: its 168-entry block is where
    # OpenBLAS's multi-thread LU paths start, and they would move the last bits
    from cavtune.config import scenario_config

    cfg = scenario_config("fig3-burst")
    cfg["solver"]["n_max"] = 3
    cfg["grids"]["time_ps"] = {"start": -100.0, "stop": 500.0, "n": 121}
    cfg["grids"]["lambda_nm"] = {"start": 1551.0, "stop": 1553.0, "n": 41}
    (tmp_path / "short.json").write_text(json.dumps(cfg), encoding="utf-8")
    for threads in ("1", "4"):
        run_python(
            f"""
            from cavtune.cli import main
            main(["dynamic", "--config", "short.json", "--out", "out{threads}"])
            """,
            tmp_path,
            OPENBLAS_NUM_THREADS=threads,
        )
    names = sorted(p.name for p in (tmp_path / "out1").iterdir() if p.name != "manifest.json")
    assert names and names == sorted(
        p.name for p in (tmp_path / "out4").iterdir() if p.name != "manifest.json")
    _, differ, errors = filecmp.cmpfiles(tmp_path / "out1", tmp_path / "out4", names, shallow=False)
    assert not differ and not errors, differ


def test_lindblad_imports_nothing_from_scipy_sparse():
    tree = ast.parse(Path(SRC, "cavtune", "lindblad.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported += [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert imported
    assert not [name for name in imported
                if name == "scipy.sparse" or name.startswith("scipy.sparse.")], imported
