"""Import graph and thread policy.

``import cavtune`` loads neither numpy nor scipy, only the master-equation
commands load scipy, and a CLI process runs one BLAS thread unless
``OPENBLAS_NUM_THREADS`` says otherwise.  Each check runs in a fresh
interpreter, since the pytest process has long imported numpy and scipy
through other tests.
"""

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
        import cavtune.tuning
        import scipy.integrate

        assert cavtune.lindblad.PumpSchedule is cavtune.tuning.PumpSchedule
        assert cavtune.lindblad.HilbertSpec is cavtune.tuning.HilbertSpec
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


def test_given_blas_thread_count_is_kept(tmp_path):
    out = run_python(
        """
        import os
        import cavtune.cli
        print(os.environ["OPENBLAS_NUM_THREADS"])
        """,
        tmp_path,
        OPENBLAS_NUM_THREADS="2",
    )
    assert out.strip() == "2"
