"""Import graph: only the master-equation commands load scipy.

Each check runs in a fresh interpreter, since the pytest process has long
imported scipy through other tests.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import cavtune

SRC = str(Path(cavtune.__file__).resolve().parents[1])


def run_python(code: str, cwd) -> str:
    env = dict(os.environ)
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
        from cavtune import HilbertSpec, PumpSchedule, evolve
        import cavtune.lindblad
        import cavtune.tuning
        import scipy.integrate

        assert evolve is cavtune.lindblad.evolve
        assert cavtune.lindblad.PumpSchedule is cavtune.tuning.PumpSchedule
        assert cavtune.lindblad.HilbertSpec is HilbertSpec is cavtune.tuning.HilbertSpec
        assert PumpSchedule is cavtune.tuning.PumpSchedule
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
