"""Command-line front end.

Subcommands: static-sweep | dynamic | fit | render | selftest.
Exit codes: 0 success, 1 selftest failure, 2 config/schema error,
3 fit non-convergence, 4 numerical failure.
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

# before numpy starts its pool: no matrix here is large enough for a second BLAS thread to pay
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import __version__
from .config import (
    DEFAULT_SYSTEM,
    SCENARIO_NAMES,
    load_config,
    load_config_file,
    scenario_config,
)
from .errors import CavtuneError, NumericalFailure, SchemaError
from .fitting import FitOptions, fit as run_fit, read_anticrossing_csv
from .render import render_csv_file
from .runs import run_dynamic, run_static_sweep, write_csv, write_json


def _resolve_config(config_path, scenario):
    if config_path and scenario:
        raise SchemaError("give either --config or --scenario, not both")
    if config_path:
        return load_config_file(config_path)
    if scenario:
        return load_config(scenario_config(scenario))
    raise SchemaError("one of --config or --scenario is required")


@contextmanager
def _exit_on_error(out):
    """Print a package or file-system error and exit with its code (2, or 4 if numerical)."""
    try:
        yield
    except CavtuneError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(4 if isinstance(exc, NumericalFailure) else 2)
    except OSError as exc:
        click.echo(f"error: cannot write outputs under {out}: {exc}", err=True)
        sys.exit(2)


@click.group()
@click.version_option(version=__version__, prog_name="cavtune")
def main():
    """Coupled-cavity emission control: simulate, fit, render."""


_common = [
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="JSON config document."),
    click.option("--scenario", type=click.Choice(SCENARIO_NAMES), default=None,
                 help="Shipped scenario name."),
    click.option("--out", "outdir", type=click.Path(file_okay=False), required=True,
                 help="Output directory."),
    click.option("--threads", type=int, default=1, show_default=True, expose_value=False,
                 help="Has no effect: accepted for old command lines; runs are serial."),
    click.option("--render/--no-render", default=False, show_default=True,
                 help="Also emit SVG/PPM plots."),
]


def _run_command(kind, runner, doc):
    """The subcommand ``kind``: resolve a config of that kind and write ``runner``'s outputs."""

    def command(config_path, scenario, outdir, render):
        with _exit_on_error(outdir):
            cfg = _resolve_config(config_path, scenario)
            if cfg.kind != kind:
                raise SchemaError(f"config kind {cfg.kind!r} is not {kind!r}")
            outputs = runner(cfg, Path(outdir), render=render)
        click.echo(f"wrote {len(outputs) + 1} file(s) to {outdir}")

    for opt in reversed(_common):
        command = opt(command)
    return main.command(kind, help=doc)(command)


_run_command("static-sweep", run_static_sweep,
             "Anticrossing sweep over a detuning grid -> sweep.csv.")
_run_command("dynamic", run_dynamic,
             "Dynamic burst/dip/delay scenario -> map CSV, curves, metrics.json.")


@main.command("fit")
@click.argument("data_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Config with a 'fit' section (init/bounds/options).")
@click.option("--out", "outdir", type=click.Path(file_okay=False), required=True)
@click.option("--seed", type=int, default=None,
              help="Seed for the multi-start initializations; overrides fit.seed.")
def cmd_fit(data_csv, config_path, outdir, seed):
    """Fit the coupled-mode model to an anticrossing CSV."""
    started = time.monotonic()
    with _exit_on_error(outdir):
        settings = load_config_file(config_path).fit if config_path else {}
        data = read_anticrossing_csv(data_csv, control_kind=settings.get("control"))
        init = {
            "eta": DEFAULT_SYSTEM["eta"],
            "kappa_t": DEFAULT_SYSTEM["kappa_t"],
            "kappa_fp": DEFAULT_SYSTEM["kappa_fp"],
            "lambda_t": float(np.median(np.concatenate([data.lambda1, data.lambda2]))),
            "cal_slope": 0.1,
            "cal_offset": 0.0,
            "g": DEFAULT_SYSTEM["g"],
            "gamma_leaky": DEFAULT_SYSTEM["gamma_leaky"],
            **settings.get("init", {}),
        }
        options = settings.get("options", FitOptions())
        if seed is not None:
            options = replace(options, seed=seed)
        result = run_fit(data, init, bounds=settings.get("bounds"), options=options)

        out = Path(outdir)
        out.mkdir(parents=True, exist_ok=True)
        write_json(out / "fit.json", result.to_dict())
        write_csv(out / "residuals.csv", ["index", "weighted_residual"],
                  enumerate(result.weighted_residuals))
    click.echo(
        f"fit {'converged' if result.converged else 'DID NOT CONVERGE'} "
        f"in {result.n_evals} evaluations ({time.monotonic() - started:.1f} s); "
        f"residual norm {result.residual_norm:.3e}"
    )
    if result.near_degenerate:
        click.echo("note: fitted coupling is below the measurement resolution "
                   "(near-degenerate crossing)")
    if not result.converged:
        sys.exit(3)


@main.command("render")
@click.argument("csv_in", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", "out_path", type=click.Path(dir_okay=False), required=True)
@click.option("--colormap", type=click.Choice(["heat", "gray"]), default="heat",
              show_default=True)
@click.option("--log", "log_scale", is_flag=True, default=False,
              help="Log-scale heatmap normalization.")
def cmd_render(csv_in, out_path, colormap, log_scale):
    """Render an emitted CSV: a map to a PPM heatmap, any other layout to an SVG plot."""
    with _exit_on_error(out_path):
        written = render_csv_file(csv_in, out_path, colormap=colormap, log_scale=log_scale)
    click.echo(f"wrote {written}")


@main.command("selftest")
def cmd_selftest():
    """Run the embedded invariant suite and print a pass/fail table."""
    from .selftest import run_selftest

    results = run_selftest()
    width = max(len(name) for name, _, _ in results)
    failures = 0
    for name, passed, detail in results:
        status = "PASS" if passed else "FAIL"
        failures += 0 if passed else 1
        click.echo(f"{name:<{width}}  {status}  {detail}")
    click.echo(f"{len(results) - failures}/{len(results)} checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
