"""Recover coupled-cavity parameters from measured anticrossing tables.

The model behind the fit is the complex 2x2 diagonalization of
:func:`cavtune.modespace.pair_modes`: each data row's control value (a detuning in
nm, or a power in mW mapped through a linear calibration) positions the FP
mode, and the predicted branch wavelengths / Q factors / decay times are
compared against the measured columns.

The minimizer is a deterministic Levenberg-Marquardt with a central-difference
Jacobian, run from each start in coordinates scaled to the start.  The
objective has a crease on the exceptional-point surface
``eta = |kappa_fp - kappa_t|/2``, where the complex square root of the pair
branches at the zero-detuning row; the shipped parameters lie on it.  A
descent that meets the crease stalls there, so one more run on the surface,
and a descent from just off it, supply the estimate when they lower the
objective.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .errors import CavtuneError, InvalidInput, SchemaError, require
from .modespace import TWO_PI_C_NM, decay_rate, detuning_wl_to_omega, pair_modes, wl_to_omega
from .render import read_csv_table, source_name

DEFAULT_SIGMA_LAMBDA_NM = 0.05
DEFAULT_SIGMA_Q_FRAC = 0.10
DEFAULT_SIGMA_TAU_FRAC = 0.10

_PENALTY = 1e8

# each CSV column and the unit suffixes its header may carry ("" for none); the
# detuning and power headers name the control column.  The only uncertainty
# columns the fit reads: lambda1_err weights both wavelength branches and
# q1_err both Q branches
_COLUMN_UNITS = {
    "control": ("", "_nm", "_mw"), "detuning": ("", "_nm"), "power": ("", "_mw"),
    "lambda1": ("", "_nm"), "lambda2": ("", "_nm"), "q1": ("",), "q2": ("",), "tau": ("", "_ns"),
    "lambda1_err": ("", "_nm"), "q1_err": ("",), "tau_err": ("", "_ns"),
}
# the control kind that each control header other than a bare "control" names
_CONTROL_KINDS = {
    **dict.fromkeys(("control_nm", "detuning", "detuning_nm"), "detuning_nm"),
    **dict.fromkeys(("control_mw", "power", "power_mw"), "power_mw"),
}


@dataclass(frozen=True)
class AnticrossingData:
    """Measured coupled-mode table.

    ``control_kind`` is "detuning_nm" or "power_mw".  Every value must be
    finite and every uncertainty (``sigma_*``) positive.  ``q1``, ``q2`` and
    ``tau_ns`` have one entry per row; each ``sigma_*`` is a scalar, which
    applies to every row, or has one entry per row, and ``sigma_q`` and
    ``sigma_tau`` need the quantity they weight.  Rows are normalized on
    construction so that ``lambda1 <= lambda2`` (Q columns swapped alongside).
    """

    control: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    control_kind: str = "detuning_nm"
    q1: Optional[np.ndarray] = None
    q2: Optional[np.ndarray] = None
    tau_ns: Optional[np.ndarray] = None
    sigma_lambda: Optional[np.ndarray] = None
    sigma_q: Optional[np.ndarray] = None
    sigma_tau: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.control_kind not in ("detuning_nm", "power_mw"):
            raise InvalidInput(f"unknown control kind {self.control_kind!r}")
        columns = {name: np.array(values, dtype=float) for name, values in vars(self).items()
                   if name != "control_kind" and values is not None}
        n = columns["control"].size
        if n < 4:
            raise InvalidInput(f"need at least 4 rows, got {n}")
        for name, values in columns.items():
            finite = np.isfinite(values)
            if not finite.all():
                raise InvalidInput(f"{name}: non-finite value at index {np.argmin(finite)}")
            if name.startswith("sigma") and not (values > 0.0).all():
                raise InvalidInput(f"{name}: an uncertainty must be positive, got {values.min()}")
            if values.shape != (n,) and not (name.startswith("sigma") and values.ndim == 0):
                raise InvalidInput(f"{name}: expected one entry per row ({n}), "
                                   f"got shape {values.shape}")
        if ("q1" in columns) != ("q2" in columns):
            raise InvalidInput("q1 and q2 must both be present or both absent")
        for name, weighted in (("sigma_q", "q1"), ("sigma_tau", "tau_ns")):
            if name in columns and weighted not in columns:
                raise InvalidInput(f"{name}: the table has no {weighted} for it to weight")
        swap = columns["lambda1"] > columns["lambda2"]
        for a, b in (("lambda1", "lambda2"), ("q1", "q2")):
            if a in columns:
                columns[a][swap], columns[b][swap] = columns[b][swap], columns[a][swap].copy()
        for name, values in columns.items():
            object.__setattr__(self, name, values)

    @property
    def n_rows(self) -> int:
        return self.control.size

    def sigmas(self):
        """Per-column uncertainties, defaults filled in where absent."""
        s_lam = (
            np.full(self.n_rows, DEFAULT_SIGMA_LAMBDA_NM)
            if self.sigma_lambda is None
            else np.asarray(self.sigma_lambda, dtype=float)
        )
        s_q = None
        if self.q1 is not None:
            s_q = (
                DEFAULT_SIGMA_Q_FRAC * np.maximum(np.abs(self.q1), np.abs(self.q2))
                if self.sigma_q is None
                else np.asarray(self.sigma_q, dtype=float)
            )
        s_tau = None
        if self.tau_ns is not None:
            s_tau = (
                DEFAULT_SIGMA_TAU_FRAC * np.abs(self.tau_ns)
                if self.sigma_tau is None
                else np.asarray(self.sigma_tau, dtype=float)
            )
        return s_lam, s_q, s_tau


def _column_of(header: str) -> str:
    """The column that ``header`` names; a unit suffix must be one that column takes."""
    name = header.lower()
    stem = name[:-3] if name[-3:] in ("_nm", "_mw", "_ns") else name
    units = _COLUMN_UNITS.get(stem)
    if units is None:
        raise SchemaError(f"unknown column {stem!r} in header {header!r} "
                          f"(the uncertainty columns are lambda1_err, q1_err, tau_err)")
    if name[len(stem):] not in units:
        raise SchemaError(f"header {header!r}: the {stem} column takes "
                          + " or ".join(repr(stem + unit) for unit in units))
    return "control" if stem in ("detuning", "power") else stem


def read_anticrossing_csv(source, control_kind: Optional[str] = None) -> AnticrossingData:
    """Ingest the fixed CSV schema: control, lambda1, lambda2, q1, q2, tau (+ lambda1_err,
    q1_err, tau_err).

    A header may carry its column's unit: ``_nm`` on the control (or
    ``detuning``), ``lambda`` and ``lambda1_err`` columns, ``_ns`` on the
    ``tau`` columns.  A control header with a unit, or named ``detuning`` or
    ``power``, sets the control kind (:data:`_CONTROL_KINDS`), and a
    ``control_kind`` (the config's ``fit.control``) that differs from it is a
    :class:`SchemaError`; a bare ``control`` header takes ``control_kind``,
    by default ``"detuning_nm"``.  Any other header is a :class:`SchemaError`,
    and so is a value that is not finite or an uncertainty that is not positive.
    ``source`` is a path or a text stream, and every error names it.
    """
    header, line_numbers, cells = read_csv_table(source)
    try:
        columns = {}
        for idx, raw in enumerate(header):
            base = _column_of(raw)
            kind = _CONTROL_KINDS.get(raw.lower())
            if kind is not None:
                if control_kind not in (None, kind):
                    raise SchemaError(f"header {raw!r} names a {kind} control column, but "
                                      f"fit.control is {control_kind!r}")
                control_kind = kind
            if base in columns:
                raise SchemaError(f"duplicate column {base!r} (header column {idx + 1})")
            columns[base] = idx
        for required in ("control", "lambda1", "lambda2"):
            if required not in columns:
                raise SchemaError(f"missing required column {required!r} in header")
        for err, weighted in (("q1_err", ("q1", "q2")), ("tau_err", ("tau",))):
            if err in columns and not all(q in columns for q in weighted):
                raise SchemaError(f"column {err!r} needs the column(s) it weights: {weighted}")

        if len(cells) < 4:
            raise SchemaError(f"need at least 4 data rows, got {len(cells)}")

        def column(name, required=False):
            values = cells[:, columns[name]] if name in columns else np.full(len(cells), np.nan)
            missing = np.isnan(values)  # an empty cell: the parser rejects a nan one
            if missing.all():
                if required:
                    raise SchemaError(f"column {name!r} has no values")
                return None
            if missing.any():
                raise SchemaError(f"line {line_numbers[missing.argmax()]}: "
                                  f"missing value in column {name!r}")
            if name.endswith("_err") and not (values > 0.0).all():
                i = (values <= 0.0).argmax()
                raise SchemaError(f"line {line_numbers[i]}, column {header[columns[name]]!r}: "
                                  f"an uncertainty must be positive, got {values[i]}")
            return values

        return AnticrossingData(
            control=column("control", required=True),
            lambda1=column("lambda1", required=True),
            lambda2=column("lambda2", required=True),
            control_kind=control_kind or "detuning_nm",
            q1=column("q1"),
            q2=column("q2"),
            tau_ns=column("tau"),
            sigma_lambda=column("lambda1_err"),
            sigma_q=column("q1_err"),
            sigma_tau=column("tau_err"),
        )
    except CavtuneError as exc:  # the parser's own errors name the file already
        raise type(exc)(f"{source_name(source)}: {exc}") from None


PARAM_NAMES = ("eta", "kappa_t", "kappa_fp", "lambda_t", "cal_slope", "cal_offset", "g", "gamma_leaky")

DEFAULT_BOUNDS = {
    "eta": (1e9, 1e14),
    "kappa_t": (1e9, 1e14),
    "kappa_fp": (1e9, 1e14),
    "g": (1e7, 1e14),
    "gamma_leaky": (1e5, 1e14),
    "cal_slope": (0.0, 100.0),
    "cal_offset": (-50.0, 50.0),
}


# Levenberg-Marquardt (More, LNM 630, 1978) in the coordinates x / scale.  The
# Jacobian takes central differences of this step in those coordinates; a run
# stops on an accepted step that lowers the objective by less than _LM_FTOL of
# it, or on a scaled step below _LM_XTOL.
# The exceptional-point estimate replaces the free one only if it lowers the
# objective, a sum of squares in units of the uncertainties, by more than
# _EP_MIN_GAIN of it or of one unit: less is within those tolerances.
_LM_DIFF_STEP = 1e-6
_LM_FTOL = 1e-8
_LM_XTOL = 1e-10
_LM_DAMPING0 = 1e-3
_EP_MIN_GAIN = 1e-6


@dataclass(frozen=True)
class FitOptions:
    max_evals: int = 40000
    multistart: int = 0
    seed: int = 0  # seeds numpy's RandomState, which takes [0, 2**32)

    def __post_init__(self):
        require(self, "max_evals", self.max_evals >= 1, ">= 1")
        require(self, "multistart", self.multistart >= 0, ">= 0")
        if not 0 <= self.seed < 2**32:
            raise InvalidInput(f"seed must lie in [0, 2**32), got {self.seed}", "seed")


@dataclass(frozen=True)
class FitResult:
    """Fit outcome; ``weighted_residuals`` are taken at the estimates under the fit's bounds."""

    estimates: dict
    std_errors: dict
    residual_norm: float
    converged: bool
    n_evals: int
    near_degenerate: bool
    on_exceptional_point: bool
    weighted_residuals: np.ndarray = field(repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "estimates": dict(self.estimates),
            "std_errors": dict(self.std_errors),
            "residual_norm": self.residual_norm,
            "converged": self.converged,
            "n_evals": self.n_evals,
            "near_degenerate": self.near_degenerate,
            "on_exceptional_point": self.on_exceptional_point,
        }


def _active_params(data: AnticrossingData) -> tuple:
    names = ["eta", "kappa_t", "kappa_fp", "lambda_t"]
    if data.control_kind == "power_mw":
        names += ["cal_slope", "cal_offset"]
    if data.tau_ns is not None:
        names += ["g", "gamma_leaky"]
    return tuple(names)


def _bounds_for(names, data: AnticrossingData, overrides=None):
    lam_all = np.concatenate([data.lambda1, data.lambda2])
    bounds = dict(DEFAULT_BOUNDS)
    bounds["lambda_t"] = (lam_all.min() - 2.0, lam_all.max() + 2.0)
    if overrides:
        bounds.update(overrides)
    return {n: bounds[n] for n in names}


class _CompiledModel:
    """The fit model of one table, compiled once per :func:`fit`.

    The coupled-mode kernel :func:`cavtune.modespace.pair_modes` over all
    rows at once, as each residual evaluation of the fit needs it: no per-row
    objects, no per-call dicts, and the measured values and their sigmas
    stacked once into matrices.  ``theta`` vectors are ordered as ``names``.
    The evaluation counts and estimates of two seeded fits are pinned bit for
    bit: reordering the floating-point operations here moves the fit's path.
    """

    def __init__(self, data: AnticrossingData, names, bounds):
        at = {name: i for i, name in enumerate(names)}
        self.names = tuple(names)
        self.lo = np.array([bounds[n][0] for n in self.names], dtype=float)
        self.hi = np.array([bounds[n][1] for n in self.names], dtype=float)
        self.i_core = [at[n] for n in ("eta", "kappa_t", "kappa_fp", "lambda_t")]
        self.i_cal = (at["cal_slope"], at["cal_offset"]) if data.control_kind == "power_mw" else None
        self.i_tau = (at["g"], at["gamma_leaky"]) if data.tau_ns is not None else None
        self.control = data.control

        # predictions are one matrix row per quantity (lambda1, lambda2, q1, q2[, tau])
        # and one column per table row
        n_quantities = 5 if self.i_tau else 4
        self.shape = (n_quantities, data.n_rows)

        s_lam, s_q, s_tau = data.sigmas()
        measured, sigma, compared = [data.lambda1, data.lambda2], [s_lam, s_lam], [0, 1]
        if data.q1 is not None:
            measured += [data.q1, data.q2]
            sigma += [s_q, s_q]
            compared += [2, 3]
        if data.tau_ns is not None:
            measured.append(data.tau_ns)
            sigma.append(s_tau)
            compared.append(4)
        self.measured = np.array(measured)
        self.sigma = np.array([np.broadcast_to(s, (data.n_rows,)) for s in sigma], dtype=float)
        self.compared = slice(None) if len(compared) == n_quantities else compared
        self.n_res = self.measured.size

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Predictions for the parameter vector ``x``; InvalidInput when unphysical."""
        eta, kappa_t, kappa_fp, lam_t = x[self.i_core]
        omega_t = wl_to_omega(lam_t)
        if self.i_cal is None:
            lam_fp = lam_t + self.control
        else:
            lam_fp = lam_t + (x[self.i_cal[0]] * self.control + x[self.i_cal[1]])
        if (lam_fp <= 0.0).any():
            raise InvalidInput("detuned FP wavelength is non-positive")
        wt = omega_t - 1j * kappa_t
        wf = TWO_PI_C_NM / lam_fp - 1j * kappa_fp
        mu_a, mu_b, w_a = pair_modes(wt, wf, eta)
        # Re mu_a >= Re mu_b: the rows come out in ascending wavelength order
        if (mu_b.real <= 0.0).any():
            raise InvalidInput("coupled-mode frequency is non-positive")

        pred = np.empty(self.shape)
        np.divide(TWO_PI_C_NM, mu_a.real, out=pred[0])
        np.divide(TWO_PI_C_NM, mu_b.real, out=pred[1])
        np.divide(mu_a.real, -2.0 * mu_a.imag, out=pred[2])
        np.divide(mu_b.real, -2.0 * mu_b.imag, out=pred[3])
        if self.i_tau:
            g, gamma_leaky = x[self.i_tau[0]], x[self.i_tau[1]]
            np.divide(1e9, decay_rate(g, gamma_leaky, w_a, -mu_a.imag, -mu_b.imag), out=pred[4])
        return pred

    def residuals(self, theta_vec) -> np.ndarray:
        """Weighted residual vector; out-of-bounds parameters give large finite penalties."""
        x = np.asarray(theta_vec, dtype=float)
        # the exact violation sum, in parameter order, runs only off the common path
        if not (((self.lo <= x) & (x <= self.hi)).all() and np.isfinite(x).all()):
            violation = 0.0
            for v, lo, hi in zip(x, self.lo, self.hi):
                span = max(hi - lo, 1e-300)
                if v < lo:
                    violation += (lo - v) / span
                elif v > hi:
                    violation += (v - hi) / span
            if violation > 0.0 or not np.isfinite(x).all():
                return np.full(self.n_res, _PENALTY * (1.0 + violation))
        try:
            model = self.predict(x)
        except (InvalidInput, ValueError):
            return np.full(self.n_res, _PENALTY)
        res = ((model[self.compared] - self.measured) / self.sigma).ravel()
        if not np.isfinite(res).all():
            return np.full(self.n_res, _PENALTY)
        return res


@dataclass(frozen=True)
class _Descent:
    """Where one Levenberg-Marquardt run stopped: its point, residuals and objective."""

    x: np.ndarray
    r: np.ndarray
    f: float
    n_evals: int
    converged: bool


def _jacobian(residuals, x, scale):
    """Central-difference Jacobian in the coordinates ``x / scale``: column ``j``
    is ``dr/dx_j * scale_j``."""
    h = _LM_DIFF_STEP * scale
    columns = []
    for j in range(x.size):
        xp, xm = x.copy(), x.copy()
        xp[j] += h[j]
        xm[j] -= h[j]
        columns.append((residuals(xp) - residuals(xm)) / (2.0 * _LM_DIFF_STEP))
    return np.column_stack(columns)


def _levenberg_marquardt(residuals, x0, scale, max_evals) -> _Descent:
    """Minimize ``|residuals(x)|**2`` from ``x0`` in at most ``max_evals`` evaluations.

    Each step solves ``(J^T J + damping * D) dz = -J^T r`` in the scaled
    coordinates ``z = x / scale``, as a least-squares problem, with ``D`` the
    running maximum of ``diag(J^T J)``.  A step is accepted only if it lowers
    the objective; the damping then follows the gain ratio (Nielsen's
    update), and grows on each rejected step.  The Jacobian is taken at the
    start and after each accepted step but the last.  Every stop but the
    budget counts as converged.
    """
    n = x0.size
    x, r = x0.copy(), residuals(x0)
    f, n_evals = float(r @ r), 1
    damping, growth, diag = _LM_DAMPING0, 2.0, np.zeros(n)
    while n_evals + 2 * n <= max_evals:
        jac = _jacobian(residuals, x, scale)
        n_evals += 2 * n
        diag = np.maximum(diag, np.einsum("ij,ij->j", jac, jac))
        while True:
            if n_evals >= max_evals:
                return _Descent(x, r, f, n_evals, False)
            damped = np.vstack([jac, np.diag(np.sqrt(damping * diag))])
            dz = np.linalg.lstsq(damped, np.concatenate([-r, np.zeros(n)]), rcond=None)[0]
            x_new = x + dz * scale
            r_new = residuals(x_new)
            f_new = float(r_new @ r_new)
            n_evals += 1
            small_step = np.linalg.norm(dz) <= _LM_XTOL * (np.linalg.norm(x / scale) + _LM_XTOL)
            if f_new < f:
                predicted = f - float(np.sum((r + jac @ dz) ** 2))
                gain = (f - f_new) / predicted if predicted > 0.0 else 0.0
                damping *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
                growth = 2.0
                done = small_step or f - f_new <= _LM_FTOL * f
                x, r, f = x_new, r_new, f_new
                if done:
                    return _Descent(x, r, f, n_evals, True)
                break
            if small_step:
                return _Descent(x, r, f, n_evals, True)
            damping *= growth
            growth *= 2.0
    return _Descent(x, r, f, n_evals, False)


def _starts(names, x0, bounds, options: FitOptions) -> list:
    """``x0`` and the seeded extra starts: log-uniform within half a decade for a
    rate bounded over more than two decades, uniform within a quarter of the
    bounds otherwise, clipped to the bounds."""
    starts = [x0]
    rng = np.random.RandomState(options.seed)
    for _ in range(options.multistart):
        draw = []
        for n, v in zip(names, x0):
            lo, hi = bounds[n]
            if lo > 0 and hi / max(lo, 1e-300) > 100.0:
                span = np.log10(max(v, lo * 10, 1e-300))
                val = 10.0 ** rng.uniform(span - 0.5, span + 0.5)
            else:
                width = 0.25 * (hi - lo) if hi > lo else 1.0
                val = v + rng.uniform(-width, width)
            draw.append(np.clip(val, lo, hi))
        starts.append(np.array(draw))
    return starts


def _std_errors(jac, r, scale, names) -> dict:
    """Gauss-Newton standard errors from the Jacobian ``jac`` in the coordinates
    ``x / scale``, where the parameters' many decades (rates near 1e11 rad/s
    next to wavelengths near 1e3 nm) no longer make the normal matrix singular
    to working precision."""
    dof = max(jac.shape[0] - jac.shape[1], 1)
    try:
        cov = np.linalg.pinv(jac.T @ jac) * (float(r @ r) / dof)
        errs = scale * np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        errs = np.full(len(names), np.nan)
    return dict(zip(names, (float(e) for e in errs)))


def fit(
    data: AnticrossingData,
    init: dict,
    bounds: Optional[dict] = None,
    options: Optional[FitOptions] = None,
) -> FitResult:
    """Weighted least-squares fit of the coupled-mode model to ``data``.

    ``init`` must provide every active parameter (which parameters are active
    follows from the data columns).  Multi-start, when enabled, draws extra
    seeded initializations within the bounds; a Levenberg-Marquardt run
    descends from each, and the winner is the lowest objective, the earlier
    start on a tie.  A run on the exceptional-point surface, with ``eta``
    tied to ``|kappa_fp - kappa_t|/2``, starts from the winner, and a free
    run from just above that surface follows; the lower of the two supplies
    the estimate (``on_exceptional_point``) if it lowers the winner's
    objective by more than ``_EP_MIN_GAIN``.  ``max_evals`` bounds each run.
    The standard errors come from the Jacobian at the estimate, scaled as a
    run from there would scale it.
    """
    options = options or FitOptions()
    names = _active_params(data)
    missing = [n for n in names if n not in init]
    if missing:
        raise InvalidInput(f"init lacks required parameter(s): {missing}")
    all_bounds = _bounds_for(names, data, bounds)
    x0 = np.array([float(init[n]) for n in names])
    for n, v in zip(names, x0):
        lo, hi = all_bounds[n]
        if not lo <= v <= hi:
            raise InvalidInput(f"init[{n!r}]={v} outside bounds [{lo}, {hi}]")

    model = _CompiledModel(data, names, all_bounds)
    floor = 1e-3 * (model.hi - model.lo)

    def descend(x, residuals=model.residuals, lower=floor):
        scale = np.maximum(np.abs(x), lower)
        return _levenberg_marquardt(residuals, x, scale, options.max_evals)

    runs = [descend(start) for start in _starts(names, x0, all_bounds, options)]
    best = min(runs, key=lambda run: run.f)

    # eta is names[0]; on the surface it is half the loss-rate difference
    i_t, i_fp = names.index("kappa_t") - 1, names.index("kappa_fp") - 1

    def on_surface(y):
        return np.concatenate([[0.5 * abs(y[i_fp] - y[i_t])], y])

    on_ep = descend(best.x[1:], lambda y: model.residuals(on_surface(y)), floor[1:])
    on_ep = replace(on_ep, x=on_surface(on_ep.x))
    # the zero-detuning row's measured wavelengths are sorted, so their
    # splitting can only grow off the surface into eta > |kappa_fp - kappa_t|/2:
    # descend from just there, with the difference stencil clear of the crease
    x_off = on_ep.x.copy()
    x_off[0] *= 1.0 + _LM_DIFF_STEP
    off_ep = descend(x_off)
    ep = min(on_ep, off_ep, key=lambda run: run.f)
    on_exceptional_point = ep.f < best.f - _EP_MIN_GAIN * max(best.f, 1.0)
    final = ep if on_exceptional_point else best

    scale = np.maximum(np.abs(final.x), floor)
    jac = _jacobian(model.residuals, final.x, scale)
    n_evals = sum(run.n_evals for run in runs) + on_ep.n_evals + off_ep.n_evals + 2 * len(names)
    estimates = dict(zip(names, (float(v) for v in final.x)))

    eta_resolution = abs(
        float(detuning_wl_to_omega(float(np.mean(data.sigmas()[0])), estimates["lambda_t"]))
    ) / 2.0
    near_degenerate = estimates["eta"] < eta_resolution

    return FitResult(
        estimates=estimates,
        std_errors=_std_errors(jac, final.r, scale, names),
        residual_norm=float(np.sqrt(final.f)),
        converged=final.converged,
        n_evals=n_evals,
        near_degenerate=near_degenerate,
        on_exceptional_point=on_exceptional_point,
        weighted_residuals=final.r,
    )
