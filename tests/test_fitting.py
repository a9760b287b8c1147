import io
from dataclasses import replace

import numpy as np
import pytest

from cavtune import (
    AnticrossingData,
    FitOptions,
    InvalidInput,
    SchemaError,
    fit,
    read_anticrossing_csv,
)
from cavtune import fitting
from cavtune.fitting import _active_params
from conftest import model_predictions, residuals, simplex_fit, synthetic_data

ETA_TRUE = 1.564e11
KT_TRUE = 1.564e11
KFP_TRUE = 4.692e11
LAM_TRUE = 1552.0

GRID = np.linspace(-1.2, 1.2, 25)

INIT = {
    "eta": 1.3e11,
    "kappa_t": 1.2e11,
    "kappa_fp": 5.5e11,
    "lambda_t": 1552.1,
    "cal_slope": 0.12,
    "cal_offset": -0.05,
    "g": 1.2e10,
    "gamma_leaky": 4e8,
}


def noiseless_data(**kw):
    return synthetic_data(ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE, GRID, **kw)


class TestDataIngest:
    def test_rows_sorted_by_wavelength(self):
        data = AnticrossingData(
            control=np.array([-1.0, 0.0, 1.0, 2.0]),
            lambda1=np.array([1553.0, 1551.0, 1553.5, 1550.0]),
            lambda2=np.array([1551.0, 1552.0, 1551.5, 1555.0]),
            q1=np.array([1.0, 2.0, 3.0, 4.0]),
            q2=np.array([10.0, 20.0, 30.0, 40.0]),
        )
        assert np.all(data.lambda1 <= data.lambda2)
        # q columns swapped alongside rows 0 and 2
        assert data.q1[0] == 10.0 and data.q2[0] == 1.0
        assert data.q1[1] == 2.0 and data.q2[1] == 20.0

    def test_minimum_rows(self):
        with pytest.raises(InvalidInput):
            AnticrossingData(
                control=np.array([0.0, 1.0, 2.0]),
                lambda1=np.full(3, 1551.0),
                lambda2=np.full(3, 1553.0),
            )

    def test_csv_roundtrip_with_unit_suffixes(self):
        text = "control_nm,lambda1_nm,lambda2_nm,q1,q2\n" + "\n".join(
            f"{c},{1551.0 + 0.1 * i},{1553.0 - 0.05 * i},1000,2000"
            for i, c in enumerate(np.linspace(-1, 1, 6))
        )
        data = read_anticrossing_csv(io.StringIO(text))
        assert data.n_rows == 6
        assert data.control_kind == "detuning_nm"
        assert data.q1 is not None

    def test_csv_power_control(self):
        text = "control_mw,lambda1,lambda2\n" + "\n".join(
            f"{p},{1551.0},{1553.0}" for p in range(5)
        )
        data = read_anticrossing_csv(io.StringIO(text))
        assert data.control_kind == "power_mw"

    @pytest.mark.parametrize("header, kind, other", [
        (header, kind, other)
        for kind, other, headers in (
            ("detuning_nm", "power_mw", ("control_nm", "detuning", "detuning_nm")),
            ("power_mw", "detuning_nm", ("control_mw", "power", "power_mw")),
        )
        for header in headers
    ])
    def test_control_header_and_fit_control_must_agree(self, header, kind, other):
        # fit.control must not refit a power column as a detuning, or the reverse
        text = f"{header},lambda1,lambda2\n" + "\n".join(f"{c},1551,1553" for c in range(5))
        for control_kind in (None, kind):
            data = read_anticrossing_csv(io.StringIO(text), control_kind=control_kind)
            assert data.control_kind == kind
        message = f"header '{header}' names a {kind} control column, but fit.control is '{other}'"
        with pytest.raises(SchemaError, match=message):
            read_anticrossing_csv(io.StringIO(text), control_kind=other)

    @pytest.mark.parametrize("control_kind", [None, "detuning_nm", "power_mw"])
    def test_bare_control_header_takes_fit_control(self, control_kind):
        text = "control,lambda1,lambda2\n" + "\n".join(f"{c},1551,1553" for c in range(5))
        data = read_anticrossing_csv(io.StringIO(text), control_kind=control_kind)
        assert data.control_kind == (control_kind or "detuning_nm")

    def test_csv_schema_errors_carry_location(self):
        with pytest.raises(SchemaError, match="lambda2"):
            read_anticrossing_csv(io.StringIO("control,lambda1\n1,2\n"))
        with pytest.raises(SchemaError, match="line 3"):
            read_anticrossing_csv(
                io.StringIO(
                    "control,lambda1,lambda2\n1,1551,1553\n2,x,1553\n3,1551,1553\n4,1551,1553\n5,1551,1553\n"
                )
            )
        with pytest.raises(SchemaError, match="unknown column"):
            read_anticrossing_csv(io.StringIO("control,lambda1,lambda2,frequency\n"))
        with pytest.raises(SchemaError, match="4 data rows"):
            read_anticrossing_csv(
                io.StringIO("control,lambda1,lambda2\n1,1551,1553\n2,1551,1553\n3,1551,1553\n")
            )

    @pytest.mark.parametrize(
        "column", ["control_err", "detuning_err", "lambda2_err", "lambda2_err_nm", "q2_err"]
    )
    def test_unread_error_columns_rejected(self, column):
        # lambda1_err and q1_err weight both branches: an error column the fit
        # would drop must not pass the header check
        rows = "\n".join(f"{c},1551,1553,1e-4" for c in range(5))
        header = f"control,lambda1,lambda2,{column}\n"
        with pytest.raises(SchemaError, match=f"unknown column.*'{column.removesuffix('_nm')}'"):
            read_anticrossing_csv(io.StringIO(header + rows))

    @pytest.mark.parametrize("header", [
        "lambda1,lambda2,power_nm", "lambda1,lambda2,control_ns", "lambda1,lambda2,detuning_mw",
        "control,lambda2,lambda1_ns", "control,lambda1,lambda2_mw", "control,lambda1,lambda2,q2,q1_nm",
        "control,lambda1,lambda2,tau_nm", "control,lambda1,lambda2,lambda1_err_ns",
        "control,lambda1,lambda2,tau,tau_err_mw",
    ])
    def test_wrong_unit_headers_rejected(self, header):
        # a unit suffix must be its column's unit: a tau_nm column holds no decay times in ns
        rows = "\n".join(",".join(["1551"] * (header.count(",") + 1)) for _ in range(5))
        with pytest.raises(SchemaError, match=f"header '{header.rsplit(',', 1)[1]}'"):
            read_anticrossing_csv(io.StringIO(header + "\n" + rows))

    def test_read_error_columns_accepted(self):
        rows = "\n".join(f"{c},1551,1553,1000,2000,1,0.01,50,0.1" for c in range(5))
        header = "control,lambda1,lambda2,q1,q2,tau,lambda1_err,q1_err,tau_err\n"
        data = read_anticrossing_csv(io.StringIO(header + rows))
        assert np.all(data.sigma_lambda == 0.01) and np.all(data.sigma_q == 50)
        assert np.all(data.sigma_tau == 0.1)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("column", [1, 4, 6])
    def test_non_finite_cells_rejected(self, cell, column):
        # a nan or inf cell would reach the fit as a penalty on every residual
        header = "control,lambda1,lambda2,q1,q2,tau,lambda1_err\n"
        rows = [["0", "1551", "1553", "1000", "2000", "1", "0.01"] for _ in range(5)]
        rows[2][column] = cell
        text = header + "\n".join(",".join(row) for row in rows)
        name = header.split(",")[column].strip()
        with pytest.raises(SchemaError, match=f"line 4, column '{name}': not a finite number"):
            read_anticrossing_csv(io.StringIO(text))

    @pytest.mark.parametrize("column", ["lambda1_err_nm", "q1_err", "tau_err"])
    @pytest.mark.parametrize("cell", ["0", "-0.01"])
    def test_non_positive_uncertainties_rejected(self, column, cell):
        # a zero sigma divides every residual of its column by zero
        rows = "\n".join(f"{c},1551,1553,1000,2000,1,{cell if c == 1 else '0.5'}" for c in range(5))
        header = f"control,lambda1,lambda2,q1,q2,tau,{column}\n"
        with pytest.raises(SchemaError, match=f"line 3, column '{column}': an uncertainty must be "
                                              f"positive, got {float(cell)}"):
            read_anticrossing_csv(io.StringIO(header + rows))

    @pytest.mark.parametrize("field", ["control", "lambda1", "q2", "tau_ns", "sigma_lambda"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_api_non_finite_values_rejected(self, field, value):
        columns = dict(
            control=np.arange(4.0), lambda1=np.full(4, 1551.0), lambda2=np.full(4, 1553.0),
            q1=np.full(4, 1e3), q2=np.full(4, 2e3), tau_ns=np.ones(4), sigma_lambda=np.full(4, 0.01),
        )
        columns[field][2] = value
        with pytest.raises(InvalidInput, match=f"{field}: non-finite value at index 2"):
            AnticrossingData(**columns)

    @pytest.mark.parametrize("field", ["sigma_lambda", "sigma_q", "sigma_tau"])
    @pytest.mark.parametrize("value", [0.0, -1.0])
    def test_api_non_positive_uncertainties_rejected(self, field, value):
        with pytest.raises(InvalidInput, match=f"{field}: an uncertainty must be positive"):
            AnticrossingData(
                control=np.arange(4.0), lambda1=np.full(4, 1551.0), lambda2=np.full(4, 1553.0),
                q1=np.full(4, 1e3), q2=np.full(4, 2e3), tau_ns=np.ones(4), **{field: value},
            )

    @pytest.mark.parametrize("fields", [
        ("q1", "q2"), ("tau_ns",), ("sigma_lambda",), ("sigma_q",), ("sigma_tau",),
    ], ids=lambda fields: fields[0])
    def test_api_column_of_another_length_rejected(self, fields):
        # 3 entries in a 5-row table: the row swap would raise numpy's
        # IndexError, or the table would construct and the fit fail on it
        columns = dict(
            control=np.arange(5.0), lambda1=np.full(5, 1551.0), lambda2=np.full(5, 1553.0),
            q1=np.full(5, 1e3), q2=np.full(5, 2e3), tau_ns=np.ones(5),
        )
        columns.update({field: np.full(3, 0.5) for field in fields})
        with pytest.raises(InvalidInput, match=rf"{fields[0]}: expected one entry per row \(5\)"):
            AnticrossingData(**columns)

    def test_api_scalar_uncertainty_applies_to_every_row(self):
        data = noiseless_data(g=1e10, gamma_leaky=5e8)
        theta = np.array([1.1 * ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE, 1e10, 5e8])
        full = replace(data, sigma_lambda=np.full(data.n_rows, 0.02),
                       sigma_q=np.full(data.n_rows, 30.0), sigma_tau=np.full(data.n_rows, 0.05))
        scalar = replace(data, sigma_lambda=0.02, sigma_q=30.0, sigma_tau=0.05)
        assert np.array_equal(residuals(theta, scalar), residuals(theta, full))

    @pytest.mark.parametrize(
        "field, absent", [("sigma_q", ("q1", "q2")), ("sigma_tau", ("tau_ns",))], ids=["q", "tau"]
    )
    def test_api_uncertainty_without_its_quantity_rejected(self, field, absent):
        columns = dict(
            control=np.arange(5.0), lambda1=np.full(5, 1551.0), lambda2=np.full(5, 1553.0),
            q1=np.full(5, 1e3), q2=np.full(5, 2e3), tau_ns=np.ones(5), **{field: np.full(5, 0.5)},
        )
        for name in absent:
            del columns[name]
        with pytest.raises(InvalidInput, match=f"{field}: the table has no {absent[0]}"):
            AnticrossingData(**columns)

    @pytest.mark.parametrize("header, column", [
        ("control,lambda1,lambda2,q1_err,tau_err", "q1_err"),
        ("control,lambda1,lambda2,q2,q1_err", "q1_err"),
        ("control,lambda1,lambda2,q1,q2,tau_err", "tau_err"),
    ])
    def test_error_column_without_its_quantity_rejected(self, header, column):
        # sigmas() would drop the column without a word
        rows = "\n".join(",".join(["1551"] * (header.count(",") + 1)) for _ in range(5))
        with pytest.raises(SchemaError, match=f"column '{column}' needs the column"):
            read_anticrossing_csv(io.StringIO(header + "\n" + rows))


class TestModelAgainstEig:
    def test_predictions_match_numpy_eig(self):
        theta = dict(
            eta=ETA_TRUE, kappa_t=KT_TRUE, kappa_fp=KFP_TRUE, lambda_t=LAM_TRUE,
            g=1e10, gamma_leaky=5e8,
        )
        data = noiseless_data(g=1e10, gamma_leaky=5e8)
        lam1, lam2, q1, q2, tau = model_predictions(theta, data)

        omega = 2 * np.pi * 2.99792458e17 / (LAM_TRUE + data.control)
        omega_t = 2 * np.pi * 2.99792458e17 / LAM_TRUE
        for i, omega_fp in enumerate(omega):
            mat = np.array(
                [[omega_t - 1j * KT_TRUE, ETA_TRUE], [ETA_TRUE, omega_fp - 1j * KFP_TRUE]]
            )
            evals, evecs = np.linalg.eig(mat)
            if abs(evals[0] - evals[1]) < 1e-8 * abs(evals[0]):
                # the exceptional point: LAPACK splits the defective pair by about
                # sqrt(machine epsilon), while their mean (trace / 2) stays exact
                evals[:] = evals.mean()
            order = np.argsort(-evals.real)  # ascending wavelength
            evals, weights = evals[order], np.abs(evecs[0, order]) ** 2
            lam = 2 * np.pi * 2.99792458e17 / evals.real
            q = evals.real / (-2 * evals.imag)
            rate = 5e8 + 2 * 1e10**2 * np.sum(weights / -evals.imag)
            assert lam1[i] == pytest.approx(lam[0], rel=1e-12)
            assert lam2[i] == pytest.approx(lam[1], rel=1e-12)
            assert q1[i] == pytest.approx(q[0], rel=1e-10)
            assert q2[i] == pytest.approx(q[1], rel=1e-10)
            assert tau[i] == pytest.approx(1e9 / rate, rel=1e-10)


class TestCompiledObjective:
    """The fit objective is compiled once per fit; its values pin the fit's path."""

    # Levenberg-Marquardt fits of the noisy table below: n_evals, residual norm
    # and estimates must stay bit-identical
    GOLDEN = {
        "detuning_nm": (
            2185,
            2.1103143301672724,
            {
                "eta": 155983312026.57608,
                "kappa_t": 156756592796.8972,
                "kappa_fp": 468636259459.299,
                "lambda_t": 1551.9990661141187,
                "g": 10300895805.055157,
                "gamma_leaky": 437724193.1086049,
            },
        ),
        "power_mw": (
            1706,
            2.10977967740832,
            {
                "eta": 156118433990.17294,
                "kappa_t": 156695831661.6628,
                "kappa_fp": 468841532352.38116,
                "lambda_t": 1551.9990474326025,
                "cal_slope": 0.09994181031137135,
                "cal_offset": -0.2997881007258304,
                "g": 10297179892.87007,
                "gamma_leaky": 438561092.5543675,
            },
        ),
    }

    @staticmethod
    def noisy(control_kind):
        """Seeded noise on every column: 0.01 nm on the wavelengths, 2% on Q and tau."""
        clean = noiseless_data(
            g=1e10, gamma_leaky=5e8, control_kind=control_kind, cal_slope=0.1,
            cal_offset=-0.3, noise_sigma_nm=0.01, seed=7,
        )
        scale = 1.0 + 0.02 * np.random.RandomState(8).normal(size=(3, clean.n_rows))
        return AnticrossingData(
            control=clean.control, lambda1=clean.lambda1, lambda2=clean.lambda2,
            control_kind=control_kind, q1=clean.q1 * scale[0], q2=clean.q2 * scale[1],
            tau_ns=clean.tau_ns * scale[2],
        )

    @pytest.mark.parametrize("control_kind", ["detuning_nm", "power_mw"])
    def test_golden_fit_path(self, control_kind):
        result = fit(self.noisy(control_kind), INIT, options=FitOptions(multistart=1, seed=4))
        n_evals, norm, estimates = self.GOLDEN[control_kind]
        assert result.converged
        assert result.n_evals == n_evals
        assert result.residual_norm == norm
        assert result.estimates == estimates
        assert float(np.sqrt(result.weighted_residuals @ result.weighted_residuals)) == (
            pytest.approx(norm, rel=1e-12)
        )

    def theta(self, data, **changes):
        values = {**INIT, "lambda_t": LAM_TRUE, "cal_slope": 0.1, "cal_offset": -0.3, **changes}
        return np.array([values[n] for n in _active_params(data)])

    def penalty_of(self, data, bounds=None, **changes):
        return residuals(self.theta(data, **changes), data, bounds)

    def test_penalty_out_of_bounds_grows_with_violation(self):
        data = self.noisy("detuning_nm")
        near = self.penalty_of(data, eta=-1.0)
        far = self.penalty_of(data, eta=-1e14)
        assert near.size == 5 * data.n_rows
        assert np.all(near == near[0]) and near[0] > 1e8
        assert np.all(far == far[0]) and far[0] > near[0]

    def test_penalty_nan_parameter(self):
        data = self.noisy("detuning_nm")
        r = self.penalty_of(data, kappa_t=np.nan)
        assert np.array_equal(r, np.full(5 * data.n_rows, 1e8))

    def test_penalty_fp_wavelength_not_positive(self):
        data = self.noisy("power_mw")
        # the calibration maps every row to a negative FP wavelength
        r = self.penalty_of(data, {"cal_offset": (-1e6, 50.0)}, cal_offset=-2000.0)
        assert np.array_equal(r, np.full(5 * data.n_rows, 1e8))
        theta = dict(zip(_active_params(data), self.theta(data, cal_offset=-2000.0)))
        with pytest.raises(InvalidInput, match="FP wavelength"):
            model_predictions(theta, data)

    def test_penalty_mode_frequency_not_positive(self):
        data = self.noisy("detuning_nm")
        # a coupling far above the optical frequency pushes the lower branch below zero
        r = self.penalty_of(data, {"eta": (1e9, 1e18)}, eta=1e17)
        assert np.array_equal(r, np.full(5 * data.n_rows, 1e8))
        theta = dict(zip(_active_params(data), self.theta(data, eta=1e17)))
        with pytest.raises(InvalidInput, match="mode frequency"):
            model_predictions(theta, data)

    def test_penalty_non_finite_residual(self):
        data = self.noisy("detuning_nm")
        # lossless modes have an infinite Q
        lossless = {"kappa_t": (0.0, 1e14), "kappa_fp": (0.0, 1e14)}
        with np.errstate(divide="ignore", invalid="ignore"):
            r = self.penalty_of(data, lossless, kappa_t=0.0, kappa_fp=0.0)
        assert np.array_equal(r, np.full(5 * data.n_rows, 1e8))


class TestResiduals:
    def test_exact_parameters_give_zero(self):
        data = noiseless_data()
        theta = np.array([ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE])
        r = residuals(theta, data)
        assert np.max(np.abs(r)) < 1e-9
        assert r.size == 4 * data.n_rows  # wavelengths + Q columns

    def test_perturbation_increases_norm(self):
        data = noiseless_data()
        base = residuals(np.array([ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE]), data)
        bumped = residuals(np.array([1.1 * ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE]), data)
        assert np.linalg.norm(bumped) > np.linalg.norm(base) + 1.0

    def test_optional_columns_change_length(self):
        no_q = noiseless_data(with_q=False)
        assert residuals(np.array([ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE]), no_q).size == (
            2 * no_q.n_rows
        )

    def test_out_of_bounds_penalty_finite(self):
        data = noiseless_data()
        r = residuals(np.array([-1.0, KT_TRUE, KFP_TRUE, LAM_TRUE]), data)
        assert np.all(np.isfinite(r))
        assert np.all(r >= 1e8)

    def test_row_permutation_stability(self):
        data = noiseless_data()
        perm = np.arange(data.n_rows)[::-1]
        shuffled = AnticrossingData(
            control=data.control[perm],
            lambda1=data.lambda1[perm],
            lambda2=data.lambda2[perm],
            q1=data.q1[perm],
            q2=data.q2[perm],
        )
        theta = np.array([1.05 * ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE])
        r1 = residuals(theta, data).reshape(4, -1)
        r2 = residuals(theta, shuffled).reshape(4, -1)
        assert np.allclose(r1[:, perm], r2)


class TestFit:
    def test_noiseless_recovery(self):
        data = noiseless_data()
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        result = fit(data, init)
        assert result.converged
        assert result.estimates["eta"] == pytest.approx(ETA_TRUE, rel=1e-3)
        assert result.estimates["kappa_t"] == pytest.approx(KT_TRUE, rel=1e-3)
        assert result.estimates["kappa_fp"] == pytest.approx(KFP_TRUE, rel=1e-3)
        assert result.estimates["lambda_t"] == pytest.approx(LAM_TRUE, rel=1e-6)
        assert result.residual_norm < 1e-6

    def test_reproducibility_bit_identical(self):
        data = noiseless_data(noise_sigma_nm=0.01, seed=3)
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        r1 = fit(data, init, options=FitOptions(multistart=3, seed=11))
        r2 = fit(data, init, options=FitOptions(multistart=3, seed=11))
        assert r1.estimates == r2.estimates
        assert r1.residual_norm == r2.residual_norm
        assert r1.n_evals == r2.n_evals

    def test_standard_errors_from_scaled_normal_matrix(self):
        data = noiseless_data(noise_sigma_nm=0.01, seed=7, g=1e10, gamma_leaky=5e8)
        names = _active_params(data)
        result = fit(data, {n: INIT[n] for n in names})
        x = np.array([result.estimates[n] for n in names])
        r0 = residuals(x, data)

        def central(rel):
            # columns scaled by |x_j|: central differences in relative steps
            return np.column_stack([
                (residuals(x + step, data) - residuals(x - step, data)) / (2 * rel)
                for step in np.diag(rel * np.abs(x))
            ])

        def reference_errors(rel):
            # independent Gauss-Newton covariance from a Richardson-extrapolated
            # Jacobian (steps rel and rel/2); rel stays well below this fit's
            # distance to the exceptional-point crease (about 3e-4 in eta)
            jac = (4 * central(rel / 2) - central(rel)) / 3
            cov = np.linalg.inv(jac.T @ jac) * (r0 @ r0) / (r0.size - x.size)
            return np.abs(x) * np.sqrt(np.diag(cov))

        expected = reference_errors(1e-5)
        # the reference's own error, read off a second base step
        reference_error = np.max(np.abs(reference_errors(5e-6) / expected - 1))
        assert reference_error < 1e-6
        # the fit takes plain central differences, of a lower order than the
        # reference: a factor of 100 allows for their error, while a fault of
        # the covariance itself (variance factor, scaling) moves errors by O(1)
        errors = np.array([result.std_errors[n] for n in names])
        np.testing.assert_allclose(errors, expected, rtol=100 * reference_error)
        eta = result.estimates["eta"]
        assert 1e-3 * eta < result.std_errors["eta"] < 0.1 * eta

    def test_crossing_flagged_near_degenerate(self):
        data = synthetic_data(0.0, KT_TRUE, KFP_TRUE, LAM_TRUE, GRID)
        init = dict(eta=2e10, kappa_t=KT_TRUE, kappa_fp=KFP_TRUE, lambda_t=LAM_TRUE)
        result = fit(data, init)
        assert result.near_degenerate
        # fitted eta below the wavelength-resolution equivalent
        assert result.estimates["eta"] < 2e10

    def test_wavelength_offset_equivariance(self):
        shift = 2e-4
        data = noiseless_data()
        shifted = AnticrossingData(
            control=data.control,
            lambda1=data.lambda1 + shift,
            lambda2=data.lambda2 + shift,
            q1=data.q1,
            q2=data.q2,
        )
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        init2 = dict(init, lambda_t=init["lambda_t"] + shift)
        r1 = fit(data, init)
        r2 = fit(shifted, init2)
        assert r2.estimates["lambda_t"] - r1.estimates["lambda_t"] == pytest.approx(
            shift, rel=1e-3
        )
        for name in ("eta", "kappa_t", "kappa_fp"):
            assert r2.estimates[name] == pytest.approx(r1.estimates[name], rel=1e-6)

    @pytest.mark.parametrize("seed", [-1, 2**32])
    def test_out_of_range_seed_rejected(self, seed):
        # numpy's RandomState takes seeds in [0, 2**32)
        with pytest.raises(InvalidInput, match="seed"):
            FitOptions(multistart=1, seed=seed)

    @pytest.mark.parametrize("options", [{"multistart": -3}, {"max_evals": 0}])
    def test_out_of_range_budget_rejected(self, options):
        # these ran before as 0 extra starts and as a fit of 0 evaluations
        with pytest.raises(InvalidInput, match=next(iter(options))):
            FitOptions(**options)

    def test_missing_init_rejected(self):
        data = noiseless_data()
        with pytest.raises(InvalidInput):
            fit(data, {"eta": ETA_TRUE})

    def test_budget_exhaustion_flags_nonconverged(self):
        data = noiseless_data(noise_sigma_nm=0.02, seed=5)
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        result = fit(data, init, options=FitOptions(max_evals=30))
        assert not result.converged


class TestMinimizerProperties:
    def test_best_value_never_increases(self, monkeypatch):
        # the Jacobian is taken at the start and after each accepted step but
        # the last, and only there: the objective at those points is the
        # accepted sequence
        def rosenbrock(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        accepted = []
        jacobian = fitting._jacobian

        def recording(residuals, x, scale):
            r = rosenbrock(x)
            accepted.append(float(r @ r))
            return jacobian(residuals, x, scale)

        monkeypatch.setattr(fitting, "_jacobian", recording)
        run = fitting._levenberg_marquardt(
            rosenbrock, np.array([-1.2, 1.0]), np.array([1.2, 1.0]), 20000
        )
        assert run.converged
        assert run.f == pytest.approx(0.0, abs=1e-12)
        assert len(accepted) > 5
        assert np.all(np.diff(accepted) <= 0.0)
        assert run.f <= accepted[-1]

    def test_fit_never_worse_than_init(self):
        data = noiseless_data(noise_sigma_nm=0.02, seed=9)
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        result = fit(data, init)
        init_vec = np.array([init[n] for n in tuple(result.estimates)])
        init_ssr = float(residuals(init_vec, data) @ residuals(init_vec, data))
        assert result.residual_norm**2 <= init_ssr


class TestAgainstSimplexOracle:
    """``fit`` against the derivative-free simplex of ``conftest.simplex_fit``, from
    the same starts: its objective at most 1e-4 above the oracle's, and eta,
    kappa_t, kappa_fp and lambda_t within 1e-3 of the oracle's."""

    def check(self, data, init, options):
        result = fit(data, init, options=options)
        estimates, objective, _ = simplex_fit(data, init, options)
        assert result.converged
        assert result.residual_norm**2 <= objective * (1.0 + 1e-4)
        for name in ("eta", "kappa_t", "kappa_fp", "lambda_t"):
            assert result.estimates[name] == pytest.approx(estimates[name], rel=1e-3)

    @pytest.mark.parametrize("control_kind", ["detuning_nm", "power_mw"])
    def test_golden_tables(self, control_kind):
        self.check(TestCompiledObjective.noisy(control_kind), INIT,
                   FitOptions(multistart=1, seed=4))

    @pytest.mark.parametrize("seed", [8, 48, 96])
    def test_acceptance_7_draws(self, seed):
        # the noisy tables of acceptance criterion 7 whose first descent stops
        # on the exceptional-point crease
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        self.check(noiseless_data(noise_sigma_nm=0.01, seed=seed), init,
                   FitOptions(max_evals=20000))


class TestExceptionalPointPass:
    INIT = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}

    def test_flagged_on_acceptance_7_draw_8(self):
        result = fit(noiseless_data(noise_sigma_nm=0.01, seed=8), self.INIT,
                     options=FitOptions(max_evals=20000))
        assert result.to_dict()["on_exceptional_point"] is True
        eta_ep = 0.5 * (result.estimates["kappa_fp"] - result.estimates["kappa_t"])
        assert result.estimates["eta"] == pytest.approx(eta_ep, rel=1e-5)

    @pytest.mark.parametrize("eta_factor", [0.6, 1.5, 2.0])
    def test_not_flagged_off_the_surface(self, eta_factor):
        # noiseless tables whose truth lies off eta = (kappa_fp - kappa_t)/2:
        # the first descent reaches it, and the pass cannot lower the objective
        data = synthetic_data(eta_factor * ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE, GRID)
        result = fit(data, self.INIT)
        assert result.to_dict()["on_exceptional_point"] is False
        assert result.estimates["eta"] == pytest.approx(eta_factor * ETA_TRUE, rel=1e-9)

    def test_noiseless_table_on_the_surface(self):
        # the shipped truth lies on the crease itself, where the first descent
        # stalls: the pass supplies the estimate
        result = fit(noiseless_data(), self.INIT)
        assert result.on_exceptional_point
        assert result.residual_norm < 1e-9
        assert result.estimates["eta"] == pytest.approx(ETA_TRUE, rel=1e-9)


class TestPowerCalibration:
    def test_slope_recovery(self):
        data = synthetic_data(
            ETA_TRUE,
            KT_TRUE,
            KFP_TRUE,
            LAM_TRUE,
            GRID,
            control_kind="power_mw",
            cal_slope=0.1,
            cal_offset=-1.2,
        )
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        init.update(cal_slope=0.09, cal_offset=-1.0)
        result = fit(data, init)
        slope, offset = result.estimates["cal_slope"], result.estimates["cal_offset"]
        assert slope == pytest.approx(0.1, rel=0.02)
        assert offset == pytest.approx(-1.2, abs=0.02)

    def test_zero_power_maps_to_offset(self):
        theta = dict(
            eta=ETA_TRUE,
            kappa_t=KT_TRUE,
            kappa_fp=KFP_TRUE,
            lambda_t=LAM_TRUE,
            cal_slope=0.1,
            cal_offset=0.4,
        )
        data = synthetic_data(
            ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE, np.array([0.4, 0.5, 0.8, 1.4]),
            control_kind="power_mw", cal_slope=0.1, cal_offset=0.4,
        )
        assert data.control[0] == pytest.approx(0.0, abs=1e-12)
        lam1, lam2, *_ = model_predictions(theta, data)
        # the zero-power row is generated at detuning = offset exactly
        fp_lam = LAM_TRUE + 0.4
        assert max(lam1[0], lam2[0]) <= fp_lam + 0.2

    def test_recovered_fp_wavelength_at_zero_power(self):
        data = synthetic_data(
            ETA_TRUE, KT_TRUE, KFP_TRUE, LAM_TRUE, GRID,
            control_kind="power_mw", cal_slope=0.1, cal_offset=0.25,
        )
        init = {k: INIT[k] for k in ("eta", "kappa_t", "kappa_fp", "lambda_t")}
        init.update(cal_slope=0.11, cal_offset=0.2)
        result = fit(data, init)
        offset = result.estimates["cal_offset"]
        fp_at_zero = result.estimates["lambda_t"] + offset
        assert fp_at_zero == pytest.approx(LAM_TRUE + 0.25, abs=0.01)


class TestDecayTimeColumn:
    def test_recovery_with_decay_times(self):
        data = noiseless_data(g=1e10, gamma_leaky=5e8)
        assert data.tau_ns is not None
        result = fit(data, dict(INIT))
        assert result.converged
        assert result.estimates["eta"] == pytest.approx(ETA_TRUE, rel=1e-3)
        assert result.estimates["g"] == pytest.approx(1e10, rel=0.02)
        assert result.estimates["gamma_leaky"] == pytest.approx(5e8, rel=0.02)
