import numpy as np
import pytest

from cavtune import (
    DecayCurve,
    InvalidInput,
    NoFeature,
    PLMap,
    apply_filter,
    burst_metrics,
    irf_convolve,
    synthesize_map,
)
from cavtune.lindblad import Trajectory

C_NM = 2.99792458e17  # speed of light, nm/s
LAMBDA_T = 1552.0
KAPPA = 1.564e11


def constant_trajectory(
    n_points=5,
    lam1=LAMBDA_T,
    lam2=LAMBDA_T + 5.0,
    kappa1=KAPPA,
    kappa2=KAPPA,
    n1=1.0,
    n2=0.0,
    w1=1.0,
    w2=0.0,
    kappa_t=KAPPA,
):
    n = n_points
    return Trajectory(
        t_ps=np.linspace(0.0, 10.0, n),
        n_e=np.zeros(n),
        n_t=np.full(n, n1),
        n_fp=np.full(n, n2),
        n1=np.full(n, float(n1)),
        n2=np.full(n, float(n2)),
        lambda1_nm=np.full(n, lam1),
        lambda2_nm=np.full(n, lam2),
        kappa1=np.full(n, kappa1),
        kappa2=np.full(n, kappa2),
        w1=np.full(n, w1),
        w2=np.full(n, w2),
        states=np.zeros((n, 1), dtype=complex),
        keep=np.array([0]),
        dim=8,
        kappa_t=kappa_t,
        trace_dev_max=0.0,
        hermiticity_dev_max=0.0,
        min_eigenvalue=0.0,
    )


def line_fwhm_nm(kappa, lam):
    return 2.0 * kappa * lam**2 / (2.0 * np.pi * C_NM)


class TestSynthesizeMap:
    def test_constant_lorentzian_profile(self):
        traj = constant_trajectory()
        grid = np.linspace(LAMBDA_T - 3.0, LAMBDA_T + 3.0, 601)
        pl = synthesize_map(traj, grid)
        assert np.allclose(pl.intensity, pl.intensity[0][None, :])
        assert grid[np.argmax(pl.intensity[0])] == pytest.approx(LAMBDA_T, abs=0.011)
        # half maximum at +- FWHM/2 from the center
        half = line_fwhm_nm(KAPPA, LAMBDA_T) / 2.0
        peak = pl.intensity[0].max()
        at_half = np.interp(LAMBDA_T + half, grid, pl.intensity[0])
        assert at_half == pytest.approx(peak / 2.0, rel=0.01)

    def test_wavelength_integral_matches_flux(self):
        # oracle: the truncated Lorentzian mass on [-L, L] is (2/pi) atan(2L/FWHM)
        traj = constant_trajectory()
        fwhm = line_fwhm_nm(KAPPA, LAMBDA_T)
        for halfwidths in (10.0, 80.0):
            grid = np.linspace(LAMBDA_T - halfwidths * fwhm, LAMBDA_T + halfwidths * fwhm, 8001)
            pl = synthesize_map(traj, grid)
            integral = np.trapezoid(pl.intensity[0], grid)
            flux = 2.0 * KAPPA * 1e-12  # w=1, n=1
            captured = (2.0 / np.pi) * np.arctan(2.0 * halfwidths)
            assert integral == pytest.approx(flux * captured, rel=2e-3)
        # on the +-80-linewidth grid the integral is within 0.5% of the flux
        assert integral == pytest.approx(flux, rel=5e-3)

    def test_collection_exponent(self):
        grid = np.linspace(LAMBDA_T - 2.0, LAMBDA_T + 2.0, 401)
        base = synthesize_map(constant_trajectory(w1=0.5), grid, collection_exponent=1.0)
        squared = synthesize_map(constant_trajectory(w1=0.5), grid, collection_exponent=2.0)
        off = synthesize_map(constant_trajectory(w1=0.5), grid, collection_exponent=0.0)
        assert np.allclose(squared.intensity, 0.5 * base.intensity)
        assert np.allclose(base.intensity, 0.5 * off.intensity)

    def test_empty_grid_rejected(self):
        with pytest.raises(InvalidInput):
            synthesize_map(constant_trajectory(), [])

    def test_map_invariants(self):
        with pytest.raises(InvalidInput):
            PLMap(np.array([1552.0, 1551.0]), np.array([0.0]), np.zeros((1, 2)))
        with pytest.raises(InvalidInput):
            PLMap(np.array([1551.0, 1552.0]), np.array([0.0]), -np.ones((1, 2)))
        with pytest.raises(InvalidInput):
            PLMap(np.array([1551.0, 1552.0]), np.array([0.0]), np.zeros((2, 2)))


class TestNonNegativity:
    """The map and curve types reject a negative value; only populations are clipped."""

    def test_curve_rejects_negative_intensity(self):
        with pytest.raises(InvalidInput, match="curve intensities"):
            DecayCurve(np.array([0.0, 1.0]), np.array([1.0, -1e-300]), 1552.0, 0.5)

    def test_negative_population_gives_no_flux(self):
        grid = np.linspace(LAMBDA_T - 2.0, LAMBDA_T + 7.0, 181)
        dipped = synthesize_map(constant_trajectory(n1=-1e-12, n2=1.0, w2=1.0), grid)
        empty = synthesize_map(constant_trajectory(n1=0.0, n2=1.0, w2=1.0), grid)
        assert np.array_equal(dipped.intensity, empty.intensity)

    def test_filter_and_irf_keep_random_maps_non_negative(self, rng):
        lam = np.linspace(1550.0, 1554.0, 81)
        t = np.arange(0.0, 400.0, 4.0)
        for _ in range(20):
            # values over 300 decades, a third of them exactly zero
            values = 10.0 ** rng.uniform(-300.0, 0.0, (t.size, lam.size))
            values[rng.uniform(size=values.shape) < 1 / 3] = 0.0
            curve = apply_filter(PLMap(lam, t, values), rng.uniform(1550.0, 1554.0),
                                 rng.uniform(0.05, 2.0))
            assert curve.intensity.min() >= 0.0
            smeared = irf_convolve(curve, rng.uniform(1.0, 80.0))
            assert smeared.intensity.min() >= 0.0


class TestApplyFilter:
    def test_wide_filter_recovers_integral(self):
        traj = constant_trajectory()
        grid = np.linspace(LAMBDA_T - 2.0, LAMBDA_T + 2.0, 2001)
        pl = synthesize_map(traj, grid)
        wide = apply_filter(pl, LAMBDA_T, 500.0)
        integral = np.trapezoid(pl.intensity[0], grid)
        assert wide.intensity[0] == pytest.approx(integral, rel=0.02)

    def test_far_filter_rejects(self):
        traj = constant_trajectory(lam2=LAMBDA_T)  # both lines at the center
        fwhm = line_fwhm_nm(KAPPA, LAMBDA_T)
        grid = np.linspace(LAMBDA_T - 40 * fwhm, LAMBDA_T + 40 * fwhm, 4001)
        pl = synthesize_map(traj, grid)
        on_peak = apply_filter(pl, LAMBDA_T, 0.5).intensity[0]
        far = apply_filter(pl, LAMBDA_T + 25 * max(fwhm, 0.5), 0.5).intensity[0]
        assert far < 0.01 * on_peak

    def test_linearity(self, rng):
        lam = np.linspace(1550.0, 1554.0, 301)
        t = np.linspace(0.0, 5.0, 3)
        s1 = PLMap(lam, t, rng.uniform(0.0, 1.0, (3, 301)))
        s2 = PLMap(lam, t, rng.uniform(0.0, 1.0, (3, 301)))
        a, b = 1.3, 0.4
        mixed = PLMap(lam, t, a * s1.intensity + b * s2.intensity)
        lhs = apply_filter(mixed, 1552.0, 0.5).intensity
        rhs = (
            a * apply_filter(s1, 1552.0, 0.5).intensity
            + b * apply_filter(s2, 1552.0, 0.5).intensity
        )
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_center_outside_grid_rejected(self):
        pl = synthesize_map(constant_trajectory(), np.linspace(1551.0, 1553.0, 101))
        with pytest.raises(InvalidInput):
            apply_filter(pl, 1560.0, 0.5)


class TestBurstMetrics:
    def test_flat_curve_no_feature(self):
        t = np.linspace(-500.0, 1000.0, 601)
        curve = DecayCurve(t, np.ones_like(t), 1552.0, 0.5)
        with pytest.raises(NoFeature):
            burst_metrics(curve, (-500.0, 0.0))

    def test_zero_baseline_no_feature(self):
        # from the vacuum nothing is emitted before the pump: a burst on a
        # baseline of exactly 0 has no depth
        t = np.linspace(-500.0, 1000.0, 601)
        y = np.where(t < 100.0, 0.0, np.exp(-0.5 * ((t - 300.0) / 80.0) ** 2))
        with pytest.raises(NoFeature, match="depth undefined on a zero baseline"):
            burst_metrics(DecayCurve(t, y, 1552.0, 0.5), (-500.0, 0.0))

    def test_synthetic_gaussian_bump(self):
        # height 2*I0, sigma = 100 ps: depth 3, FWHM = 2.355 sigma
        t = np.linspace(-600.0, 1200.0, 3601)
        sigma = 100.0
        i0 = 0.7
        y = i0 * (1.0 + 2.0 * np.exp(-0.5 * ((t - 500.0) / sigma) ** 2))
        m = burst_metrics(DecayCurve(t, y, 1552.0, 0.5), (-600.0, 0.0))
        assert m.kind == "burst"
        assert m.depth == pytest.approx(3.0, rel=1e-6)
        assert m.fwhm_ps == pytest.approx(2.0 * np.sqrt(2.0 * np.log(2.0)) * sigma, rel=0.02)
        assert m.extremum_time_ps == pytest.approx(500.0, abs=1.0)
        assert m.baseline == pytest.approx(i0, rel=1e-6)

    def test_synthetic_dip(self):
        t = np.linspace(-600.0, 1200.0, 3601)
        y = 1.0 - 0.5 * np.exp(-0.5 * ((t - 450.0) / 80.0) ** 2)
        m = burst_metrics(DecayCurve(t, y, 1552.0, 0.5), (-600.0, 0.0))
        assert m.kind == "dip"
        assert m.depth == pytest.approx(2.0, rel=1e-6)
        assert m.fwhm_ps == pytest.approx(2.355 * 80.0, rel=0.02)

    def test_scale_invariance(self):
        t = np.linspace(-500.0, 1500.0, 801)
        y = 1.0 + 2.0 * np.exp(-0.5 * ((t - 200.0) / 100.0) ** 2)
        m1 = burst_metrics(DecayCurve(t, y, 1552.0, 0.5), (-500.0, 0.0))
        m2 = burst_metrics(DecayCurve(t, 1e6 * y, 1552.0, 0.5), (-500.0, 0.0))
        assert m1.depth == pytest.approx(m2.depth, rel=1e-12)
        assert m1.fwhm_ps == pytest.approx(m2.fwhm_ps, abs=1e-9)

    def test_window_needs_three_samples(self):
        t = np.linspace(0.0, 100.0, 101)
        curve = DecayCurve(t, np.ones_like(t), 1552.0, 0.5)
        with pytest.raises(InvalidInput):
            burst_metrics(curve, (0.0, 1.5))


class TestIrfConvolve:
    def test_identity_at_zero_sigma(self):
        t = np.linspace(0.0, 100.0, 101)
        y = np.exp(-t / 30.0)
        curve = DecayCurve(t, y, 1552.0, 0.5)
        out = irf_convolve(curve, 0.0)
        assert np.array_equal(out.intensity, y)

    def test_delta_spreads_to_gaussian_fwhm(self):
        t = np.arange(0.0, 2000.0, 1.0)
        y = np.zeros_like(t)
        y[1000] = 1.0
        out = irf_convolve(DecayCurve(t, y, 1552.0, 0.5), 50.0)
        peak = out.intensity.max()
        above = t[out.intensity >= peak / 2.0]
        fwhm = above[-1] - above[0]
        assert fwhm == pytest.approx(2.355 * 50.0, abs=2.0)

    def test_area_preserved(self):
        t = np.arange(0.0, 3000.0, 2.0)
        y = np.exp(-((t - 1500.0) / 200.0) ** 2)
        curve = DecayCurve(t, y, 1552.0, 0.5)
        out = irf_convolve(curve, 40.0)
        assert np.trapezoid(out.intensity, t) == pytest.approx(
            np.trapezoid(y, t), rel=5e-3
        )

    def test_kernel_longer_than_curve(self):
        # sigma 400 ps on 301 samples over 1200 ps: the kernel has 1001 samples
        t = np.linspace(-600.0, 600.0, 301)
        y = np.exp(-((t - 100.0) / 150.0) ** 2)
        sigma = 400.0
        out = irf_convolve(DecayCurve(t, y, 1552.0, 0.5), sigma)
        half_n = int(np.ceil(5.0 * sigma / 4.0))
        norm = np.exp(-0.5 * (np.arange(-half_n, half_n + 1) * 4.0 / sigma) ** 2).sum()
        direct = np.exp(-0.5 * ((t[:, None] - t[None, :]) / sigma) ** 2) @ y / norm
        assert out.intensity.shape == t.shape
        np.testing.assert_allclose(out.intensity, direct, rtol=1e-12)

    def test_nonuniform_grid_rejected(self):
        t = np.array([0.0, 1.0, 3.0, 6.0])
        with pytest.raises(InvalidInput):
            irf_convolve(DecayCurve(t, np.ones(4), 1552.0, 0.5), 10.0)


class TestQuasiStaticConsistency:
    def test_filtered_decay_tracks_slowest_eigenrate(self):
        from cavtune import HilbertSpec, TuningProfile, emitter_excited_state, evolve
        from conftest import make_params

        p = make_params(g=KAPPA / 15.0, gamma_leaky=5e8, eta=0.0, lambda_fp=1560.0)
        t = np.linspace(0.0, 1200.0, 401)
        traj = evolve(
            p, TuningProfile(static_detuning_nm=8.0), emitter_excited_state(HilbertSpec(1)), t
        )
        grid = np.linspace(1550.0, 1554.0, 201)
        curve = apply_filter(synthesize_map(traj, grid), 1552.0, 0.5)
        mask = t > 100.0
        rate_curve = -np.polyfit(t[mask], np.log(curve.intensity[mask]), 1)[0]
        rate_emitter = -np.polyfit(t[mask], np.log(traj.n_e[mask]), 1)[0]
        assert rate_curve == pytest.approx(rate_emitter, rel=0.02)
