from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

from cavtune import (
    BareMode,
    FreeCarrierPulse,
    InvalidInput,
    PumpPulse,
    PumpSchedule,
    SystemParams,
    anticrossing_sweep,
    couple,
    coupled_hamiltonian,
    detuning_wl_to_omega,
    hamiltonian_bare_basis,
    omega_to_wl,
    wl_to_omega,
)
from cavtune.modespace import decay_rate, pair_modes
from conftest import (
    ETA,
    KAPPA_T,
    LAMBDA_T,
    make_params,
    polished_eigenvalues,
    random_valid_system,
    se_rate_ratio,
)

C = 2.99792458e8


class TestUnitConversions:
    def test_known_value_1552nm(self):
        # direct evaluation of 2*pi*c/lambda
        expected = 2 * np.pi * C / 1552e-9
        assert wl_to_omega(1552.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.2137e15, rel=1e-4)

    def test_roundtrip(self):
        for lam in (1550.0, 1552.0, 632.8, 10600.0):
            assert omega_to_wl(wl_to_omega(lam)) == pytest.approx(lam, rel=1e-12)

    def test_float_path_matches_array_path(self):
        lams = np.array([1550.0, 1552.0 - 0.37, 632.8, 10600.0])
        floats = [wl_to_omega(float(lam)) for lam in lams] + [wl_to_omega(lams[1])]
        assert all(type(w) is float for w in floats)
        assert np.array_equal(floats[:4], wl_to_omega(lams)) and floats[4] == floats[1]

    def test_positive_input_required(self):
        with pytest.raises(InvalidInput):
            wl_to_omega(-1.0)
        with pytest.raises(InvalidInput):
            wl_to_omega(0.0)
        with pytest.raises(InvalidInput):
            omega_to_wl(0.0)

    def test_detuning_conversion_values(self):
        # 0.4 nm splitting at 1552 nm: 2*pi*c*dl/l^2
        expected = 2 * np.pi * C * 0.4e-9 / (1552e-9) ** 2
        assert abs(detuning_wl_to_omega(0.4, 1552.0)) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(3.128e11, rel=1e-3)
        # longer wavelength = lower frequency
        assert detuning_wl_to_omega(0.4, 1552.0) < 0
        assert detuning_wl_to_omega(-1.0, 1552.0) == pytest.approx(7.82e11, rel=1e-3)

    def test_detuning_antisymmetric(self):
        for d in (0.1, 0.4, 1.7):
            assert detuning_wl_to_omega(d, 1552.0) == -detuning_wl_to_omega(-d, 1552.0)
        assert detuning_wl_to_omega(0.0, 1552.0) == 0.0

    def test_detuning_needs_positive_reference(self):
        with pytest.raises(InvalidInput):
            detuning_wl_to_omega(0.4, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("convert", [
        lambda x: wl_to_omega(x),
        lambda x: wl_to_omega(np.array([1552.0, x])),
        lambda x: omega_to_wl(x),
        lambda x: omega_to_wl(np.array([1.2e15, x])),
        lambda x: detuning_wl_to_omega(0.1, x),
        lambda x: detuning_wl_to_omega(x, 1552.0),
        lambda x: detuning_wl_to_omega(np.array([0.1, x]), 1552.0),
    ], ids=[
        "wl_to_omega", "wl_to_omega-array", "omega_to_wl", "omega_to_wl-array",
        "detuning-reference", "detuning", "detuning-array",
    ])
    def test_non_finite_input_rejected(self, convert, bad):
        # NaN passed the guards of x <= 0, and a wavelength of inf converted to 0.0
        with pytest.raises(InvalidInput, match="finite"):
            convert(bad)


class TestQFactor:
    def test_splitting_derived_kappa(self):
        q = BareMode(wl_to_omega(1552.0), 1.564e11).q
        assert q == pytest.approx(3880.0, abs=1.0)

    def test_scaling_law(self):
        q1 = BareMode(1e15, 1e11).q
        q2 = BareMode(1e15, 2e11).q
        assert q1 == 2.0 * q2

    def test_uncoupled_modes_keep_their_bare_q(self):
        # eta = 0: each coupled mode is a bare mode, with its bare Q to the bit
        target, fp = BareMode(1e15, 1e11), BareMode(1.001e15, 3e11)
        cm = couple(target, fp, 0.0)
        assert (cm.q(1), cm.q(2)) == (target.q, fp.q)

    def test_invalid_kappa(self):
        with pytest.raises(InvalidInput):
            BareMode(1e15, 0.0)

    def test_resonant_q_drop_factor_two(self):
        # kappa_fp = 3 kappa_t at zero detuning: both modes lose at 2 kappa_t
        omega = wl_to_omega(LAMBDA_T)
        cm = couple(BareMode(omega, KAPPA_T), BareMode(omega, 3 * KAPPA_T), ETA)
        q_t = BareMode(omega, KAPPA_T).q
        assert cm.q(1) / q_t == pytest.approx(0.5, abs=1e-12)
        assert cm.q(2) / q_t == pytest.approx(0.5, abs=1e-12)


class TestCouple:
    def test_uncoupled_limit(self):
        omega_t = wl_to_omega(1552.0)
        omega_fp = wl_to_omega(1551.0)  # higher frequency
        cm = couple(BareMode(omega_t, 1e11), BareMode(omega_fp, 3e11), 0.0)
        assert cm.omega1 == omega_t
        assert cm.kappa1 == 1e11
        assert cm.alpha == 1.0
        assert cm.beta == 0.0

    def test_symmetric_resonant_case(self):
        omega, kappa, eta = 1.2e15, 1e11, 2e11
        cm = couple(BareMode(omega, kappa), BareMode(omega, kappa), eta)
        assert cm.omega1 == pytest.approx(omega - eta, rel=1e-14)
        assert cm.omega2 == pytest.approx(omega + eta, rel=1e-14)
        assert cm.kappa1 == pytest.approx(kappa, rel=1e-12)
        assert cm.kappa2 == pytest.approx(kappa, rel=1e-12)
        assert abs(cm.alpha) ** 2 == pytest.approx(0.5, abs=1e-12)
        assert abs(cm.beta) ** 2 == pytest.approx(0.5, abs=1e-12)

    def test_exceptional_point(self):
        # eta^2 - ((kappa_fp - kappa_t)/2)^2 = 0 at kappa_fp = 3 kappa_t, eta = kappa_t
        omega = wl_to_omega(1552.0)
        kappa_t = KAPPA_T
        cm = couple(BareMode(omega, kappa_t), BareMode(omega, 3 * kappa_t), kappa_t)
        assert cm.degenerate
        for mode in (1, 2):
            assert cm.eigenvalue(mode) == pytest.approx(omega - 2j * kappa_t, rel=1e-12)
        assert abs(cm.alpha) ** 2 == pytest.approx(0.5, abs=1e-9)
        assert abs(cm.beta) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_against_general_eigendecomposition(self, rng):
        worst_val = worst_vec = 0.0
        for _ in range(300):
            t = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            f = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            eta = 1e11 * rng.uniform(0, 5)
            cm = couple(t, f, eta)
            mat = np.array([[t.complex_freq(), eta], [eta, f.complex_freq()]])
            evals, evecs = scipy.linalg.eig(mat)
            order = np.lexsort((-evals.imag, evals.real))
            evals, evecs = evals[order], evecs[:, order]
            scale = np.abs(evals).max()
            worst_val = max(
                worst_val,
                abs(evals[0] - cm.eigenvalue(1)) / scale,
                abs(evals[1] - cm.eigenvalue(2)) / scale,
            )
            # ray equivalence of the mode-1 vector (alpha, -beta)
            mine = np.array([cm.alpha, -cm.beta])
            cross = abs(mine[0] * evecs[1, 0] - mine[1] * evecs[0, 0])
            worst_vec = max(worst_vec, cross)
        assert worst_val < 1e-10
        assert worst_vec < 1e-10

    def test_trace_and_determinant_conservation(self, rng):
        for _ in range(200):
            t = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            f = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            eta = 1e11 * rng.uniform(0, 5)
            cm = couple(t, f, eta)
            wt, wf = t.complex_freq(), f.complex_freq()
            mu1, mu2 = cm.eigenvalue(1), cm.eigenvalue(2)
            assert abs((wt + wf) - (mu1 + mu2)) <= 1e-12 * abs(wt + wf)
            assert abs((wt * wf - eta**2) - mu1 * mu2) <= 1e-12 * abs(wt * wf)

    def test_target_component_sum_rule(self, rng):
        for _ in range(200):
            t = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            f = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            cm = couple(t, f, 1e11 * rng.uniform(0, 5))
            assert abs(cm.alpha) ** 2 + abs(cm.beta) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_swap_symmetry(self, rng):
        for _ in range(50):
            t = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            f = BareMode(1e15 * rng.uniform(0.5, 2), 1e11 * rng.uniform(0.2, 5))
            eta = 1e11 * rng.uniform(0.1, 5)
            cm = couple(t, f, eta)
            swapped = couple(f, t, eta)
            assert swapped.eigenvalue(1) == pytest.approx(cm.eigenvalue(1), rel=1e-12)
            assert swapped.eigenvalue(2) == pytest.approx(cm.eigenvalue(2), rel=1e-12)
            # target and FP roles exchange: the FP amplitudes of modes 1 and 2
            # are -beta and alpha
            assert abs(swapped.alpha) == pytest.approx(abs(cm.beta), abs=1e-10)
            assert abs(swapped.beta) == pytest.approx(abs(cm.alpha), abs=1e-10)

    def test_continuity_over_dense_grid(self, default_params):
        p = make_params()
        grid_nm = np.linspace(-1.5, 1.5, 2001)
        omega_fp = wl_to_omega(LAMBDA_T + grid_nm)
        sweep = anticrossing_sweep(p, omega_fp)
        lam1, q1 = sweep.lambda1_nm, sweep.q1
        flagged = couple(p.target, BareMode(omega_fp, p.fp.kappa), p.eta).degenerate
        # sqrt branch behavior near the exceptional point allows O(sqrt(step)) jumps
        assert np.max(np.abs(np.diff(lam1))) < 0.06
        away = np.abs(grid_nm[:-1]) > 0.05
        assert np.max(np.abs(np.diff(lam1))[away]) < 0.004
        assert np.max(np.abs(np.diff(q1) / q1[:-1])[away]) < 0.05
        assert flagged[1000]  # exact midpoint is the exceptional point

    def test_negative_eta_rejected(self):
        with pytest.raises(InvalidInput):
            couple(BareMode(1e15, 1e11), BareMode(1e15, 1e11), -1.0)


def eig_reference(wt, wf, eta):
    """Eigenvalues and Euclidean target weights of each 2x2 pair from numpy.linalg.eig.

    One row per pair; column 0 holds the eigenvalue with the larger real part.
    """
    mats = np.empty((wf.size, 2, 2), dtype=complex)
    mats[:, 0, 0], mats[:, 1, 1] = wt, wf
    mats[:, 0, 1] = mats[:, 1, 0] = eta
    evals, evecs = np.linalg.eig(mats)
    order = np.argsort(-evals.real, axis=1, kind="stable")
    evals = np.take_along_axis(evals, order, axis=1)
    weights = np.take_along_axis(np.abs(evecs[:, 0, :]) ** 2, order, axis=1)
    return evals, weights


class TestPairKernel:
    """``pair_modes`` and the flag of ``couple`` against numpy.linalg.eig of the 2x2 pair."""

    G, GAMMA_LEAKY = 1e10, 5e8

    def kernel(self, target, fp, eta):
        wt, wf = target.complex_freq(), fp.complex_freq()
        mu_a, mu_b, w_a = pair_modes(wt, wf, eta)
        rate = decay_rate(self.G, self.GAMMA_LEAKY, w_a, -mu_a.imag, -mu_b.imag)
        evals, weights = eig_reference(wt, np.atleast_1d(wf), eta)
        ref_rate = self.GAMMA_LEAKY + 2 * self.G**2 * np.sum(weights / -evals.imag, axis=1)
        flag = couple(target, fp, eta).degenerate
        return (mu_a, mu_b, w_a, rate, flag), (evals, weights, ref_rate)

    def test_random_draws_with_array_inputs(self, rng):
        for _ in range(40):
            omega_t = 1e15 * rng.uniform(0.5, 2)
            target = BareMode(omega_t, 1e11 * rng.uniform(0.2, 5))
            # detunings from far below to far above the coupling, one array per draw
            fp = BareMode(omega_t + 1e11 * rng.uniform(-20, 20, 64), 1e11 * rng.uniform(0.2, 5))
            eta = 1e11 * rng.uniform(0.05, 5)
            (mu_a, mu_b, w_a, rate, degenerate), (evals, weights, ref_rate) = self.kernel(
                target, fp, eta
            )
            scale = np.abs(evals).max(axis=1)
            assert np.all(np.abs(mu_a - evals[:, 0]) <= 1e-13 * scale)
            assert np.all(np.abs(mu_b - evals[:, 1]) <= 1e-13 * scale)
            assert np.all(mu_a.real >= mu_b.real)
            np.testing.assert_allclose(w_a, weights[:, 0], rtol=0, atol=1e-10)
            np.testing.assert_allclose(1.0 - w_a, weights[:, 1], rtol=0, atol=1e-10)
            np.testing.assert_allclose(rate, ref_rate, rtol=1e-9)
            assert not degenerate.any()

    @pytest.mark.parametrize(
        "omega_fp, kappa_fp, degenerate",
        [
            (1.2e15 - 3e11, 3e11, False),  # FP below the target: mode a is the target
            (1.2e15 + 3e11, 3e11, False),  # FP above the target
            (1.2e15, 3e11, False),  # real-part tie: the lower-loss target comes first
            (1.2e15, 1e11, True),  # identical bare modes
        ],
    )
    def test_uncoupled_branch(self, omega_fp, kappa_fp, degenerate):
        target = BareMode(1.2e15, 1e11)
        fp = BareMode(np.array([omega_fp]), kappa_fp)
        (mu_a, mu_b, w_a, rate, flag), (evals, weights, ref_rate) = self.kernel(target, fp, 0.0)
        wt, wf = target.complex_freq(), fp.complex_freq()[0]
        a_is_target = wt.real > wf.real or (wt.real == wf.real and kappa_fp > 1e11)
        assert (mu_a[0], mu_b[0]) == ((wt, wf) if a_is_target else (wf, wt))
        assert sorted([mu_a[0], mu_b[0]], key=abs) == sorted(evals[0], key=abs)
        assert w_a[0] == (1.0 if a_is_target else 0.0)
        if not degenerate:  # the weight eig gives the eigenvalue mu_a
            assert w_a[0] == weights[0, np.argmin(np.abs(evals[0] - mu_a[0]))]
        assert rate[0] == ref_rate[0] == self.GAMMA_LEAKY + 2 * self.G**2 / 1e11
        assert flag[0] == degenerate

    def test_exceptional_point(self):
        # eta = (kappa_fp - kappa_t)/2 at zero detuning: the pair is defective
        omega = wl_to_omega(LAMBDA_T)
        target, fp = BareMode(omega, KAPPA_T), BareMode(np.array([omega]), 3 * KAPPA_T)
        (mu_a, mu_b, w_a, rate, degenerate), (evals, weights, ref_rate) = self.kernel(
            target, fp, KAPPA_T
        )
        assert degenerate.all()
        # LAPACK resolves a defective pair only to about sqrt(machine epsilon)
        assert np.all(np.abs(mu_a - evals[:, 0]) <= 1e-8 * omega)
        assert np.all(np.abs(mu_b - evals[:, 1]) <= 1e-8 * omega)
        assert mu_a[0] == pytest.approx(omega - 2j * KAPPA_T, rel=1e-12)
        assert w_a[0] == pytest.approx(0.5, abs=1e-9)
        np.testing.assert_allclose(weights, 0.5, atol=1e-5)
        np.testing.assert_allclose(rate, ref_rate, rtol=1e-6)

    def test_weight_near_exceptional_point_against_long_double(self):
        # the mu_a eigenvector (eta, mu_a - wt) in extended precision, from the
        # same double inputs: forming mu_a - wt in double at the 1e15 rad/s
        # scale leaves about 3e-13 of the weight, split - half about 1e-15
        omega = wl_to_omega(LAMBDA_T)
        wt = omega - 1j * KAPPA_T
        wf = wl_to_omega(LAMBDA_T + np.linspace(-0.05, 0.05, 201)) - 3j * KAPPA_T
        w_a = pair_modes(wt, wf, ETA)[2]
        wt_l, wf_l, eta_l = np.clongdouble(wt), wf.astype(np.clongdouble), np.longdouble(ETA)
        split_l = np.sqrt(((wt_l - wf_l) / 2) ** 2 + eta_l**2)
        d_l = (wt_l + wf_l) / 2 + split_l - wt_l
        reference = eta_l**2 / (eta_l**2 + np.abs(d_l) ** 2)
        np.testing.assert_allclose(w_a, reference.astype(float), rtol=0, atol=1e-14)

    def test_array_couple_matches_scalar_calls(self, default_params):
        p = default_params
        grid = np.linspace(-8e11, 8e11, 41)
        arr = couple(p.target, BareMode(p.fp.omega + grid, p.fp.kappa), p.eta)
        for i, d in enumerate(grid):
            one = couple(p.target, BareMode(p.fp.omega + d, p.fp.kappa), p.eta)
            assert type(one.omega1) is float and type(one.alpha) is complex
            for name in ("omega1", "omega2", "kappa1", "kappa2", "alpha", "beta", "degenerate"):
                assert getattr(one, name) == pytest.approx(
                    getattr(arr, name)[i], rel=1e-13, abs=1e-13
                )


class TestHamiltonians:
    def test_decoupled_emitter_block_diagonal(self):
        p = make_params(g=0.0, lambda_fp=1551.5)
        h = coupled_hamiltonian(p)
        assert h[0, 1] == 0 and h[0, 2] == 0 and h[1, 0] == 0 and h[2, 0] == 0
        assert h[0, 0] == p.emitter.omega0

    def test_degenerate_pair_has_no_coupled_basis(self):
        p = make_params()  # defaults sit exactly at the exceptional point
        cm = couple(p.target, p.fp, p.eta)
        assert cm.degenerate
        with pytest.raises(InvalidInput):
            coupled_hamiltonian(p)

    def test_uncoupled_cavities_recover_bare_form(self):
        p = make_params(eta=0.0, lambda_fp=1551.0)
        h = coupled_hamiltonian(p)
        bare = hamiltonian_bare_basis(p)
        # mode 1 is the target: emitter couples to it with g, not to mode 2
        assert h[0, 1] == pytest.approx(p.emitter.g)
        assert abs(h[0, 2]) == 0.0
        assert h[1, 1] == pytest.approx(bare[1, 1])

    def test_complex_symmetric(self, rng):
        for _ in range(20):
            p = random_valid_system(rng)
            h1 = hamiltonian_bare_basis(p)
            h2 = coupled_hamiltonian(p)
            assert np.allclose(h1, h1.T)
            assert np.allclose(h2, h2.T)

    def test_eigenvalue_multiset_equivalence(self, rng):
        for _ in range(300):
            p = random_valid_system(rng)
            e1 = polished_eigenvalues(hamiltonian_bare_basis(p))
            e2 = polished_eigenvalues(coupled_hamiltonian(p))
            scale = np.abs(e1).max()
            assert np.max(np.abs(e1 - e2)) <= 1e-10 * scale


class TestSERateAndDecay:
    def test_uncoupled_target_mode_ratio_one(self):
        p = make_params(eta=0.0, lambda_fp=1551.0)
        cm = couple(p.target, p.fp, 0.0)
        # mode 1 is target-like (lower frequency at 1552 vs 1551)
        assert abs(cm.alpha) == 1.0
        assert se_rate_ratio(cm, 1, p.target.kappa) == pytest.approx(1.0, abs=1e-12)

    def test_exceptional_point_quarter_ratio(self):
        omega = wl_to_omega(LAMBDA_T)
        cm = couple(BareMode(omega, KAPPA_T), BareMode(omega, 3 * KAPPA_T), KAPPA_T)
        for mode in (1, 2):
            assert se_rate_ratio(cm, mode, KAPPA_T) == pytest.approx(0.25, abs=1e-9)
        total = sum(se_rate_ratio(cm, m, KAPPA_T) for m in (1, 2))
        assert total == pytest.approx(0.5, abs=1e-9)

    def test_leaky_only_decay_time(self):
        p = make_params(g=0.0, gamma_leaky=1e9)
        for d_nm in (-1.0, 0.0, 1.0):
            tau = anticrossing_sweep(p, [wl_to_omega(LAMBDA_T + d_nm)]).decay_time_s[0]
            assert tau == pytest.approx(1e-9, rel=1e-12)

    def test_far_detuning_asymptote(self):
        p = make_params()
        gamma_t = p.purcell_rate
        expected = 1.0 / (p.emitter.gamma_leaky + gamma_t)
        tau = anticrossing_sweep(p, [p.fp.omega + 10 * ETA]).decay_time_s[0]
        assert tau == pytest.approx(expected, rel=0.02)

    def test_in_mode_rate_change_brackets_reported_factor(self):
        # Q alone halves the rate at resonance; the vacuum-field redistribution
        # pushes the single-mode change to 4; the measured 2.7 sits between.
        p = make_params()
        cm0 = couple(p.target, p.fp, p.eta)
        summed0 = sum(se_rate_ratio(cm0, m, p.target.kappa) for m in (1, 2))
        far = couple(p.target, BareMode(p.fp.omega + 100 * ETA, p.fp.kappa), p.eta)
        summed_far = sum(se_rate_ratio(far, m, p.target.kappa) for m in (1, 2))
        assert summed_far / summed0 == pytest.approx(2.0, rel=1e-3)
        # per-mode ratio at the exceptional point is 1/4 -> single-mode factor 4
        single_factor = 1.0 / se_rate_ratio(cm0, 1, p.target.kappa)
        assert 2.0 < 2.7 < single_factor + 1e-9
        assert single_factor == pytest.approx(4.0, rel=1e-6)

    def test_zero_rates_invalid(self):
        p = make_params(g=0.0, gamma_leaky=0.0)
        with pytest.raises(InvalidInput):
            anticrossing_sweep(p, [p.fp.omega])


class TestSweep:
    def test_row_order_and_minimum_splitting(self):
        p = make_params()
        grid_nm = np.linspace(-1.5, 1.5, 121)
        omega_fp = wl_to_omega(LAMBDA_T + grid_nm)
        sweep = anticrossing_sweep(p, omega_fp)
        assert all(column.shape == (121,) for column in vars(sweep).values())
        # frequencies fall as the nm detuning grows: input order kept
        reversed_sweep = anticrossing_sweep(p, omega_fp[::-1])
        for name, column in vars(sweep).items():
            assert np.array_equal(getattr(reversed_sweep, name), column[::-1]), name
        splitting = np.abs(sweep.lambda1_nm - sweep.lambda2_nm)
        assert np.argmin(splitting) == 60  # detuning 0 at the grid midpoint

    def test_far_rows_near_bare_modes(self):
        p = make_params()
        d = 10 * ETA
        sweep = anticrossing_sweep(p, p.fp.omega + np.array([-d, d]))
        for k, sign in enumerate((-1, 1)):
            lam_fp = omega_to_wl(p.fp.omega + sign * d)
            lams = sorted([sweep.lambda1_nm[k], sweep.lambda2_nm[k]])
            bare = sorted([LAMBDA_T, lam_fp])
            # residual level repulsion at 10 eta is eta/10 ~ 0.02 nm
            assert lams[0] == pytest.approx(bare[0], abs=0.05)
            assert lams[1] == pytest.approx(bare[1], abs=0.05)
            assert lams[0] == pytest.approx(bare[0], rel=0.01)
            assert lams[1] == pytest.approx(bare[1], rel=0.01)

    def test_q_drop_factor_at_zero_detuning(self):
        p = make_params()
        sweep = anticrossing_sweep(p, [p.fp.omega])
        q_t = p.target.q
        assert min(sweep.q1[0], sweep.q2[0]) / q_t == pytest.approx(0.5, abs=1e-9)

    def test_empty_grid_rejected(self, default_params):
        with pytest.raises(InvalidInput):
            anticrossing_sweep(default_params, [])
        with pytest.raises(InvalidInput):
            anticrossing_sweep(default_params, [np.nan])


class TestDomainInvariants:
    def test_bare_mode_validation(self):
        with pytest.raises(InvalidInput):
            BareMode(-1e15, 1e11)
        with pytest.raises(InvalidInput):
            BareMode(1e15, -1e11)
        with pytest.raises(InvalidInput):
            BareMode(1e11, 1e11)  # Q would be 0.5

    def test_weak_coupling_guard(self):
        with pytest.raises(InvalidInput):
            make_params(g=2e11)  # exceeds kappa_t

    def test_no_pump_is_the_empty_schedule(self):
        # PumpSchedule() is the one "no pump"; None is not a second one
        p = make_params()
        assert SystemParams(p.emitter, p.target, p.fp, p.eta).pump == PumpSchedule()
        with pytest.raises(InvalidInput, match="PumpSchedule"):
            replace(p, pump=None)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "record, field",
        [
            (PumpSchedule(), "cw_rate"),
            (PumpPulse(0.0, 1.0, 10.0), "t0_ps"),
            (PumpPulse(0.0, 1.0, 10.0), "area"),
            (PumpPulse(0.0, 1.0, 10.0), "width_ps"),
            (FreeCarrierPulse(0.0, 0.6, 300.0), "t0_ps"),
            (FreeCarrierPulse(0.0, 0.6, 300.0), "delta_lambda_max_nm"),
            (FreeCarrierPulse(0.0, 0.6, 300.0), "tau_fc_ps"),
            (make_params().emitter, "g"),
            (make_params().emitter, "gamma_leaky"),
            (make_params(), "eta"),
        ],
    )
    def test_non_finite_field_rejected(self, record, field, value):
        # NaN passes every sign guard; a NaN pulse time would silently never fire
        with pytest.raises(InvalidInput, match=f"{type(record).__name__}.{field} must be finite"):
            replace(record, **{field: value})
