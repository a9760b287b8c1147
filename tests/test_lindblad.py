from dataclasses import fields, replace

import numpy as np
import pytest

from cavtune import (
    BareMode,
    EmitterParams,
    FreeCarrierPulse,
    HilbertSpec,
    InvalidInput,
    NumericalFailure,
    PumpPulse,
    PumpSchedule,
    SystemParams,
    TuningProfile,
    build_space,
    couple,
    dense_superoperator,
    emitter_excited_state,
    evolve,
    fock_state,
    fp_shift_at,
    liouvillian_apply,
    mode_populations,
    omega_to_wl,
    steady_state,
    vacuum_state,
    wl_to_omega,
)
from scipy.integrate import solve_ivp as scipy_solve_ivp

from cavtune import lindblad
from cavtune.config import SOLVER_ATOL, SOLVER_RTOL, load_config, scenario_config
from cavtune.lindblad import (
    Trajectory,
    _block_checks,
    _closure,
    _delta_fp_fn,
    _Generator,
    _sanitize_state,
    _splice,
    expectation,
    make_trajectory,
)
from cavtune.runs import simulate_dynamic
from cavtune.tuning import fp_shift_scalar
from conftest import (
    KAPPA_T,
    LAMBDA_T,
    broken_target_generator,
    densities,
    make_params,
    se_rate_ratio,
)


def random_density_matrix(rng, dim):
    x = rng.randn(dim, dim) + 1j * rng.randn(dim, dim)
    rho = x @ x.conj().T
    return rho / np.trace(rho).real


class TestBuildSpace:
    def test_smallest_space(self):
        ops = build_space(HilbertSpec(1))
        assert ops.dim == 8
        assert ops.a_t.shape == (8, 8)

    def test_number_operator_spectrum(self):
        for n_max in (1, 2, 3):
            ops = build_space(HilbertSpec(n_max))
            evals = np.unique(np.round(np.diag(ops.n_t)))
            assert list(evals) == list(range(n_max + 1))

    def test_truncated_commutator(self):
        spec = HilbertSpec(2)
        ops = build_space(spec)
        comm = ops.a_t @ ops.a_t.T - ops.a_t.T @ ops.a_t
        # restricted to n_t < n_max the commutator is the identity
        # (sqrt(n)**2 reproduces n to one ulp)
        keep = [spec.index(e, n_t, n_fp) for e in (0, 1) for n_t in (0, 1) for n_fp in (0, 1, 2)]
        sub = comm[np.ix_(keep, keep)]
        assert np.allclose(sub, np.eye(len(keep)), rtol=0.0, atol=1e-12)

    def test_basis_index_layout(self):
        spec = HilbertSpec(2)
        assert spec.dim == 18
        assert spec.index(0, 0, 0) == 0
        assert spec.index(1, 0, 0) == 9
        assert spec.index(0, 1, 2) == 5
        assert spec.index(1, 2, 2) == 17

    def test_invalid_n_max(self):
        with pytest.raises(InvalidInput):
            HilbertSpec(0)

    def test_pump_schedule_validation(self):
        with pytest.raises(InvalidInput):
            PumpSchedule(cw_rate=-1.0)
        with pytest.raises(InvalidInput):
            PumpSchedule(pulse_events=(PumpPulse(0.0, -1.0, 6.0),))


class TestLiouvillian:
    def test_vacuum_stationary(self, default_params):
        rho = vacuum_state(HilbertSpec(2))
        drho = liouvillian_apply(default_params, rho, pump_rate=0.0)
        assert np.max(np.abs(drho)) < 1e-20

    def test_bare_decay_generator(self, rng):
        p = make_params(g=0.0, gamma_leaky=0.0, eta=0.0)
        spec = HilbertSpec(2)
        ops = build_space(spec)
        rho = random_density_matrix(rng, spec.dim)
        drho = liouvillian_apply(p, rho)
        n_dot = expectation(ops.n_t, drho).real
        n_val = expectation(ops.n_t, rho).real
        # d<n_t>/dt = -2 kappa_t <n_t> when only the target channel is lossy...
        # (FP loss also runs here, so check the target-only part via a_t photons)
        p_only = SystemParams(p.emitter, p.target, BareMode(p.fp.omega, 1e-30 + 1e9), 0.0, PumpSchedule())
        drho2 = liouvillian_apply(p_only, rho)
        n_dot2 = expectation(ops.n_t, drho2).real
        assert n_dot2 == pytest.approx(-2.0 * p.target.kappa * n_val, rel=1e-10)

    def test_trace_zero(self, rng, default_params):
        rho = random_density_matrix(rng, 18)
        drho = liouvillian_apply(default_params, rho, pump_rate=3e8)
        assert abs(np.trace(drho)) <= 1e-12 * np.linalg.norm(drho)

    def test_matches_dense_superoperator(self, rng):
        p = make_params(pump=PumpSchedule(cw_rate=2e8, cavity_cw_rate=1e7))
        for n_max in (1, 2):
            spec = HilbertSpec(n_max)
            rho = random_density_matrix(rng, spec.dim)
            direct = liouvillian_apply(p, rho, pump_rate=2e8)
            sup = dense_superoperator(p, pump_rate=2e8, spec=spec)
            via = (sup @ rho.reshape(-1)).reshape(spec.dim, spec.dim)
            assert np.max(np.abs(direct - via)) <= 1e-10 * np.max(np.abs(direct))

    def test_oracles_share_the_pump_default(self, rng):
        # without pump_rate, both oracles apply the CW rate of params.pump
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(1)
        rho = random_density_matrix(rng, spec.dim)
        direct = liouvillian_apply(p, rho)
        via = (dense_superoperator(p, spec=spec) @ rho.ravel()).reshape(spec.dim, spec.dim)
        assert np.max(np.abs(direct - via)) <= 1e-12 * np.max(np.abs(direct))

    def test_compiled_operator_matches_matrix_free(self, rng, in_frame):
        # the compiled sparse operator (as dense matrix and as the evolve RHS)
        # against the matrix-free commutator form, over channel variants
        variants = {
            "default": make_params(pump=PumpSchedule(cw_rate=1e8)),
            "no leaky decay": make_params(gamma_leaky=0.0, pump=PumpSchedule(cw_rate=1e8)),
            "cavity pump": make_params(pump=PumpSchedule(cw_rate=1e8, cavity_cw_rate=3e8)),
        }
        for name, p in variants.items():
            for frame in ("rotating", "lab"):
                for n_max in (1, 2, 3):
                    spec = HilbertSpec(n_max)
                    rho = random_density_matrix(rng, spec.dim)
                    lambda_fp = LAMBDA_T + rng.uniform(-1.0, 1.0)
                    fp_now = BareMode(wl_to_omega(lambda_fp), p.fp.kappa)
                    moved = replace(p, fp=fp_now)
                    pump = rng.uniform(0.0, 5e8)
                    with in_frame(frame):
                        direct = liouvillian_apply(moved, rho, pump_rate=pump)
                        sup = dense_superoperator(moved, pump_rate=pump, spec=spec)
                        gen = _Generator(p, spec)
                    delta = fp_now.omega if frame == "lab" else fp_now.omega - p.target.omega
                    via_rhs = gen.rhs(rho.ravel(), delta * 1e-12, pump * 1e-12) / 1e-12
                    scale = np.max(np.abs(direct))
                    for via in (sup @ rho.ravel(), via_rhs):
                        dev = np.max(np.abs(direct - via.reshape(spec.dim, spec.dim))) / scale
                        assert dev < 1e-12, (name, frame, n_max, dev)

    def test_broken_dissipator_breaks_trace(self, rng, monkeypatch):
        # the self-test negative control reaches the compiled operator
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(1)
        y = random_density_matrix(rng, spec.dim).ravel()
        intact = _Generator(p, spec)
        monkeypatch.setattr(lindblad, "_Generator", broken_target_generator)
        broken = lindblad._Generator(p, spec)
        trace = [abs(gen.rhs(y, 0.0, 0.0)[:: spec.dim + 1].sum()) for gen in (intact, broken)]
        assert trace[0] < 1e-15 and trace[1] > 1e-3

    def test_hand_built_kron_oracle(self, rng):
        # fully independent 8x8 construction for n_max = 1
        p = make_params(g=5e9, gamma_leaky=7e8, pump=PumpSchedule())
        spec = HilbertSpec(1)
        rho = random_density_matrix(rng, 8)

        a = np.array([[0.0, 1.0], [0.0, 0.0]])
        i2 = np.eye(2)
        sm = np.kron(a, np.kron(i2, i2))
        at = np.kron(i2, np.kron(a, i2))
        af = np.kron(i2, np.kron(i2, a))
        ne = np.kron(np.diag([0.0, 1.0]), np.kron(i2, i2))

        om_t, om_f, om_0 = p.target.omega, p.fp.omega, p.emitter.omega0
        h = (
            (om_0 - om_t) * ne
            + (om_f - om_t) * (af.T @ af)
            + p.emitter.g * (at @ sm.T + at.T @ sm)
            + p.eta * (at.T @ af + af.T @ at)
        )

        def dissipator(L, rate, rho):
            return rate * (L @ rho @ L.conj().T) - 0.5 * rate * (
                L.conj().T @ L @ rho + rho @ L.conj().T @ L
            )

        expected = -1j * (h @ rho - rho @ h)
        expected += dissipator(at, 2 * p.target.kappa, rho)
        expected += dissipator(af, 2 * p.fp.kappa, rho)
        expected += dissipator(sm, p.emitter.gamma_leaky, rho)
        got = liouvillian_apply(p, rho, pump_rate=0.0)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_dimension_mismatch(self, default_params):
        with pytest.raises(InvalidInput):
            liouvillian_apply(default_params, np.eye(7, dtype=complex))


class TestEvolve:
    def test_emitter_exponential_decay(self):
        gamma = 1e9
        p = make_params(g=0.0, gamma_leaky=gamma, eta=0.0)
        spec = HilbertSpec(1)
        t = np.linspace(0.0, 1500.0, 151)
        traj = evolve(p, TuningProfile(), emitter_excited_state(spec), t, rtol=1e-10, atol=1e-14)
        expected = np.exp(-gamma * 1e-12 * t)
        assert np.max(np.abs(traj.n_e - expected) / expected) < 1e-6

    def test_cavity_photon_decay(self):
        p = make_params(g=0.0, gamma_leaky=0.0, eta=0.0)
        spec = HilbertSpec(1)
        t_half = 1e12 / (2.0 * p.target.kappa)
        t = np.linspace(0.0, t_half, 41)
        traj = evolve(p, TuningProfile(), fock_state(spec, 0, 1, 0), t, rtol=1e-10, atol=1e-14)
        assert traj.n_t[-1] == pytest.approx(np.exp(-1.0), rel=1e-6)

    def test_purcell_decay_rate(self):
        g = KAPPA_T / 20.0
        gamma_leaky = 5e8
        p = make_params(g=g, gamma_leaky=gamma_leaky, eta=0.0, lambda_fp=1560.0)
        expected = gamma_leaky + 2.0 * g**2 / KAPPA_T
        t = np.linspace(0.0, 2e12 / expected, 201)
        traj = evolve(
            p, TuningProfile(static_detuning_nm=8.0), emitter_excited_state(HilbertSpec(1)), t
        )
        mask = t > 50.0
        rate = -np.polyfit(t[mask] * 1e-12, np.log(traj.n_e[mask]), 1)[0]
        assert rate == pytest.approx(expected, rel=0.05)

    def test_burst_appears_in_filtered_trace(self):
        # CW pump, pulse at t0, zero initial detuning: transient burst
        from cavtune import apply_filter, synthesize_map

        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        profile = TuningProfile(pulses=(FreeCarrierPulse(0.0, 0.6, 352.0),))
        spec = HilbertSpec(2)
        rho0 = steady_state(p, spec=spec)
        t = np.linspace(-300.0, 1200.0, 501)
        traj = evolve(p, profile, rho0, t)
        pl = synthesize_map(traj, np.linspace(1550.6, 1553.4, 141))
        curve = apply_filter(pl, 1552.2, 0.5)
        pre = curve.intensity[t < 0].mean()
        assert curve.intensity.max() > 1.5 * pre
        assert abs(t[np.argmax(curve.intensity)]) < 100.0

    def test_trace_positivity_hermiticity(self):
        p = make_params(pump=PumpSchedule(cw_rate=1e8, pulse_events=(PumpPulse(200.0, 1.0, 6.0),)))
        profile = TuningProfile(pulses=(FreeCarrierPulse(400.0, 0.6, 150.0),))
        t = np.linspace(0.0, 900.0, 301)
        traj = evolve(p, profile, vacuum_state(HilbertSpec(2)), t)
        assert traj.trace_dev_max < 1e-8
        assert traj.hermiticity_dev_max < 1e-10
        assert traj.min_eigenvalue > -1e-8
        assert np.all(traj.n_t > -1e-8)
        assert np.all(traj.n1 + traj.n2 - (traj.n_t + traj.n_fp) < 1e-8)

    def test_post_processing_matches_per_state_reference(self):
        # the array-valued post-processing against one scalar couple and one
        # operator-based mode_populations per recorded state
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        profile = TuningProfile(pulses=(FreeCarrierPulse(50.0, 0.6, 150.0),))
        t = np.linspace(0.0, 400.0, 81)
        traj = evolve(p, profile, emitter_excited_state(HilbertSpec(2)), t)
        lam_fp = LAMBDA_T + fp_shift_at(profile, t)
        for i, rho in enumerate(densities(traj)):
            cm = couple(p.target, BareMode(wl_to_omega(float(lam_fp[i])), p.fp.kappa), p.eta)
            n1, n2 = mode_populations(rho, cm)
            assert traj.n1[i] == pytest.approx(n1, abs=1e-13)
            assert traj.n2[i] == pytest.approx(n2, abs=1e-13)
            assert traj.lambda1_nm[i] == pytest.approx(cm.wavelength_nm(1), rel=1e-15)
            assert traj.kappa2[i] == pytest.approx(cm.kappa2, rel=1e-13)
            assert traj.w1[i] == pytest.approx(abs(cm.alpha) ** 2, abs=1e-13)
        hermitian_parts = [0.5 * (s + s.conj().T) for s in densities(traj)]
        min_eig = min(np.linalg.eigvalsh(h).min() for h in hermitian_parts)
        # the states are block-diagonal over the excitation manifolds, which
        # are the components evolve checks: the same eigenvalues, bit for bit,
        # as those of the manifolds' submatrices, and the whole matrices' up
        # to LAPACK's rounding on the larger matrix
        ops = build_space(HilbertSpec(2))
        n = np.diag(ops.n_e + ops.n_t + ops.n_fp).round().astype(int)
        manifolds = [np.flatnonzero(n == level) for level in np.unique(n)]
        manifold_min = min(
            np.linalg.eigvalsh(h[np.ix_(m, m)]).min() for h in hermitian_parts for m in manifolds
        )
        assert traj.min_eigenvalue == manifold_min
        assert traj.min_eigenvalue == pytest.approx(min_eig, abs=1e-14)

    def test_truncation_convergence(self):
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        profile = TuningProfile(pulses=(FreeCarrierPulse(0.0, 0.6, 352.0),))
        t = np.linspace(-100.0, 600.0, 201)
        out = {}
        for n_max in (2, 4):
            spec = HilbertSpec(n_max)
            rho0 = steady_state(p, spec=spec)
            out[n_max] = evolve(p, profile, rho0, t)
        for field in ("n_e", "n_t", "n_fp", "n1", "n2"):
            a, b = getattr(out[2], field), getattr(out[4], field)
            scale = np.max(np.abs(b))
            assert np.max(np.abs(a - b)) < 0.01 * scale

    @staticmethod
    def frame_deviation(in_frame):
        """The largest difference of the observables between the rotating and the lab frame."""
        # artificial low-frequency system keeps the lab frame integrable
        omega_t = 50.0e12  # rad/s -> 50 rad/ps
        p = SystemParams(
            EmitterParams(omega_t, 1e10, 1e9),
            BareMode(omega_t, 1.5e11),
            BareMode(omega_t * (1 + 1e-4), 4.5e11),
            1.5e11,
            PumpSchedule(cw_rate=1e8),
        )
        spec = HilbertSpec(1)
        rho0 = emitter_excited_state(spec)
        # evolve takes the FP frequency from lambda_t and the profile alone: a
        # detuned, pulsed FP gives the two frames different FP terms to round
        profile = TuningProfile(static_detuning_nm=3.0, pulses=(FreeCarrierPulse(20.0, 5.0, 30.0),))
        t = np.linspace(0.0, 60.0, 61)
        obs = {}
        for frame in ("rotating", "lab"):
            with in_frame(frame):
                traj = evolve(p, profile, rho0, t, rtol=1e-12, atol=1e-16)
            obs[frame] = np.stack([traj.n_e, traj.n_t, traj.n_fp, traj.n1, traj.n2])
        return np.max(np.abs(obs["rotating"] - obs["lab"]))

    def test_frame_invariance(self, in_frame):
        # not 0.0: the two frames round apart, and the check would see an error
        assert 0.0 < self.frame_deviation(in_frame) < 1e-9

    def test_frame_invariance_detects_a_term_that_bypasses_the_seam(self, in_frame, monkeypatch):
        # a negative control: an FP detuning that subtracts the target frequency
        # itself stays in the rotating frame when the lab frame is patched in
        def bypassing_delta_fp_fn(params, profile):
            lambda_t = omega_to_wl(params.target.omega)

            def delta_fp(t_ps):
                omega_fp = wl_to_omega(lambda_t + fp_shift_scalar(profile, t_ps))
                return (omega_fp - params.target.omega) * 1e-12

            return delta_fp

        monkeypatch.setattr(lindblad, "_delta_fp_fn", bypassing_delta_fp_fn)
        assert self.frame_deviation(in_frame) > 1e-3

    def test_pulse_at_grid_time_acts_after_it(self):
        # The pulse onset t0 ends a segment, whose last stages sit at t0: they
        # take the left limit of the FP shift, so up to t0 the pulsed run is
        # the pulse-free one, bit for bit
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(1)
        t = np.linspace(0.0, 200.0, 41)
        before = t <= 100.0
        pulsed = TuningProfile(pulses=(FreeCarrierPulse(100.0, 0.6, 150.0),))
        with_pulse = evolve(p, pulsed, emitter_excited_state(spec), t)
        free = evolve(p, TuningProfile(), emitter_excited_state(spec), t[before])
        np.testing.assert_array_equal(densities(with_pulse)[before], densities(free))

    def test_scalar_delta_matches_array_path(self, in_frame):
        pulses = (
            FreeCarrierPulse(0.0, 0.6, 352.0),
            FreeCarrierPulse(150.0, 0.3, 120.0),
            FreeCarrierPulse(200.0, 0.4, 200.0),
        )
        t = np.concatenate([np.linspace(-100.0, 1200.0, 1301), [0.0, 150.0, 200.0]])
        for frame in ("rotating", "lab"):
            for profile in (
                TuningProfile(static_detuning_nm=0.3, pulses=pulses[:1]),
                TuningProfile(static_detuning_nm=-0.2, pulses=pulses),
            ):
                p = make_params()
                base = 0.0 if frame == "rotating" else p.target.omega
                omega_fp = wl_to_omega(LAMBDA_T + fp_shift_at(profile, t))
                expected = (omega_fp - p.target.omega + base) * 1e-12
                with in_frame(frame):
                    fast = _delta_fp_fn(p, profile)
                got = np.array([fast(float(tk)) for tk in t])
                assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
                shifts = np.array([fp_shift_scalar(profile, float(tk)) for tk in t])
                assert np.max(np.abs(shifts - fp_shift_at(profile, t))) <= 1e-15

    def test_non_monotonic_grid_rejected(self, default_params):
        p = make_params(pump=PumpSchedule())
        with pytest.raises(InvalidInput):
            evolve(p, TuningProfile(), vacuum_state(HilbertSpec(1)), [0.0, 10.0, 5.0])

    @pytest.mark.parametrize("shape", [(18,), (18, 3)])
    def test_non_square_state_rejected(self, shape):
        rho0 = np.zeros(shape, dtype=complex)
        rho0[0] = 1.0
        with pytest.raises(InvalidInput, match="square"):
            evolve(make_params(), TuningProfile(), rho0, [0.0, 1.0])

    def test_zero_atol_rejected(self):
        # BDF's error scale atol + rtol*|y| is 0 on the entries that stay 0
        rho0 = vacuum_state(HilbertSpec(1))
        with pytest.raises(InvalidInput, match="atol"):
            evolve(make_params(), TuningProfile(), rho0, [0.0, 1.0], atol=0.0)

    def test_splice_equals_make_trajectory_on_the_joined_states(self):
        # a pulse-free head, then a tail from its k-th state under a pulse that
        # starts there, as the delay scan joins them
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(1)
        t = np.linspace(-100.0, 600.0, 71)
        k = 30
        head = evolve(p, TuningProfile(), steady_state(p, spec=spec), t)
        pulsed = TuningProfile(pulses=(FreeCarrierPulse(t[k], 0.6, 352.421875),))
        tail = evolve(p, pulsed, head.density(k), t[k:])
        spliced = _splice(head, k, tail)
        states = np.concatenate([head.states[:k], tail.states])
        expected = make_trajectory(p, pulsed, t, states, head.keep, head.dim)
        for f in fields(Trajectory):
            assert np.array_equal(getattr(spliced, f.name), getattr(expected, f.name)), f.name

    def test_splice_joins_differing_keep_sets_on_their_union(self):
        # rho0 = |g00><g00| + |g00><e00|/2 reaches k = 0 and k = -1 alone; the
        # tail starts from the adjoint of a head state, which reaches k = 0 and +1
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(1)
        g, e = spec.index(0, 0, 0), spec.index(1, 0, 0)
        rho0 = vacuum_state(spec)
        rho0[g, e] = 0.5
        t = np.linspace(0.0, 100.0, 21)
        k = 8
        head = evolve(p, TuningProfile(), rho0, t)
        tail = evolve(p, TuningProfile(), head.density(k).conj().T, t[k:])
        assert not np.array_equal(head.keep, tail.keep)
        spliced = _splice(head, k, tail)
        assert np.array_equal(spliced.keep, np.union1d(head.keep, tail.keep))
        assert spliced.keep.size > max(head.keep.size, tail.keep.size)
        expected = np.concatenate([densities(head)[:k], densities(tail)])
        assert np.array_equal(densities(spliced), expected)
        for name in ("n_e", "n_t", "n_fp", "n1", "n2", "lambda1_nm", "w2"):
            joined = np.concatenate([getattr(head, name)[:k], getattr(tail, name)])
            assert np.array_equal(getattr(spliced, name), joined), name
        checks = _block_checks(spliced.states, spliced.keep, spliced.dim)
        got = (spliced.trace_dev_max, spliced.hermiticity_dev_max, spliced.min_eigenvalue)
        np.testing.assert_allclose(got, checks, rtol=0.0, atol=1e-14)
        assert spliced.hermiticity_dev_max > 0.1  # the coherence has no adjoint entry


class TestBlockEvolve:
    """``evolve``'s right-hand side computes only the entries that rho0 reaches.

    The oracle integrates the whole vec(rho) itself: BDF on the full
    ``_Generator.rhs``, with the full generator's own ``matrix`` as the
    Jacobian, one segment per pulse onset, as ``evolve`` splits the run.
    The terms
    ``evolve`` drops multiply exact zeros, and its Jacobian is the full one
    on the kept entries, where the generator does not couple them to the
    others.  So its states and its step sequence are the oracle's, bit for
    bit.  For BDF that rests on SuperLU factoring the kept block of the
    restricted and of the full Jacobian alike, which it does on every case
    here, though the two patterns are ordered on their own.
    """

    BURST = TuningProfile(pulses=(FreeCarrierPulse(0.0, 0.6, 352.421875),))
    T_GRID = np.linspace(-100.0, 600.0, 176)

    @classmethod
    def _full_space(cls, p, profile, rho0, t):
        """``(states, rhs_calls)`` of the full-space solve."""
        spec = HilbertSpec(round(np.sqrt(rho0.shape[0] / 2.0)) - 1)
        gen = _Generator(p, spec)
        pump = p.pump
        inner = {q.t0_ps for q in profile.pulses}
        bounds = [t[0]] + sorted(x for x in inner if t[0] < x < t[-1]) + [t[-1]]
        states = np.zeros((t.size, spec.dim**2), dtype=complex)
        states[0] = y = rho0.ravel()
        nfev = 0
        for a, b in zip(bounds[:-1], bounds[1:]):
            started = replace(profile, pulses=tuple(q for q in profile.pulses if q.t0_ps <= a))
            delta_fp = _delta_fp_fn(p, started)

            def rhs(tk, v):
                return gen.rhs(v, delta_fp(tk), pump.rate_at_ps(tk))

            def jac(tk, v):
                return gen.matrix(delta_fp(tk), pump.rate_at_ps(tk))

            inside = np.flatnonzero((t > a) & (t <= b))
            t_eval = np.unique(np.append(t[inside], b))
            sol = scipy_solve_ivp(
                rhs, (a, b), y, method="BDF", t_eval=t_eval, jac=jac, rtol=SOLVER_RTOL,
                atol=SOLVER_ATOL, max_step=b - a,
            )
            assert sol.success
            nfev += sol.nfev
            ys = sol.y.T
            states[inside] = ys[: inside.size]
            y = ys[-1]
        return states.reshape(t.size, spec.dim, spec.dim), nfev

    @classmethod
    def _check(cls, monkeypatch, p, profile, rho0):
        calls = []

        def counted_solve_ivp(*args, **kwargs):
            sol = scipy_solve_ivp(*args, **kwargs)
            calls.append(sol.nfev)
            return sol

        monkeypatch.setattr(lindblad, "solve_ivp", counted_solve_ivp)
        traj = evolve(p, profile, rho0, cls.T_GRID)
        expected, nfev = cls._full_space(p, profile, rho0, cls.T_GRID)
        assert np.array_equal(densities(traj), expected)
        assert sum(calls) == nfev
        return traj

    @pytest.mark.parametrize("n_max, size", [(2, 70), (3, 168)])
    def test_shipped_starts_reach_the_k0_block(self, n_max, size):
        # the closure evolve restricts its generator to, for each shipped start
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(n_max)
        gen = _Generator(p, spec)
        ops = build_space(spec)
        n = np.diag(ops.n_e + ops.n_t + ops.n_fp).round().astype(int)
        k = (n[:, None] - n[None, :]).ravel()
        for rho0 in (steady_state(p, spec=spec), vacuum_state(spec), emitter_excited_state(spec)):
            keep = _closure(abs(gen.l0) + abs(gen.l_pump), rho0.ravel())
            assert keep.size == size and np.all(k[keep] == 0)
            block = gen.restricted(keep)
            assert block.l0.nnz == gen.l0[keep][:, keep].nnz < gen.l0.nnz

    @pytest.mark.parametrize("start", ["steady", "vacuum", "excited"])
    @pytest.mark.parametrize("n_max", [2, 3])
    def test_burst_matches_full_space(self, monkeypatch, n_max, start):
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(n_max)
        rho0 = {
            "steady": lambda: steady_state(p, spec=spec),
            "vacuum": lambda: vacuum_state(spec),
            "excited": lambda: emitter_excited_state(spec),
        }[start]()
        self._check(monkeypatch, p, self.BURST, rho0)

    def test_superposition_spans_three_blocks(self, monkeypatch):
        # (|g00> + |e00>)/sqrt(2) has coherences of k = N_bra - N_ket = +-1
        spec = HilbertSpec(2)
        psi = np.zeros(spec.dim, dtype=complex)
        psi[[spec.index(0, 0, 0), spec.index(1, 0, 0)]] = np.sqrt(0.5)
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        traj = self._check(monkeypatch, p, self.BURST, np.outer(psi, psi.conj()))
        ops = build_space(spec)
        n = np.diag(ops.n_e + ops.n_t + ops.n_fp).round().astype(int)
        k = n[:, None] - n[None, :]
        assert set(np.unique(k[np.any(densities(traj) != 0.0, axis=0)])) == {-1, 0, 1}


class TestBlockChecks:
    """``_block_checks`` on the kept entries against dense ``eigvalsh`` on the whole matrices."""

    @staticmethod
    def _dense(rhos):
        adjoints = np.conj(np.swapaxes(rhos, 1, 2))
        return (
            np.max(np.abs(np.einsum("tii->t", rhos) - 1.0)),
            np.max(np.abs(rhos - adjoints)),
            np.linalg.eigvalsh(0.5 * (rhos + adjoints)).min(),
        )

    @classmethod
    def _compare(cls, rhos, keep):
        got = _block_checks(rhos.reshape(len(rhos), -1)[:, keep], keep, rhos.shape[1])
        np.testing.assert_allclose(got, cls._dense(rhos), rtol=0.0, atol=1e-12)
        return got

    @staticmethod
    def _keep(spec, rho0):
        gen = _Generator(make_params(pump=PumpSchedule(cw_rate=1e8)), spec)
        return _closure(abs(gen.l0) + abs(gen.l_pump), rho0.ravel())

    @staticmethod
    def _superposition(spec):
        psi = np.zeros(spec.dim, dtype=complex)
        psi[[spec.index(0, 0, 0), spec.index(1, 0, 0)]] = np.sqrt(0.5)
        return np.outer(psi, psi.conj())

    @pytest.mark.parametrize("n_max, start, size", [
        (2, "vacuum", 70), (3, "vacuum", 168), (2, "superposition", None),
    ])
    def test_random_states_match_dense(self, rng, n_max, start, size):
        # 300 Hermitian states, 0 off the closure, of traces 0.9 to 1.1: more
        # than two of the 128-state chunks
        spec = HilbertSpec(n_max)
        rho0 = vacuum_state(spec) if start == "vacuum" else self._superposition(spec)
        keep = self._keep(spec, rho0)
        assert size is None or keep.size == size
        off = np.ones(spec.dim**2, dtype=bool)
        off[keep] = False
        x = rng.randn(300, spec.dim, spec.dim) + 1j * rng.randn(300, spec.dim, spec.dim)
        rhos = x @ np.conj(np.swapaxes(x, 1, 2))
        rhos.reshape(300, -1)[:, off] = 0.0
        rhos *= (rng.uniform(0.9, 1.1, 300) / np.einsum("tii->t", rhos).real)[:, None, None]
        trace_dev, _, min_eig = self._compare(rhos, keep)
        assert trace_dev > 0.05
        if start == "vacuum":  # a pinched positive matrix stays positive
            assert min_eig > 0.0
        else:  # the superposition's closure joins the manifolds into one component
            assert min_eig < 0.0

    def _manifold_state(self, spec):
        """A k = 0 state with populations on every level, and the indices of its first manifold."""
        keep = self._keep(spec, vacuum_state(spec))
        rho = np.diag(np.linspace(1.0, 2.0, spec.dim)).astype(complex)
        rho /= np.trace(rho).real
        return rho, keep, [spec.index(1, 0, 0), spec.index(0, 1, 0)]

    def test_negative_eigenvalue_inside_a_manifold_is_reported(self):
        spec = HilbertSpec(2)
        rho, keep, (a, b) = self._manifold_state(spec)
        assert self._compare(rho[None], keep)[2] > 0.0
        coherence = 2.0 * np.sqrt(rho[a, a].real * rho[b, b].real)
        rho[a, b] = rho[b, a] = coherence  # |rho_ab|^2 > rho_aa rho_bb
        _, herm_dev, min_eig = self._compare(rho[None], keep)
        assert herm_dev == 0.0 and min_eig < -0.01

    def test_non_hermitian_entry_is_reported(self):
        spec = HilbertSpec(2)
        rho, keep, (a, b) = self._manifold_state(spec)
        rho[a, b] = 1e-3
        _, herm_dev, _ = self._compare(rho[None], keep)
        assert herm_dev == 1e-3


class TestSolveIvpContract:
    """``evolve`` hands ``solve_ivp`` the whole vec(rho), positionally, and records the block.

    The benchmark's tracer reads n_max from ``len(y0)`` of each ``solve_ivp``
    call.  Integrating the reached block alone changes this test and the
    tracer together.
    """

    @pytest.mark.parametrize("n_max, size", [(1, 20), (2, 70), (3, 168)])
    def test_fig3_burst_passes_the_whole_vector(self, monkeypatch, n_max, size):
        lengths = []

        def recording_solve_ivp(*args, **kwargs):
            lengths.append(len(args[2]))
            return scipy_solve_ivp(*args, **kwargs)

        monkeypatch.setattr(lindblad, "solve_ivp", recording_solve_ivp)
        cfg = load_config(scenario_config("fig3-burst"))
        for start in ("steady", "vacuum", "excited"):
            run = replace(cfg, hilbert=HilbertSpec(n_max), initial_state=start)
            traj, _, _ = simulate_dynamic(run)
            assert traj.states.shape == (cfg.time_grid_ps.size, size)
        dim = HilbertSpec(n_max).dim
        assert lengths and set(lengths) == {dim * dim}


class TestAgainstRK45Oracle:
    """``evolve`` at the default tolerances against RK45 at rtol 1e-12.

    RK45 is an explicit integrator, independent of the BDF path and its
    Jacobian.  On a short window around the pulse of each shipped dynamic
    scenario, the map and the filtered curve of the default run stay closer to
    the oracle's, relative to their maxima, than those of RK45 at the former
    defaults (rtol 1e-8, atol 1e-12) do, and its smallest state eigenvalue is
    no lower than theirs.
    """

    ORACLE = dict(rtol=1e-12, atol=1e-16)
    FORMER_DEFAULTS = dict(rtol=1e-8, atol=1e-12)

    @staticmethod
    def _rk45(fun, t_span, y0, jac, method, **options):
        return scipy_solve_ivp(fun, t_span, y0, method="RK45", **options)

    @pytest.mark.parametrize(
        "scenario, n_max, delay_ps, window_ps",
        [
            ("fig3-burst", 2, None, (-30.0, 420.0)),
            ("fig3-dip", 2, None, (-30.0, 420.0)),
            ("fig3-burst", 3, None, (-30.0, 420.0)),
            # from the vacuum through the pump pulse at 0 ps to the free-carrier pulse
            ("fig4-delay", 2, 1500.0, (-20.0, 1800.0)),
        ],
    )
    def test_closer_than_rk45_at_former_defaults(
        self, monkeypatch, scenario, n_max, delay_ps, window_ps
    ):
        from cavtune import apply_filter, synthesize_map
        from cavtune.config import load_config, scenario_config
        from cavtune.runs import delay_profile, initial_state_for

        cfg = load_config(scenario_config(scenario))
        cfg = replace(cfg, hilbert=HilbertSpec(n_max))
        profile = cfg.profile if delay_ps is None else delay_profile(cfg, delay_ps)
        step = cfg.time_grid_ps[1] - cfg.time_grid_ps[0]
        t = np.linspace(*window_ps, round((window_ps[1] - window_ps[0]) / step) + 1)
        rho0 = initial_state_for(cfg)
        (lam_c, fwhm), = cfg.filters

        def observed(**tolerances):
            traj = evolve(cfg.params, profile, rho0, t, **tolerances)
            pl = synthesize_map(traj, cfg.lambda_grid_nm, cfg.collection_exponent)
            return traj, pl.intensity, apply_filter(pl, lam_c, fwhm).intensity

        default = observed()
        monkeypatch.setattr(lindblad, "solve_ivp", self._rk45)
        oracle, former = observed(**self.ORACLE), observed(**self.FORMER_DEFAULTS)
        for k in (1, 2):  # the map, then the curve
            scale = np.max(np.abs(oracle[k]))
            dev_default = np.max(np.abs(default[k] - oracle[k])) / scale
            dev_former = np.max(np.abs(former[k] - oracle[k])) / scale
            assert dev_default <= dev_former, (k, dev_default, dev_former)
        assert default[0].min_eigenvalue >= former[0].min_eigenvalue


class TestWeakCouplingRates:
    """Mode-sum SE rates vs the full master equation.

    The Euclidean mode-sum gamma_leaky + gamma_t * sum_l |c_l|^2 kappa_t/kappa_l
    is accurate away from the anticrossing center but breaks down at the
    exceptional point, where the coalesced pair forms a double pole of the
    cavity response; the exact weak-coupling rate there is
    gamma_leaky + 2 g^2 * 3 kappa_t / (3 kappa_t^2 + eta^2).
    """

    @staticmethod
    def _simulated_rate(p, det_nm):
        predicted_scale = p.emitter.gamma_leaky + p.purcell_rate
        t = np.linspace(0.0, 2.5e12 / predicted_scale, 301)
        traj = evolve(
            p, TuningProfile(static_detuning_nm=det_nm), emitter_excited_state(HilbertSpec(1)), t
        )
        mask = (t > 60.0) & (traj.n_e > 1e-12)
        return -np.polyfit(t[mask] * 1e-12, np.log(traj.n_e[mask]), 1)[0]

    def test_mode_sum_valid_off_resonance(self):
        g = KAPPA_T / 10.0
        p = make_params(g=g, gamma_leaky=5e8)
        for det_nm in (-1.0, 1.0):
            cm = couple(p.target, BareMode(wl_to_omega(LAMBDA_T + det_nm), p.fp.kappa), p.eta)
            predicted = p.emitter.gamma_leaky + p.purcell_rate * sum(
                se_rate_ratio(cm, m, KAPPA_T) for m in (1, 2)
            )
            rate = self._simulated_rate(p, det_nm)
            assert rate == pytest.approx(predicted, rel=0.10)

    def test_exceptional_point_rate_exceeds_mode_sum(self):
        g = KAPPA_T / 10.0
        p = make_params(g=g, gamma_leaky=5e8)
        rate = self._simulated_rate(p, 0.0)
        exact = p.emitter.gamma_leaky + 2.0 * g**2 * 3.0 * KAPPA_T / (
            3.0 * KAPPA_T**2 + p.eta**2
        )
        assert rate == pytest.approx(exact, rel=0.03)
        cm = couple(p.target, p.fp, p.eta)
        mode_sum = p.emitter.gamma_leaky + p.purcell_rate * sum(
            se_rate_ratio(cm, m, KAPPA_T) for m in (1, 2)
        )
        # the coalesced-pair double pole adds half of the in-mode rate again
        assert rate > 1.25 * mode_sum


class TestModePopulations:
    def test_uncoupled_identity(self, rng):
        p = make_params(eta=0.0, lambda_fp=1551.0)
        cm = couple(p.target, p.fp, 0.0)
        spec = HilbertSpec(2)
        ops = build_space(spec)
        rho = random_density_matrix(rng, spec.dim)
        n1, n2 = mode_populations(rho, cm)
        assert n1 == pytest.approx(expectation(ops.n_t, rho).real, abs=1e-12)
        assert n2 == pytest.approx(expectation(ops.n_fp, rho).real, abs=1e-12)

    def test_sum_rule_random_states(self, rng, default_params):
        cm = couple(default_params.target, default_params.fp, default_params.eta)
        spec = HilbertSpec(2)
        ops = build_space(spec)
        for _ in range(20):
            rho = random_density_matrix(rng, spec.dim)
            n1, n2 = mode_populations(rho, cm)
            total = expectation(ops.n_t + ops.n_fp, rho).real
            assert n1 + n2 == pytest.approx(total, abs=1e-8)

    def test_half_mixing_single_photon(self):
        # |alpha|^2 = 1/2, one photon in the target, zero coherence
        p = make_params()
        cm = couple(p.target, p.fp, p.eta)
        assert abs(cm.alpha) ** 2 == pytest.approx(0.5, abs=1e-9)
        spec = HilbertSpec(1)
        rho = fock_state(spec, 0, 1, 0)
        n1, n2 = mode_populations(rho, cm)
        assert n1 == pytest.approx(0.5, abs=1e-9)
        assert n2 == pytest.approx(0.5, abs=1e-9)


class TestSteadyState:
    def test_unpumped_vacuum(self):
        # the closure of rho_00 under an unpumped generator is rho_00 alone
        for n_max in (1, 2, 3):
            spec = HilbertSpec(n_max)
            rho = steady_state(make_params(pump=PumpSchedule()), spec=spec)
            assert np.array_equal(rho, vacuum_state(spec))

    def test_weak_pump_two_level_estimate(self):
        # rate equations hold away from the anticrossing: far-detuned FP
        pump_rate = 1e7
        p = make_params(eta=0.0, lambda_fp=1560.0, pump=PumpSchedule(cw_rate=pump_rate))
        spec = HilbertSpec(2)
        rho = steady_state(p, spec=spec)
        ops = build_space(spec)
        n_e = expectation(ops.n_e, rho).real
        gamma = p.emitter.gamma_leaky + p.purcell_rate
        assert pump_rate < 0.01 * gamma
        assert n_e == pytest.approx(pump_rate / gamma, rel=0.05)

    def test_residual_is_small(self, default_params):
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(2)
        rho = steady_state(p, spec=spec)
        drho = liouvillian_apply(p, rho, pump_rate=1e8)
        assert np.linalg.norm(drho) * 1e-12 < 1e-10 * np.linalg.norm(rho)

    @staticmethod
    def _long_time_check(spec):
        from cavtune import apply_filter, synthesize_map

        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        rho_ss = steady_state(p, spec=spec)
        t = np.linspace(0.0, 12000.0, 241)
        traj = evolve(p, TuningProfile(), vacuum_state(spec), t)
        lam_grid = np.linspace(1550.6, 1553.4, 141)
        curve = apply_filter(synthesize_map(traj, lam_grid), 1552.2, 0.5)

        traj_ss = evolve(p, TuningProfile(), rho_ss, np.array([0.0, 1.0]))
        curve_ss = apply_filter(synthesize_map(traj_ss, lam_grid), 1552.2, 0.5)
        assert curve.intensity[-1] == pytest.approx(curve_ss.intensity[0], rel=0.01)
        return traj.density(-1), rho_ss

    def test_matches_long_time_evolution(self):
        self._long_time_check(HilbertSpec(2))

    def test_matches_long_time_evolution_n_max_3(self):
        evolved, rho_ss = self._long_time_check(HilbertSpec(3))
        assert np.max(np.abs(evolved - rho_ss)) < 1e-6

    def test_cavity_pump_only(self):
        # cw_rate = 0 with a target-mode pump: the solve still runs
        pump = PumpSchedule(cw_rate=0.0, cavity_cw_rate=1e9)
        spec = HilbertSpec(2)
        ops = build_space(spec)
        for p in (make_params(pump=pump), make_params(g=0.0, eta=0.0, pump=pump)):
            rho = steady_state(p, spec=spec)
            drho = liouvillian_apply(p, rho)
            assert np.linalg.norm(drho) * 1e-12 < 1e-10 * np.linalg.norm(rho)
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(rho).min() > -1e-12
            assert expectation(ops.n_t, rho).real > 1e-4
        # decoupled target mode: thermal-like n_t = P / (2 kappa_t - P),
        # up to the n_max = 2 truncation of its tail
        expected = 1e9 / (2.0 * p.target.kappa - 1e9)
        assert expectation(ops.n_t, rho).real == pytest.approx(expected, rel=1e-4)

    def test_unreachable_residual_raises(self, monkeypatch):
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        monkeypatch.setattr(lindblad, "STEADY_RESIDUAL_TOL", 1e-30)
        with pytest.raises(NumericalFailure):
            steady_state(p, spec=HilbertSpec(2))

    def test_non_unique_returns_state_reached_from_vacuum(self):
        # an emitter with neither coupling nor decay keeps any population, so
        # the steady state is not unique; the one reached from vacuum keeps the
        # emitter in its ground state
        p = make_params(g=0.0, gamma_leaky=0.0, pump=PumpSchedule(cavity_cw_rate=1e9))
        for n_max in (1, 3):
            spec = HilbertSpec(n_max)
            rho = steady_state(p, spec=spec)
            evolved = evolve(p, TuningProfile(), vacuum_state(spec), [0.0, 3000.0]).density(-1)
            assert np.max(np.abs(rho - evolved)) < 1e-8
            assert expectation(build_space(spec).n_e, rho).real == 0.0
            assert abs(np.trace(rho) - 1.0) < 1e-12

    @pytest.mark.parametrize("entry,limit,message", [
        ((0, 1), 1e-10, "not Hermitian within 1e-10"),
        ((3, 3), -1e-8, "not positive"),
        ((0, 0), 1e-8, "trace .* deviates from 1"),
    ])
    def test_state_check_thresholds(self, entry, limit, message):
        rho = np.diag([0.5, 0.3, 0.2, 0.0]).astype(complex)
        for factor, passes in ((0.5, True), (2.0, False)):
            state = rho.copy()
            state[entry] += factor * limit
            if entry == (3, 3):
                state[0, 0] -= factor * limit  # the trace stays 1
            if passes:
                assert _sanitize_state(state) is state
            else:
                with pytest.raises(NumericalFailure, match=message):
                    _sanitize_state(state)
