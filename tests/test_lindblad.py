import re
import time
import tracemalloc
from dataclasses import replace

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
    build_space,
    couple,
    dense_superoperator,
    emitter_excited_state,
    evolve,
    fock_state,
    fp_shift_at,
    liouvillian_apply,
    omega_to_wl,
    steady_state,
    vacuum_state,
    wl_to_omega,
)
from scipy import sparse
from scipy.integrate import solve_ivp as scipy_solve_ivp

from cavtune import lindblad
from cavtune.config import SOLVER_ATOL, SOLVER_RTOL, load_config, scenario_config
from cavtune.lindblad import (
    _block_checks,
    _delta_fp_fn,
    _Generator,
    _LinearNDF,
    _require_valid,
    _segments,
    make_trajectory,
)
from cavtune.runs import simulate_dynamic
from cavtune.selftest import ROTATING_DECAY_KEEP, rotating_decay
from cavtune.tuning import fp_shift_scalar
from conftest import (
    KAPPA_T,
    LAMBDA_T,
    broken_target_generator,
    densities,
    expectation,
    make_params,
    mode_populations,
    se_rate_ratio,
    weak_pump_steady_block,
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
        with pytest.raises(TypeError):  # the emitter pump is the model's only pump
            PumpSchedule(cavity_cw_rate=1e9)


class TestLiouvillian:
    def test_vacuum_stationary(self, default_params):
        rho = vacuum_state(HilbertSpec(2))
        drho = liouvillian_apply(default_params, rho)
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
        pumped = replace(default_params, pump=PumpSchedule(cw_rate=3e8))
        drho = liouvillian_apply(pumped, rho)
        assert abs(np.trace(drho)) <= 1e-12 * np.linalg.norm(drho)

    def test_matches_dense_superoperator(self, rng):
        # both oracles apply the CW rate of params.pump: they agree, and the
        # matrix-free one differs from its unpumped self by 2e8 D[sigma+] rho
        p = make_params(pump=PumpSchedule(cw_rate=2e8))
        unpumped = replace(p, pump=replace(p.pump, cw_rate=0.0))
        for n_max in (1, 2):
            spec = HilbertSpec(n_max)
            rho = random_density_matrix(rng, spec.dim)
            direct = liouvillian_apply(p, rho)
            sup = dense_superoperator(p, spec)
            via = (sup @ rho.reshape(-1)).reshape(spec.dim, spec.dim)
            assert np.max(np.abs(direct - via)) <= 1e-10 * np.max(np.abs(direct))
            sp = build_space(spec).sigma_plus
            pump_term = 2e8 * (sp @ rho @ sp.T - 0.5 * (sp.T @ sp @ rho + rho @ sp.T @ sp))
            dev = direct - liouvillian_apply(unpumped, rho) - pump_term
            assert np.max(np.abs(dev)) <= 1e-10 * np.max(np.abs(pump_term))

    def test_compiled_operator_matches_matrix_free(self, rng, in_frame):
        # the generator (as dense matrix, and as the three terms that evolve
        # combines, off the CW pump rate) against the matrix-free commutator
        # form, over channel variants
        variants = {
            "default": make_params(pump=PumpSchedule(cw_rate=1e8)),
            "no leaky decay": make_params(gamma_leaky=0.0, pump=PumpSchedule(cw_rate=1e8)),
        }
        for name, p in variants.items():
            for frame in ("rotating", "lab"):
                for n_max in (1, 2, 3):
                    spec = HilbertSpec(n_max)
                    rho = random_density_matrix(rng, spec.dim)
                    lambda_fp = LAMBDA_T + rng.uniform(-1.0, 1.0)
                    fp_now = BareMode(wl_to_omega(lambda_fp), p.fp.kappa)
                    pump = rng.uniform(0.0, 5e8)
                    moved = replace(p, fp=fp_now, pump=replace(p.pump, cw_rate=pump))
                    with in_frame(frame):
                        direct = liouvillian_apply(moved, rho)
                        sup = dense_superoperator(moved, spec)
                        gen = _Generator(p, spec)
                        l0, l_pump = gen.block(np.arange(spec.dim**2), True)
                    delta = fp_now.omega if frame == "lab" else fp_now.omega - p.target.omega
                    v = rho.ravel()
                    via_rhs = (l0 @ v + delta * 1e-12 * gen.d_fp * v
                               + (pump * 1e-12 - gen.p_cw) * (l_pump @ v)) / 1e-12
                    scale = np.max(np.abs(direct))
                    for via in (sup @ rho.ravel(), via_rhs):
                        dev = np.max(np.abs(direct - via.reshape(spec.dim, spec.dim))) / scale
                        assert dev < 1e-12, (name, frame, n_max, dev)

    def test_broken_dissipator_breaks_trace(self, rng, monkeypatch):
        # the self-test negative control reaches the generator's blocks
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(1)
        y = random_density_matrix(rng, spec.dim).ravel()
        intact = _Generator(p, spec)
        monkeypatch.setattr(lindblad, "_Generator", broken_target_generator)
        broken = lindblad._Generator(p, spec)
        every = np.arange(spec.dim**2)
        trace = [abs((gen.block(every, False)[0] @ y)[:: spec.dim + 1].sum())
                 for gen in (intact, broken)]
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
        got = liouvillian_apply(p, rho)
        assert np.max(np.abs(got - expected)) <= 1e-10 * np.max(np.abs(expected))

    def test_dimension_mismatch(self, default_params):
        with pytest.raises(InvalidInput):
            liouvillian_apply(default_params, np.eye(7, dtype=complex))

    @pytest.mark.parametrize("shape", [(18,), (18, 3)])
    def test_non_square_state_rejected(self, default_params, shape):
        with pytest.raises(InvalidInput, match="square"):
            liouvillian_apply(default_params, np.zeros(shape, dtype=complex))


class TestEvolve:
    def test_emitter_exponential_decay(self):
        gamma = 1e9
        p = make_params(g=0.0, gamma_leaky=gamma, eta=0.0)
        spec = HilbertSpec(1)
        t = np.linspace(0.0, 1500.0, 151)
        traj = evolve(p, (), emitter_excited_state(spec), t, rtol=1e-10, atol=1e-14)
        expected = np.exp(-gamma * 1e-12 * t)
        assert np.max(np.abs(traj.n_e - expected) / expected) < 1e-6

    def test_cavity_photon_decay(self):
        p = make_params(g=0.0, gamma_leaky=0.0, eta=0.0)
        spec = HilbertSpec(1)
        t_half = 1e12 / (2.0 * p.target.kappa)
        t = np.linspace(0.0, t_half, 41)
        traj = evolve(p, (), fock_state(spec, 0, 1, 0), t, rtol=1e-10, atol=1e-14)
        assert traj.n_t[-1] == pytest.approx(np.exp(-1.0), rel=1e-6)

    def test_purcell_decay_rate(self):
        g = KAPPA_T / 20.0
        gamma_leaky = 5e8
        p = make_params(g=g, gamma_leaky=gamma_leaky, eta=0.0, lambda_fp=1560.0)
        expected = gamma_leaky + 2.0 * g**2 / KAPPA_T
        t = np.linspace(0.0, 2e12 / expected, 201)
        traj = evolve(p, (), emitter_excited_state(HilbertSpec(1)), t)
        mask = t > 50.0
        rate = -np.polyfit(t[mask] * 1e-12, np.log(traj.n_e[mask]), 1)[0]
        assert rate == pytest.approx(expected, rel=0.05)

    def test_burst_appears_in_filtered_trace(self):
        # CW pump, pulse at t0, zero initial detuning: transient burst
        from cavtune import apply_filter

        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        pulses = (FreeCarrierPulse(0.0, 0.6, 352.0),)
        spec = HilbertSpec(2)
        rho0 = steady_state(p, spec=spec)
        t = np.linspace(-300.0, 1200.0, 501)
        traj = evolve(p, pulses, rho0, t)
        curve = apply_filter(traj, 1552.2, 0.5)
        pre = curve.intensity[t < 0].mean()
        assert curve.intensity.max() > 1.5 * pre
        assert abs(t[np.argmax(curve.intensity)]) < 100.0

    def test_trace_positivity_hermiticity(self):
        p = make_params(pump=PumpSchedule(cw_rate=1e8, pulse_events=(PumpPulse(200.0, 1.0, 6.0),)))
        pulses = (FreeCarrierPulse(400.0, 0.6, 150.0),)
        t = np.linspace(0.0, 900.0, 301)
        traj = evolve(p, pulses, vacuum_state(HilbertSpec(2)), t)
        assert traj.trace_dev_max < 1e-8
        assert traj.hermiticity_dev_max < 1e-10
        assert traj.min_eigenvalue > -1e-8
        assert np.all(traj.n_t > -1e-8)
        assert np.all(traj.n1 + traj.n2 - (traj.n_t + traj.n_fp) < 1e-8)

    def test_post_processing_matches_per_state_reference(self):
        # the array-valued post-processing against one scalar couple and one
        # operator-based mode_populations per recorded state
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        pulses = (FreeCarrierPulse(50.0, 0.6, 150.0),)
        t = np.linspace(0.0, 400.0, 81)
        traj = evolve(p, pulses, emitter_excited_state(HilbertSpec(2)), t)
        lam_fp = LAMBDA_T + fp_shift_at(pulses, t)
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
        pulses = (FreeCarrierPulse(0.0, 0.6, 352.0),)
        t = np.linspace(-100.0, 600.0, 201)
        out = {}
        for n_max in (2, 4):
            spec = HilbertSpec(n_max)
            rho0 = steady_state(p, spec=spec)
            out[n_max] = evolve(p, pulses, rho0, t)
        for field in ("n_e", "n_t", "n_fp", "n1", "n2"):
            a, b = getattr(out[2], field), getattr(out[4], field)
            scale = np.max(np.abs(b))
            assert np.max(np.abs(a - b)) < 0.01 * scale

    @staticmethod
    def frame_deviation(in_frame):
        """The largest difference of the observables between the rotating and the lab frame."""
        # artificial low-frequency system keeps the lab frame integrable
        omega_t = 50.0e12  # rad/s -> 50 rad/ps
        # a detuned, pulsed FP gives the two frames different FP terms to round
        p = SystemParams(
            EmitterParams(omega_t, 1e10, 1e9),
            BareMode(omega_t, 1.5e11),
            BareMode(wl_to_omega(omega_to_wl(omega_t) + 3.0), 4.5e11),
            1.5e11,
            PumpSchedule(cw_rate=1e8),
        )
        spec = HilbertSpec(1)
        rho0 = emitter_excited_state(spec)
        pulses = (FreeCarrierPulse(20.0, 5.0, 30.0),)
        t = np.linspace(0.0, 60.0, 61)
        obs = {}
        for frame in ("rotating", "lab"):
            with in_frame(frame):
                traj = evolve(p, pulses, rho0, t, rtol=1e-12, atol=1e-16)
            obs[frame] = np.stack([traj.n_e, traj.n_t, traj.n_fp, traj.n1, traj.n2])
        return np.max(np.abs(obs["rotating"] - obs["lab"]))

    def test_frame_invariance(self, in_frame):
        # not 0.0: the two frames round apart, and the check would see an error
        assert 0.0 < self.frame_deviation(in_frame) < 1e-9

    def test_frame_invariance_detects_a_term_that_bypasses_the_seam(self, in_frame, monkeypatch):
        # a negative control: an FP detuning that subtracts the target frequency
        # itself stays in the rotating frame when the lab frame is patched in
        def bypassing_delta_fp_fn(params, pulses):
            lambda_fp = omega_to_wl(params.fp.omega)

            def delta_fp(t_ps):
                omega_fp = wl_to_omega(lambda_fp + fp_shift_scalar(pulses, t_ps))
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
        pulsed = (FreeCarrierPulse(100.0, 0.6, 150.0),)
        with_pulse = evolve(p, pulsed, emitter_excited_state(spec), t)
        free = evolve(p, (), emitter_excited_state(spec), t[before])
        np.testing.assert_array_equal(densities(with_pulse)[before], densities(free))

    def test_segments_cap_steps_by_the_narrowest_overlapping_pump_window(self):
        # the wide pump window (-5.5, 45.5) ps holds the narrow one's upper
        # part (-12.7, 12.7) ps, and the free-carrier onset at -8 ps lies in
        # the narrow one alone; the extra time 150 ps lies past t1
        narrow, wide = PumpPulse(0.0, 1.0, 6.0), PumpPulse(20.0, 1.0, 12.0)
        pump = PumpSchedule(pulse_events=(wide, narrow))
        pulses = (FreeCarrierPulse(-8.0, 0.6, 150.0),)
        sn, sw = narrow.sigma_ps, wide.sigma_ps
        n_lo, n_hi = 0.0 - 5.0 * sn, 0.0 + 5.0 * sn
        w_lo, w_hi = 20.0 - 5.0 * sw, 20.0 + 5.0 * sw
        assert sn / 2.0 < sw / 2.0 < 60.0 - w_hi
        assert list(_segments(pulses, pump, -50.0, 100.0, [60.0, 150.0])) == [
            (-50.0, n_lo, n_lo + 50.0),
            (n_lo, -8.0, sn / 2.0),
            (-8.0, w_lo, sn / 2.0),
            (w_lo, n_hi, sn / 2.0),
            (n_hi, w_hi, sw / 2.0),
            (w_hi, 60.0, 60.0 - w_hi),
            (60.0, 100.0, 40.0),
        ]

    def test_scalar_delta_matches_array_path(self, in_frame):
        pulses = (
            FreeCarrierPulse(0.0, 0.6, 352.0),
            FreeCarrierPulse(150.0, 0.3, 120.0),
            FreeCarrierPulse(200.0, 0.4, 200.0),
        )
        t = np.concatenate([np.linspace(-100.0, 1200.0, 1301), [0.0, 150.0, 200.0]])
        for frame in ("rotating", "lab"):
            for det_nm, subset in (
                (0.3, pulses[:1]),
                (-0.2, pulses),
            ):
                p = make_params(lambda_fp=LAMBDA_T + det_nm)
                base = 0.0 if frame == "rotating" else p.target.omega
                omega_fp = wl_to_omega(omega_to_wl(p.fp.omega) + fp_shift_at(subset, t))
                expected = (omega_fp - p.target.omega + base) * 1e-12
                with in_frame(frame):
                    fast = _delta_fp_fn(p, subset)
                got = np.array([fast(float(tk)) for tk in t])
                assert np.all(np.abs(got - expected) <= 1e-15 * np.abs(expected))
                shifts = np.array([fp_shift_scalar(subset, float(tk)) for tk in t])
                assert np.max(np.abs(shifts - fp_shift_at(subset, t))) <= 1e-15

    def test_non_monotonic_grid_rejected(self, default_params):
        p = make_params(pump=PumpSchedule())
        with pytest.raises(InvalidInput):
            evolve(p, (), vacuum_state(HilbertSpec(1)), [0.0, 10.0, 5.0])

    @pytest.mark.parametrize("shape", [(18,), (18, 3)])
    def test_non_square_state_rejected(self, shape):
        rho0 = np.zeros(shape, dtype=complex)
        rho0[0] = 1.0
        with pytest.raises(InvalidInput, match="square"):
            evolve(make_params(), (), rho0, [0.0, 1.0])

    def test_integrator_failure_names_its_segment(self, monkeypatch):
        def failing(*args, **kwargs):
            sol = scipy_solve_ivp(*args, **kwargs)
            sol.success, sol.message = False, "forced failure"
            return sol

        monkeypatch.setattr(lindblad, "solve_ivp", failing)
        rho0 = vacuum_state(HilbertSpec(1))
        with pytest.raises(NumericalFailure,
                           match=r"^integrator failed in segment \[0\.0, 10\.0\] ps: forced failure$"):
            evolve(make_params(), (), rho0, [0.0, 10.0])

    def test_broken_generator_stops_at_its_first_evaluation(self, monkeypatch):
        # the "weak-coupling emitter rate" self-test's run, on a generator
        # that breaks the trace: each right-hand-side evaluation checks the
        # trace, so the run fails at once, no later than the first grid time
        # after the start (the first state the grid check would reject),
        # instead of integrating the whole grid first
        monkeypatch.setattr(lindblad, "_Generator", broken_target_generator)
        p = make_params(g=KAPPA_T / 20.0, eta=0.0, lambda_fp=LAMBDA_T + 8.0)
        t = np.linspace(0.0, 2.0 / ((p.emitter.gamma_leaky + p.purcell_rate) * 1e-12), 201)
        start = time.perf_counter()
        with pytest.raises(NumericalFailure, match="trace of rho deviates from 1") as failure:
            evolve(p, (), emitter_excited_state(HilbertSpec(1)), t)
        assert time.perf_counter() - start < 0.5
        evaluated = re.match(r"state evaluated at t = (\S+) ps ", str(failure.value))
        assert evaluated and 0.0 < float(evaluated.group(1)) <= t[1], str(failure.value)

    def test_zero_atol_rejected(self):
        # the integrator's error scale atol + rtol*|y| is 0 on the entries that stay 0
        rho0 = vacuum_state(HilbertSpec(1))
        with pytest.raises(InvalidInput, match="atol"):
            evolve(make_params(), (), rho0, [0.0, 1.0], atol=0.0)


class TestBlockEvolve:
    """``evolve``, which integrates only the entries that rho0 reaches, against the whole vec(rho).

    The oracle integrates the whole vec(rho) itself: scipy's BDF on the full
    generator (``_Generator.block`` over every entry, held sparse), one
    segment per pulse onset, as ``evolve`` splits
    the run.  The terms ``evolve`` drops multiply exact zeros, but its
    integrator and its error norm are its own, so the two agree to the
    integrators' tolerances, not bit for bit.  Measured on the cases here, the
    largest entry deviation is 2.7e-11 (n_max 3, excited start), and each
    state's largest entry is about 1; the bound, 1e-9, is 100 times the
    default rtol.
    """

    BOUND = 1e-9
    BURST = (FreeCarrierPulse(0.0, 0.6, 352.421875),)
    T_GRID = np.linspace(-100.0, 600.0, 176)

    @classmethod
    def _full_space(cls, p, pulses, rho0, t):
        """The states of the full-space solve."""
        spec = HilbertSpec(round(np.sqrt(rho0.shape[0] / 2.0)) - 1)
        gen = _Generator(p, spec)
        l0, l_pump = map(sparse.csr_matrix, gen.block(np.arange(spec.dim**2), True))
        pump = p.pump
        inner = {q.t0_ps for q in pulses}
        bounds = [t[0]] + sorted(x for x in inner if t[0] < x < t[-1]) + [t[-1]]
        states = np.zeros((t.size, spec.dim**2), dtype=complex)
        states[0] = y = rho0.ravel()
        for a, b in zip(bounds[:-1], bounds[1:]):
            started = tuple(q for q in pulses if q.t0_ps <= a)
            delta_fp = _delta_fp_fn(p, started)

            def jac(tk, v):
                shift = sparse.diags(delta_fp(tk) * gen.d_fp)
                return (l0 + shift + (pump.rate_at_ps(tk) - gen.p_cw) * l_pump).tocsr()

            def rhs(tk, v):
                return jac(tk, v) @ v

            inside = np.flatnonzero((t > a) & (t <= b))
            t_eval = np.unique(np.append(t[inside], b))
            sol = scipy_solve_ivp(
                rhs, (a, b), y, method="BDF", t_eval=t_eval, jac=jac, rtol=SOLVER_RTOL,
                atol=SOLVER_ATOL, max_step=b - a,
            )
            assert sol.success
            ys = sol.y.T
            states[inside] = ys[: inside.size]
            y = ys[-1]
        return states.reshape(t.size, spec.dim, spec.dim)

    @classmethod
    def _check(cls, p, pulses, rho0):
        traj = evolve(p, pulses, rho0, cls.T_GRID)
        expected = cls._full_space(p, pulses, rho0, cls.T_GRID)
        assert np.max(np.abs(densities(traj) - expected)) <= cls.BOUND
        return traj

    @pytest.mark.parametrize("n_max, size", [(2, 70), (3, 168)])
    def test_shipped_starts_reach_the_k0_block(self, n_max, size):
        # the closure evolve restricts its generator to, for each shipped start
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(n_max)
        gen = _Generator(p, spec)
        l0, l_pump = gen.block(np.arange(spec.dim**2), True)
        ops = build_space(spec)
        n = np.diag(ops.n_e + ops.n_t + ops.n_fp).round().astype(int)
        k = (n[:, None] - n[None, :]).ravel()
        for rho0 in (steady_state(p, spec=spec), vacuum_state(spec), emitter_excited_state(spec)):
            keep = gen.reach(rho0, True)
            assert keep.size == size and np.all(k[keep] == 0)
            # the columns keep of l0 and l_pump have no entry off the rows keep
            for term in (l0, l_pump):
                columns = term[:, keep]
                assert np.count_nonzero(columns) == np.count_nonzero(columns[keep])
            assert np.count_nonzero(l0[:, keep]) < np.count_nonzero(l0)
            # keep is closed: a state that is 0 off keep, such as any recorded
            # state of a run from rho0, reaches no entry outside it.  The delay
            # scan writes its tails into the reference's columns on this
            indicator = np.zeros(spec.dim**2)
            indicator[keep] = 1.0
            assert np.array_equal(gen.reach(indicator, True), keep)

    @pytest.mark.parametrize("start", ["steady", "vacuum", "excited"])
    @pytest.mark.parametrize("n_max", [2, 3])
    def test_burst_matches_full_space(self, n_max, start):
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(n_max)
        rho0 = {
            "steady": lambda: steady_state(p, spec=spec),
            "vacuum": lambda: vacuum_state(spec),
            "excited": lambda: emitter_excited_state(spec),
        }[start]()
        self._check(p, self.BURST, rho0)

    def test_superposition_spans_three_blocks(self):
        # (|g00> + |e00>)/sqrt(2) has coherences of k = N_bra - N_ket = +-1
        spec = HilbertSpec(2)
        psi = np.zeros(spec.dim, dtype=complex)
        psi[[spec.index(0, 0, 0), spec.index(1, 0, 0)]] = np.sqrt(0.5)
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        traj = self._check(p, self.BURST, np.outer(psi, psi.conj()))
        ops = build_space(spec)
        n = np.diag(ops.n_e + ops.n_t + ops.n_fp).round().astype(int)
        k = n[:, None] - n[None, :]
        assert set(np.unique(k[np.any(densities(traj) != 0.0, axis=0)])) == {-1, 0, 1}


class TestReach:
    """``_Generator.reach`` against the support that the matrix-free
    ``liouvillian_apply`` populates, one basis matrix E_ij at a time."""

    @staticmethod
    def _grown(params, rho0):
        """Sorted indices of vec(rho): the support of ``rho0``, grown by the
        nonzero entries of ``liouvillian_apply`` on each E_ij of the support
        until no new entry appears."""
        d = rho0.shape[0]
        seen = set(zip(*np.nonzero(rho0)))
        todo = list(seen)
        while todo:
            basis = np.zeros((d, d))
            basis[todo.pop()] = 1.0
            for entry in zip(*np.nonzero(liouvillian_apply(params, basis))):
                if entry not in seen:
                    seen.add(entry)
                    todo.append(entry)
        return np.sort([i * d + j for i, j in seen])

    @pytest.mark.parametrize("start", ["vacuum", "excited", "steady"])
    @pytest.mark.parametrize("n_max", [1, 2])
    def test_matches_matrix_free_closure(self, n_max, start):
        # the CW pump puts D[sigma+] into liouvillian_apply, so both patterns
        # of reach, with and without the pulsed l_pump, must give its closure
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(n_max)
        rho0 = {
            "vacuum": lambda: vacuum_state(spec),
            "excited": lambda: emitter_excited_state(spec),
            "steady": lambda: steady_state(p, spec=spec),
        }[start]()
        expected = self._grown(p, rho0)
        assert expected.size == {1: 20, 2: 70}[n_max]
        gen = _Generator(p, spec)
        for pumped in (False, True):
            assert np.array_equal(gen.reach(rho0, pumped), expected), pumped


class TestStateValidity:
    """``make_trajectory`` holds each recorded state to the limits of ``steady_state``."""

    T = np.linspace(0.0, 100.0, 11)

    @staticmethod
    def _states(spec, size):
        # each row the entries on the vacuum's closure of the diagonal rho
        # with populations 0.5, 0.3 and 0.2 on |g00>, |g01> and |g10>
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        keep = _Generator(p, spec).reach(vacuum_state(spec), True)
        rho = np.zeros((spec.dim, spec.dim), dtype=complex)
        rho[[0, 1, 2], [0, 1, 2]] = (0.5, 0.3, 0.2)
        return p, keep, np.tile(rho.ravel()[keep], (size, 1))

    @pytest.mark.parametrize("entry,limit,message", [
        ((1, 2), 1e-10, "not Hermitian within 1e-10"),
        ((3, 3), -1e-8, "not positive"),
        ((0, 0), 1e-8, "trace .* deviates from 1"),
    ])
    def test_invalid_state_names_its_time(self, entry, limit, message):
        spec = HilbertSpec(1)
        p, keep, valid = self._states(spec, self.T.size)
        column = {index: c for c, index in enumerate(keep)}
        for factor, passes in ((0.5, True), (2.0, False)):
            states = valid.copy()
            for i in (7, 9):  # the first failing time is that of row 7
                states[i, column[entry[0] * spec.dim + entry[1]]] += factor * limit
                if entry == (3, 3):
                    states[i, column[0]] -= factor * limit  # the trace stays 1
            if passes:
                traj = make_trajectory(p, (), self.T, states, keep, spec.dim)
                assert traj.states is states
            else:
                with pytest.raises(NumericalFailure, match=message) as failure:
                    make_trajectory(p, (), self.T, states, keep, spec.dim)
                assert str(failure.value).startswith(f"state at t = {self.T[7]} ps ")

    def test_failing_states_are_checked_in_one_pass(self, monkeypatch):
        # rows 7 and 9 fail; the first failing time comes from the values of
        # the one pass over all states, not from a second pass row by row
        spec = HilbertSpec(1)
        p, keep, states = self._states(spec, self.T.size)
        states[[7, 9], 0] += 1e-6
        calls = []

        def counting_block_checks(*args):
            calls.append(args)
            return _block_checks(*args)

        monkeypatch.setattr(lindblad, "_block_checks", counting_block_checks)
        with pytest.raises(NumericalFailure, match="trace .* deviates from 1") as failure:
            make_trajectory(p, (), self.T, states, keep, spec.dim)
        assert str(failure.value).startswith(f"state at t = {self.T[7]} ps ")
        assert len(calls) == 1


class TestBlockChecks:
    """``_block_checks`` on the kept entries against dense ``eigvalsh`` on the whole matrices."""

    @staticmethod
    def _dense(rhos):
        adjoints = np.conj(np.swapaxes(rhos, 1, 2))
        return (
            np.abs(np.einsum("tii->t", rhos) - 1.0),
            np.abs(rhos - adjoints).max(axis=(1, 2)),
            np.linalg.eigvalsh(0.5 * (rhos + adjoints)).min(axis=1),
        )

    @classmethod
    def _compare(cls, rhos, keep):
        """The per-state values against the dense ones; returns their extremes."""
        got = _block_checks(rhos.reshape(len(rhos), -1)[:, keep], keep, rhos.shape[1])
        for values, dense in zip(got, cls._dense(rhos)):
            assert values.shape == (len(rhos),)
            np.testing.assert_allclose(values, dense, rtol=0.0, atol=1e-12)
        trace_dev, herm_dev, min_eig = got
        return trace_dev.max(), herm_dev.max(), min_eig.min()

    @staticmethod
    def _keep(spec, rho0):
        return _Generator(make_params(pump=PumpSchedule(cw_rate=1e8)), spec).reach(rho0, True)

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
    call.  The stepper, ``_LinearNDF``, takes the block as its ``keep``
    option, and ``solve_ivp`` returns the block alone; handing ``solve_ivp``
    the block itself changes this test and the tracer together.  Each ``y0``
    is the only whole vector of a run, so it is where the entries off the
    block are checked to be exactly 0.
    """

    @pytest.mark.parametrize("n_max, size", [(1, 20), (2, 70), (3, 168)])
    def test_fig3_burst_passes_the_whole_vector(self, monkeypatch, n_max, size):
        lengths, blocks = [], []

        def recording_solve_ivp(*args, **kwargs):
            lengths.append(len(args[2]))
            assert kwargs["method"] is lindblad._LinearNDF and callable(kwargs["matrix"])
            keep = kwargs["keep"]
            blocks.append(keep.size)
            assert not np.delete(args[2], keep).any()
            sol = scipy_solve_ivp(*args, **kwargs)
            assert sol.y.shape == (keep.size, kwargs["t_eval"].size)
            return sol

        monkeypatch.setattr(lindblad, "solve_ivp", recording_solve_ivp)
        cfg = load_config(scenario_config("fig3-burst"))
        for start in ("steady", "vacuum", "excited"):
            run = replace(cfg, hilbert=HilbertSpec(n_max), initial_state=start)
            traj = simulate_dynamic(run)
            assert traj.states.shape == (cfg.time_grid_ps.size, size)
        dim = HilbertSpec(n_max).dim
        assert lengths and set(lengths) == {dim * dim}
        assert set(blocks) == {size}


class TestEvolveMemory:
    def test_fig3_burst_peak_is_a_few_times_its_states(self):
        # the peak of Python allocations in one evolve, over the bytes of the
        # states it records: measured 2.98 with numpy 2.4 (about 1 MB of fixed
        # cost plus twice the states: the dense output of the longest segment
        # and its stacking); 4.0 leaves a third of margin.  A dense output
        # that scatters into the whole vec(rho) reads 8.8.
        from cavtune.runs import initial_state_for

        cfg = load_config(scenario_config("fig3-burst"))
        rho0 = initial_state_for(cfg)
        evolve(cfg.params, cfg.pulses, rho0, cfg.time_grid_ps[:2])  # first-call costs untraced
        tracemalloc.start()
        try:
            traj = evolve(cfg.params, cfg.pulses, rho0, cfg.time_grid_ps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / traj.states.nbytes
        print(f"evolve peak over states, fig3-burst n_max 2: {peak / 1e6:.2f} MB / "
              f"{traj.states.nbytes / 1e6:.2f} MB = {ratio:.2f}")
        assert ratio < 4.0, ratio


class TestLinearNDF:
    """``_LinearNDF`` alone, through ``solve_ivp``, against the closed form of
    :func:`cavtune.selftest.rotating_decay`."""

    def test_error_falls_with_the_tolerance(self):
        # measured: 9.4e-6, 2.4e-7 and 5.2e-9, i.e. 9, 24 and 51 times rtol; the
        # log-log slope of the error against rtol is 0.81
        rtols = np.array([1e-6, 1e-8, 1e-10])
        errors = []
        for rtol in rtols:
            sol, error = rotating_decay(rtol)
            assert sol.success and sol.y.shape == (3, 101)
            errors.append(error)
        errors = np.array(errors)
        assert np.all(errors < 100.0 * rtols), errors
        assert np.all(np.diff(errors) < 0.0), errors
        slope = np.polyfit(np.log10(rtols), np.log10(errors), 1)[0]
        assert 0.6 <= slope <= 1.1, slope

    def test_output_is_the_block(self):
        # the dense output covers the kept entries alone; that the whole
        # vectors are 0 off keep is checked where they exist (TestSolveIvpContract)
        sol, _ = rotating_decay(1e-8)
        assert sol.y.shape == (ROTATING_DECAY_KEEP.size, 101)
        assert np.all(sol.y != 0.0)

    def test_each_corrector_solves_its_equation(self, monkeypatch):
        # the y that a Newton solve returns satisfies c A(t) y - psi - d = 0 to
        # the Newton tolerance in the error norm: measured at most 2.1 times it
        # (a corrector stopped after one iteration leaves 370 to 3,800 times it)
        residuals = []
        newton = _LinearNDF._newton

        def checked(self, t_new, y_predict, c, psi, scale):
            solved = newton(self, t_new, y_predict, c, psi, scale)
            if solved is not None:
                _, y, d = solved
                residual = c * (self.matrix(t_new) @ y) - psi - d
                residuals.append(self._norm(residual / scale) / self.newton_tol)
            return solved

        monkeypatch.setattr(_LinearNDF, "_newton", checked)
        for rtol in (1e-6, 1e-10):
            assert rotating_decay(rtol)[0].success
        assert residuals and max(residuals) < 10.0, max(residuals)

    def test_a_failed_corrector_on_kept_factors_refactors(self, monkeypatch):
        # the first Newton solve on kept factors is made to fail: the step
        # factors again at the same c and solves again, before any step cut
        events = []
        newton, factor = _LinearNDF._newton, _LinearNDF._factor

        def failing_once(self, t_new, y_predict, c, psi, scale):
            kept = events[-1][0] != "factor"
            events.append(("newton", c))
            if kept and not any(e[0] == "failed" for e in events):
                events.append(("failed", c))
                return None
            return newton(self, t_new, y_predict, c, psi, scale)

        def counted(self, t, c):
            events.append(("factor", c))
            return factor(self, t, c)

        monkeypatch.setattr(_LinearNDF, "_newton", failing_once)
        monkeypatch.setattr(_LinearNDF, "_factor", counted)
        assert rotating_decay(1e-8)[0].success
        at = events.index(next(e for e in events if e[0] == "failed"))
        c = events[at][1]
        assert events[at + 1 : at + 3] == [("factor", c), ("newton", c)], events[at - 2 : at + 4]

    def test_step_size_collapse_reaches_evolve(self, monkeypatch):
        # an FP frequency 1/(5 ps - t) turns the coherence of (|g00> + |g01>)/sqrt(2)
        # ever faster up to 5 ps, so the step the error test allows falls below
        # the spacing of the times there
        spec = HilbertSpec(1)
        psi = np.zeros(spec.dim, dtype=complex)
        psi[[spec.index(0, 0, 0), spec.index(0, 0, 1)]] = np.sqrt(0.5)
        monkeypatch.setattr(lindblad, "_delta_fp_fn", lambda params, pulses: lambda t: 1.0 / (5.0 - t))
        with pytest.raises(NumericalFailure, match=r"^integrator failed in segment \[0\.0, 10\.0\] ps: "
                           r"Required step size is less than spacing between numbers\.$"):
            evolve(make_params(pump=PumpSchedule()), (), np.outer(psi, psi.conj()),
                   np.linspace(0.0, 10.0, 11))


class TestAgainstRK45Oracle:
    """``evolve`` at the default tolerances against RK45 at rtol 1e-12.

    RK45 is an explicit integrator, independent of the NDF path and its
    Newton matrix.  On a short window around the pulse of each shipped dynamic
    scenario, the map and the filtered curve of the default run stay closer to
    the oracle's, relative to their maxima, than those of RK45 at the former
    defaults (rtol 1e-8, atol 1e-12) do, and its smallest state eigenvalue is
    no lower than theirs.
    """

    ORACLE = dict(rtol=1e-12, atol=1e-16)
    FORMER_DEFAULTS = dict(rtol=1e-8, atol=1e-12)

    @staticmethod
    def _rk45(fun, t_span, y0, method, keep, matrix, **options):
        # fun acts on the block y0[keep], and evolve reads the block back
        return scipy_solve_ivp(fun, t_span, y0[keep], method="RK45", **options)

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
        from cavtune.runs import delay_pulses, initial_state_for

        cfg = load_config(scenario_config(scenario))
        cfg = replace(cfg, hilbert=HilbertSpec(n_max))
        pulses = cfg.pulses if delay_ps is None else delay_pulses(cfg, delay_ps)
        step = cfg.time_grid_ps[1] - cfg.time_grid_ps[0]
        t = np.linspace(*window_ps, round((window_ps[1] - window_ps[0]) / step) + 1)
        rho0 = initial_state_for(cfg)
        (lam_c, fwhm), = cfg.filters

        def observed(**tolerances):
            traj = evolve(cfg.params, pulses, rho0, t, **tolerances)
            pl = synthesize_map(traj, cfg.lambda_grid_nm)
            curve = apply_filter(traj, lam_c, fwhm)
            return traj, pl.intensity, curve.intensity

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
        moved = replace(p, fp=BareMode(wl_to_omega(LAMBDA_T + det_nm), p.fp.kappa))
        traj = evolve(moved, (), emitter_excited_state(HilbertSpec(1)), t)
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

    @pytest.mark.parametrize("n_max", [1, 2, 3])
    def test_weak_pump_closed_form(self, n_max):
        # the one-excitation block against conftest.weak_pump_steady_block,
        # which drops the two-excitation states: the deviation must be first
        # order in the pump, within 7e-3 n_e (measured 1.6e-3 to 3.8e-3 n_e)
        # and with a log-log slope of 1 over 1e4 to 1e6 1/s (measured 0.96 to
        # 1.10; the 1e4 point sits near the solve's floor, so pairwise slopes
        # reach 1.2).  A pump dissipator 1e-3 too strong, or an FP channel
        # without its anticommutator, fails here.
        spec = HilbertSpec(n_max)
        block = np.ix_(*[[spec.index(1, 0, 0), spec.index(0, 1, 0), spec.index(0, 0, 1)]] * 2)
        n_e_op = build_space(spec).n_e
        pumps = (1e4, 1e5, 1e6, 1e8)
        for det_nm in (0.0, 0.6, -0.6, -1.0):
            devs = []
            for pump in pumps:
                p = make_params(lambda_fp=LAMBDA_T + det_nm, pump=PumpSchedule(cw_rate=pump))
                rho = steady_state(p, spec)
                x = weak_pump_steady_block(p)
                devs.append(np.max(np.abs(rho[block] - x)) / np.max(np.abs(x)))
                n_e = expectation(n_e_op, rho).real
                assert devs[-1] <= 7e-3 * n_e, (det_nm, pump, devs[-1] / n_e)
            slope = np.polyfit(np.log(pumps[:3]), np.log(devs[:3]), 1)[0]
            assert abs(slope - 1.0) <= 0.15, (det_nm, slope)

    def test_residual_is_small(self, default_params):
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(2)
        rho = steady_state(p, spec=spec)
        drho = liouvillian_apply(p, rho)
        assert np.linalg.norm(drho) * 1e-12 < 1e-10 * np.linalg.norm(rho)

    @staticmethod
    def _long_time_check(spec):
        from cavtune import apply_filter

        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        rho_ss = steady_state(p, spec=spec)
        t = np.linspace(0.0, 12000.0, 241)
        traj = evolve(p, (), vacuum_state(spec), t)
        curve = apply_filter(traj, 1552.2, 0.5)

        traj_ss = evolve(p, (), rho_ss, np.array([0.0, 1.0]))
        curve_ss = apply_filter(traj_ss, 1552.2, 0.5)
        assert curve.intensity[-1] == pytest.approx(curve_ss.intensity[0], rel=0.01)
        return traj.density(-1), rho_ss

    def test_matches_long_time_evolution(self):
        self._long_time_check(HilbertSpec(2))

    def test_matches_long_time_evolution_n_max_3(self):
        evolved, rho_ss = self._long_time_check(HilbertSpec(3))
        assert np.max(np.abs(evolved - rho_ss)) < 1e-6

    @pytest.mark.parametrize("det_nm", [0.6, -0.6])
    def test_stationary_under_pulse_free_evolve(self, det_nm):
        # evolve starts the FP mode where steady_state puts it, at params.fp,
        # so without a pulse the steady state stays put.  Measured drifts are
        # 7.3e-13 (n_fp, +0.6 nm) and 2.0e-12 (n_t, -0.6 nm) of the steady
        # values, 50x inside the bound; an FP put on the target instead moves
        # n_fp by 70%
        p = make_params(lambda_fp=LAMBDA_T + det_nm, pump=PumpSchedule(cw_rate=1e8))
        spec = HilbertSpec(2)
        rho_ss = steady_state(p, spec=spec)
        traj = evolve(p, (), rho_ss, np.linspace(0.0, 500.0, 101))
        ops = build_space(spec)
        for field, op in (("n_e", ops.n_e), ("n_t", ops.n_t), ("n_fp", ops.n_fp)):
            steady = expectation(op, rho_ss).real
            drift = np.max(np.abs(getattr(traj, field) - steady)) / steady
            assert drift < 1e-10, (field, drift)

    def test_unreachable_residual_raises(self, monkeypatch):
        p = make_params(pump=PumpSchedule(cw_rate=1e8))
        monkeypatch.setattr(lindblad, "STEADY_RESIDUAL_TOL", 1e-30)
        with pytest.raises(NumericalFailure):
            steady_state(p, spec=HilbertSpec(2))

    def test_singular_solve_is_not_unique(self, monkeypatch):
        # a generator whose l0 is 0 leaves the trace row alone in the system:
        # exactly singular on the closure's 20 entries at n_max 1
        class idle_generator(_Generator):
            def block(self, keep, pumped):
                l0, l_pump = super().block(keep, pumped)
                return np.zeros_like(l0), l_pump

        monkeypatch.setattr(lindblad, "_Generator", idle_generator)
        with pytest.raises(NumericalFailure, match="^steady state is not unique: Singular matrix$"):
            steady_state(make_params(pump=PumpSchedule(cw_rate=1e8)), spec=HilbertSpec(1))

    def test_non_unique_returns_state_reached_from_vacuum(self):
        # an emitter with neither coupling, decay nor pump keeps any
        # population, so the steady state is not unique; the one reached from
        # vacuum keeps the emitter in its ground state
        p = make_params(g=0.0, gamma_leaky=0.0)
        for n_max in (1, 3):
            spec = HilbertSpec(n_max)
            rho = steady_state(p, spec=spec)
            evolved = evolve(p, (), vacuum_state(spec), [0.0, 3000.0]).density(-1)
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
            keep = np.flatnonzero(state)
            if passes:
                _require_valid(state.ravel()[keep][None], keep, 4)
            else:
                with pytest.raises(NumericalFailure, match=message):
                    _require_valid(state.ravel()[keep][None], keep, 4)
