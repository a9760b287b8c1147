import numpy as np
import pytest

from cavtune import FreeCarrierPulse, InvalidInput, fp_shift_at
from cavtune.config import SCENARIO_NAMES, load_config, scenario_config
from cavtune.runs import delay_pulses
from cavtune.tuning import fp_shift_scalar


class TestFpShift:
    def test_pre_pulse_baseline(self):
        # before its pulse the FP stays where params.fp puts it
        pulses = (FreeCarrierPulse(100.0, 0.6, 150.0),)
        assert fp_shift_at(pulses, -50.0) == 0.0
        assert fp_shift_at(pulses, 99.999) == 0.0

    def test_pulled_onto_resonance(self):
        # a +0.6 nm FP is pulled exactly onto the target at the pulse's arrival
        pulses = (FreeCarrierPulse(0.0, 0.6, 200.0),)
        assert fp_shift_at(pulses, 0.0) == -0.6

    def test_exponential_half_life(self):
        tau = 180.0
        pulses = (FreeCarrierPulse(0.0, 0.6, tau),)
        assert fp_shift_at(pulses, tau * np.log(2.0)) == pytest.approx(-0.3, rel=1e-12)

    def test_causality(self):
        early = (FreeCarrierPulse(500.0, 0.6, 150.0),)
        t = np.linspace(-200.0, 499.0, 100)
        assert np.all(fp_shift_at(early, t) == 0.0)

    def test_superposition_exact(self):
        p1 = FreeCarrierPulse(0.0, 0.4, 100.0)
        p2 = FreeCarrierPulse(150.0, 0.7, 300.0)
        t = np.linspace(-50.0, 2000.0, 500)
        both = fp_shift_at((p1, p2), t)
        split = fp_shift_at((p1,), t) + fp_shift_at((p2,), t)
        assert np.array_equal(both, split)

    def test_recovery_within_five_lifetimes(self):
        pulses = (FreeCarrierPulse(0.0, 0.6, 200.0),)
        t = np.linspace(1001.0, 3000.0, 50)  # > 5 tau
        assert np.all(np.abs(fp_shift_at(pulses, t)) < 0.01 * 0.6)

    def test_sign_discipline(self):
        # free carriers shift blue (negative nm), never red
        pulses = (FreeCarrierPulse(0.0, 0.6, 200.0), FreeCarrierPulse(300.0, 0.2, 90.0))
        t = np.linspace(-100.0, 1500.0, 200)
        assert np.all(fp_shift_at(pulses, t) <= 0.0)

    def test_load_config_sorts_pulses(self):
        # the config is where pulses come in from outside; runs take them in order
        raw = scenario_config("fig3-burst")
        raw["profile"]["pulses"] = [
            {"t0_ps": t0, "delta_lambda_max_nm": 0.1, "tau_fc_ps": 100.0}
            for t0 in (500.0, -10.0, 200.0)
        ]
        cfg = load_config(raw)
        assert [p.t0_ps for p in cfg.pulses] == [-10.0, 200.0, 500.0]
        assert cfg.baseline_window_ps == (-510.0, -10.0)

    def test_constant_profile(self):
        assert np.array_equal(fp_shift_at((), [0.0, 10.0, 20.0]), [0.0, 0.0, 0.0])

    def test_monotonic_recovery(self):
        pulses = (FreeCarrierPulse(0.0, 0.6, 150.0),)
        t = np.linspace(5.0, 1500.0, 200)
        assert np.all(np.diff(fp_shift_at(pulses, t)) > 0.0)  # recovering toward longer wavelength

    def test_crossing_times_match_analytic_inversion(self):
        # pulse pushes the FP out of the eta-wide resonance window and back
        tau, amp, thresh = 150.0, 0.6, 0.2
        pulses = (FreeCarrierPulse(0.0, amp, tau),)
        t = np.linspace(-50.0, 1200.0, 2501)
        shift = fp_shift_at(pulses, t)
        outside = np.abs(shift) > thresh
        t_out = t[np.argmax(outside)]
        t_back = t[len(outside) - 1 - np.argmax(outside[::-1])]
        dt = t[1] - t[0]
        assert abs(t_out - 0.0) <= dt
        assert abs((t_back + dt) - tau * np.log(amp / thresh)) <= dt

    def test_array_shape_kept(self):
        pulses = (FreeCarrierPulse(0.0, 0.6, 150.0),)
        t = np.linspace(-10.0, 500.0, 12).reshape(3, 4)
        assert np.array_equal(fp_shift_at(pulses, t), fp_shift_at(pulses, t.ravel()).reshape(3, 4))
        assert fp_shift_at(pulses, np.array([])).shape == (0,)
        with pytest.raises(InvalidInput):
            fp_shift_at(pulses, [0.0, np.nan])

    def test_validation(self):
        with pytest.raises(InvalidInput):
            FreeCarrierPulse(0.0, -0.1, 100.0)
        with pytest.raises(InvalidInput):
            FreeCarrierPulse(0.0, 0.1, 0.0)


def _shipped_pulses():
    """The pulses of each run of a shipped dynamic scenario, with its time grid."""
    for name in SCENARIO_NAMES:
        cfg = load_config(scenario_config(name))
        if cfg.time_grid_ps is None:
            continue
        yield name, cfg.pulses, cfg.time_grid_ps
        for delay in cfg.delays_ps or ():
            yield f"{name}@{delay:g}", delay_pulses(cfg, delay), cfg.time_grid_ps


@pytest.mark.parametrize(
    "pulses,t", [p[1:] for p in _shipped_pulses()], ids=[p[0] for p in _shipped_pulses()]
)
def test_array_shift_is_the_scalar_model_bit_for_bit(pulses, t):
    # the trajectory's coupled modes and the integrator's RHS read the same model
    scalar = np.array([fp_shift_scalar(pulses, tk) for tk in t.tolist()])
    assert np.array_equal(fp_shift_at(pulses, t), scalar)
