"""Unit tests for fine-grained keystroke time calibration."""

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.errors import ConfigurationError, SignalError
from repro.signal import calibrate_keystroke_index, calibrate_trial_indices
from tests.oracles import calibrate_trial_indices_reference


def _bump_signal(n=600, center=300, amplitude=5.0, width=0.05, fs=100.0):
    """A keystroke-like bump on a small heartbeat-like carrier."""
    t = np.arange(n) / fs
    carrier = 0.5 * np.sin(2 * np.pi * 1.2 * t)
    bump = amplitude * np.exp(-0.5 * ((t - center / fs) / width) ** 2)
    return carrier + bump


class TestCalibration:
    def test_recovers_apex_from_offset_report(self):
        signal = _bump_signal(center=300)
        for offset in (-12, -5, 0, 5, 12):
            calibrated = calibrate_keystroke_index(signal, 300 + offset, window=30)
            assert abs(calibrated - 300) <= 3

    def test_recovers_trough_too(self):
        signal = -_bump_signal(center=250)
        calibrated = calibrate_keystroke_index(signal, 255, window=30)
        assert abs(calibrated - 250) <= 3

    def test_near_edge_report(self):
        signal = _bump_signal(n=100, center=10)
        calibrated = calibrate_keystroke_index(signal, 5, window=30)
        assert 0 <= calibrated < 100

    def test_out_of_range_report_rejected(self):
        with pytest.raises(SignalError):
            calibrate_keystroke_index(np.zeros(100), 150)

    def test_tiny_window_rejected(self):
        with pytest.raises(ConfigurationError):
            calibrate_keystroke_index(np.zeros(100), 50, window=1)

    def test_2d_rejected(self):
        with pytest.raises(SignalError):
            calibrate_keystroke_index(np.zeros((2, 100)), 50)


class TestTrialCalibration:
    def test_all_keystrokes_calibrated(self, one_trial, pipeline_config):
        from repro.signal import median_filter

        rec = one_trial.recording
        reference = np.vstack(
            [median_filter(ch, pipeline_config.median_kernel) for ch in rec.samples]
        ).mean(axis=0)
        indices = calibrate_trial_indices(
            rec, one_trial.events, pipeline_config, reference
        )
        assert len(indices) == len(one_trial.events)
        # Calibrated index should land within the artifact (~0.3 s of
        # the true press), much closer than the raw comm-delay jitter.
        for index, event in zip(indices, one_trial.events):
            true_index = int(round(event.true_time * rec.fs))
            assert abs(index - true_index) <= 30

    def test_reference_length_mismatch_rejected(self, one_trial, pipeline_config):
        with pytest.raises(SignalError):
            calibrate_trial_indices(
                one_trial.recording,
                one_trial.events,
                pipeline_config,
                np.zeros(10),
            )

    def test_calibration_beats_reported_times(self, population, synthesizer, pipeline_config):
        """On average, calibration must reduce the timestamp error."""
        from repro.signal import median_filter

        rng = np.random.default_rng(2024)
        raw_err, cal_err = [], []
        for rep in range(8):
            trial = synthesizer.synthesize_trial(population[rep % 4], "1628", rng)
            rec = trial.recording
            reference = np.vstack(
                [median_filter(ch, pipeline_config.median_kernel) for ch in rec.samples]
            ).mean(axis=0)
            indices = calibrate_trial_indices(
                rec, trial.events, pipeline_config, reference
            )
            for index, event in zip(indices, trial.events):
                true_index = int(round(event.true_time * rec.fs))
                reported_index = int(round(event.reported_time * rec.fs))
                # Compare against the artifact apex region (the peak
                # lies a few samples after the press).
                raw_err.append(abs(reported_index - true_index))
                cal_err.append(abs(index - true_index))
        # The calibrated positions are allowed to sit on the apex
        # (slightly after the press); what matters is consistency:
        # their spread must be tight.
        assert np.std(cal_err) <= np.std(raw_err) + 2.0


def _recording(n, fs=100.0, start_time=0.0, seed=0):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal((4, n))
    from repro.types import PPGRecording

    return PPGRecording(samples=samples, fs=fs, start_time=start_time)


def _events(times):
    from repro.types import KeystrokeEvent

    return [
        KeystrokeEvent(key=str(i % 10), true_time=t, reported_time=t)
        for i, t in enumerate(times)
    ]


class TestFastTrialCalibration:
    """calibrate_trial_indices must be result-identical to the
    scipy-savgol oracle — same indices, same errors."""

    def test_randomized_parity(self):
        from repro.signal.filters import clear_savgol_cache

        rng = np.random.default_rng(7)
        clear_savgol_cache()
        for case in range(40):
            n = int(rng.integers(40, 800))
            window = int(rng.integers(2, 61))
            sg_window = int(rng.choice([5, 7, 11, 15]))
            config = PipelineConfig(
                calibration_window=window,
                sg_window=sg_window,
                sg_polyorder=3,
            )
            rec = _recording(n, seed=case)
            # A heartbeat-like reference with occasional flat plateaus,
            # so ties and candidate-poor windows get exercised too.
            t = np.arange(n) / rec.fs
            reference = np.sin(2 * np.pi * 1.3 * t) + 0.1 * rng.standard_normal(n)
            if case % 3 == 0:
                lo = int(rng.integers(0, max(1, n - 10)))
                reference[lo : lo + 10] = reference[lo]
            k = int(rng.integers(1, 7))
            # Reported times spanning edges, interior, and out-of-range
            # (the raw index is clipped into the signal by both paths).
            times = rng.uniform(-0.2, n / rec.fs + 0.2, size=k)
            events = _events(times)
            slow = calibrate_trial_indices_reference(rec, events, config, reference)
            fast = calibrate_trial_indices(rec, events, config, reference)
            assert fast == slow, (
                f"case {case}: n={n} window={window} sg={sg_window}"
            )

    def test_empty_events(self, pipeline_config):

        rec = _recording(120)
        reference = np.linspace(0.0, 1.0, 120)
        assert calibrate_trial_indices(
            rec, [], pipeline_config, reference
        ) == calibrate_trial_indices_reference(rec, [], pipeline_config, reference)

    def test_error_parity(self, pipeline_config):

        rec = _recording(100)
        events = _events([0.5])
        bad_ref = np.zeros(10)
        with pytest.raises(SignalError) as slow_err:
            calibrate_trial_indices_reference(rec, events, pipeline_config, bad_ref)
        with pytest.raises(SignalError) as fast_err:
            calibrate_trial_indices(rec, events, pipeline_config, bad_ref)
        assert str(fast_err.value) == str(slow_err.value)

        # PipelineConfig rejects calibration_window < 2 at construction,
        # so a stub drives the functions' own defensive check.
        tiny = type(
            "TinyConfig",
            (),
            {"calibration_window": 1, "sg_window": 11, "sg_polyorder": 3},
        )()
        good_ref = np.zeros(100)
        with pytest.raises(ConfigurationError) as slow_cfg:
            calibrate_trial_indices_reference(rec, events, tiny, good_ref)
        with pytest.raises(ConfigurationError) as fast_cfg:
            calibrate_trial_indices(rec, events, tiny, good_ref)
        assert str(fast_cfg.value) == str(slow_cfg.value)
