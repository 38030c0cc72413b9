"""Unit tests for the preprocessing pipeline."""

import dataclasses

import numpy as np
import pytest

from repro.config import PipelineConfig
from repro.core import preprocess_trial
from repro.errors import ConfigurationError, SignalError
from repro.signal import decimate_recording


@pytest.fixture(scope="module")
def preprocessed(one_trial, pipeline_config):
    return preprocess_trial(one_trial, pipeline_config)


class TestPreprocessTrial:
    def test_shapes(self, preprocessed, one_trial):
        rec = one_trial.recording
        assert preprocessed.filtered.shape == rec.samples.shape
        assert preprocessed.detrended.shape == rec.samples.shape
        assert preprocessed.reference.shape == (rec.n_samples,)

    def test_one_keystroke_index_per_digit(self, preprocessed, one_trial):
        assert len(preprocessed.keystroke_indices) == len(one_trial.pin)

    def test_all_one_handed_keystrokes_detected(self, preprocessed):
        """Section III: keystroke artifacts dominate the heartbeat, so
        a clean one-handed entry detects all four keystrokes."""
        assert preprocessed.detected_count == 4

    def test_detected_positions(self, preprocessed):
        assert preprocessed.detected_positions() == [0, 1, 2, 3]

    def test_calibrated_indices_near_true_presses(self, preprocessed, one_trial):
        fs = one_trial.recording.fs
        for index, event in zip(
            preprocessed.keystroke_indices, one_trial.events
        ):
            assert abs(index - event.true_time * fs) < 35

    def test_detrended_reference_is_roughly_zero_mean(self, preprocessed):
        assert abs(np.mean(preprocessed.reference)) < 0.2

    def test_fs_mismatch_rejected(self, one_trial):
        config = PipelineConfig().scaled_to(50.0)
        with pytest.raises(SignalError):
            preprocess_trial(one_trial, config)

    def test_decimated_trial_with_scaled_config(self, one_trial):
        config = PipelineConfig().scaled_to(50.0)
        trial = dataclasses.replace(
            one_trial, recording=decimate_recording(one_trial.recording, 50.0)
        )
        pre = preprocess_trial(trial, config)
        assert pre.detected_count >= 3

    def test_segment_extraction(self, preprocessed, pipeline_config):
        seg = preprocessed.segment(1, pipeline_config.segment_window)
        assert seg.samples.shape == (4, pipeline_config.segment_window)
        assert seg.key == "6"

    def test_segment_position_out_of_range(self, preprocessed):
        with pytest.raises(SignalError):
            preprocessed.segment(7)

    def test_segment_default_window_comes_from_config(self, one_trial):
        """``segment()`` without a window uses the trial's own config,
        not a hard-coded 90."""
        config = dataclasses.replace(PipelineConfig(), segment_window=64)
        pre = preprocess_trial(one_trial, config)
        assert pre.config is config
        assert pre.segment(0).samples.shape == (4, 64)

    def test_segment_window_zero_is_rejected_not_defaulted(self, preprocessed):
        """An explicit ``window=0`` must reach ``segment_around`` (which
        rejects it) instead of being silently rewritten to the default —
        the old ``window or 90`` idiom hid this class of caller bug."""
        with pytest.raises(ConfigurationError):
            preprocessed.segment(0, window=0)

    def test_two_handed_detects_only_watch_hand(
        self, population, synthesizer, pipeline_config
    ):
        hits = []
        for seed in range(6):
            rng = np.random.default_rng(300 + seed)
            trial = synthesizer.synthesize_trial(
                population[0], "1628", rng, one_handed=False, forced_left_count=2
            )
            pre = preprocess_trial(trial, pipeline_config)
            hits.append(pre.detected_count)
        # Most two-left-keystroke trials detect exactly 2 keystrokes.
        assert np.median(hits) == 2


class TestPreprocessTrialsBatch:
    """The batched entry point must match the per-trial paths."""

    @pytest.fixture(scope="class")
    def mixed_trials(self, study_data):
        # Trials of several users: synthesized lengths differ, so the
        # batch spans multiple same-shape groups.
        trials = []
        for uid in (0, 1, 2):
            trials.extend(study_data.trials(uid, "1628", "one_handed", 2))
        return trials

    def test_matches_preprocess_trial(self, mixed_trials, pipeline_config):
        from repro.core import preprocess_trials

        batched = preprocess_trials(mixed_trials, pipeline_config)
        for got, trial in zip(batched, mixed_trials):
            single = preprocess_trial(trial, pipeline_config)
            assert got.trial is trial
            assert got.keystroke_indices == single.keystroke_indices
            assert got.keystroke_detected == single.keystroke_detected
            assert np.isclose(got.energy_threshold, single.energy_threshold)
            assert np.array_equal(got.filtered, single.filtered)
            assert np.array_equal(got.detrended, single.detrended)
            assert np.array_equal(got.reference, single.reference)

    def test_matches_reference_path(self, mixed_trials, pipeline_config):
        """Against the pre-banded per-channel sparse-LU reference."""
        from repro.core.pipeline import preprocess_trials
        from tests.oracles import preprocess_trial_reference

        batched = preprocess_trials(mixed_trials, pipeline_config)
        for got, trial in zip(batched, mixed_trials):
            ref = preprocess_trial_reference(trial, pipeline_config)
            assert got.keystroke_indices == ref.keystroke_indices
            assert got.keystroke_detected == ref.keystroke_detected
            np.testing.assert_allclose(
                got.detrended, ref.detrended, rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(
                got.reference, ref.reference, rtol=0, atol=1e-10
            )

    def test_group_order_restored(self, study_data, pipeline_config):
        """Interleaved shapes come back in input order."""
        from repro.core import preprocess_trials

        a = study_data.trials(0, "1628", "one_handed", 2)
        b = study_data.trials(3, "1628", "one_handed", 2)
        interleaved = [a[0], b[0], a[1], b[1]]
        batched = preprocess_trials(interleaved, pipeline_config)
        for got, trial in zip(batched, interleaved):
            assert got.trial is trial

    def test_empty_batch(self, pipeline_config):
        from repro.core import preprocess_trials

        assert preprocess_trials([], pipeline_config) == []

    def test_fs_mismatch_rejected(self, one_trial):
        from repro.core import preprocess_trials

        bad = PipelineConfig().scaled_to(25.0)
        with pytest.raises(SignalError):
            preprocess_trials([one_trial], bad)
