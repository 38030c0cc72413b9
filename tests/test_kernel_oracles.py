"""The production signal kernels, pinned to their slow oracles.

Every kernel the request path runs is a restructured, faster version of
a reference implementation kept in :mod:`tests.oracles`. The contract
is exact: ``rtol=0``/``atol=0`` on the paper shape (4 channels x 575
samples at 100 Hz) and on every edge case where a kernel delegates or
clips — signals shorter than the median kernel, kernels 1 and 7, and
keystroke events at (or beyond) the signal edges.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import PAPER_PINS, PipelineConfig
from repro.core import preprocess_trials
from repro.data import StudyData
from repro.features.minirocket import MiniRocket
from repro.signal import calibrate_trial_indices, median_filter_multi
from repro.signal.detrend import _solve_trend
from repro.types import KeystrokeEvent
from tests.oracles import (
    calibrate_trial_indices_reference,
    median_filter_multi_reference,
    preprocess_trials_reference,
    solve_trend_reference,
    transform_reference,
)

PIN = PAPER_PINS[0]
PAPER_SHAPE = (4, 575)


@pytest.fixture(scope="module")
def data():
    return StudyData(n_users=5, seed=21)


@pytest.fixture(scope="module")
def paper_trials(data):
    trials = (
        data.trials(0, PIN, "one_handed", 4)
        + data.trials(0, PIN, "double3", 2)
        + data.emulating_trials(4, 0, PIN, 2)
    )
    for trial in trials:  # paper-shaped: 4 channels, ~5.75 s at 100 Hz
        assert trial.recording.samples.shape[0] == PAPER_SHAPE[0]
        assert abs(trial.recording.n_samples - PAPER_SHAPE[1]) < 40
    return trials


def _paper_signal(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    t = np.arange(PAPER_SHAPE[1]) / 100.0
    pulse = np.sin(2 * np.pi * 1.2 * t)
    return pulse + 0.2 * rng.standard_normal(PAPER_SHAPE)


def _assert_same_preprocessed(got, want):
    assert got.keystroke_indices == want.keystroke_indices
    assert got.keystroke_detected == want.keystroke_detected
    assert got.energy_threshold == want.energy_threshold
    np.testing.assert_allclose(got.filtered, want.filtered, rtol=0, atol=0)
    np.testing.assert_allclose(got.detrended, want.detrended, rtol=0, atol=0)
    np.testing.assert_allclose(got.reference, want.reference, rtol=0, atol=0)


class TestMedianFilterMulti:
    @pytest.mark.parametrize("kernel", [1, 3, 5, 7])
    def test_paper_shape(self, kernel):
        x = _paper_signal(kernel)
        np.testing.assert_allclose(
            median_filter_multi(x, kernel),
            median_filter_multi_reference(x, kernel),
            rtol=0,
            atol=0,
        )

    @pytest.mark.parametrize("kernel,n", [(3, 1), (3, 2), (5, 1), (5, 4), (7, 6)])
    def test_signal_shorter_than_kernel(self, kernel, n):
        x = _paper_signal()[:, :n]
        np.testing.assert_allclose(
            median_filter_multi(x, kernel),
            median_filter_multi_reference(x, kernel),
            rtol=0,
            atol=0,
        )

    @pytest.mark.parametrize("kernel", [3, 5, 7])
    def test_signal_exactly_kernel_long(self, kernel):
        x = _paper_signal()[:, :kernel]
        np.testing.assert_allclose(
            median_filter_multi(x, kernel),
            median_filter_multi_reference(x, kernel),
            rtol=0,
            atol=0,
        )

    def test_ties_and_plateaus(self):
        x = np.round(_paper_signal(3), 1)  # heavy value repetition
        for kernel in (3, 5):
            np.testing.assert_allclose(
                median_filter_multi(x, kernel),
                median_filter_multi_reference(x, kernel),
                rtol=0,
                atol=0,
            )


class TestSolveTrend:
    def test_paper_shape(self):
        rows = _paper_signal(1)
        np.testing.assert_allclose(
            _solve_trend(rows, 50.0),
            solve_trend_reference(rows, 50.0),
            rtol=0,
            atol=0,
        )

    def test_stacked_batch(self):
        rows = np.vstack([_paper_signal(s) for s in range(3)])
        np.testing.assert_allclose(
            _solve_trend(rows, 50.0),
            solve_trend_reference(rows, 50.0),
            rtol=0,
            atol=0,
        )


class TestCalibrateTrialIndices:
    def test_paper_trials(self, paper_trials, pipeline_config):
        for trial in paper_trials:
            reference = median_filter_multi(
                trial.recording.samples, pipeline_config.median_kernel
            ).mean(axis=0)
            assert calibrate_trial_indices(
                trial.recording, trial.events, pipeline_config, reference
            ) == calibrate_trial_indices_reference(
                trial.recording, trial.events, pipeline_config, reference
            )

    @pytest.mark.parametrize(
        "times",
        [
            (0.0,),  # first sample
            (5.74,),  # last sample
            (-1.0, 9.0),  # clipped onto both edges
            (0.02, 0.1, 5.6, 5.7),  # windows reaching into both SG edges
            (0.0, 2.0, 2.0, 5.74),  # duplicate interior press
        ],
    )
    def test_events_at_signal_edges(self, paper_trials, pipeline_config, times):
        recording = paper_trials[0].recording
        recording = recording.with_samples(recording.samples[:, : PAPER_SHAPE[1]])
        reference = recording.samples.mean(axis=0)
        events = [
            KeystrokeEvent(key="1", true_time=t, reported_time=t + recording.start_time)
            for t in times
        ]
        assert calibrate_trial_indices(
            recording, events, pipeline_config, reference
        ) == calibrate_trial_indices_reference(
            recording, events, pipeline_config, reference
        )


class TestPreprocessTrials:
    def test_single_probe(self, paper_trials, pipeline_config):
        for trial in paper_trials:
            (got,) = preprocess_trials([trial], pipeline_config)
            (want,) = preprocess_trials_reference([trial], pipeline_config)
            _assert_same_preprocessed(got, want)

    def test_mixed_shape_batch(self, paper_trials, pipeline_config):
        short = paper_trials[1]
        short = dataclasses.replace(
            short, recording=short.recording.with_samples(
                short.recording.samples[:, :400]
            )
        )
        batch = paper_trials[:3] + [short] + paper_trials[3:]
        for got, want in zip(
            preprocess_trials(batch, pipeline_config),
            preprocess_trials_reference(batch, pipeline_config),
        ):
            _assert_same_preprocessed(got, want)

    @pytest.mark.parametrize("kernel", [1, 7])
    def test_delegating_median_kernels(self, paper_trials, kernel):
        config = PipelineConfig(median_kernel=kernel)
        for got, want in zip(
            preprocess_trials(paper_trials[:2], config),
            preprocess_trials_reference(paper_trials[:2], config),
        ):
            _assert_same_preprocessed(got, want)


class TestMiniRocketTransform:
    def test_paper_shape(self):
        x = _paper_signal(5)[np.newaxis, :, :480]
        rocket = MiniRocket(num_features=1680, seed=0).fit(
            np.concatenate([x, x[:, :, ::-1]])
        )
        np.testing.assert_allclose(
            rocket.transform(x), transform_reference(rocket, x), rtol=0, atol=0
        )
