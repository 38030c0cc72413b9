"""PPG samples preprocessing (the first phase of Fig. 4).

``preprocess_trial`` applies, in order: median-filter noise removal,
fine-grained keystroke time calibration against the channel-average
reference (Eq. 1), smoothness-priors detrending (Eq. 2-3), and
keystroke presence detection by short-time energy thresholding. The
result carries everything the enrollment and authentication phases
need: detrended channels, calibrated per-keystroke indices, and the
per-keystroke detection flags that drive input-case identification.

``preprocess_trials`` is the one implementation, for single probes and
batches alike: the median filter is a selection network vectorized
across channels, calibration smooths with cached Savitzky-Golay FIR
coefficients and scores every keystroke in one gather, and same-length
trials are stacked so all their channels go through the
smoothness-priors detrend as a single multi-RHS ``pbtrs`` solve against
one cached factorization. ``preprocess_trial`` delegates to it. The
slower pre-optimization kernels survive only as test oracles
(``tests/oracles.py``), pinned bit-for-bit to these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..config import PipelineConfig
from ..errors import SignalError
from ..signal import (
    calibrate_trial_indices,
    median_filter_multi,
    segment_around,
    short_time_energy,
    smoothness_priors_detrend_batch,
)
from ..types import PinEntryTrial, SegmentedKeystroke


@dataclass(frozen=True)
class PreprocessedTrial:
    """Output of the preprocessing phase for one PIN-entry trial.

    Attributes:
        trial: the raw input trial.
        filtered: median-filtered channels, ``(n_channels, n)``.
        detrended: detrended filtered channels, ``(n_channels, n)``.
        reference: channel-average detrended signal used for energy
            analysis, shape ``(n,)``.
        keystroke_indices: calibrated sample index per typed digit.
        keystroke_detected: per-digit flag — True when the short-time
            energy around the calibrated index exceeds the threshold.
        energy_threshold: the threshold used (1/2 of the mean
            short-time energy by default).
        config: the pipeline configuration the trial was preprocessed
            with; supplies the default segment window.
    """

    trial: PinEntryTrial
    filtered: np.ndarray
    detrended: np.ndarray
    reference: np.ndarray
    keystroke_indices: Tuple[int, ...]
    keystroke_detected: Tuple[bool, ...]
    energy_threshold: float
    config: Optional[PipelineConfig] = None

    @property
    def detected_count(self) -> int:
        """Number of keystrokes whose artifact was detected."""
        return int(sum(self.keystroke_detected))

    def detected_positions(self) -> List[int]:
        """Digit positions (0-based within the PIN) that were detected."""
        return [i for i, hit in enumerate(self.keystroke_detected) if hit]

    def segment(self, position: int, window: Optional[int] = None) -> SegmentedKeystroke:
        """Cut the single-keystroke waveform for digit ``position``.

        Args:
            position: 0-based index into the typed PIN.
            window: segment length; ``None`` (the default) uses the
                ``segment_window`` of the config the trial was
                preprocessed with. An explicit value — including an
                invalid one like 0, which ``segment_around`` rejects —
                is passed through untouched.
        """
        if not 0 <= position < len(self.trial.pin):
            raise SignalError(
                f"position {position} outside PIN of length {len(self.trial.pin)}"
            )
        if window is None:
            config = self.config if self.config is not None else PipelineConfig()
            window = config.segment_window
        center = self.keystroke_indices[position]
        samples = segment_around(self.detrended, center, window)
        return SegmentedKeystroke(
            samples=samples,
            key=self.trial.pin[position],
            center_index=center,
            fs=self.trial.recording.fs,
        )


def _finalize_trial(
    trial: PinEntryTrial,
    filtered: np.ndarray,
    detrended: np.ndarray,
    config: PipelineConfig,
) -> PreprocessedTrial:
    """Calibration, energy thresholding, and assembly for one trial."""
    # Calibration searches the channel-average of the filtered signal:
    # keystroke artifacts are coherent across channels while sensor
    # noise is not, so averaging raises the artifact contrast.
    calibration_reference = filtered.mean(axis=0)
    indices = calibrate_trial_indices(
        trial.recording, trial.events, config, calibration_reference
    )

    reference = detrended.mean(axis=0)
    energy = short_time_energy(reference, config.energy_window)
    threshold = config.energy_threshold_ratio * float(energy.mean())
    detected = tuple(bool(energy[i] > threshold) for i in indices)

    return PreprocessedTrial(
        trial=trial,
        filtered=filtered,
        detrended=detrended,
        reference=reference,
        keystroke_indices=tuple(int(i) for i in indices),
        keystroke_detected=detected,
        energy_threshold=threshold,
        config=config,
    )


def _validate_probe(trial: PinEntryTrial, config: PipelineConfig) -> None:
    """Typed input checks run before any signal processing."""
    if abs(trial.recording.fs - config.fs) > 1e-9:
        raise SignalError(
            f"recording at {trial.recording.fs} Hz but pipeline configured "
            f"for {config.fs} Hz; use PipelineConfig.scaled_to"
        )
    if not bool(np.all(np.isfinite(trial.recording.samples))):
        # Fail with a typed error instead of a NaN-poisoned crash
        # deep inside scipy. Known-missing (NaN) samples are the
        # degradation policy's job, upstream of preprocessing.
        raise SignalError(
            "recording contains non-finite samples; repair them first "
            "(e.g. via a DegradationPolicy with gap repair)"
        )


def preprocess_trials(
    trials: Sequence[PinEntryTrial], config: Optional[PipelineConfig] = None
) -> List[PreprocessedTrial]:
    """Run the preprocessing phase on a batch of trials.

    Functionally identical to mapping :func:`preprocess_trial` over
    ``trials``, but the heavy array work is batched: the median filter
    runs vectorized across all channels of a trial, and all trials that
    share a ``(channels, n)`` shape are stacked so their detrend is a
    single multi-RHS banded solve against one cached factorization.

    Args:
        trials: raw PIN-entry trials, any mix of shapes.
        config: pipeline constants; defaults to the paper's values. The
            config's ``fs`` must match every recording's.

    Returns:
        Preprocessed trials, in input order.

    Raises:
        SignalError: on a sampling-rate mismatch, an empty recording, or
            non-finite samples.
    """
    if config is None:
        config = PipelineConfig()
    trials = list(trials)
    for trial in trials:
        _validate_probe(trial, config)

    filtered_list = [
        median_filter_multi(trial.recording.samples, config.median_kernel)
        for trial in trials
    ]

    # Group same-shape trials so each group's detrend is one stacked
    # multi-RHS solve. dict preserves insertion order, and indices within
    # a group stay ascending, so output order is easy to restore.
    groups: Dict[Tuple[int, int], List[int]] = {}
    for idx, filtered in enumerate(filtered_list):
        groups.setdefault(filtered.shape, []).append(idx)

    detrended_list: List[Optional[np.ndarray]] = [None] * len(trials)
    for members in groups.values():
        stack = np.stack([filtered_list[idx] for idx in members])
        detrended_stack = smoothness_priors_detrend_batch(
            stack, config.detrend_lambda
        )
        for pos, idx in enumerate(members):
            detrended_list[idx] = detrended_stack[pos]

    results = []
    for trial, filtered, detrended in zip(trials, filtered_list, detrended_list):
        assert detrended is not None  # every index belongs to one group
        results.append(_finalize_trial(trial, filtered, detrended, config))
    return results


def preprocess_trial(
    trial: PinEntryTrial, config: Optional[PipelineConfig] = None
) -> PreprocessedTrial:
    """Run the full preprocessing phase on one trial.

    Delegates to the batched :func:`preprocess_trials`.

    Args:
        trial: raw PIN-entry trial.
        config: pipeline constants; defaults to the paper's values. The
            config's ``fs`` must match the recording's.

    Returns:
        The preprocessed trial.

    Raises:
        SignalError: on a sampling-rate mismatch or an empty recording.
    """
    return preprocess_trials([trial], config)[0]

