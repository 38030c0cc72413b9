"""Slow reference implementations, kept only as test oracles.

The production kernels in ``repro.signal`` and ``repro.features`` are
restructured for speed; each is pinned to one of these at
``rtol=0``/``atol=0`` (or solver precision, for the sparse-LU detrend).
Nothing under ``src/`` imports this module. The bench scripts import it
from the repository root to time the pre-optimization path against the
production one.

- :func:`median_filter_multi_reference` — the sort-based sliding-window
  median (one ``np.median`` per window).
- :func:`calibrate_trial_indices_reference` — Eq. 1 calibration with a
  fresh ``scipy.signal.savgol_filter`` per trial and the scalar
  per-candidate search.
- :func:`solve_trend_reference` — the banded solve through
  ``scipy.linalg.cho_solve_banded`` (the validated wrapper around the
  same ``pbtrs`` call).
- :func:`estimate_trend_reference` — the original generic sparse-LU
  solve of the Eq. 2-3 system.
- :func:`preprocess_trials_reference` — the batched preprocessing phase
  assembled from the oracle kernels above (the staged engine's
  preprocessing before the fast kernels moved into it).
- :func:`preprocess_trial_reference` — the original per-channel,
  per-keystroke, sparse-LU preprocessing.
- :func:`authenticate_reference` — one probe through the staged stage
  chain with :func:`preprocess_trials_reference` as its preprocessing.
- :func:`transform_reference` — MiniRocket's original per-kernel loop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from scipy import sparse
from scipy.linalg import cho_solve_banded
from scipy.sparse.linalg import spsolve

from repro.config import PipelineConfig
from repro.core.artifacts import AuthDecision, Preprocessed, Recording
from repro.core.pipeline import PreprocessedTrial, _validate_probe
from repro.errors import ConfigurationError, SignalError
from repro.features.minirocket import MiniRocket
from repro.signal.calibration import _calibrate_on_smoothed
from repro.signal.detrend import _banded_cholesky, _validate_lam
from repro.signal.energy import short_time_energy
from repro.signal.filters import median_filter, savitzky_golay
from repro.types import KeystrokeEvent, PinEntryTrial, PPGRecording


def median_filter_multi_reference(
    samples: np.ndarray, kernel: int = 5
) -> np.ndarray:
    """Rowwise zero-padded running median by sorting every window."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise SignalError(
            f"median_filter_multi expects a 2-D signal, got shape {samples.shape}"
        )
    if samples.shape[1] == 0:
        raise SignalError("median_filter_multi received an empty signal")
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigurationError(f"median kernel must be a positive odd int: {kernel}")
    if kernel == 1 or samples.shape[1] < kernel:
        return samples.copy()
    half = kernel // 2
    padded = np.pad(samples, ((0, 0), (half, half)), mode="constant")
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=1)
    return np.median(windows, axis=-1)


def calibrate_trial_indices_reference(
    recording: PPGRecording,
    events: Sequence[KeystrokeEvent],
    config: PipelineConfig,
    reference: np.ndarray,
) -> List[int]:
    """Eq. 1 per keystroke on one stock-scipy SG pass over the trial."""
    reference = np.asarray(reference, dtype=np.float64)
    if reference.ndim != 1 or reference.size != recording.n_samples:
        raise SignalError(
            "reference must be 1-D and aligned with the recording: "
            f"got {reference.shape} for {recording.n_samples} samples"
        )
    if config.calibration_window < 2:
        raise ConfigurationError(
            f"window must be >= 2, got {config.calibration_window}"
        )
    smoothed = savitzky_golay(
        reference, window=config.sg_window, polyorder=config.sg_polyorder
    )
    indices = []
    for event in events:
        raw_index = int(round((event.reported_time - recording.start_time)
                              * recording.fs))
        raw_index = int(np.clip(raw_index, 0, recording.n_samples - 1))
        indices.append(
            _calibrate_on_smoothed(
                smoothed, raw_index, config.calibration_window
            )
        )
    return indices


def solve_trend_reference(rows: np.ndarray, lam: float) -> np.ndarray:
    """``A x = b`` per row through ``cho_solve_banded``, contiguous."""
    n = rows.shape[-1]
    factor = _banded_cholesky(n, lam)
    if rows.ndim == 1:
        return cho_solve_banded((factor, False), rows, check_finite=False)
    solved = cho_solve_banded((factor, False), rows.T, check_finite=False)
    return np.ascontiguousarray(solved.T)


def estimate_trend_reference(samples: np.ndarray, lam: float = 50.0) -> np.ndarray:
    """Generic sparse-LU solve of ``(I + lam^2 D2^T D2) x = samples``.

    Rebuilds and refactors the sparse system on every call, roughly 60x
    slower than the cached banded factor at paper shapes.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise SignalError(f"expected a 1-D signal, got shape {samples.shape}")
    lam = _validate_lam(lam)
    n = samples.size
    if n < 3:
        raise SignalError(f"detrending needs at least 3 samples, got {n}")
    diagonals = [np.ones(n - 2), -2.0 * np.ones(n - 2), np.ones(n - 2)]
    d2 = sparse.diags(diagonals, offsets=[0, 1, 2], shape=(n - 2, n)).tocsc()
    system = sparse.identity(n, format="csc") + (lam ** 2) * (d2.T @ d2)
    return spsolve(system, samples)


def _assemble(
    trial: PinEntryTrial,
    filtered: np.ndarray,
    detrended: np.ndarray,
    indices: Sequence[int],
    config: PipelineConfig,
) -> PreprocessedTrial:
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


def preprocess_trials_reference(
    trials: Sequence[PinEntryTrial], config: Optional[PipelineConfig] = None
) -> List[PreprocessedTrial]:
    """The batched preprocessing phase on the oracle kernels.

    Same grouping and stacking as ``repro.core.pipeline
    .preprocess_trials``, so results are bit-identical; only the median,
    calibration and banded solve are the slow reference versions.
    """
    if config is None:
        config = PipelineConfig()
    trials = list(trials)
    for trial in trials:
        _validate_probe(trial, config)
    lam = _validate_lam(config.detrend_lambda)
    filtered_list = [
        median_filter_multi_reference(trial.recording.samples, config.median_kernel)
        for trial in trials
    ]
    groups: Dict[Tuple[int, ...], List[int]] = {}
    for idx, filtered in enumerate(filtered_list):
        groups.setdefault(filtered.shape, []).append(idx)
    detrended_list: List[Optional[np.ndarray]] = [None] * len(trials)
    for members in groups.values():
        stack = np.stack([filtered_list[idx] for idx in members])
        batch, channels, n = stack.shape
        rows = stack.reshape(batch * channels, n)
        detrended = (rows - solve_trend_reference(rows, lam)).reshape(
            batch, channels, n
        )
        for pos, idx in enumerate(members):
            detrended_list[idx] = detrended[pos]
    results = []
    for trial, filtered, detrended in zip(trials, filtered_list, detrended_list):
        assert detrended is not None
        indices = calibrate_trial_indices_reference(
            trial.recording, trial.events, config, filtered.mean(axis=0)
        )
        results.append(_assemble(trial, filtered, detrended, indices, config))
    return results


def preprocess_trial_reference(
    trial: PinEntryTrial, config: Optional[PipelineConfig] = None
) -> PreprocessedTrial:
    """The original per-trial cost profile, matching to solver precision.

    Median-filters each channel in a Python loop, calibrates each
    keystroke with its own Savitzky-Golay pass over the full reference,
    and estimates each channel's trend with the sparse-LU solver.
    """
    from repro.signal import calibrate_keystroke_index

    if config is None:
        config = PipelineConfig()
    recording = trial.recording
    if abs(recording.fs - config.fs) > 1e-9:
        raise SignalError(
            f"recording at {recording.fs} Hz but pipeline configured "
            f"for {config.fs} Hz; use PipelineConfig.scaled_to"
        )
    filtered = np.vstack(
        [median_filter(ch, config.median_kernel) for ch in recording.samples]
    )
    calibration_reference = filtered.mean(axis=0)
    indices = []
    for event in trial.events:
        raw_index = int(
            round((event.reported_time - recording.start_time) * recording.fs)
        )
        raw_index = int(np.clip(raw_index, 0, recording.n_samples - 1))
        indices.append(
            calibrate_keystroke_index(
                calibration_reference,
                raw_index,
                window=config.calibration_window,
                sg_window=config.sg_window,
                sg_polyorder=config.sg_polyorder,
            )
        )
    detrended = filtered - np.vstack(
        [estimate_trend_reference(ch, config.detrend_lambda) for ch in filtered]
    )
    return _assemble(trial, filtered, detrended, indices, config)


def authenticate_reference(
    auth, trial: PinEntryTrial, claimed_pin: Optional[str] = None
) -> AuthDecision:
    """``auth.authenticate(trial)`` with oracle-kernel preprocessing.

    Runs the authenticator's own repair, segment, featurize, classify
    and decide stages; only the preprocessing stage is swapped for
    :func:`preprocess_trials_reference`.
    """
    pipeline = auth.pipeline
    pin_ok = auth._pin_verdict(trial, claimed_pin)
    if pin_ok is False:
        # Wrong PIN short-circuits before any signal processing.
        return pipeline.run([trial], [pin_ok])[0]
    (repaired,) = pipeline.repair.run([Recording(trial=trial, pin_ok=pin_ok)])
    (pre,) = preprocess_trials_reference([repaired.trial], pipeline.config)
    item = Preprocessed(
        trial=pre, pin_ok=pin_ok, degradation=repaired.degradation
    )
    return pipeline.run_preprocessed([item])[0]


def transform_reference(rocket: MiniRocket, x: np.ndarray) -> np.ndarray:
    """MiniRocket features from the original per-kernel Python loop."""
    return rocket._transform_loop(rocket._check_transform_input(x))
