"""Sampling-rate conversion for the rate-sweep experiments.

Fig. 16/17 of the paper study how the system behaves when the wearable
samples PPG at 30-100 Hz instead of the prototype's 100 Hz. We emulate
a lower-rate sensor by polyphase resampling the 100 Hz recording, which
applies the proper anti-aliasing filter.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import numpy as np

from ..errors import ConfigurationError, SignalError
from ..types import PPGRecording


def decimate_signal(
    samples: np.ndarray, fs_in: float, fs_out: float
) -> np.ndarray:
    """Resample a signal from ``fs_in`` to ``fs_out``.

    Args:
        samples: 1-D or 2-D ``(channels, n)`` input.
        fs_in: input sampling rate, Hz.
        fs_out: output sampling rate, Hz; must not exceed ``fs_in``.

    Returns:
        Resampled array (same dimensionality, resampled along the last
        axis).
    """
    if fs_in <= 0 or fs_out <= 0:
        raise ConfigurationError("sampling rates must be positive")
    if fs_out > fs_in:
        raise ConfigurationError(
            f"upsampling not supported: {fs_in} Hz -> {fs_out} Hz"
        )
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim not in (1, 2):
        raise SignalError(f"expected 1-D or 2-D input, got shape {samples.shape}")
    if fs_out == fs_in:
        return samples.copy()

    # Imported on call: only the rate sweeps resample, and importing
    # scipy.signal costs the serving process about a second of start-up.
    from scipy.signal import resample_poly

    ratio = Fraction(fs_out / fs_in).limit_denominator(1000)
    return resample_poly(samples, up=ratio.numerator, down=ratio.denominator,
                         axis=-1)


def decimate_recording(recording: PPGRecording, fs_out: float) -> PPGRecording:
    """Return ``recording`` resampled to ``fs_out``.

    Keystroke timestamps live on the wall clock, so they need no
    adjustment — only the recording's ``fs`` and samples change.
    """
    resampled = decimate_signal(recording.samples, recording.fs, fs_out)
    return replace(recording, samples=resampled, fs=fs_out)
