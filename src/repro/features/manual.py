"""Hand-crafted feature extraction (the Fig. 11 / Table I baseline).

Reproduces the comparison method of the paper: statistical descriptors
of each channel plus DTW distances to templates enrolled from the
legitimate user's data (following Shang & Wu's PPG-gesture approach,
which the P2Auth authors re-implemented and tuned on their dataset).

The enrollment step selects a per-channel *medoid* template by pairwise
DTW over the enrollment samples — the quadratic number of DTW runs is
what makes this baseline's enrollment two orders of magnitude slower
than the MiniRocket pipeline (Table I). Transforming a probe costs one
DTW per channel, which dominates authentication time the same way.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import NotFittedError, SignalError
from .dtw import dtw_distance

#: Per-channel statistical descriptors, in output order.
_STAT_NAMES: Tuple[str, ...] = (
    "mean",
    "std",
    "skewness",
    "kurtosis",
    "rms",
    "peak_to_peak",
    "iqr",
    "zero_cross_rate",
    "energy",
    "dominant_freq_bin",
    "spectral_entropy",
    "n_peaks",
    "max_abs",
    "dtw_to_template",
)


def manual_feature_names(n_channels: int) -> List[str]:
    """Names of the manual feature columns for ``n_channels`` channels."""
    return [
        f"ch{ch}_{name}" for ch in range(n_channels) for name in _STAT_NAMES
    ]


def _channel_stats(x: np.ndarray) -> List[float]:
    """Statistical descriptors of one channel (all but the DTW column)."""
    # Imported on call: only this baseline uses scipy.stats, which the
    # serving process never needs to load.
    from scipy import stats as spstats

    n = x.size
    std = float(np.std(x))
    centered = x - np.mean(x)
    zero_crossings = int(np.sum(np.signbit(centered[:-1]) != np.signbit(centered[1:])))

    spectrum = np.abs(np.fft.rfft(centered)) ** 2
    total = float(np.sum(spectrum))
    if total > 0:
        p = spectrum / total
        nonzero = p[p > 0]
        entropy = float(-np.sum(nonzero * np.log(nonzero)))
        dominant = int(np.argmax(spectrum))
    else:
        entropy = 0.0
        dominant = 0

    interior = x[1:-1]
    n_peaks = int(np.sum((interior > x[:-2]) & (interior > x[2:]))) if n > 2 else 0

    return [
        float(np.mean(x)),
        std,
        float(spstats.skew(x)) if std > 0 else 0.0,
        float(spstats.kurtosis(x)) if std > 0 else 0.0,
        float(np.sqrt(np.mean(x ** 2))),
        float(np.ptp(x)),
        float(np.subtract(*np.percentile(x, [75, 25]))),
        zero_crossings / max(1, n - 1),
        float(np.sum(x ** 2)),
        float(dominant),
        entropy,
        float(n_peaks),
        float(np.max(np.abs(x))),
    ]


class ManualFeatureExtractor:
    """Statistical + DTW-template features per channel.

    Args:
        band_fraction: DTW Sakoe-Chiba band width.
        dtw_stride: subsampling stride applied to sequences before DTW
            (1 = full resolution). The baseline is deliberately
            expensive; the stride exists so tests can run it quickly.
    """

    def __init__(self, band_fraction: float = 0.1, dtw_stride: int = 1) -> None:
        if dtw_stride < 1:
            raise SignalError("dtw_stride must be >= 1")
        self.band_fraction = band_fraction
        self.dtw_stride = dtw_stride
        self._templates: Optional[np.ndarray] = None

    @staticmethod
    def _as_3d(x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim == 2:
            x = x[:, np.newaxis, :]
        if x.ndim != 3:
            raise SignalError(
                f"expected (n, length) or (n, channels, length), got {x.shape}"
            )
        if x.shape[0] == 0:
            raise SignalError("no instances provided")
        return x

    def fit(self, enrollment: np.ndarray) -> "ManualFeatureExtractor":
        """Select per-channel medoid templates from enrollment samples.

        Args:
            enrollment: legitimate-user series, shape ``(n, length)``
                or ``(n, channels, length)``.
        """
        x = self._as_3d(enrollment)
        n, channels, _length = x.shape
        templates = []
        for ch in range(channels):
            series = x[:, ch, :: self.dtw_stride]
            if n == 1:
                templates.append(series[0])
                continue
            distances = np.zeros((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    d = dtw_distance(series[i], series[j], self.band_fraction)
                    distances[i, j] = d
                    distances[j, i] = d
            medoid = int(np.argmin(distances.sum(axis=1)))
            templates.append(series[medoid])
        self._templates = np.vstack(templates)
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Extract features; requires :meth:`fit` for the DTW column.

        Returns:
            Feature matrix of shape ``(n, channels * len(_STAT_NAMES))``.
        """
        if self._templates is None:
            raise NotFittedError("ManualFeatureExtractor.fit has not been called")
        x = self._as_3d(x)
        n, channels, _length = x.shape
        if channels != self._templates.shape[0]:
            raise SignalError(
                f"fitted on {self._templates.shape[0]} channels, got {channels}"
            )
        rows = []
        for i in range(n):
            row: List[float] = []
            for ch in range(channels):
                series = x[i, ch]
                row.extend(_channel_stats(series))
                row.append(
                    dtw_distance(
                        series[:: self.dtw_stride],
                        self._templates[ch],
                        self.band_fraction,
                    )
                )
            rows.append(row)
        return np.asarray(rows)

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit templates on ``x`` and return its features."""
        return self.fit(x).transform(x)

    def template_distances(self, x: np.ndarray) -> np.ndarray:
        """Mean DTW distance to the templates, averaged over channels.

        This is the quantity Shang & Wu threshold (tau = 1.7 after
        tuning in the paper's re-implementation); exposed separately so
        the threshold-based authenticator can use it directly.
        """
        if self._templates is None:
            raise NotFittedError("ManualFeatureExtractor.fit has not been called")
        x = self._as_3d(x)
        n, channels, _length = x.shape
        if channels != self._templates.shape[0]:
            raise SignalError(
                f"fitted on {self._templates.shape[0]} channels, got {channels}"
            )
        out = np.empty(n)
        for i in range(n):
            dists = [
                dtw_distance(
                    x[i, ch, :: self.dtw_stride],
                    self._templates[ch],
                    self.band_fraction,
                )
                for ch in range(channels)
            ]
            out[i] = float(np.mean(dists))
        return out
