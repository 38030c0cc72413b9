"""Smoothing filters for PPG preprocessing.

The paper uses a median filter for noise removal (non-linear, preserves
waveform detail while killing impulse noise from the low-cost front
end) and a Savitzky-Golay filter before the extreme-point search in the
calibration module (removes locally unimportant fluctuation while
retaining the wave's shape).

The serving path imports only NumPy, ``scipy.linalg`` and
``scipy.ndimage`` from here. The Savitzky-Golay arithmetic (FIR
coefficients and polynomial edge fits) is computed locally, mirroring
``scipy.signal`` operation for operation so results stay bit-identical.
Importing ``scipy.signal`` also loads ``scipy.stats``,
``scipy.interpolate`` and ``scipy.optimize`` (about a second of
start-up), so only the stock reference entry points
:func:`median_filter` and :func:`savitzky_golay` import it, when called.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from scipy.linalg import lstsq
from scipy.ndimage import convolve1d

from ..errors import ConfigurationError, SignalError


def _check_1d(samples: np.ndarray, name: str) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 1:
        raise SignalError(f"{name} expects a 1-D signal, got shape {samples.shape}")
    if samples.size == 0:
        raise SignalError(f"{name} received an empty signal")
    return samples


def median_filter(samples: np.ndarray, kernel: int = 5) -> np.ndarray:
    """Median-filter a 1-D signal (the Noise Removal module).

    The stock ``scipy.signal.medfilt`` reference, imported on call; the
    pipeline runs :func:`median_filter_multi`.

    Args:
        samples: input signal.
        kernel: odd window length.

    Returns:
        Filtered signal of the same length.
    """
    samples = _check_1d(samples, "median_filter")
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigurationError(f"median kernel must be a positive odd int: {kernel}")
    if kernel == 1 or samples.size < kernel:
        return samples.copy()
    from scipy.signal import medfilt

    return medfilt(samples, kernel_size=kernel)


def _median3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Elementwise median of three arrays via the min/max exchange network."""
    return np.maximum(np.minimum(a, b), np.minimum(np.maximum(a, b), c))


def median_filter_multi(samples: np.ndarray, kernel: int = 5) -> np.ndarray:
    """Median-filter every row of a 2-D ``(channels, n)`` array at once.

    Produces exactly the same output as calling :func:`median_filter`
    per row: ``scipy.signal.medfilt`` zero-pads the edges, and so does
    the padded window here. For the 3- and 5-point kernels the pipeline
    uses, the running median is a fixed min/max selection network over
    the shifted rows (``med5(a..e) = med3(max(min(a,b), min(c,d)),
    min(max(a,b), max(c,d)), e)``) instead of a sort per window — ~8x
    faster at paper shapes. A selection network returns one of the
    window *values*, exactly as the sorting median of an odd window
    does, so the result is value-identical. Other kernels take one
    vectorized ``np.median`` over a strided window view.
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 2:
        raise SignalError(
            f"median_filter_multi expects a 2-D signal, got shape {samples.shape}"
        )
    if samples.shape[1] == 0:
        raise SignalError("median_filter_multi received an empty signal")
    if kernel < 1 or kernel % 2 == 0:
        raise ConfigurationError(f"median kernel must be a positive odd int: {kernel}")
    n = samples.shape[1]
    if kernel == 1 or n < kernel:
        return samples.copy()
    half = kernel // 2
    padded = np.zeros((samples.shape[0], n + 2 * half))
    padded[:, half : half + n] = samples
    if kernel == 3:
        return _median3(padded[:, :n], padded[:, 1 : n + 1], padded[:, 2:])
    if kernel == 5:
        a, b, c, d = (padded[:, i : n + i] for i in range(4))
        j = np.maximum(np.minimum(a, b), np.minimum(c, d))
        k = np.minimum(np.maximum(a, b), np.maximum(c, d))
        return _median3(j, k, padded[:, 4:])
    windows = np.lib.stride_tricks.sliding_window_view(padded, kernel, axis=1)
    return np.median(windows, axis=-1)


def savitzky_golay(
    samples: np.ndarray, window: int = 11, polyorder: int = 3
) -> np.ndarray:
    """Savitzky-Golay smoothing (the SG filter of the calibration step).

    The stock ``scipy.signal.savgol_filter`` reference, imported on
    call; the pipeline runs :func:`savitzky_golay_cached`.

    Args:
        samples: input signal.
        window: odd window length, must exceed ``polyorder``.
        polyorder: fitted polynomial order.

    Returns:
        Smoothed signal of the same length.
    """
    samples = _check_1d(samples, "savitzky_golay")
    if window % 2 == 0 or window <= polyorder:
        raise ConfigurationError(
            f"SG window must be odd and > polyorder: window={window}, "
            f"polyorder={polyorder}"
        )
    if samples.size < window:
        return samples.copy()
    from scipy.signal import savgol_filter

    return savgol_filter(samples, window_length=window, polyorder=polyorder)


def _savgol_coeffs(window: int, polyorder: int) -> np.ndarray:
    """FIR coefficients of the SG smoothing filter, in convolution order.

    ``scipy.signal.savgol_coeffs(window, polyorder)`` (odd window,
    ``deriv=0``) step for step: the minimum-norm least-squares solution
    of ``A c = e0`` for the ``(polyorder + 1, window)`` Vandermonde
    matrix ``A`` of the reversed window offsets, with the same ``cond``
    and the same LAPACK driver, so the result is bit-identical
    (``tests/signal/test_filters.py``).
    """
    pos = window // 2
    x = np.flip(np.arange(-pos, window - pos, dtype=np.float64))
    order = np.arange(polyorder + 1, dtype=np.float64).reshape(-1, 1)
    a = x ** order
    y = np.zeros(polyorder + 1)
    y[0] = 1.0
    cond = np.finfo(np.float64).eps * max(a.shape)
    return lstsq(a, y, cond=cond)[0]


def _polyfit(x: np.ndarray, y: np.ndarray, deg: int) -> np.ndarray:
    """Least-squares polynomial fit of every column of ``y`` against ``x``.

    Mirrors scipy's array-API ``polyfit``: a decreasing-power
    Vandermonde matrix whose columns are scaled to unit norm before the
    ``scipy.linalg.lstsq`` solve, then unscaled. Returns ``(deg + 1,
    columns)`` coefficients, highest power first.
    """
    order = int(deg) + 1
    cond = x.shape[0] * np.finfo(x.dtype).eps
    powers = np.flip(np.arange(order, dtype=x.dtype))
    lhs = x[:, None] ** powers[None, :]
    scale = np.sqrt(np.sum(lhs * lhs, axis=0))
    lhs /= scale
    c = lstsq(lhs, y, cond=cond)[0]
    return (c.T / scale).T


def _polyval(p: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Horner evaluation of the column polynomials ``p`` at ``x``."""
    y = np.zeros_like(x)
    for j in range(p.shape[0]):
        y = y * x + p[j, ...]
    return y


def _fit_edge(
    samples: np.ndarray,
    window_start: int,
    window_stop: int,
    interp_start: int,
    interp_stop: int,
    polyorder: int,
    out: np.ndarray,
) -> None:
    """Overwrite ``out[interp_start:interp_stop]`` with the polynomial
    fitted to ``samples[window_start:window_stop]`` (scipy's
    ``_fit_edge`` for a 1-D signal and ``deriv=0``)."""
    edge = samples[window_start:window_stop].reshape(-1, 1)
    poly = _polyfit(
        np.arange(0, window_stop - window_start, dtype=samples.dtype),
        edge,
        polyorder,
    )
    i = np.arange(
        interp_start - window_start, interp_stop - window_start, dtype=poly.dtype
    )
    out[interp_start:interp_stop] = _polyval(poly, i.reshape(-1, 1)).reshape(-1)


@lru_cache(maxsize=16)
def _savgol_coeffs_cached(window: int, polyorder: int) -> np.ndarray:
    """FIR coefficients of the SG filter; the lstsq fit behind them is
    data-independent, so one set serves every signal.

    Concurrency: ``lru_cache`` is internally locked, and the cached
    array is frozen (``setflags(write=False)``) before publication, so
    concurrent callers share one immutable coefficient set safely.
    """
    coeffs = _savgol_coeffs(window, polyorder)
    coeffs.setflags(write=False)
    return coeffs


def warm_savgol(window: int = 11, polyorder: int = 3) -> None:
    """Prime the SG coefficient cache for a (window, polyorder) pair."""
    _savgol_coeffs_cached(int(window), int(polyorder))


def clear_savgol_cache() -> None:
    """Drop cached SG coefficients (cold-start benchmarks and tests)."""
    _savgol_coeffs_cached.cache_clear()


def savitzky_golay_cached(
    samples: np.ndarray,
    window: int = 11,
    polyorder: int = 3,
    fit_edges: bool = True,
) -> np.ndarray:
    """Bit-identical fast path for :func:`savitzky_golay`.

    ``scipy.signal.savgol_filter`` (mode ``"interp"``) is one FIR
    correlation plus two least-squares polynomial edge fits — but it
    recomputes the FIR coefficients (their own lstsq solve) on every
    call. This variant reuses cached coefficients and runs the same
    interior/edge steps with this module's numpy + ``scipy.linalg``
    mirror of scipy's arithmetic, so the output is bit-identical to
    :func:`savitzky_golay` (pinned by ``tests/signal/test_filters.py``)
    at ~40% less cost, without importing ``scipy.signal``.

    Args:
        samples: input signal.
        window: odd window length, must exceed ``polyorder``.
        polyorder: fitted polynomial order.
        fit_edges: when False, skip the two polynomial edge fits — by
            far the dominant cost — leaving the first and last
            ``window // 2`` output samples *unspecified* (raw
            constant-padded convolution values). Only for callers that
            provably never read those samples; interior samples are
            bit-identical either way.
    """
    samples = _check_1d(samples, "savitzky_golay")
    if window % 2 == 0 or window <= polyorder:
        raise ConfigurationError(
            f"SG window must be odd and > polyorder: window={window}, "
            f"polyorder={polyorder}"
        )
    if samples.size < window:
        return samples.copy()
    coeffs = _savgol_coeffs_cached(window, polyorder)
    smoothed = convolve1d(samples, coeffs, axis=-1, mode="constant")
    if fit_edges:
        n, half = samples.size, window // 2
        _fit_edge(samples, 0, window, 0, half, polyorder, smoothed)
        _fit_edge(samples, n - window, n, n - half, n, polyorder, smoothed)
    return smoothed


def moving_average(samples: np.ndarray, window: int) -> np.ndarray:
    """Centered moving average with edge truncation.

    Used by the evaluation utilities; not part of the paper pipeline.
    """
    samples = _check_1d(samples, "moving_average")
    if window < 1:
        raise ConfigurationError(f"window must be >= 1, got {window}")
    if window == 1:
        return samples.copy()
    # Cumulative-sum formulation of the old double-np.convolve: O(n)
    # instead of O(n * window). ``np.convolve(x, ones(w), "same")[i]``
    # sums x over [i - w//2, i + (w-1)//2] clipped to the signal, and
    # the count convolution is exactly the clipped window length. One
    # deliberate divergence: for window > n the convolve version
    # returned a window-length array ("same" follows the longer
    # operand); here the output always matches the input length.
    n = samples.size
    prefix = np.concatenate(([0.0], np.cumsum(samples)))
    i = np.arange(n)
    lo = np.clip(i - window // 2, 0, n)
    hi = np.clip(i + (window - 1) // 2 + 1, 0, n)
    return (prefix[hi] - prefix[lo]) / (hi - lo)
