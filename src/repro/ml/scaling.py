"""Feature standardization."""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import NotFittedError


class StandardScaler:
    """Column-wise standardization to zero mean, unit variance.

    Constant columns are left at zero variance and scaled by 1 so they
    standardize to zero instead of dividing by zero.
    """

    def __init__(self) -> None:
        self._mean: Optional[np.ndarray] = None
        self._scale: Optional[np.ndarray] = None

    def fit(self, x: np.ndarray) -> "StandardScaler":
        """Learn column means and standard deviations."""
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {x.shape}")
        self._mean = x.mean(axis=0)
        scale = x.std(axis=0)
        # reprolint: disable-next=RL005 -- exact zero-variance sentinel, not a tolerance
        scale[scale == 0.0] = 1.0
        self._scale = scale
        return self

    def transform(self, x: np.ndarray) -> np.ndarray:
        """Standardize ``x`` with the learned statistics."""
        if self._mean is None or self._scale is None:
            raise NotFittedError("StandardScaler.fit has not been called")
        x = np.asarray(x, dtype=np.float64)
        out = x - self._mean
        out /= self._scale  # in place: one temporary instead of two
        return out

    def fit_transform(self, x: np.ndarray) -> np.ndarray:
        """Fit on ``x`` and return its standardized values."""
        return self.fit(x).transform(x)
