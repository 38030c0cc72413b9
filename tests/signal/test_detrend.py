"""Unit and property tests for smoothness-priors detrending."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError, SignalError
from tests.oracles import estimate_trend_reference, solve_trend_reference
from repro.signal.detrend import (
    clear_detrend_cache,
    detrend_cache_info,
    estimate_trend,
    smoothness_priors_detrend,
    smoothness_priors_detrend_batch,
)


class TestTrendEstimation:
    def test_linear_trend_recovered(self):
        t = np.linspace(0, 10, 300)
        x = 2.0 * t + 1.0
        trend = estimate_trend(x, lam=50.0)
        assert np.allclose(trend, x, atol=0.05)

    def test_detrending_removes_linear_trend(self):
        t = np.linspace(0, 10, 300)
        x = 2.0 * t + 1.0
        out = smoothness_priors_detrend(x, lam=50.0)
        assert np.max(np.abs(out)) < 0.05

    def test_detrending_removes_slow_sinusoid(self):
        fs = 100.0
        t = np.arange(2000) / fs
        slow = np.sin(2 * np.pi * 0.1 * t)
        out = smoothness_priors_detrend(slow, lam=50.0)
        assert np.std(out) < 0.3 * np.std(slow)

    def test_detrending_keeps_sharp_transient(self):
        """Keystroke-like bumps must survive (the detector depends on it)."""
        fs = 100.0
        t = np.arange(1000) / fs
        bump = 3.0 * np.exp(-0.5 * ((t - 5.0) / 0.05) ** 2)
        drift = 2.0 * np.sin(2 * np.pi * 0.08 * t)
        out = smoothness_priors_detrend(bump + drift, lam=50.0)
        # The bump survives mostly intact (some attenuation is the
        # price of the trend removal) while the drift disappears.
        assert out[int(5.0 * fs)] > 1.0
        assert np.std(out[:300]) < 0.3

    def test_larger_lambda_smoother_trend(self):
        rng = np.random.default_rng(0)
        x = np.cumsum(rng.normal(size=500))
        gentle = estimate_trend(x, lam=500.0)
        tight = estimate_trend(x, lam=5.0)
        # A smoother trend follows the signal less closely.
        assert np.mean((x - gentle) ** 2) > np.mean((x - tight) ** 2)

    def test_2d_input_processed_per_channel(self):
        t = np.linspace(0, 10, 200)
        x = np.vstack([t, 2 * t])
        out = smoothness_priors_detrend(x, lam=50.0)
        assert out.shape == x.shape
        assert np.max(np.abs(out)) < 0.1

    def test_invalid_lambda(self):
        with pytest.raises(ConfigurationError):
            smoothness_priors_detrend(np.zeros(10), lam=0.0)

    def test_too_short_signal(self):
        with pytest.raises(SignalError):
            smoothness_priors_detrend(np.zeros(2))

    def test_3d_rejected(self):
        with pytest.raises(SignalError):
            smoothness_priors_detrend(np.zeros((2, 3, 4)))


class TestDetrendProperties:
    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=3,
            max_size=120,
        ),
        st.floats(min_value=0.5, max_value=500.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_decomposition_is_exact(self, values, lam):
        """trend + detrended == original, always."""
        x = np.asarray(values)
        trend = estimate_trend(x, lam=lam)
        detrended = smoothness_priors_detrend(x, lam=lam)
        assert np.allclose(trend + detrended, x, atol=1e-6)

    @given(
        st.lists(
            st.floats(min_value=-50, max_value=50, allow_nan=False),
            min_size=5,
            max_size=100,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, values):
        x = np.asarray(values)
        a = smoothness_priors_detrend(2.0 * x, lam=20.0)
        b = 2.0 * smoothness_priors_detrend(x, lam=20.0)
        assert np.allclose(a, b, atol=1e-6)

    @given(st.floats(min_value=-100, max_value=100, allow_nan=False))
    @settings(max_examples=20, deadline=None)
    def test_constant_maps_to_zero(self, value):
        x = np.full(50, value)
        out = smoothness_priors_detrend(x, lam=20.0)
        assert np.max(np.abs(out)) < 1e-6


def _ppg_like(n: int, seed: int) -> np.ndarray:
    """A PPG-scale test signal: ~1 Hz pulse, slow drift, sensor noise.

    Parity is asserted at realistic signal amplitudes (order 1): both
    solvers sit at machine-level residual, so the absolute difference
    between them scales with the signal amplitude.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(n)
    pulse = np.sin(2 * np.pi * 0.011 * t)
    drift = 0.5 * np.sin(2 * np.pi * t / max(n, 8) * 1.5)
    return pulse + drift + 0.05 * rng.normal(size=n)


class TestBandedParity:
    """The banded Cholesky path must match the sparse-LU reference."""

    LAMBDAS = (0.8, 5.0, 50.0, 300.0)
    LENGTHS = list(range(3, 41)) + [64, 100, 257, 510, 1024, 4096]

    @pytest.mark.parametrize("n", LENGTHS)
    def test_trend_matches_reference(self, n):
        x = _ppg_like(n, seed=n)
        for lam in self.LAMBDAS:
            banded = estimate_trend(x, lam=lam)
            reference = estimate_trend_reference(x, lam=lam)
            np.testing.assert_allclose(banded, reference, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("lam", LAMBDAS)
    def test_detrend_matches_reference(self, lam):
        x = _ppg_like(510, seed=3)
        banded = smoothness_priors_detrend(x, lam=lam)
        reference = x - estimate_trend_reference(x, lam=lam)
        np.testing.assert_allclose(banded, reference, rtol=0, atol=1e-10)

    def test_2d_matches_per_row_reference(self):
        rows = np.vstack([_ppg_like(257, seed=s) for s in range(4)])
        banded = smoothness_priors_detrend(rows, lam=50.0)
        reference = rows - np.vstack(
            [estimate_trend_reference(row, lam=50.0) for row in rows]
        )
        np.testing.assert_allclose(banded, reference, rtol=0, atol=1e-10)

    def test_2d_identical_to_per_row_banded(self):
        """The multi-RHS solve is bitwise equal to per-row solves."""
        rows = np.vstack([_ppg_like(200, seed=s) for s in range(3)])
        multi = smoothness_priors_detrend(rows, lam=50.0)
        single = np.vstack(
            [smoothness_priors_detrend(row, lam=50.0) for row in rows]
        )
        assert np.array_equal(multi, single)

    def test_batch_identical_to_per_trial(self):
        stacks = np.stack(
            [
                np.vstack([_ppg_like(150, seed=10 * b + c) for c in range(4)])
                for b in range(3)
            ]
        )
        batched = smoothness_priors_detrend_batch(stacks, lam=50.0)
        per_trial = np.stack(
            [smoothness_priors_detrend(trial, lam=50.0) for trial in stacks]
        )
        assert batched.shape == stacks.shape
        assert np.array_equal(batched, per_trial)

    def test_batch_rejects_2d(self):
        with pytest.raises(SignalError):
            smoothness_priors_detrend_batch(np.zeros((4, 100)))

    def test_batch_rejects_short_signals(self):
        with pytest.raises(SignalError):
            smoothness_priors_detrend_batch(np.zeros((2, 3, 2)))


class TestFactorizationCache:
    def test_miss_then_hit_identical_results(self):
        x = _ppg_like(321, seed=1)
        clear_detrend_cache()
        assert detrend_cache_info().currsize == 0
        on_miss = estimate_trend(x, lam=50.0)
        assert detrend_cache_info().misses == 1
        on_hit = estimate_trend(x, lam=50.0)
        assert detrend_cache_info().hits == 1
        assert np.array_equal(on_miss, on_hit)

    def test_recompute_after_clear_identical(self):
        x = _ppg_like(128, seed=2)
        first = estimate_trend(x, lam=5.0)
        clear_detrend_cache()
        second = estimate_trend(x, lam=5.0)
        assert np.array_equal(first, second)

    def test_distinct_lambdas_get_distinct_factors(self):
        clear_detrend_cache()
        x = _ppg_like(100, seed=3)
        estimate_trend(x, lam=5.0)
        estimate_trend(x, lam=50.0)
        assert detrend_cache_info().currsize == 2

    def test_cached_factor_is_read_only(self):
        from repro.signal.detrend import _banded_cholesky

        factor = _banded_cholesky(64, 50.0)
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0


class TestSolveTrendFast:
    """The LAPACK-direct ``pbtrs`` solver must be bit-identical to the
    ``cho_solve_banded`` oracle it replaced."""

    def test_bit_identical_on_2d_rows(self):
        from repro.signal.detrend import _solve_trend

        rng = np.random.default_rng(11)
        for n, m, lam in ((32, 1, 10.0), (257, 4, 50.0), (600, 3, 1e4)):
            rows = np.ascontiguousarray(rng.standard_normal((m, n)))
            fast = _solve_trend(rows, lam)
            slow = solve_trend_reference(rows, lam)
            assert fast.shape == slow.shape
            assert np.array_equal(np.asarray(fast), slow)

    def test_bit_identical_on_1d_rows(self):
        from repro.signal.detrend import _solve_trend

        rng = np.random.default_rng(13)
        for n in (3, 4, 575):
            row = rng.standard_normal(n)
            fast = _solve_trend(row, 50.0)
            assert fast.shape == (n,)
            np.testing.assert_array_equal(
                fast, solve_trend_reference(row, 50.0)
            )

    def test_input_rows_not_mutated(self):
        from repro.signal.detrend import _solve_trend

        rng = np.random.default_rng(12)
        rows = rng.standard_normal((2, 128))
        before = rows.copy()
        _solve_trend(rows, 10.0)
        assert np.array_equal(rows, before)
