"""Tests for MASS (one distance profile in O(n log n))."""

import numpy as np
import pytest

from repro import obs
from repro.distance import sliding
from repro.distance.mass import mass, mass_pair, mass_with_stats
from repro.distance.profile import correlation_from_qt, naive_distance_profile
from repro.distance.sliding import (
    DIRECT_DOT_MAX,
    count_dot_products,
    moving_mean_std,
    sliding_dot_product,
)
from repro.distance.znorm import CONSTANT_EPS, znormalized_distance
from repro.exceptions import InvalidParameterError


class TestMass:
    def test_matches_naive(self, rng):
        t = rng.standard_normal(200)
        np.testing.assert_allclose(
            mass(t, 40, 25), naive_distance_profile(t, 40, 25), atol=1e-6
        )

    def test_structured_series(self, structured_series):
        t = structured_series
        np.testing.assert_allclose(
            mass(t, 100, 50), naive_distance_profile(t, 100, 50), atol=1e-6
        )

    def test_out_of_range_start(self, rng):
        t = rng.standard_normal(50)
        with pytest.raises(InvalidParameterError):
            mass(t, 45, 10)

    def test_with_precomputed_qt(self, rng):
        t = rng.standard_normal(120)
        mu, sigma = moving_mean_std(t, 15)
        qt = sliding_dot_product(t[33 : 33 + 15], t)
        np.testing.assert_allclose(
            mass_with_stats(t, 33, 15, mu, sigma, qt=qt),
            mass(t, 33, 15),
            atol=1e-10,
        )

    def test_length_leaves_no_subsequences(self, rng):
        t = rng.standard_normal(20)
        mu = sigma = np.ones(1)
        with pytest.raises(InvalidParameterError):
            mass_with_stats(t, 0, 25, mu, sigma)


class TestBlockCalls:
    """A block of queries gives each row the bits of its one-query call."""

    @pytest.mark.parametrize("length", [16, 64, 65, 100])
    def test_block_rows_equal_single_calls(self, rng, length):
        t = rng.standard_normal(600).cumsum()
        t[200 : 200 + 2 * length] = 1.5  # constant queries and candidates
        starts = np.array([0, 7, 200, 210, 431])
        mu, sigma = moving_mean_std(t, length)
        windows = np.lib.stride_tricks.sliding_window_view(t, length)
        qt = sliding_dot_product(windows[starts], t)
        dist = mass_with_stats(t, starts, length, mu, sigma, qt=qt)
        for k, start in enumerate(starts.tolist()):
            single_qt = sliding_dot_product(t[start : start + length], t)
            np.testing.assert_array_equal(qt[k], single_qt)
            np.testing.assert_array_equal(
                dist[k], mass_with_stats(t, start, length, mu, sigma, qt=single_qt)
            )

    def test_corr_out_receives_block_correlations(self, rng):
        t = rng.standard_normal(400).cumsum()
        length, starts = 70, np.array([3, 150, 290])
        mu, sigma = moving_mean_std(t, length)
        windows = np.lib.stride_tricks.sliding_window_view(t, length)
        qt = sliding_dot_product(windows[starts], t)
        corr = np.empty_like(qt)
        dist = mass_with_stats(t, starts, length, mu, sigma, qt=qt, corr_out=corr)
        np.testing.assert_array_equal(dist, mass_with_stats(t, starts, length, mu, sigma, qt=qt))
        for k, start in enumerate(starts.tolist()):
            np.testing.assert_array_equal(
                corr[k],
                correlation_from_qt(
                    qt[k], length, float(mu[start]),
                    max(float(sigma[start]), CONSTANT_EPS), mu, sigma,
                ),
            )

    @pytest.mark.parametrize("length", [DIRECT_DOT_MAX, DIRECT_DOT_MAX + 1])
    def test_counted_path_is_the_path_taken(self, rng, monkeypatch, length):
        """count_dot_products names the path sliding_dot_product runs."""
        t = rng.standard_normal(300)
        correlated = []
        real = np.correlate
        monkeypatch.setattr(
            sliding.np, "correlate", lambda *a, **k: correlated.append(1) or real(*a, **k)
        )
        with obs.tracing(True):
            obs.reset()
            sliding_dot_product(t[:length], t)
            count_dot_products(length, 3)
            counters = obs.get_tracer().counters()
            obs.reset()
        direct = 4 if correlated else 0
        assert counters.get("mass.direct_dot_calls", 0) == direct
        assert counters.get("mass.fft_calls", 0) == 4 - direct

    def test_block_needs_qt_and_valid_starts(self, rng):
        t = rng.standard_normal(100)
        mu, sigma = moving_mean_std(t, 10)
        qt = np.zeros((2, 91))
        with pytest.raises(InvalidParameterError):
            mass_with_stats(t, np.array([1, 2]), 10, mu, sigma)
        with pytest.raises(InvalidParameterError):
            mass_with_stats(t, np.array([1, 91]), 10, mu, sigma, qt=qt)


class TestMassPair:
    def test_matches_naive_distance(self, rng):
        t = rng.standard_normal(100)
        d, corr = mass_pair(t, 20, 5, 60)
        assert d == pytest.approx(
            znormalized_distance(t[5:25], t[60:80]), abs=1e-8
        )
        assert -1.0 <= corr <= 1.0

    def test_identical_windows(self, rng):
        t = rng.standard_normal(60)
        d, corr = mass_pair(t, 15, 10, 10)
        assert d == pytest.approx(0.0, abs=1e-6)
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_constant_window(self):
        t = np.concatenate([np.full(20, 1.0), np.random.default_rng(0).standard_normal(40)])
        d, _ = mass_pair(t, 10, 0, 30)
        assert d == pytest.approx(np.sqrt(10))
