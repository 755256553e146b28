"""Tests for the vectorized listDP entry store."""

import numpy as np
import pytest

from repro.core.compute_mp import compute_matrix_profile
from repro.core.entries import EntryStore
from repro.core.lower_bound import lower_bound_base
from repro.distance.profile import correlation_from_qt
from repro.distance.sliding import moving_mean_std, sliding_dot_product
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width


class TestEmpty:
    def test_allocation(self):
        store = EntryStore.empty(10, 4, 16)
        assert store.n_profiles == 10
        assert store.p == 4
        assert store.current_length == 16
        assert (store.neighbor == -1).all()
        assert np.isinf(store.lb_base).all()

    def test_invalid_p(self):
        with pytest.raises(InvalidParameterError):
            EntryStore.empty(10, 0, 16)

    def test_invalid_profiles(self):
        with pytest.raises(InvalidParameterError):
            EntryStore.empty(0, 4, 16)


def build_row(series, row, length, p):
    """Helper: fill one store row exactly as compute_mp does."""
    mu, sigma = moving_mean_std(series, length)
    n_subs = series.size - length + 1
    qt = sliding_dot_product(series[row : row + length], series)
    corr = correlation_from_qt(
        qt, length, float(mu[row]), float(sigma[row]), mu, sigma
    )
    zone = exclusion_zone_half_width(length)
    eligible = np.abs(np.arange(n_subs) - row) >= zone
    store = EntryStore.empty(n_subs, p, length)
    rows = np.array([row])
    store.fill_row(rows, rows, qt[None], corr[None].copy(), sigma[rows], length)
    return store, corr, eligible, float(sigma[row])


class TestFillRow:
    def test_keeps_p_smallest_lb(self, noise_series):
        t = noise_series
        store, corr, eligible, sigma_owner = build_row(t, 100, 16, 5)
        base_all = np.asarray(lower_bound_base(corr, 16, sigma_owner))
        base_all[~eligible] = np.inf
        expected = np.sort(base_all)[:5]
        stored = np.sort(store.lb_base[100])
        np.testing.assert_allclose(stored, expected, atol=1e-10)

    def test_excludes_trivial_matches(self, noise_series):
        store, _, _, _ = build_row(noise_series, 100, 16, 8)
        zone = exclusion_zone_half_width(16)
        neighbors = store.neighbor[100]
        neighbors = neighbors[neighbors >= 0]
        assert np.all(np.abs(neighbors - 100) >= zone)

    def test_partial_fill_when_few_candidates(self):
        t = np.random.default_rng(0).standard_normal(40)
        # length 16 -> zone 8, 25 subsequences, eligible ~ those beyond zone
        store, _, eligible, _ = build_row(t, 12, 16, 50)
        count = int((store.neighbor[12] >= 0).sum())
        assert count == int(eligible.sum())
        assert np.isinf(store.lb_base[12][count:]).all()

    def test_qt_values_are_dot_products(self, noise_series):
        t = noise_series
        store, _, _, _ = build_row(t, 50, 16, 4)
        for slot in range(4):
            j = store.neighbor[50, slot]
            if j < 0:
                continue
            expected = float(np.dot(t[50 : 50 + 16], t[j : j + 16]))
            assert store.qt[50, slot] == pytest.approx(expected, abs=1e-8)


class TestAdvance:
    def test_qt_updated_to_new_length(self, noise_series):
        t = noise_series
        _, store = compute_matrix_profile(t, 16, 6)
        store.advance_to(17, t)
        assert store.current_length == 17
        for row in (0, 40, 200):
            for slot in range(6):
                j = store.neighbor[row, slot]
                if j < 0 or j > t.size - 17:
                    continue
                expected = float(np.dot(t[row : row + 17], t[j : j + 17]))
                assert store.qt[row, slot] == pytest.approx(expected, abs=1e-8)

    def test_out_of_range_neighbors_frozen(self):
        t = np.random.default_rng(4).standard_normal(60)
        _, store = compute_matrix_profile(t, 20, 10)
        frozen = store.qt.copy()
        store.advance_to(21, t)
        n = t.size
        out_of_range = (store.neighbor >= 0) & (store.neighbor > n - 21)
        rows = min(store.n_profiles, n - 21 + 1)
        if out_of_range[:rows].any():
            np.testing.assert_array_equal(
                store.qt[:rows][out_of_range[:rows]],
                frozen[:rows][out_of_range[:rows]],
            )

    def test_must_advance_by_one(self, noise_series):
        _, store = compute_matrix_profile(noise_series, 16, 4)
        with pytest.raises(InvalidParameterError):
            store.advance_to(18, noise_series)
        with pytest.raises(InvalidParameterError):
            store.advance_to(16, noise_series)

    def test_sequential_advances(self, noise_series):
        t = noise_series
        _, store = compute_matrix_profile(t, 16, 4)
        for length in (17, 18, 19, 20):
            store.advance_to(length, t)
        assert store.current_length == 20
        j = store.neighbor[10, 0]
        if j >= 0 and j <= t.size - 20:
            expected = float(np.dot(t[10:30], t[j : j + 20]))
            assert store.qt[10, 0] == pytest.approx(expected, abs=1e-8)
