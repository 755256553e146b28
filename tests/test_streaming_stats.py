"""Tests for the streaming window owner, ``StreamingSeriesStats``.

Both streaming engines keep their window here, so its arrays must be
exactly what the formulas say after any mix of appends, evictions and
buffer growth: seed windows come from ``moving_mean_std`` on the seed
series, appended windows from ``window.mean()`` and
``sqrt(max(window.var(), 0))`` on the window slice.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import obs
from repro.distance.sliding import moving_mean_std
from repro.exceptions import InvalidParameterError, WindowTooSmallError
from repro.kernels.streaming_stats import StreamingSeriesStats

L_MIN, L_MAX = 4, 7


class ReferenceWindow:
    """The window rebuilt from the whole stream with the same formulas."""

    def __init__(self, seed):
        self.seed = np.array(seed, dtype=np.float64)
        self.stream = list(self.seed)
        self.start = 0

    def append(self, value):
        self.stream.append(float(value))

    def evict(self, count):
        self.start += count

    def mean_std(self, length):
        stream = np.array(self.stream, dtype=np.float64)
        seed_mu, seed_sigma = moving_mean_std(self.seed, length)
        mu, sigma = [], []
        for a in range(self.start, stream.size - length + 1):
            if a + length <= self.seed.size:
                mu.append(seed_mu[a])
                sigma.append(seed_sigma[a])
            else:
                window = stream[a : a + length]
                mu.append(float(window.mean()))
                sigma.append(math.sqrt(max(float(window.var()), 0.0)))
        return np.array(mu), np.array(sigma)


def assert_matches(stats, ref):
    np.testing.assert_array_equal(
        stats.series(), np.array(ref.stream[ref.start :], dtype=np.float64)
    )
    for length in range(stats.l_min, stats.l_max + 1):
        mu, sigma = stats.mean_std(length)
        ref_mu, ref_sigma = ref.mean_std(length)
        np.testing.assert_array_equal(mu, ref_mu)
        np.testing.assert_array_equal(sigma, ref_sigma)


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("append"),
            st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
        ),
        st.tuples(st.just("evict"), st.integers(0, 12)),
    ),
    max_size=90,
)


class TestBitwiseAgainstReference:
    @given(seed=st.integers(0, 2**31 - 1), ops=operations)
    @settings(max_examples=30, deadline=None)
    def test_random_append_evict_grow(self, seed, ops):
        rng = np.random.default_rng(seed)
        # seeds of 40..64 points put the first doubling (at 64) in reach
        initial = np.cumsum(rng.standard_normal(int(rng.integers(40, 65))))
        stats = StreamingSeriesStats(initial, L_MIN, L_MAX)
        ref = ReferenceWindow(initial)
        for kind, arg in ops:
            if kind == "append":
                stats.append(arg)
                ref.append(arg)
            elif stats.n_points - arg >= 2 * L_MAX:
                stats.evict(arg)
                ref.evict(arg)
        assert_matches(stats, ref)
        assert stats.window_start == ref.start
        assert stats.total_points == len(ref.stream)
        assert stats.n_points == len(ref.stream) - ref.start

    def test_long_stream_through_several_doublings(self):
        rng = np.random.default_rng(7)
        initial = np.cumsum(rng.standard_normal(60))
        stats = StreamingSeriesStats(initial, L_MIN, L_MAX)
        ref = ReferenceWindow(initial)
        for step, value in enumerate(np.cumsum(rng.standard_normal(400))):
            stats.append(value)
            ref.append(value)
            if step % 5 == 4:
                stats.evict(2)
                ref.evict(2)
        assert stats.n_points > 256  # grew past 64, 128 and 256
        assert_matches(stats, ref)

    def test_constant_shelf_and_high_magnitude(self):
        initial = np.concatenate([np.full(20, 1e6), np.linspace(0, 1, 20)])
        stats = StreamingSeriesStats(initial, L_MIN, L_MAX)
        ref = ReferenceWindow(initial)
        for value in [1e6] * 30 + [1e6 + 1e-3, -2.5, 0.0] * 10:
            stats.append(value)
            ref.append(value)
        stats.evict(25)
        ref.evict(25)
        assert_matches(stats, ref)


class TestGrowth:
    def test_regrows_are_logarithmic(self):
        initial = np.random.default_rng(1).standard_normal(20)
        appends = 3000
        with obs.tracing(True):
            obs.reset()
            stats = StreamingSeriesStats(initial, L_MIN, L_MAX)
            for value in np.random.default_rng(2).standard_normal(appends):
                stats.append(value)
            counters = dict(obs.snapshot()["counters"])
        total = initial.size + appends
        assert 0 < counters["streaming.buffer.regrows"] <= math.ceil(math.log2(total))

    def test_columns_grow_and_slide_with_the_window(self):
        initial = np.random.default_rng(3).standard_normal(30)
        stats = StreamingSeriesStats(initial, L_MIN, L_MAX)
        stats.add_column("position", -1, np.int64)[:30] = np.arange(30)
        for step in range(200):
            stats.append(float(step))
            stats.column("position")[stats.n_points - 1] = stats.total_points - 1
            if step % 7 == 0:
                stats.evict(3)
        held = stats.column("position")[: stats.n_points]
        np.testing.assert_array_equal(
            held, stats.window_start + np.arange(stats.n_points)
        )


class TestCapacityRule:
    def test_initial_series_must_hold_two_windows(self):
        with pytest.raises(WindowTooSmallError):
            StreamingSeriesStats(np.arange(2 * L_MAX - 1.0), L_MIN, L_MAX)
        StreamingSeriesStats(np.arange(2 * L_MAX * 1.0), L_MIN, L_MAX)

    def test_max_points_floor_leaves_old_capacity(self):
        stats = StreamingSeriesStats(np.arange(40.0), L_MIN, L_MAX)
        stats.max_points = 30
        with pytest.raises(WindowTooSmallError):
            stats.max_points = 2 * L_MAX - 1
        assert stats.max_points == 30
        assert stats.excess == 10
        stats.max_points = None
        assert stats.excess == 0

    def test_eviction_floor_leaves_window_unchanged(self):
        stats = StreamingSeriesStats(np.arange(40.0), L_MIN, L_MAX)
        with pytest.raises(WindowTooSmallError):
            stats.evict(40 - 2 * L_MAX + 1)
        assert stats.n_points == 40 and stats.window_start == 0
        stats.evict(40 - 2 * L_MAX)
        assert stats.n_points == 2 * L_MAX and stats.window_start == 40 - 2 * L_MAX


class TestValidation:
    def test_length_range(self):
        with pytest.raises(InvalidParameterError):
            StreamingSeriesStats(np.arange(40.0), 1, L_MAX)
        with pytest.raises(InvalidParameterError):
            StreamingSeriesStats(np.arange(40.0), L_MAX, L_MIN)

    def test_bad_appends_and_queries(self):
        stats = StreamingSeriesStats(np.arange(40.0), L_MIN, L_MAX)
        with pytest.raises(InvalidParameterError):
            stats.append(float("nan"))
        with pytest.raises(InvalidParameterError):
            stats.evict(-1)
        with pytest.raises(InvalidParameterError):
            stats.mean_std(L_MAX + 1)
        assert stats.n_points == 40 and stats.total_points == 40

    def test_series_view_is_read_only(self):
        stats = StreamingSeriesStats(np.arange(40.0), L_MIN, L_MAX)
        with pytest.raises(ValueError):
            stats.series()[0] = 1.0
