"""Tests for Algorithm 3 (ComputeMatrixProfile with listDP)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compute_mp import compute_matrix_profile
from repro.matrixprofile import stomp
from tests.conftest import assert_profiles_close


def test_profile_matches_stomp(noise_series):
    mp, _ = compute_matrix_profile(noise_series, 16, 5)
    reference = stomp(noise_series, 16)
    assert_profiles_close(mp.profile, reference.profile, atol=1e-8)


def test_profile_matches_stomp_structured(structured_series):
    mp, _ = compute_matrix_profile(structured_series, 40, 10)
    reference = stomp(structured_series, 40)
    assert_profiles_close(mp.profile, reference.profile, atol=1e-8)


def test_store_dimensions(noise_series):
    mp, store = compute_matrix_profile(noise_series, 16, 7)
    assert store.n_profiles == len(mp)
    assert store.p == 7
    assert store.current_length == 16
    assert (store.base_length == 16).all()


def test_every_profile_has_entries(noise_series):
    _, store = compute_matrix_profile(noise_series, 16, 5)
    filled = (store.neighbor >= 0).sum(axis=1)
    assert (filled == 5).all(), "with n >> p every row should be full"


def test_motif_pair_in_some_store_row(planted):
    """The nearest neighbor of the motif member should be among its
    stored entries: it has correlation near 1, hence the smallest LB."""
    mp, store = compute_matrix_profile(planted.series, planted.length, 5)
    pair = mp.motif_pair()
    assert pair.b in set(store.neighbor[pair.a].tolist())


def test_large_p_keeps_all_candidates():
    t = np.random.default_rng(1).standard_normal(60)
    mp, store = compute_matrix_profile(t, 10, 1000)
    n_subs = len(mp)
    zone = mp.exclusion
    for row in range(0, n_subs, 13):
        eligible = int((np.abs(np.arange(n_subs) - row) >= zone).sum())
        stored = int((store.neighbor[row] >= 0).sum())
        assert stored == eligible


# ---------------------------------------------------------------------------
# Row-block fan-out (n_jobs > 1): the only multi-process path in the package
# ---------------------------------------------------------------------------


def _walk(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal(n).cumsum()


def _reanchored_walk() -> np.ndarray:
    """A walk on a high DC offset: the drift schedule fires (33 anchors)."""
    return _walk(0, 1500) + 5e3


def test_resolve_n_jobs_conventions():
    import os

    from repro.core.compute_mp import resolve_n_jobs

    cpus = os.cpu_count() or 1
    assert resolve_n_jobs(None) == cpus
    assert resolve_n_jobs(0) == cpus
    assert resolve_n_jobs(1) == 1
    assert resolve_n_jobs(3) == 3
    assert resolve_n_jobs(-1) == cpus
    assert resolve_n_jobs(-cpus - 5) == 1


def test_compute_mp_row_blocks_bitwise():
    """Algorithm 3's row-block parallel path matches serial exactly,
    profile and listDP store alike — also when the drift schedule
    re-anchors rows inside the worker blocks."""
    from repro.distance.sliding import moving_mean_std
    from repro.matrixprofile.stomp import stomp_reanchor_rows

    reanchored = _reanchored_walk()
    _, sigma = moving_mean_std(reanchored, 64)
    assert stomp_reanchor_rows(reanchored, 64, sigma).size > 0
    cases = [(_walk(41, 280), 16, 8, (2,)), (reanchored, 64, 10, (2, 3))]
    for t, length, p, worker_counts in cases:
        mp1, st1 = compute_matrix_profile(t, length, p, n_jobs=1)
        for n_jobs in worker_counts:
            mp2, st2 = compute_matrix_profile(t, length, p, n_jobs=n_jobs)
            np.testing.assert_array_equal(mp1.profile, mp2.profile)
            np.testing.assert_array_equal(mp1.index, mp2.index)
            np.testing.assert_array_equal(st1.neighbor, st2.neighbor)
            np.testing.assert_array_equal(st1.qt, st2.qt)
            np.testing.assert_array_equal(st1.lb_base, st2.lb_base)


def _stitched(t, length, p, bounds):
    """Run the per-block pipeline over ``bounds`` in-process and stitch
    the blocks back together, as the parent does with worker results."""
    from repro.core.compute_mp import _fill_block

    parts = [
        _fill_block(t, length, p, start, stop)
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]
    return [np.concatenate([part[k] for part in parts]) for k in range(5)]


def _serial_arrays(t, length, p):
    mp, store = compute_matrix_profile(t, length, p, n_jobs=1)
    return [mp.profile, mp.index, store.neighbor, store.qt, store.lb_base]


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_random_row_splits_stitch_to_serial(data):
    """Any partition of the rows into blocks reproduces the serial run,
    profile and listDP store alike."""
    seed = data.draw(st.integers(0, 1000), label="seed")
    length = data.draw(st.sampled_from([8, 16, 24]), label="length")
    t = _walk(seed, 300)
    n_subs = t.size - length + 1
    n_cuts = data.draw(st.integers(0, 6), label="n_cuts")
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(1, n_subs - 1),
                min_size=n_cuts,
                max_size=n_cuts,
                unique=True,
            ),
            label="cuts",
        )
    )
    bounds = [0] + cuts + [n_subs]
    stitched = _stitched(t, length, 5, bounds)
    for got, want in zip(stitched, _serial_arrays(t, length, 5)):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n_blocks", [1, 2, 3, 5, 11])
def test_balanced_row_blocks_stitch_to_serial(n_blocks):
    from repro.core.compute_mp import row_blocks

    t = _walk(99, 400)
    length = 20
    blocks = row_blocks(t.size - length + 1, n_blocks)
    bounds = [start for start, _ in blocks] + [blocks[-1][1]]
    stitched = _stitched(t, length, 5, bounds)
    for got, want in zip(stitched, _serial_arrays(t, length, 5)):
        np.testing.assert_array_equal(got, want)


def test_row_blocks_partition_exactly():
    from repro.core.compute_mp import row_blocks

    for n_rows, n_blocks in ((1000, 4), (10, 50), (7, 7), (100, 1), (1, 3)):
        blocks = row_blocks(n_rows, n_blocks)
        assert blocks[0][0] == 0 and blocks[-1][1] == n_rows
        assert len(blocks) <= min(n_rows, n_blocks)
        for (s1, e1), (s2, e2) in zip(blocks, blocks[1:]):
            assert e1 == s2 and s1 < e1 and s2 < e2
    # Later blocks replay more of the recurrence, so they get fewer rows.
    sizes = [stop - start for start, stop in row_blocks(1000, 4)]
    assert sizes == sorted(sizes, reverse=True)


def test_deterministic_across_repeated_runs():
    """Same series -> identical results on every multi-process run,
    whatever order the row blocks complete in."""
    t = _walk(31, 320)
    first, first_store = compute_matrix_profile(t, 16, 5, n_jobs=2)
    for _ in range(2):
        again, again_store = compute_matrix_profile(t, 16, 5, n_jobs=2)
        np.testing.assert_array_equal(first.profile, again.profile)
        np.testing.assert_array_equal(first.index, again.index)
        np.testing.assert_array_equal(first_store.neighbor, again_store.neighbor)


def test_exclusion_zone_respected_across_seams():
    """Neither the profile neighbor nor any listDP entry may fall inside
    the exclusion zone, for rows on either side of a block seam."""
    t = _walk(17, 350)
    length = 16
    for n_jobs in (2, 3):
        mp, store = compute_matrix_profile(t, length, 5, n_jobs=n_jobs)
        zone = mp.exclusion
        rows = np.arange(len(mp))
        assert (mp.index >= 0).all()
        assert (np.abs(mp.index - rows) >= zone).all()
        filled = store.neighbor >= 0
        gaps = np.abs(store.neighbor - rows[:, None])
        assert (gaps[filled] >= zone).all()
