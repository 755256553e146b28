"""Oracle wall for the block-vectorized listDP pipeline.

Algorithms 3 and 4 score, bound and select their rows in blocks
(``compute_mp._fill_block``, the ``compute_submp`` recompute batches and
``EntryStore.fill_row``).  The reference below is the rowwise pipeline
the blocks replaced, formulas included, so that every block result is
compared with it bit for bit: profile, index, every listDP array, the
sub-profile, the best pair and the recompute count.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.compute_mp import _fill_block, compute_matrix_profile
from repro.core.compute_submp import compute_submp, pairwise_entry_distances
from repro.core.entries import LISTDP_BLOCK_ROWS, EntryStore
from repro.core.lower_bound import lower_bound_base, lower_bound_from_base
from repro.datasets.registry import load_dataset
from repro.distance.sliding import DIRECT_DOT_MAX, moving_mean_std
from repro.distance.znorm import CONSTANT_EPS
from repro.kernels.context import SeriesContext
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.stomp import exact_qt_row, stomp_reanchor_rows

# ---------------------------------------------------------------------------
# The rowwise reference
# ---------------------------------------------------------------------------


def ref_correlation(qt, length, mu_q, sigma_q, mu, sigma):
    denom = length * sigma_q * sigma[: qt.size]
    with np.errstate(divide="ignore", invalid="ignore"):
        corr = (qt - length * mu_q * mu[: qt.size]) / denom
    corr[~np.isfinite(corr)] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


def ref_distance(qt, length, mu_q, sigma_q, mu, sigma):
    window_const = sigma[: qt.size] < CONSTANT_EPS
    corr = ref_correlation(qt, length, mu_q, max(sigma_q, CONSTANT_EPS), mu, sigma)
    dist_sq = 2.0 * length * (1.0 - corr)
    np.maximum(dist_sq, 0.0, out=dist_sq)
    profile = np.sqrt(dist_sq)
    if sigma_q < CONSTANT_EPS:
        return np.where(window_const, 0.0, np.sqrt(length))
    profile[window_const] = np.sqrt(length)
    return profile


def ref_lower_bound_base(correlation, length, sigma_owner):
    q = np.clip(np.asarray(correlation, dtype=np.float64), -1.0, 1.0)
    q = np.where(np.abs(q) > 1.0 - 1e-12, np.sign(q), q)
    factor = np.where(q <= 0.0, 1.0, np.sqrt(np.maximum(1.0 - q * q, 0.0)))
    return factor * math.sqrt(length) * sigma_owner


def ref_fill_row(store, row, qt_row, corr_row, sigma_owner, length, eligible):
    base = np.where(eligible, ref_lower_bound_base(corr_row, length, sigma_owner), np.inf)
    p = store.p
    if base.size > p:
        picked = np.argpartition(base, p - 1)[:p]
    else:
        picked = np.arange(base.size)
    picked = picked[np.isfinite(base[picked])]
    count = picked.size
    obs.add("listdp.rows_filled")
    obs.add("listdp.entries_stored", int(count))
    store.neighbor[row, :count] = picked
    store.neighbor[row, count:] = -1
    store.qt[row, :count] = qt_row[picked]
    store.qt[row, count:] = 0.0
    store.lb_base[row, :count] = base[picked]
    store.lb_base[row, count:] = np.inf
    store.base_length[row] = length


def ref_qt_rows(t, length, sigma, ctx):
    """The STOMP recurrence, one row at a time."""
    n_subs = t.size - length + 1
    qt_first = ctx.sliding_dot_product(t[:length])
    qt = qt_first.copy()
    anchors = stomp_reanchor_rows(t, length, sigma).tolist()
    heads = t[: n_subs - 1]
    tails = t[length : length + n_subs - 1]
    for i in range(n_subs):
        if i > 0:
            if anchors and anchors[0] == i:
                qt = exact_qt_row(t, i, length)
                anchors.pop(0)
            else:
                qt[1:] = qt[:-1] - heads * t[i - 1] + tails * t[i + length - 1]
            qt[0] = qt_first[i]
        yield i, qt


def ref_compute_mp(t, length, p):
    """Algorithm 3 with one correlation, distance and fill per row."""
    ctx = SeriesContext(t)
    n_subs = t.size - length + 1
    mu, sigma = moving_mean_std(t, length)
    zone = exclusion_zone_half_width(length)
    profile = np.empty(n_subs)
    index = np.empty(n_subs, dtype=np.int64)
    store = EntryStore.empty(n_subs, p, length)
    positions = np.arange(n_subs)
    for i, qt in ref_qt_rows(t, length, sigma, ctx):
        row = ref_distance(qt, length, float(mu[i]), float(sigma[i]), mu, sigma)
        row[max(0, i - zone + 1) : min(n_subs, i + zone)] = np.inf
        j = int(np.argmin(row))
        profile[i] = row[j]
        index[i] = j if np.isfinite(row[j]) else -1
        corr = ref_correlation(
            qt, length, float(mu[i]), max(float(sigma[i]), CONSTANT_EPS), mu, sigma
        )
        eligible = np.abs(positions - i) >= zone
        ref_fill_row(store, i, qt, corr, float(sigma[i]), length, eligible)
    return profile, index, store


def ref_compute_submp(t, store, new_length, recompute_fraction):
    """Algorithm 4 with the one-row recompute loop.

    Returns (sub_profile, index, best_distance, best_pair, n_recomputed).
    """
    ctx = SeriesContext(t)
    n = t.size
    n_dp = n - new_length + 1
    store.advance_to(new_length, t)
    mu, sigma = moving_mean_std(t, new_length)
    zone = exclusion_zone_half_width(new_length)
    nb = store.neighbor[:n_dp]
    qt = store.qt[:n_dp]
    rows = np.arange(n_dp)[:, None]
    in_range = (nb >= 0) & (nb <= n - new_length)
    usable = in_range & (np.abs(nb - rows) >= zone)
    dist = pairwise_entry_distances(qt, nb, usable, in_range, mu, sigma, new_length)
    lb = np.asarray(lower_bound_from_base(store.lb_base[:n_dp], sigma[:n_dp][:, None]))
    max_lb = lb.max(axis=1)
    min_dist = dist.min(axis=1)
    ind = np.take_along_axis(nb, np.argmin(dist, axis=1)[:, None], axis=1).ravel()
    valid = min_dist < max_lb
    sub_profile = np.full(n_dp, np.nan)
    index = np.full(n_dp, -1, dtype=np.int64)
    sub_profile[valid] = min_dist[valid]
    index[valid] = ind[valid]
    best_distance, best_pair = np.inf, None
    if valid.any():
        masked = np.where(valid, min_dist, np.inf)
        best_row = int(np.argmin(masked))
        if np.isfinite(masked[best_row]):
            best_distance = float(masked[best_row])
            best_pair = (best_row, int(ind[best_row]))
    invalid_rows = np.where(~valid)[0]
    min_lb_abs = float(max_lb[invalid_rows].min()) if invalid_rows.size else np.inf
    found = best_distance < min_lb_abs
    n_recomputed = 0
    needing = invalid_rows[max_lb[invalid_rows] < best_distance]
    if not found and needing.size < recompute_fraction * n_dp:
        positions = np.arange(n_dp)
        for r in needing[np.argsort(max_lb[needing])]:
            if max_lb[r] >= best_distance:
                break
            r = int(r)
            qt_row = ctx.sliding_dot_product(t[r : r + new_length])
            obs.add("mass.profile_calls")
            row_dp = ref_distance(qt_row, new_length, float(mu[r]), float(sigma[r]), mu, sigma)
            row_dp[max(0, r - zone + 1) : min(n_dp, r + zone)] = np.inf
            j = int(np.argmin(row_dp))
            sub_profile[r] = row_dp[j] if np.isfinite(row_dp[j]) else np.nan
            index[r] = j if np.isfinite(row_dp[j]) else -1
            if row_dp[j] < best_distance:
                best_distance = float(row_dp[j])
                best_pair = (r, j)
            corr_row = ref_correlation(
                qt_row, new_length, float(mu[r]), max(float(sigma[r]), CONSTANT_EPS), mu, sigma
            )
            eligible = np.abs(positions - r) >= zone
            ref_fill_row(store, r, qt_row, corr_row, float(sigma[r]), new_length, eligible)
            n_recomputed += 1
        obs.add("submp.profiles.recomputed", n_recomputed)
    return sub_profile, index, best_distance, best_pair, n_recomputed


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def walk(seed, n):
    return np.random.default_rng(seed).standard_normal(n).cumsum()


def with_shelves(seed, n, length):
    """A walk with two flat stretches: constant queries and candidates."""
    t = walk(seed, n)
    t[n // 5 : n // 5 + 2 * length] = 3.0
    t[n // 2 : n // 2 + length + 3] = -1.0
    return t


SERIES = st.sampled_from(["walk", "shelves", "reanchored"])


def make_series(kind, seed, n, length):
    if kind == "walk":
        return walk(seed, n)
    if kind == "shelves":
        return with_shelves(seed, n, length)
    return walk(seed, n) + 5e3  # a DC offset that trips the drift schedule


def copy_store(store):
    return dataclasses.replace(
        store,
        neighbor=store.neighbor.copy(),
        qt=store.qt.copy(),
        lb_base=store.lb_base.copy(),
        base_length=store.base_length.copy(),
    )


def assert_stores_equal(got, want):
    for name in ("neighbor", "qt", "lb_base", "base_length"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
    assert got.current_length == want.current_length


# ---------------------------------------------------------------------------
# Algorithm 3
# ---------------------------------------------------------------------------


def assert_mp_matches_reference(t, length, p, n_jobs=1):
    mp, store = compute_matrix_profile(t, length, p, n_jobs=n_jobs)
    profile, index, ref_store = ref_compute_mp(t, length, p)
    np.testing.assert_array_equal(mp.profile, profile)
    np.testing.assert_array_equal(mp.index, index)
    assert_stores_equal(store, ref_store)


@settings(max_examples=25, deadline=None)
@given(
    kind=SERIES,
    seed=st.integers(0, 10_000),
    n=st.integers(60, 400),
    length=st.sampled_from([6, 8, 13, 16]),
    p=st.sampled_from([1, 3, 10]),
)
def test_compute_mp_matches_rowwise_reference(kind, seed, n, length, p):
    """Blocks of any fill (n_subs is rarely a multiple of the block) give
    the rowwise bits, on walks, flat shelves and re-anchored rows."""
    assert_mp_matches_reference(make_series(kind, seed, n, length), length, p)


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    start=st.integers(0, 120),
    width=st.integers(1, 60),
)
def test_row_ranges_starting_mid_block(seed, start, width):
    """A row range may start anywhere inside a block of the serial run."""
    t = walk(seed, 200)
    length = 12
    stop = min(start + width, t.size - length + 1)
    profile, index, ref_store = ref_compute_mp(t, length, 4)
    got = _fill_block(t, length, 4, start, stop)
    want = [profile, index, ref_store.neighbor, ref_store.qt, ref_store.lb_base]
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g, w[start:stop])


@pytest.mark.parametrize("n_jobs", [2, 3])
def test_worker_blocks_match_reference_with_reanchors(n_jobs):
    """Worker row ranges start mid-block and the drift schedule re-anchors
    rows inside blocks (``cumsum + 5e3``, n=1500, l=64, p=10)."""
    t = walk(0, 1500) + 5e3
    _, sigma = moving_mean_std(t, 64)
    anchors = stomp_reanchor_rows(t, 64, sigma)
    assert anchors.size > 0 and (anchors % LISTDP_BLOCK_ROWS).any()
    assert_mp_matches_reference(t, 64, 10, n_jobs=n_jobs)


def test_fewer_than_p_candidates():
    """Rows with fewer than p eligible candidates keep only those."""
    t = walk(3, 40)
    assert_mp_matches_reference(t, 8, 50)
    assert_mp_matches_reference(t, 8, 20)  # some rows full, some short


# ---------------------------------------------------------------------------
# Algorithm 4
# ---------------------------------------------------------------------------


def sweep_both(t, l_min, l_max, p, recompute_fraction):
    """Run the block and the rowwise Algorithm 4 over one sweep, comparing
    every step; returns the per-step recompute counts."""
    _, store = compute_matrix_profile(t, l_min, p)
    ref_store = copy_store(store)
    counts = []
    for length in range(l_min + 1, l_max + 1):
        got = compute_submp(t, store, length, recompute_fraction=recompute_fraction)
        sub, index, best, pair, n_rec = ref_compute_submp(
            t, ref_store, length, recompute_fraction
        )
        np.testing.assert_array_equal(got.sub_profile, sub)
        np.testing.assert_array_equal(got.index, index)
        assert got.best_distance == best
        assert got.best_pair == pair
        assert got.n_recomputed == n_rec
        assert_stores_equal(store, ref_store)
        counts.append(n_rec)
    return counts


@settings(max_examples=15, deadline=None)
@given(
    kind=SERIES,
    seed=st.integers(0, 10_000),
    n=st.integers(150, 500),
    p=st.sampled_from([2, 5, 10]),
    recompute_fraction=st.sampled_from([0.5, 1.0]),
)
def test_compute_submp_matches_rowwise_reference(kind, seed, n, p, recompute_fraction):
    sweep_both(make_series(kind, seed, n, 10), 10, 16, p, recompute_fraction)


def test_sweep_straddling_direct_dot_max():
    """63 -> 66 crosses from the per-row direct correlation to the 2-D
    FFT; both sides recompute multi-row batches here."""
    assert 63 <= DIRECT_DOT_MAX < 65
    counts = sweep_both(load_dataset("GAP", 800, 3), 63, 66, 3, 1.0)
    assert counts[0] > 1 and min(counts[1:]) > 1


def batch_ends(n_dp):
    """Committed-row counts at which a recompute batch ends."""
    limit, size, end, ends = LISTDP_BLOCK_ROWS, 1, 0, set()
    while end < n_dp:
        end += size
        ends.add(end)
        size = min(2 * size, limit)
    return ends


def test_early_exit_inside_a_batch():
    """When the one-row loop stops mid-batch, the rows computed past the
    exit leave no trace: their listDP rows keep their pre-call bits (after
    the length advance) and the counters read as the one-row loop's."""
    t = walk(5, 600)
    p, names = 5, (
        "submp.profiles.recomputed",
        "listdp.rows_filled",
        "listdp.entries_stored",
        "mass.profile_calls",
        "mass.fft_calls",
        "mass.direct_dot_calls",
    )
    _, store = compute_matrix_profile(t, 70, p)
    ref_store = copy_store(store)
    mid_batch = 0
    for length in range(71, 90):
        before = copy_store(store)
        before.advance_to(length, t)
        with obs.tracing(True):
            obs.reset()
            got = compute_submp(t, store, length, recompute_fraction=1.0)
            counters = obs.get_tracer().counters()
            obs.reset()
            ref = ref_compute_submp(t, ref_store, length, 1.0)
            ref_counters = obs.get_tracer().counters()
        assert got.n_recomputed == ref[4]
        assert_stores_equal(store, ref_store)
        for name in names:
            assert counters.get(name, 0) == ref_counters.get(name, 0), name
        untouched = store.base_length != length
        assert int((~untouched).sum()) == got.n_recomputed
        for name in ("neighbor", "qt", "lb_base", "base_length"):
            np.testing.assert_array_equal(
                getattr(store, name)[untouched], getattr(before, name)[untouched]
            )
        stopped = got.n_recomputed < got.n_invalid and got.n_recomputed > 0
        if stopped and got.n_recomputed not in batch_ends(t.size - length + 1):
            mid_batch += 1
    assert mid_batch > 0, "no step stopped inside a batch; pick another input"


# ---------------------------------------------------------------------------
# lower_bound_base
# ---------------------------------------------------------------------------


def test_lower_bound_base_bits_on_the_edges():
    """The in-place block form equals the clip/snap/where formula bit for
    bit, on unclipped inputs and around every branch point."""
    snap = 1.0 - 1e-12
    grid = np.array(
        [
            -np.inf, -2.0, -1.0 - 1e-9, np.nextafter(-1.0, -2.0), -1.0,
            np.nextafter(-1.0, 0.0), np.nextafter(-snap, -1.0), -snap,
            np.nextafter(-snap, 0.0), -0.5, -0.0, 0.0, 5e-324, 1e-300, 0.25,
            0.5, 0.999, np.nextafter(snap, 0.0), snap, np.nextafter(snap, 1.0),
            np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0), 1.5, np.inf, np.nan,
        ]
    )
    sigmas = np.array([2.0, 0.0, 1e-9, 3.7])
    for length in (1, 7, 16, 100):
        for s in sigmas:
            want = ref_lower_bound_base(grid, length, float(s))
            np.testing.assert_array_equal(lower_bound_base(grid, length, float(s)), want)
            for q, w in zip(grid.tolist(), want.tolist()):
                got = lower_bound_base(q, length, float(s))
                assert got == w or (math.isnan(got) and math.isnan(w)), (q, length, s)
        block = np.tile(grid, (sigmas.size, 1))
        want = np.array([ref_lower_bound_base(grid, length, float(s)) for s in sigmas])
        np.testing.assert_array_equal(lower_bound_base(block, length, sigmas[:, None]), want)
        aliased = block.copy()
        out = lower_bound_base(aliased, length, sigmas[:, None], out=aliased)
        assert out is aliased
        np.testing.assert_array_equal(out, want)
