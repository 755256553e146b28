"""Algorithm 3 — ComputeMatrixProfile with lower-bound bookkeeping.

Runs the STOMP dot-product recurrence (shared with
:mod:`repro.matrixprofile.stomp`) and, per distance profile, stores the p
entries with the smallest lower-bound distance into the
:class:`~repro.core.entries.EntryStore`.  This is the O(n^2 log p) first
phase of VALMOD.

The recurrence is inherently serial — row i derives from row i-1 — but
what is done with a row is not: the rows it produces are gathered into
blocks of :data:`~repro.core.entries.LISTDP_BLOCK_ROWS` rows, and each
block is scored (correlation once, then Eq. 3 distances, exclusion and
argmin) and bounded and selected (``lb_base`` and ``argpartition`` in
:meth:`EntryStore.fill_row`) in one 2-D pass.  Every element goes through
the same floating-point operations as in a one-row pipeline, so the
results are bitwise those of the rowwise loop (``tests/test_listdp_blocks.py``
keeps that loop as the reference).

With ``n_jobs > 1`` the rows are split into blocks processed by worker
processes.  Each worker replays the STOMP dot-product recurrence up to
its block start (cheap — no distance profiles are materialized during the
replay) and then runs the identical per-row pipeline, so the assembled
profile, index, and listDP rows are bitwise identical to a serial run.
The series travels to each worker in its task (every worker works on its
own copy anyway); each block result comes back as plain arrays the
parent stitches together.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import List, Optional, Tuple

import numpy as np

from repro import obs
from repro.types import FloatArray

from repro.core.entries import LISTDP_BLOCK_ROWS, EntryStore
from repro.distance.profile import (
    apply_exclusion_zone,
    correlation_from_qt,
    distance_from_correlation,
)
from repro.distance.sliding import validate_subsequence_length
from repro.distance.znorm import CONSTANT_EPS
from repro.kernels.context import SeriesContext
from repro.lint.contracts import (
    instance_of,
    optional,
    positive_int,
    require,
    series_like,
)
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile
from repro.matrixprofile.stomp import iterate_stomp_qt

__all__ = ["compute_matrix_profile", "resolve_n_jobs", "row_blocks"]

#: relative cost of replaying one row of the dot-product recurrence,
#: versus fully processing one row (distance profile + listDP insert).
#: Measured on the vectorized kernels; only load balance depends on it.
REPLAY_COST = 0.35


@require(n_jobs=optional(instance_of(int)))
def resolve_n_jobs(n_jobs: Optional[int]) -> int:
    """Normalize an ``n_jobs`` request to a positive worker count.

    ``None`` and ``0`` mean "let the library decide" (all visible CPUs);
    negative values follow the joblib convention ``cpus + 1 + n_jobs``
    (so ``-1`` is all CPUs, ``-2`` all but one).
    """
    cpus = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        return cpus
    if n_jobs < 0:
        return max(1, cpus + 1 + n_jobs)
    return int(n_jobs)


def _preferred_context():
    """Fork where available (zero-copy page sharing), else the default."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return get_context()


@require(n_rows=positive_int(), n_blocks=positive_int())
def row_blocks(n_rows: int, n_blocks: int, replay_cost: float = REPLAY_COST) -> List[Tuple[int, int]]:
    """Split ``[0, n_rows)`` into blocks with balanced replay-aware cost.

    Block ``[s, e)`` costs ``replay_cost * s + (e - s)``: later blocks
    replay more rows before producing output, so equal-size blocks would
    leave early workers idle.  The recurrence ``s_{k+1} = (1 - r) s_k + C``
    with the closed-form target ``C = n r / (1 - (1 - r)^K)`` equalizes
    the cost; boundaries are rounded to integers and deduplicated.
    """
    if n_rows <= 0:
        return []
    n_blocks = max(1, min(n_blocks, n_rows))
    if n_blocks == 1:
        return [(0, n_rows)]
    r = replay_cost
    target = n_rows * r / (1.0 - (1.0 - r) ** n_blocks)
    bounds = [0]
    s = 0.0
    for _ in range(n_blocks - 1):
        s = (1.0 - r) * s + target
        bounds.append(int(round(s)))
    bounds.append(n_rows)
    bounds = sorted(set(min(max(b, 0), n_rows) for b in bounds))
    return [(bounds[k], bounds[k + 1]) for k in range(len(bounds) - 1)]


def _fill_block(
    t: FloatArray,
    length: int,
    p: int,
    start: int,
    stop: int,
    context: Optional[SeriesContext] = None,
) -> Tuple[FloatArray, FloatArray, FloatArray, FloatArray, FloatArray]:
    """Profile, index, and listDP rows for the row range ``[start, stop)``.

    ``iterate_stomp_qt`` replays the recurrence up to ``start`` so every
    produced row matches a full serial run bit for bit.  Its rows are
    gathered into blocks of :data:`~repro.core.entries.LISTDP_BLOCK_ROWS` rows;
    each block's correlations are computed once and feed both the Eq. 3
    distances (profile and index) and the listDP fill, so the per-row
    NumPy calls of a rowwise pipeline become one 2-D pass per block.
    """
    ctx = SeriesContext.ensure(t, context, min_length=4)
    t = ctx.series
    n_subs = t.size - length + 1
    mu, sigma = ctx.moving_mean_std(length)
    zone = exclusion_zone_half_width(length)
    rows = stop - start
    profile = np.empty(rows, dtype=np.float64)
    index = np.empty(rows, dtype=np.int64)
    store = EntryStore.empty(max(rows, 1), p, length)
    qt_block = np.empty((LISTDP_BLOCK_ROWS, n_subs), dtype=np.float64)
    corr_block = np.empty((LISTDP_BLOCK_ROWS, n_subs), dtype=np.float64)
    dist_block = np.empty((LISTDP_BLOCK_ROWS, n_subs), dtype=np.float64)
    sigma_q = np.maximum(sigma, CONSTANT_EPS)[:, None]
    mu_q = mu[:, None]
    filled = 0
    for i, qt in iterate_stomp_qt(t, length, sigma, row_range=(start, stop), context=ctx):
        qt_block[filled] = qt
        filled += 1
        if filled < LISTDP_BLOCK_ROWS and i + 1 < stop:
            continue
        first = i + 1 - filled
        queries = slice(first, i + 1)
        qts = qt_block[:filled]
        corr = correlation_from_qt(
            qts, length, mu_q[queries], sigma_q[queries], mu, sigma,
            out=corr_block[:filled],
        )
        dist = distance_from_correlation(
            corr, length, sigma[queries], sigma, out=dist_block[:filled]
        )
        for k in range(filled):
            apply_exclusion_zone(dist[k], first + k, zone)
        best = np.argmin(dist, axis=1)
        local = slice(first - start, i + 1 - start)
        profile[local] = dist[np.arange(filled), best]
        index[local] = np.where(np.isfinite(profile[local]), best, -1)
        centres = np.arange(first, i + 1)
        store.fill_row(centres - start, centres, qts, corr, sigma[queries], length)
        filled = 0
    return profile, index, store.neighbor[:rows], store.qt[:rows], store.lb_base[:rows]


def _block_worker(task):
    """Worker-process entry: evaluate one row block of the series.

    Returns the block result plus the worker's tracer snapshot (None
    when tracing is off) so the parent can aggregate listDP counters.
    """
    t, length, p, start, stop, trace = task
    obs.worker_begin(trace)
    with obs.span("compute_mp/block"):
        block = _fill_block(t, length, p, start, stop)
    return (start, stop) + block + (obs.worker_snapshot(),)


@require(series=series_like(min_length=4), length=positive_int(), p=positive_int())
def compute_matrix_profile(
    series: FloatArray,
    length: int,
    p: int,
    n_jobs: Optional[int] = 1,
    context: Optional[SeriesContext] = None,
) -> Tuple[MatrixProfile, EntryStore]:
    """Matrix profile at ``length`` plus the listDP store (Algorithm 3).

    Returns the exact :class:`MatrixProfile` and an
    :class:`EntryStore` holding, for every subsequence, the p candidates
    with the smallest lower bound for greater lengths.  ``n_jobs``
    distributes row blocks over worker processes (``None``/``0`` = all
    CPUs); results are identical for every worker count.  ``context``
    optionally carries cached series statistics; workers rebuild their
    own from their copy of the series (the cache is per-process).
    """
    ctx = SeriesContext.ensure(series, context, min_length=4)
    t = ctx.series
    n_subs = validate_subsequence_length(t.size, length)
    jobs = 1 if n_jobs == 1 else resolve_n_jobs(n_jobs)
    blocks = row_blocks(n_subs, jobs)
    store = EntryStore.empty(n_subs, p, length)
    profile = np.empty(n_subs, dtype=np.float64)
    index = np.empty(n_subs, dtype=np.int64)
    obs.add("compute_mp.rows", n_subs)

    if len(blocks) <= 1:
        with obs.span("compute_mp"):
            with obs.span("block"):
                prof, idx, nb, qt, lb = _fill_block(
                    t, length, p, 0, n_subs, context=ctx
                )
        profile[:] = prof
        index[:] = idx
        store.neighbor[:] = nb
        store.qt[:] = qt
        store.lb_base[:] = lb
        return MatrixProfile(profile=profile, index=index, length=length), store

    tasks = [
        (t, length, p, start, stop, obs.enabled()) for start, stop in blocks
    ]
    with obs.span("compute_mp"):
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(blocks)), mp_context=_preferred_context()
        ) as pool:
            for start, stop, prof, idx, nb, qt, lb, trace in pool.map(
                _block_worker, tasks
            ):
                profile[start:stop] = prof
                index[start:stop] = idx
                store.neighbor[start:stop] = nb
                store.qt[start:stop] = qt
                store.lb_base[start:stop] = lb
                obs.merge(trace)
    return MatrixProfile(profile=profile, index=index, length=length), store
