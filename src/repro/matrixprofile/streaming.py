"""Incremental (streaming) matrix profile — STAMPI-style appends.

The matrix-profile line of work supports online maintenance: when a new
point arrives, one new subsequence appears, and the profile is updated
by (a) computing the new subsequence's distance profile and (b) letting
it improve existing entries.  Total cost per append is O(n) with the
incremental dot-product update — the same recurrence STOMP uses, rotated
90 degrees.

The window itself — points, window statistics, growth, eviction, offset
and the capacity rule — belongs to
:class:`~repro.kernels.streaming_stats.StreamingSeriesStats`; this
engine keeps only its profile/index and trailing dot-product row (as
columns of that window) and the eviction repair.  The window statistics
are extended with one exact O(l) computation per append instead of a
per-append context rebuild, so ``stats.cache.misses`` stays flat across
appends and ``streaming.buffer.regrows`` counts log₂ growths over any
run.

With ``max_points=`` the engine keeps a sliding window: the oldest
points are retired after each append, surviving rows whose recorded
neighbor was evicted are repaired by an exact distance-row recompute
(``streaming.rows.repaired``), and the result equals a from-scratch
computation on the retained window.

This engine exists because the paper's motivating deployments
(AspenTech's precursor search, EPG monitoring) are streaming settings;
the variable-length generalization lives in
:mod:`repro.matrixprofile.streaming_valmod`.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import obs
from repro.distance.profile import apply_exclusion_zone, distance_profile_from_qt
from repro.distance.znorm import as_series
from repro.kernels.context import ensure_context
from repro.kernels.streaming_stats import StreamingSeriesStats
from repro.lint.contracts import optional, positive_int, require, series_like
from repro.matrixprofile.exclusion import exclusion_zone_half_width
from repro.matrixprofile.index import MatrixProfile

__all__ = ["StreamingMatrixProfile"]


class StreamingMatrixProfile:
    """Maintains the matrix profile of a growing (or sliding) series.

    Usage::

        smp = StreamingMatrixProfile(initial_series, length=64)
        for value in feed:
            smp.append(value)
        motif = smp.matrix_profile().motif_pair()

    Appends are O(n) each; the result after any number of appends equals
    a from-scratch computation on the concatenated series (tested).
    With ``max_points`` the window slides and the result equals a
    from-scratch computation on the retained window.
    """

    @require(
        series=series_like(min_length=4),
        length=positive_int(),
        max_points=optional(positive_int()),
    )
    def __init__(
        self,
        series: np.ndarray,
        length: int,
        *,
        max_points: Optional[int] = None,
    ) -> None:
        t = as_series(series, min_length=4)
        self.length = int(length)
        self._zone = exclusion_zone_half_width(self.length)
        self._stats = StreamingSeriesStats(t, self.length, self.length)
        self._stats.max_points = max_points

        from repro.matrixprofile.stomp import stomp

        ctx = ensure_context(t.copy())
        mp = stomp(ctx.series, self.length, context=ctx)
        n_subs = mp.profile.size
        self._stats.add_column("profile", np.inf)[:n_subs] = mp.profile
        self._stats.add_column("index", -1, np.int64)[:n_subs] = mp.index
        # Dot products of the LAST subsequence against all others; the
        # append recurrence extends this row in O(n).
        self._stats.add_column("qt", 0.0)[:n_subs] = ctx.sliding_dot_product(
            ctx.series[n_subs - 1 :]
        )
        if self._stats.excess:
            self._evict(self._stats.excess)

    def __len__(self) -> int:
        return self._stats.n_points

    @property
    def n_subsequences(self) -> int:
        return self._stats.n_points - self.length + 1

    @property
    def window_start(self) -> int:
        """Absolute stream offset of the first retained point."""
        return self._stats.window_start

    @property
    def max_points(self) -> Optional[int]:
        """Sliding-window capacity (None = unbounded growth)."""
        return self._stats.max_points

    def append(self, value: float) -> None:
        """Ingest one new point, updating the profile in O(n)."""
        with obs.span("streaming.append"):
            self._append(value)
            obs.add("streaming.appends")
            if self._stats.excess:
                self._evict(self._stats.excess)

    def _append(self, value: float) -> None:
        stats = self._stats
        stats.append(value)
        t = stats.series()
        n = t.size
        length = self.length
        n_subs = n - length + 1
        new = n_subs - 1  # offset of the subsequence that just appeared
        mu, sigma = stats.mean_std(length)

        # Extend the trailing-QT row: QT_new[j] relates to the previous
        # last subsequence's QT by the STOMP recurrence run backwards
        # along the new row.  The right-hand side is evaluated in full
        # before it lands, so the row updates in place.
        qt = stats.column("qt")
        qt[1:n_subs] = (
            qt[: n_subs - 1]
            - t[: n_subs - 1] * t[new - 1]
            + t[length : length + n_subs - 1] * t[n - 1]
        )
        qt[0] = float(np.dot(t[:length], t[new:]))

        row = distance_profile_from_qt(
            qt[:n_subs], length, float(mu[new]), float(sigma[new]), mu, sigma
        )
        lo = max(0, new - self._zone + 1)
        row[lo:] = np.inf

        profile = stats.column("profile")
        index = stats.column("index")
        profile[new] = np.inf
        index[new] = -1
        j = int(np.argmin(row))
        if np.isfinite(row[j]):
            profile[new] = row[j]
            index[new] = j
        better = row < profile[:n_subs]
        profile[:n_subs][better] = row[better]
        index[:n_subs][better] = new

    def _evict(self, count: int) -> None:
        """Retire the ``count`` oldest points and repair orphaned rows."""
        stats = self._stats
        stats.evict(count)
        length = self.length
        n_subs = self.n_subsequences
        profile = stats.column("profile")
        index = stats.column("index")
        idx = index[:n_subs]
        had_neighbor = idx >= 0
        idx[had_neighbor] -= count
        # Rows whose recorded neighbor was evicted lost the witness of
        # their profile value (the minimum may now be larger): recompute
        # them exactly against the surviving window.  Rows whose
        # neighbor survives keep exact values — the old minimum is
        # attained by a survivor.
        stale = np.flatnonzero(had_neighbor & (idx < 0))
        if stale.size:
            obs.add("streaming.rows.repaired", int(stale.size))
            t = stats.series()
            mu, sigma = stats.mean_std(length)
            for j in stale:
                j = int(j)
                qt_row = np.correlate(t, t[j : j + length], mode="valid")
                row = distance_profile_from_qt(
                    qt_row, length, float(mu[j]), float(sigma[j]), mu, sigma
                )
                apply_exclusion_zone(row, j, self._zone)
                jj = int(np.argmin(row))
                if np.isfinite(row[jj]):
                    profile[j] = row[jj]
                    index[j] = jj
                else:
                    profile[j] = np.inf
                    index[j] = -1

    def extend(self, values: Sequence[float]) -> None:
        """Append many points."""
        for value in values:
            self.append(value)

    def matrix_profile(self) -> MatrixProfile:
        """The current profile as an immutable snapshot."""
        n_subs = self.n_subsequences
        return MatrixProfile(
            profile=self._stats.column("profile")[:n_subs].copy(),
            index=self._stats.column("index")[:n_subs].copy(),
            length=self.length,
        )

    def series(self) -> np.ndarray:
        """A copy of the current series window."""
        return self._stats.series().copy()
