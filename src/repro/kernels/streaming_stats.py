"""The streaming window: points, per-length window statistics, eviction.

:class:`~repro.kernels.context.SeriesContext` caches one
``moving_mean_std`` array pair per length for a *fixed* series; a
streaming engine would have to rebuild that context (and recompute every
window) on each append.  :class:`StreamingSeriesStats` is the streaming
counterpart and the one owner of a streaming window, shared by
:class:`~repro.matrixprofile.streaming.StreamingMatrixProfile` and
:class:`~repro.matrixprofile.streaming_valmod.StreamingValmod`.  It
keeps:

* an amortized-doubling buffer of the retained points (every doubling
  counted once in ``streaming.buffer.regrows``);
* for every length in ``[l_min, l_max]``, per-window mean/std arrays
  that are *extended in place* — one exact O(l) window computation per
  length per append, never a full recompute;
* *columns*: per-position arrays an engine attaches
  (:meth:`add_column`) that grow and slide with the window, so no engine
  allocates or shifts a buffer of its own;
* the window offset and point total, and the one capacity rule: a
  window must hold two non-overlapping ``l_max`` subsequences, at
  construction, in :attr:`max_points` and in every :meth:`evict`
  (:class:`~repro.exceptions.WindowTooSmallError`).

Numerical contract: the initial statistics are ``moving_mean_std`` on
the seed series, and every appended window is computed directly on the
window slice (``window.mean()`` / ``sqrt(max(window.var(), 0))``), which
is exactly the "suspicious window" recompute path ``moving_mean_std``
falls back to when prefix-sum cancellation bites.  Streaming values
therefore agree with the batch statistics to rounding error even on
high-magnitude shelves.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro import obs
from repro.distance.sliding import moving_mean_std
from repro.distance.znorm import as_series
from repro.exceptions import InvalidParameterError, WindowTooSmallError
from repro.lint.contracts import positive_int, require, series_like
from repro.types import FloatArray

__all__ = ["StreamingSeriesStats"]


def _capacity_for(n: int) -> int:
    cap = 64
    while cap < n:
        cap *= 2
    return cap


def _resized(old: np.ndarray, cap: int, keep: int) -> np.ndarray:
    new = np.empty(cap, dtype=old.dtype)
    new[:keep] = old[:keep]
    return new


class StreamingSeriesStats:
    """Growing (or sliding) window buffer plus per-length window statistics.

    Supports :meth:`append` (O(sum of lengths) exact window stats),
    :meth:`evict` (slide the retained window left), zero-copy
    :meth:`mean_std` views per length, and engine-attached
    :meth:`column` arrays that follow the window.  Positions are
    window-relative; :attr:`window_start` maps them to absolute stream
    offsets.
    """

    @require(series=series_like(), l_min=positive_int(), l_max=positive_int())
    def __init__(self, series: FloatArray, l_min: int, l_max: int) -> None:
        t = as_series(series, min_length=2)
        if l_min < 2 or l_min > l_max:
            raise InvalidParameterError(
                f"need 2 <= l_min <= l_max, got l_min={l_min} l_max={l_max}"
            )
        if t.size < 2 * l_max:
            raise WindowTooSmallError(
                f"l_max {l_max} invalid for an initial series of {t.size} "
                f"points (need >= {2 * l_max})"
            )
        self.l_min = int(l_min)
        self.l_max = int(l_max)
        self._n = t.size
        self._start = 0
        self._total = t.size
        self._max_points: Optional[int] = None
        self._cap = _capacity_for(t.size)
        self._buf = _resized(t, self._cap, t.size)
        self._mu: Dict[int, FloatArray] = {}
        self._sigma: Dict[int, FloatArray] = {}
        self._columns: Dict[str, np.ndarray] = {}
        for length in range(self.l_min, self.l_max + 1):
            mu, sigma = moving_mean_std(t, length)
            self._mu[length] = _resized(mu, self._cap, mu.size)
            self._sigma[length] = _resized(sigma, self._cap, sigma.size)

    # ------------------------------------------------------------------
    # window geometry

    @property
    def n_points(self) -> int:
        """Number of points currently retained."""
        return self._n

    @property
    def window_start(self) -> int:
        """Absolute stream offset of the first retained point."""
        return self._start

    @property
    def total_points(self) -> int:
        """Points ingested over the stream's lifetime."""
        return self._total

    @property
    def max_points(self) -> Optional[int]:
        """Sliding-window capacity (None = unbounded growth).

        Setting it checks the capacity rule and raises
        :class:`~repro.exceptions.WindowTooSmallError`, leaving the old
        capacity in place, when the new one cannot hold two
        non-overlapping ``l_max`` subsequences.  It evicts nothing: the
        engine retires :attr:`excess` points through :meth:`evict`.
        """
        return self._max_points

    @max_points.setter
    def max_points(self, value: Optional[int]) -> None:
        if value is not None:
            value = int(value)
            if value < 2 * self.l_max:
                raise WindowTooSmallError(
                    f"max_points={value} cannot hold two non-overlapping "
                    f"subsequences of length {self.l_max} "
                    f"(need >= {2 * self.l_max})"
                )
        self._max_points = value

    @property
    def excess(self) -> int:
        """Points beyond :attr:`max_points` (0 when the window fits)."""
        if self._max_points is None:
            return 0
        return max(0, self._n - self._max_points)

    def series(self) -> FloatArray:
        """Read-only view of the current window (no copy)."""
        view = self._buf[: self._n]
        view.flags.writeable = False
        return view

    # ------------------------------------------------------------------
    # columns

    def add_column(self, name: str, fill: float, dtype: type = np.float64) -> np.ndarray:
        """Attach a per-position array that grows and slides with the window.

        Entry ``i`` belongs to the subsequence starting at window
        position ``i``; :meth:`evict` shifts it with the points.  Returns
        the full-capacity array, filled with ``fill``.
        """
        self._columns[name] = np.full(self._cap, fill, dtype=dtype)
        return self._columns[name]

    def column(self, name: str) -> np.ndarray:
        """The full-capacity array of column ``name``.

        Growth reallocates it, so fetch it again after every
        :meth:`append` rather than holding on to it.
        """
        return self._columns[name]

    def _arrays(self) -> Iterator[Tuple[Dict, object]]:
        for table in (self._mu, self._sigma, self._columns):
            for key in table:
                yield table, key

    # ------------------------------------------------------------------
    # mutation

    def _grow(self) -> None:
        obs.add("streaming.buffer.regrows")
        self._cap *= 2
        self._buf = _resized(self._buf, self._cap, self._n)
        for table, key in self._arrays():
            table[key] = _resized(table[key], self._cap, self._n)

    def append(self, value: float) -> None:
        """Ingest one point, extending every per-length stats array."""
        if not np.isfinite(value):
            raise InvalidParameterError(
                f"appended value must be finite, got {value}"
            )
        if self._n + 1 > self._cap:
            self._grow()
        self._buf[self._n] = float(value)
        self._n += 1
        self._total += 1
        n = self._n
        for length in range(self.l_min, self.l_max + 1):
            window = self._buf[n - length : n]
            mu = float(window.mean())
            sigma = math.sqrt(max(float(window.var()), 0.0))
            self._mu[length][n - length] = mu
            self._sigma[length][n - length] = sigma

    def evict(self, count: int) -> None:
        """Retire the ``count`` oldest points (slide the window left).

        Raises :class:`~repro.exceptions.WindowTooSmallError` when the
        rest could not hold two non-overlapping ``l_max`` subsequences.
        """
        if count < 0:
            raise InvalidParameterError(f"evict count must be >= 0, got {count}")
        if count == 0:
            return
        n = self._n
        remaining = n - count
        if remaining < 2 * self.l_max:
            raise WindowTooSmallError(
                f"evicting {count} points would leave {remaining} < "
                f"{2 * self.l_max} needed for l_max={self.l_max}"
            )
        obs.add("streaming.entries.evicted", count)
        self._buf[:remaining] = self._buf[count:n]
        for table, key in self._arrays():
            arr = table[key]
            arr[:remaining] = arr[count:n]
        self._n = remaining
        self._start += count

    def mean_std(self, length: int) -> Tuple[FloatArray, FloatArray]:
        """(mu, sigma) views over the current window's length-``l`` windows."""
        if not self.l_min <= length <= self.l_max:
            raise InvalidParameterError(
                f"length {length} outside configured [{self.l_min}, {self.l_max}]"
            )
        count = self._n - length + 1
        return self._mu[length][:count], self._sigma[length][:count]
