"""Host-speed probe: cancels the drift of a shared host out of the timings.

On a small shared host the speed of a core drifts with what other
tenants run, in epochs lasting minutes: the same ``valmod()`` call on
the same input took a best of 0.86 s in one 30-second run and 1.15 s in
the next, so no statistic taken inside one run removes it.  A probe is a
fixed NumPy kernel that calls nothing from ``repro``, run between the
timed operations so that it samples the same epochs they do.  A change
to ``repro`` cannot move it.

The drift slows some kinds of work more than others: over runs spanning
such epochs, a probe of many small-array calls around short FFTs moved
about 1.4 times as much as the Algorithm 3 and stream workloads did,
while large FFTs tracked the FFT-bound Algorithm 4 recompute.  Each
workload is therefore scaled by the probe that mimics where its time
goes: ``rows``, a STOMP-style row loop (dot-product update, distance
row, exclusion zone, argmin and a p-smallest partition on arrays of
4000 doubles), or ``fft``, full-series sliding dot products.

The epochs can also change in the middle of a run, so each operation is
scaled by the probe samples taken next to it, not by the run's median:
its reference-host seconds are its raw seconds times ``NOMINAL_S[kind]
/ median probe time`` over the nearest ``LOCAL_SAMPLES`` samples.
``NOMINAL_S`` is each probe's median on the 2-vCPU host the workloads
were sized on, so there the reported seconds read close to the wall
clock.
"""

import statistics
import time
from typing import List, Tuple

import numpy as np

#: median probe time on the reference host (2 vCPUs, NumPy 2.4, Python 3.11).
NOMINAL_S = {"rows": 0.0073, "fft": 0.0075}

#: samples a local scale is the median of: the probe groups nearest the
#: operation, on both sides, until they hold at least this many.
LOCAL_SAMPLES = 11

#: length and subsequence length of the ``rows`` probe's series.
ROWS_N = 4000
ROWS_M = 64

#: median time a fresh interpreter takes to ``import numpy`` on the same
#: host, with the BLAS pool pinned to one thread.  Set-up scales the
#: ``repro`` import by it: both are module loading, which the array
#: probes track poorly.
NOMINAL_NUMPY_IMPORT_S = 0.09


class HostProbe:
    """Samples of one probe kernel taken between timed operations."""

    def __init__(self, kind: str) -> None:
        rng = np.random.default_rng(0)
        self.kind = kind
        self._kernel = {"rows": self._rows, "fft": self._fft}[kind]
        self._x = rng.standard_normal(ROWS_N + ROWS_M)
        self._mu = rng.standard_normal(ROWS_N)
        self._sigma = rng.random(ROWS_N) + 0.5
        self._positions = np.arange(ROWS_N)
        self._series = rng.standard_normal(8192)
        self.groups: List[List[float]] = []

    def _rows(self) -> float:
        # The shape of the Algorithm 3 row loop and of the stream's
        # per-length profiles: O(n) vector updates and reductions per row.
        x, mu, sigma, m = self._x, self._mu, self._sigma, ROWS_M
        qt = x[:ROWS_N].copy()
        total = 0.0
        for i in range(60):
            qt[1:] = qt[:-1] - x[i] * x[:ROWS_N - 1] + x[i + m] * x[m:ROWS_N + m - 1]
            corr = (qt - m * mu * mu[i]) / (m * sigma * sigma[i])
            dist = np.sqrt(np.maximum(2 * m * (1 - corr), 0.0))
            far = np.abs(self._positions - i) >= m // 4
            dist[~far] = np.inf
            total += float(dist[int(np.argmin(dist))])
            base = np.where(far, 1 - corr * corr, np.inf)
            total += float(base[np.argpartition(base, 9)[:10]].sum())
        return total

    def _fft(self) -> float:
        # Full-series sliding dot products: the MASS recompute of Algorithm 4.
        total = 0.0
        for _ in range(40):
            spectrum = np.fft.rfft(self._series)
            total += float(np.fft.irfft(spectrum * spectrum).argmin())
        return total

    def sample(self, repeats: int = 1) -> int:
        """Probe after one timed operation; the index of this group of samples."""
        group = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._kernel()
            group.append(time.perf_counter() - start)
        self.groups.append(group)
        return len(self.groups) - 1

    def scale(self) -> float:
        """Factor from raw seconds to reference-host seconds over every sample."""
        return NOMINAL_S[self.kind] / statistics.median(
            [t for group in self.groups for t in group])

    def local_scale(self, group: int) -> float:
        """The same factor for the operation probed by ``group``, from the
        nearest ``LOCAL_SAMPLES`` samples around it."""
        lo = hi = group
        window = list(self.groups[group])
        while len(window) < LOCAL_SAMPLES and (lo > 0 or hi < len(self.groups) - 1):
            if lo > 0:
                lo -= 1
                window += self.groups[lo]
            if hi < len(self.groups) - 1:
                hi += 1
                window += self.groups[hi]
        return NOMINAL_S[self.kind] / statistics.median(window)

    def reported(self, probed: List[Tuple[float, int]]) -> List[float]:
        """``(raw seconds, group)`` pairs in reference-host seconds."""
        return [seconds * self.local_scale(group) for seconds, group in probed]
