"""``listDP``: per-profile stores of the p best lower-bound entries.

Algorithm 3 keeps, for every distance profile, the ``p`` entries with the
smallest lower-bound distance (a max-heap of capacity p in the paper).
Each entry carries the pair's dot product and enough statistics to update
its exact distance and lower bound in O(1) per length increment
(Algorithm 4, line 10).

Instead of n Python heaps we store the structure as three ``(n, p)``
arrays — neighbor offsets, dot products, and the k-independent lower
bound numerators ``lb_base`` (see :mod:`repro.core.lower_bound`) — so the
whole of Algorithm 4 vectorizes across profiles.  Window sums are *not*
stored per entry: they are O(1) reads from the series prefix sums at any
length, which is exactly the role of the per-entry sums in the paper's C
implementation.

Empty slots (profiles with fewer than p non-trivial candidates) have
neighbor -1 and ``lb_base = +inf``; the +inf makes ``max_lb`` infinite for
such profiles, which encodes "the store holds every candidate, nothing
was left unstored" — the validity test is then trivially satisfied.

Rows are (re)built a block at a time (:meth:`EntryStore.fill_row`): both
Algorithm 3 and Algorithm 4's recompute hand over a block of freshly
computed profiles.  Filling is independent per row, so a block fill
equals the row fills it replaces; what must stay serial is Algorithm 4's
decision *which* rows to fill, which is why its recompute commits rows
one at a time and fills only the committed ones
(:mod:`repro.core.compute_submp`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.types import FloatArray, IntArray

from repro.core.lower_bound import lower_bound_base
from repro.exceptions import InvalidParameterError
from repro.matrixprofile.exclusion import exclusion_zone_half_width

__all__ = ["EntryStore", "LISTDP_BLOCK_ROWS"]

#: rows per block of the listDP pipeline: Algorithms 3 and 4 score, bound
#: and select their rows this many at a time, which amortizes NumPy's
#: per-call cost; more rows cost peak memory without saving time
#: (EXPERIMENTS.md has the sweep).
LISTDP_BLOCK_ROWS = 8


@dataclass
class EntryStore:
    """Vectorized ``listDP`` for all profiles of one VALMOD run.

    Attributes
    ----------
    neighbor:
        ``(n, p)`` int64; the other offset of each stored pair, -1 = empty.
    qt:
        ``(n, p)`` float64; dot product of the pair at ``current_length``.
    lb_base:
        ``(n, p)`` float64; ``f(q) sqrt(l_base) sigma[j, l_base]``
        evaluated at the row's base length (+inf = empty).
    base_length:
        ``(n,)`` int64; the length each row was (re)built at.
    current_length:
        The length the ``qt`` values correspond to right now.
    """

    neighbor: IntArray
    qt: FloatArray
    lb_base: FloatArray
    base_length: IntArray
    current_length: int

    @classmethod
    def empty(cls, n_profiles: int, p: int, length: int) -> "EntryStore":
        """Allocate an all-empty store for ``n_profiles`` rows of width p."""
        if p <= 0:
            raise InvalidParameterError(f"p must be positive, got {p}")
        if n_profiles <= 0:
            raise InvalidParameterError(
                f"need at least one profile, got {n_profiles}"
            )
        return cls(
            neighbor=np.full((n_profiles, p), -1, dtype=np.int64),
            qt=np.zeros((n_profiles, p), dtype=np.float64),
            lb_base=np.full((n_profiles, p), np.inf, dtype=np.float64),
            base_length=np.full(n_profiles, length, dtype=np.int64),
            current_length=length,
        )

    @property
    def n_profiles(self) -> int:
        return self.neighbor.shape[0]

    @property
    def p(self) -> int:
        return self.neighbor.shape[1]

    def fill_row(
        self,
        rows: IntArray,
        centres: IntArray,
        qt_rows: FloatArray,
        corr_rows: FloatArray,
        sigma_owner: FloatArray,
        length: int,
    ) -> None:
        """Rebuild a block of rows from freshly computed distance profiles.

        Store row ``rows[k]`` receives the profile of query ``centres[k]``
        (its exclusion-zone centre): ``qt_rows[k]`` / ``corr_rows[k]`` are
        that query's dot products and correlations against every candidate
        at ``length``, ``sigma_owner[k]`` its sigma.  Each row keeps the p
        eligible candidates with the smallest lower bound (equivalently,
        the smallest ``lb_base``, since the 1/sigma factor is shared).

        One lower-bound pass and one ``argpartition`` cover the block;
        each row gets the bits a one-row fill would give it.  Rows with
        fewer than p finite candidates take a per-row tail that drops the
        empty picks.  ``corr_rows`` is overwritten (it becomes the block's
        ``lb_base``).
        """
        base = np.asarray(
            lower_bound_base(corr_rows, length, sigma_owner[:, None], out=corr_rows)
        )
        n_candidates = base.shape[1]
        zone = exclusion_zone_half_width(length)
        for k, centre in enumerate(centres.tolist()):
            base[k, max(0, centre - zone + 1) : min(n_candidates, centre + zone)] = np.inf
        p = self.p
        picked = (
            np.argpartition(base, p - 1, axis=1)[:, :p]
            if n_candidates > p
            else np.broadcast_to(np.arange(n_candidates), base.shape)
        )
        lb = np.take_along_axis(base, picked, axis=1)
        qt = np.take_along_axis(qt_rows, picked, axis=1)
        width = picked.shape[1]
        self.neighbor[rows, :width] = picked
        self.qt[rows, :width] = qt
        self.lb_base[rows, :width] = lb
        self.neighbor[rows, width:] = -1
        self.qt[rows, width:] = 0.0
        self.lb_base[rows, width:] = np.inf
        self.base_length[rows] = length
        finite = np.isfinite(lb)
        for k in np.flatnonzero(~finite.all(axis=1)).tolist():
            keep = finite[k]
            count = int(keep.sum())
            row = rows[k]
            self.neighbor[row, :count] = picked[k][keep]
            self.neighbor[row, count:] = -1
            self.qt[row, :count] = qt[k][keep]
            self.qt[row, count:] = 0.0
            self.lb_base[row, :count] = lb[k][keep]
            self.lb_base[row, count:] = np.inf
        if obs.enabled():
            obs.add("listdp.rows_filled", len(rows))
            obs.add("listdp.entries_stored", int(finite.sum()))

    def advance_to(self, new_length: int, series: FloatArray) -> None:
        """Extend every stored pair's dot product to ``new_length``.

        Implements the O(1)-per-entry update of Algorithm 4, line 10:
        ``qt += t[i + L - 1] * t[j + L - 1]`` for each unit length
        increment.  Pairs whose neighbor no longer fits in the series stop
        being updated (their distance is reported as +inf downstream).
        """
        if new_length != self.current_length + 1:
            raise InvalidParameterError(
                f"advance_to expects length {self.current_length + 1}, "
                f"got {new_length}"
            )
        t = series
        n = t.size
        n_rows = min(self.n_profiles, n - new_length + 1)
        if n_rows <= 0:
            raise InvalidParameterError(
                f"length {new_length} leaves no subsequences"
            )
        nb = self.neighbor[:n_rows]
        in_range = (nb >= 0) & (nb <= n - new_length)
        if obs.enabled():
            obs.add("listdp.entries_advanced", int(in_range.sum()))
        rows = np.arange(n_rows)[:, None]
        safe_nb = np.where(in_range, nb, 0)
        increment = t[safe_nb + new_length - 1] * t[rows + new_length - 1]
        block = self.qt[:n_rows]
        block[in_range] += increment[in_range]
        self.current_length = new_length
