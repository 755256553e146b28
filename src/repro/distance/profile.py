"""Distance-profile kernels: Eq. 3 of the paper, vectorized.

A distance profile (Definition 2.4) holds the z-normalized Euclidean
distance between one query subsequence and every other subsequence of the
series.  Given the sliding dot products ``QT`` and the per-window
statistics, Eq. 3 turns each entry into::

    dist(T[i], T[j]) = sqrt(2 l (1 - (QT[i,j] - l mu_i mu_j) / (l sigma_i sigma_j)))

Constant windows are handled with the conventions documented in
:mod:`repro.distance.znorm`.
"""

from __future__ import annotations

import math
from typing import Optional, Union

import numpy as np

from repro.types import FloatArray

from repro.distance.znorm import CONSTANT_EPS, znormalized_distance
from repro.exceptions import InvalidParameterError
from repro.lint.contracts import int_at_least, positive_int, require, series_like

__all__ = [
    "correlation_from_qt",
    "distance_from_correlation",
    "distance_profile_from_qt",
    "naive_distance_profile",
    "apply_exclusion_zone",
]

#: a scalar query statistic, or a column of them for a block of queries.
FloatOrColumn = Union[float, FloatArray]


@require(length=positive_int())
def correlation_from_qt(
    qt: FloatArray,
    length: int,
    mu_q: FloatOrColumn,
    sigma_q: FloatOrColumn,
    mu: FloatArray,
    sigma: FloatArray,
    out: Optional[FloatArray] = None,
) -> FloatArray:
    """Pearson correlation between the query and every window, from QT.

    ``qt`` is the sliding dot product of the query against the series,
    ``mu_q`` / ``sigma_q`` the query statistics, ``mu`` / ``sigma`` the
    per-window statistics.  Windows where either side is constant get
    correlation 0 here; the distance kernel overrides them explicitly.

    ``qt`` may also be a ``(K, n)`` block of query rows, with ``mu_q`` /
    ``sigma_q`` as ``(K, 1)`` columns; every row then holds the bits its
    one-row call would return.  ``out`` optionally receives the result.
    """
    n = qt.shape[-1]
    denom = length * sigma_q * sigma[:n]
    corr = np.multiply(length * mu_q, mu[:n], out=out)
    np.subtract(qt, corr, out=corr)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(corr, denom, out=corr)
    finite = np.isfinite(corr)
    if not finite.all():
        corr[~finite] = 0.0
    np.clip(corr, -1.0, 1.0, out=corr)
    return corr


@require(length=positive_int())
def distance_from_correlation(
    corr: FloatArray,
    length: int,
    sigma_q: FloatOrColumn,
    sigma: FloatArray,
    out: Optional[FloatArray] = None,
) -> FloatArray:
    """Eq. 3 from correlations: ``sqrt(2 l (1 - corr))``, clamped at 0.

    Applies the constant-window conventions: distance 0 when both the
    query and the window are constant, ``sqrt(l)`` when exactly one is.
    ``corr`` is one profile (``sigma_q`` a float) or a ``(K, n)`` block
    (``sigma_q`` a length-K vector of query sigmas).  ``out`` may be
    ``corr`` itself.
    """
    window_const = sigma[: corr.shape[-1]] < CONSTANT_EPS
    dist = np.subtract(1.0, corr, out=out)
    dist *= 2.0 * length
    np.maximum(dist, 0.0, out=dist)
    np.sqrt(dist, out=dist)
    root = math.sqrt(length)
    if window_const.any():
        dist[..., window_const] = root
    if dist.ndim == 1:
        if sigma_q < CONSTANT_EPS:
            dist[:] = np.where(window_const, 0.0, root)
    else:
        query_const = np.asarray(sigma_q).ravel() < CONSTANT_EPS
        if query_const.any():
            dist[query_const] = np.where(window_const, 0.0, root)
    return dist


@require(length=positive_int())
def distance_profile_from_qt(
    qt: FloatArray,
    length: int,
    mu_q: float,
    sigma_q: float,
    mu: FloatArray,
    sigma: FloatArray,
) -> FloatArray:
    """Vectorized Eq. 3: distance profile from dot products and statistics.

    :func:`correlation_from_qt` followed by
    :func:`distance_from_correlation`, so the constant-window conventions
    apply.
    """
    if length <= 0:
        raise InvalidParameterError(f"length must be positive, got {length}")
    corr = correlation_from_qt(qt, length, mu_q, max(sigma_q, CONSTANT_EPS), mu, sigma)
    return distance_from_correlation(corr, length, sigma_q, sigma, out=corr)


@require(series=series_like(), start=int_at_least(0), length=positive_int())
def naive_distance_profile(series: FloatArray, start: int, length: int) -> FloatArray:
    """Reference distance profile by explicit re-normalization (O(n l)).

    Slow but obviously correct; used as ground truth in tests and by the
    brute-force engines.  No exclusion zone is applied.
    """
    t = np.asarray(series, dtype=np.float64)
    n_subs = t.size - length + 1
    if not 0 <= start < n_subs:
        raise InvalidParameterError(
            f"query start {start} out of range for {n_subs} subsequences"
        )
    query = t[start : start + length]
    profile = np.empty(n_subs, dtype=np.float64)
    for j in range(n_subs):
        profile[j] = znormalized_distance(query, t[j : j + length])
    return profile


@require(center=int_at_least(0), exclusion=int_at_least(0))
def apply_exclusion_zone(
    profile: FloatArray, center: int, exclusion: int, value: float = np.inf
) -> FloatArray:
    """Mask the trivial-match region around ``center`` in place.

    The paper's exclusion zone covers positions within ``l/2`` of the
    query (Section 2); ``exclusion`` is that half-width.  Returns the
    profile for chaining.
    """
    lo = max(0, center - exclusion + 1)
    hi = min(profile.size, center + exclusion)
    profile[lo:hi] = value
    return profile


def exclusion_half_width(length: int) -> int:
    """Deprecated alias for the central exclusion-zone helper.

    Kept for backward compatibility; the one source of truth for the
    half-width rule is :mod:`repro.matrixprofile.exclusion` (R004).
    """
    from repro.matrixprofile.exclusion import exclusion_zone_half_width

    return exclusion_zone_half_width(length)
