"""MASS: Mueen's Algorithm for Similarity Search.

Computes one full distance profile in O(n log n): a single FFT sliding dot
product followed by the closed-form Eq. 3 kernel.  This is the inner loop
of STAMP and the recomputation primitive of VALMOD's Algorithm 4 (lines
30-33).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple, Union

import numpy as np

from repro import obs
from repro.types import FloatArray, IntArray

from repro.distance.profile import (
    correlation_from_qt,
    distance_from_correlation,
    distance_profile_from_qt,
)
from repro.distance.sliding import moving_mean_std, sliding_dot_product
from repro.distance.znorm import CONSTANT_EPS
from repro.exceptions import InvalidParameterError
from repro.lint.contracts import (
    int_at_least,
    int_or_ints_at_least,
    positive_int,
    require,
    series_like,
)

if TYPE_CHECKING:  # pragma: no cover - kernels sits above this layer
    from repro.kernels.context import SeriesContext

__all__ = ["mass", "mass_with_stats"]


@require(series=series_like(), start=int_at_least(0), length=positive_int())
def mass(
    series: FloatArray,
    start: int,
    length: int,
    context: Optional["SeriesContext"] = None,
) -> FloatArray:
    """Distance profile of ``series[start : start + length]`` vs all windows.

    Convenience wrapper that computes the window statistics internally
    (or pulls them from ``context`` when one for this series is passed);
    use :func:`mass_with_stats` inside loops that already have them.
    """
    t = np.asarray(series, dtype=np.float64)
    if context is not None and context.matches(t):
        mu, sigma = context.moving_mean_std(length)
    else:
        mu, sigma = moving_mean_std(t, length)
    return mass_with_stats(t, start, length, mu, sigma, context=context)


@require(start=int_or_ints_at_least(0), length=positive_int())
def mass_with_stats(
    series: FloatArray,
    start: Union[int, IntArray],
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    qt: Optional[FloatArray] = None,
    context: Optional["SeriesContext"] = None,
    corr_out: Optional[FloatArray] = None,
) -> FloatArray:
    """MASS with precomputed per-window statistics (and optionally QT).

    ``mu`` / ``sigma`` must be the length-``length`` moving statistics of
    ``series``.  Passing ``qt`` skips the FFT (used by engines that
    maintain dot products incrementally); passing ``context`` reuses the
    cached series spectrum for the FFT (duck-typed so the distance layer
    never imports :mod:`repro.kernels` — any object with a matching
    ``matches``/``sliding_dot_product`` works).

    ``start`` may also be a 1-D integer array of K query offsets, with
    ``qt`` their ``(K, n_subs)`` block of dot products (required): the
    result is the ``(K, n_subs)`` block of distance profiles, each row
    bitwise equal to its one-query call.  Like a block sliding dot
    product, a block call counts nothing.  A ``(K, n_subs)`` ``corr_out``
    receives the block's correlations, so a caller that needs them too
    (Algorithm 4's listDP fill) does not compute them again.
    """
    t = np.asarray(series, dtype=np.float64)
    n_subs = t.size - length + 1
    if n_subs <= 0:
        raise InvalidParameterError(
            f"length {length} leaves no subsequences in series of {t.size} points"
        )
    if isinstance(start, np.ndarray):
        if qt is None:
            raise InvalidParameterError("a block of query starts needs its qt block")
        return _mass_block(t, start, length, mu, sigma, qt, corr_out)
    if not 0 <= start < n_subs:
        raise InvalidParameterError(
            f"query start {start} out of range for {n_subs} subsequences"
        )
    obs.add("mass.profile_calls")
    if qt is None:
        query = t[start : start + length]
        if context is not None and context.matches(t):
            qt = context.sliding_dot_product(query)
        else:
            qt = sliding_dot_product(query, t)
    return distance_profile_from_qt(
        qt, length, float(mu[start]), float(sigma[start]), mu, sigma
    )


def _mass_block(
    t: FloatArray,
    starts: IntArray,
    length: int,
    mu: FloatArray,
    sigma: FloatArray,
    qt: FloatArray,
    corr_out: Optional[FloatArray],
) -> FloatArray:
    """The block form of :func:`mass_with_stats` (K query offsets)."""
    n_subs = t.size - length + 1
    if starts.ndim != 1 or starts.size == 0:
        raise InvalidParameterError("a block of query starts must be a non-empty 1-D array")
    if not (0 <= starts.min() and starts.max() < n_subs):
        raise InvalidParameterError(
            f"query starts {starts} out of range for {n_subs} subsequences"
        )
    sigma_q = sigma[starts]
    corr = correlation_from_qt(
        qt, length, mu[starts][:, None],
        np.maximum(sigma_q, CONSTANT_EPS)[:, None], mu, sigma, out=corr_out,
    )
    return distance_from_correlation(corr, length, sigma_q, sigma)


def mass_pair(series: FloatArray, length: int, i: int, j: int) -> Tuple[float, float]:
    """Distance and correlation between windows ``i`` and ``j`` (exact).

    Small helper used by engines that need a single pairwise value without
    materializing a profile.
    """
    t = np.asarray(series, dtype=np.float64)
    a = t[i : i + length]
    b = t[j : j + length]
    qt = float(np.dot(a, b))
    mu_a, sig_a = a.mean(), a.std()
    mu_b, sig_b = b.mean(), b.std()
    if sig_a <= 0.0 or sig_b <= 0.0:
        from repro.distance.znorm import znormalized_distance

        d = znormalized_distance(a, b)
        return d, 1.0 - d * d / (2.0 * length)
    corr = (qt - length * mu_a * mu_b) / (length * sig_a * sig_b)
    corr = min(1.0, max(-1.0, corr))
    return (2.0 * length * (1.0 - corr)) ** 0.5, corr
