"""Correctness checks behind ``failed``; all run outside the timed region.

Each check returns True when the output is right.  A raised exception
inside a timed operation is counted by the caller; these functions only
judge outputs.
"""

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.discords_variable import find_discords_pruned
from repro.core.valmod import valmod
from repro.matrixprofile.registry import compute_with

#: the independent exact engine the VALMOD motif distances are held to.
REFERENCE_ENGINE = "blocked-stomp"

#: the tolerance ``tests/test_valmod.py`` holds VALMOD's distances to.
MOTIF_ATOL = 1e-6


def spread_lengths(l_min: int, l_max: int, count: int) -> List[int]:
    """``count`` lengths spread over ``[l_min, l_max]``, both ends included."""
    if count < 2 or l_max == l_min:
        return sorted({l_min, l_max})
    step = (l_max - l_min) / (count - 1)
    return sorted({l_min + int(round(k * step)) for k in range(count)})


def motifs_match_reference(
    result, series: np.ndarray, lengths: Sequence[int]
) -> bool:
    """Per-length motif distances equal an independent exact profile's minimum."""
    for length in lengths:
        pair = result.motif_pairs.get(length)
        if pair is None:
            return False
        profile = compute_with(REFERENCE_ENGINE, series, length, n_jobs=1).profile
        finite = profile[np.isfinite(profile)]
        if finite.size == 0 or not math.isclose(
            pair.distance, float(finite.min()), rel_tol=0.0, abs_tol=MOTIF_ATOL
        ):
            return False
    return True


def motif_signature(result) -> Tuple:
    """Everything a VALMOD result answers, as bitwise-comparable values."""
    valmp = result.valmp
    return (
        tuple(sorted(
            (length, pair.a, pair.b, pair.distance)
            for length, pair in result.motif_pairs.items()
        )),
        valmp.distances.tobytes(),
        valmp.indices.tobytes(),
        valmp.lengths.tobytes(),
    )


def discord_signature(discords) -> Tuple:
    """Discords as full tuples (``Discord`` compares on distance alone)."""
    return tuple(
        (d.length, d.start, d.distance, d.normalized_distance) for d in discords
    )


def refresh_signature(motifs, discords) -> Tuple:
    return motif_signature(motifs), discord_signature(discords)


def refresh_is_complete(motifs, discords, l_min: int, l_max: int, k: int) -> bool:
    """Cheap shape check for every refresh: one motif per length, k discords."""
    return set(motifs.motif_pairs) == set(range(l_min, l_max + 1)) and len(discords) == k


def refresh_matches_batch(
    signature: Tuple, window: np.ndarray, l_min: int, l_max: int, p: int, k: int
) -> bool:
    """A streamed refresh equals fresh batch runs on the same window, bitwise."""
    batch_motifs = valmod(window, l_min, l_max, p=p, n_jobs=1)
    batch_discords = find_discords_pruned(window, l_min, l_max, k=k, p=p, n_jobs=1)
    return signature == refresh_signature(batch_motifs, batch_discords)

