"""Binary-search routing, kept as a test oracle for locate_many.

Each dimension's interval is the clamped searchsorted(e, x, "right") - 1,
and the per-dimension indices are combined by np.ravel_multi_index, so
it shares no arithmetic with partition.locate_many, which counts the
breakpoints each value reaches. flat_index is the same combination for
one cell's indices.
"""

from __future__ import annotations

import numpy as np


def flat_index(partition, indices) -> int:
    """Flat cell index of per-dimension interval indices, dimension 0
    the most significant digit."""
    return int(np.ravel_multi_index(tuple(indices), partition.counts))


def searchsorted_locate_many(partition, points: np.ndarray) -> np.ndarray:
    """Flat cell index of each row of points (N, n), clamped to the domain."""
    per_dim = []
    for d, (e, m) in enumerate(zip(partition.edges, partition.counts)):
        i = np.searchsorted(np.asarray(e), points[:, d], side="right") - 1
        per_dim.append(np.clip(i, 0, m - 1))
    return np.ravel_multi_index(tuple(per_dim), partition.counts)
