"""Binary-search routing, kept as a test oracle for locate_many.

Each dimension's interval is the clamped searchsorted(e, x, "right") - 1,
and the per-dimension indices are combined by np.ravel_multi_index, so
it shares no arithmetic with partition.locate_many, which counts the
breakpoints each value reaches. flat_index is the same combination for
one cell's indices, and cell_box its inverse, read from the breakpoints.
cell_rows groups rows by cell from this routing, so tests of fit and
forward need neither partition.route nor model.cell_boxes.
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


def cell_box(partition, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Cell j's box as (lo, hi) arrays, one entry per dimension, from the
    breakpoints at its per-dimension interval indices."""
    indices = np.unravel_index(j, partition.counts)
    return (np.array([e[i] for e, i in zip(partition.edges, indices)]),
            np.array([e[i + 1] for e, i in zip(partition.edges, indices)]))


def cell_rows(partition, points: np.ndarray) -> list[np.ndarray]:
    """Each cell's row indices of points (N, n), ascending, in flat cell
    order: M arrays whose sizes sum to N."""
    flat = searchsorted_locate_many(partition, points)
    return [np.flatnonzero(flat == j) for j in range(partition.size)]
