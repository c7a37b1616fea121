"""Axis-aligned partitions of an n-dimensional box into M subspaces.

Each dimension i carries a sorted breakpoint list spanning its domain
interval [a_i, b_i] and inducing m_i contiguous intervals; the partition
has M = prod(m_i) cells addressed by a flat index (dimension 0 is the
most significant mixed-radix digit). Routing of points to cells is
left-closed/right-open per dimension, with the last interval closed and
out-of-domain points clamped to the nearest boundary cell, so locate()
is total over finite points; a NaN or infinite coordinate is refused.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

__all__ = [
    "Interval",
    "Partition",
    "PartitionSamplingError",
    "uniform_partition",
    "random_partition",
    "locate",
    "locate_many",
    "route",
]

# Rejection floor for random breakpoints: no interval narrower than 1% of
# the domain width.
MIN_WIDTH_FRACTION = 0.01
_MAX_REDRAWS = 100


class PartitionSamplingError(RuntimeError):
    """Raised when random breakpoints cannot satisfy the width floor."""


@dataclass(frozen=True)
class Interval:
    """A nonempty real interval [lo, hi] with lo < hi."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (self.lo < self.hi):
            raise ValueError(f"degenerate interval: lo={self.lo!r} must be < hi={self.hi!r}")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass(frozen=True)
class Partition:
    """Per-dimension breakpoints tiling a box into M cells.

    ``edges[i]`` holds the m_i + 1 strictly increasing breakpoints of
    dimension i, first entry a_i and last entry b_i. Immutable and safe
    to share across threads.
    """

    edges: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("partition needs at least one dimension")
        for i, e in enumerate(self.edges):
            if len(e) < 2:
                raise ValueError(f"dimension {i}: need at least 2 breakpoints, got {len(e)}")
            if any(a >= b for a, b in zip(e, e[1:])):
                raise ValueError(f"dimension {i}: breakpoints must be strictly increasing: {e}")

    @property
    def ndim(self) -> int:
        return len(self.edges)

    @property
    def counts(self) -> tuple[int, ...]:
        """Number of intervals m_i per dimension."""
        return tuple(len(e) - 1 for e in self.edges)

    @property
    def size(self) -> int:
        """Total number of cells M."""
        return math.prod(self.counts)

    @property
    def domain(self) -> tuple[Interval, ...]:
        return tuple(Interval(e[0], e[-1]) for e in self.edges)

    def intervals(self, dim: int) -> tuple[Interval, ...]:
        e = self.edges[dim]
        return tuple(Interval(a, b) for a, b in zip(e, e[1:]))

    def encode(self, indices: Sequence[int]) -> int:
        """Flat cell index from per-dimension interval indices."""
        if len(indices) != self.ndim:
            raise ValueError(f"expected {self.ndim} indices, got {len(indices)}")
        flat = 0
        for idx, m in zip(indices, self.counts):
            if not 0 <= idx < m:
                raise ValueError(f"interval index {idx} out of range [0, {m})")
            flat = flat * m + idx
        return flat

    def decode(self, flat: int) -> tuple[int, ...]:
        """Per-dimension interval indices from a flat cell index."""
        if not 0 <= flat < self.size:
            raise ValueError(f"cell index {flat} out of range [0, {self.size})")
        out = []
        for m in reversed(self.counts):
            out.append(flat % m)
            flat //= m
        return tuple(reversed(out))

    @cached_property
    def cells(self) -> tuple[tuple[Interval, ...], ...]:
        """Every cell's box of intervals, in flat order; built on first use."""
        return tuple(itertools.product(*(self.intervals(i) for i in range(self.ndim))))

    def cell(self, flat: int) -> tuple[Interval, ...]:
        """The box of intervals owned by a flat cell index."""
        if not 0 <= flat < self.size:
            raise ValueError(f"cell index {flat} out of range [0, {self.size})")
        return self.cells[flat]

    def counts_label(self) -> str:
        """Textual form of the interval counts, e.g. '6,6,6'."""
        return ",".join(str(m) for m in self.counts)


def uniform_partition(domain: Sequence[Interval], counts: Sequence[int]) -> Partition:
    """Split each domain interval into an equal-width grid.

    Args:
        domain: one Interval per dimension.
        counts: number of intervals m_i >= 1 per dimension.
    """
    if len(domain) != len(counts):
        raise ValueError(f"domain has {len(domain)} dims but counts has {len(counts)}")
    edges = []
    for iv, m in zip(domain, counts):
        if m < 1:
            raise ValueError(f"interval count must be >= 1, got {m}")
        edges.append(tuple(np.linspace(iv.lo, iv.hi, int(m) + 1).tolist()))
    return Partition(tuple(edges))


def random_partition(
    domain: Sequence[Interval],
    count_range: tuple[int, int] | Sequence[tuple[int, int]],
    rng: np.random.Generator | int,
) -> Partition:
    """Draw a random partition: random interval counts, random breakpoints.

    Per dimension the interval count is uniform on [m_min, m_max] and the
    interior breakpoints are sorted uniform samples from the open domain
    interval. A draw is rejected and repeated (up to 100 times) whenever
    any induced interval is narrower than 1% of the domain width.
    Deterministic given the seed or generator.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    ranges = _per_dim_ranges(count_range, len(domain))
    edges = []
    for iv, (m_min, m_max) in zip(domain, ranges):
        if not 1 <= m_min <= m_max:
            raise ValueError(f"invalid count range [{m_min}, {m_max}]")
        m = int(rng.integers(m_min, m_max + 1))
        floor = MIN_WIDTH_FRACTION * iv.width
        for _ in range(_MAX_REDRAWS):
            cuts = np.sort(rng.uniform(iv.lo, iv.hi, size=m - 1))
            e = np.concatenate([[iv.lo], cuts, [iv.hi]])
            if np.diff(e).min() >= floor:
                edges.append(tuple(e.tolist()))
                break
        else:
            raise PartitionSamplingError(
                f"could not draw {m} intervals of width >= {floor:g} in "
                f"[{iv.lo}, {iv.hi}] after {_MAX_REDRAWS} redraws"
            )
    return Partition(tuple(edges))


def _per_dim_ranges(count_range, ndim):
    if len(count_range) == 2 and isinstance(count_range[0], (int, np.integer)):
        return [tuple(count_range)] * ndim
    ranges = [tuple(r) for r in count_range]
    if len(ranges) != ndim:
        raise ValueError(f"expected {ndim} count ranges, got {len(ranges)}")
    return ranges


def locate(partition: Partition, point: Sequence[float]) -> int:
    """Flat index of the cell owning a point. Clamps out-of-domain points;
    refuses a NaN or infinite coordinate."""
    if len(point) != partition.ndim:
        raise ValueError(f"point has {len(point)} dims, partition has {partition.ndim}")
    if not np.all(np.isfinite(point)):
        raise ValueError(
            f"point {np.asarray(point, dtype=np.float64).tolist()} has a non-finite coordinate"
        )
    idx = []
    for x, e, m in zip(point, partition.edges, partition.counts):
        i = int(np.searchsorted(e, x, side="right")) - 1
        idx.append(min(max(i, 0), m - 1))
    return partition.encode(idx)


def locate_many(partition: Partition, points: np.ndarray) -> np.ndarray:
    """Vectorized locate over an (N, n) array of points."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != partition.ndim:
        raise ValueError(f"expected (N, {partition.ndim}) points, got shape {points.shape}")
    finite = np.isfinite(points).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"row {row} has a non-finite coordinate: {points[row].tolist()}")
    per_dim = []
    for d, (e, m) in enumerate(zip(partition.edges, partition.counts)):
        i = np.searchsorted(np.asarray(e), points[:, d], side="right") - 1
        per_dim.append(np.clip(i, 0, m - 1))
    return np.ravel_multi_index(tuple(per_dim), partition.counts)


def route(partition: Partition, dataset) -> list[np.ndarray]:
    """Group dataset row indices by owning cell, in flat-index order.

    Returns M arrays of ascending row indices; their sizes sum to N.
    """
    if dataset.n != partition.ndim:
        raise ValueError(f"dataset has {dataset.n} dims, partition has {partition.ndim}")
    flat = locate_many(partition, dataset.X)
    ends = np.cumsum(np.bincount(flat, minlength=partition.size))
    return np.split(np.argsort(flat, kind="stable"), ends[:-1])
