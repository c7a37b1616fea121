"""Axis-aligned partitions of an n-dimensional box into M subspaces.

Each dimension i carries a sorted breakpoint list spanning its domain
interval [a_i, b_i] and inducing m_i contiguous intervals; the partition
has M = prod(m_i) cells addressed by a flat index (dimension 0 is the
most significant mixed-radix digit). Routing of points to cells is
left-closed/right-open per dimension, with the last interval closed and
out-of-domain points clamped to the nearest boundary cell, so locate()
is total over finite points; a NaN or infinite coordinate is refused.

locate_many routes a batch by counting, per dimension, the interior
breakpoints each coordinate reaches, sum_k (x >= e_k): one comparison
pass per breakpoint, with no binary search and no per-dimension index
arrays. That count is the clamped searchsorted(e, x, "right") - 1,
exactly, on breakpoints and outside the domain too. A dimension with
more than _COUNT_EDGES interior breakpoints is binary-searched.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

# locate_many counts a dimension's interior breakpoints up to this many
# and binary-searches past it (a uint8 tally holds up to 255). On 32k-
# and 500k-row columns counting took half searchsorted's time at 64
# breakpoints and about as long at 128.
_COUNT_EDGES = 64


class PartitionSamplingError(RuntimeError):
    """Raised when random breakpoints cannot satisfy the width floor."""


@dataclass(frozen=True)
class Interval:
    """A nonempty real interval [lo, hi]: lo < hi, finite ends and width."""

    lo: float
    hi: float

    def __post_init__(self):
        if not math.isfinite(self.hi - self.lo):   # a NaN or infinite end, or width overflow
            raise ValueError(f"interval ends and width must be finite: [{self.lo!r}, {self.hi!r}]")
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

    ``edges[i]`` holds the m_i + 1 finite, strictly increasing breakpoints
    of dimension i, first entry a_i and last entry b_i. Immutable and safe
    to share across threads.
    """

    edges: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if not self.edges:
            raise ValueError("partition needs at least one dimension")
        for i, e in enumerate(self.edges):
            if len(e) < 2:
                raise ValueError(f"dimension {i}: need at least 2 breakpoints, got {len(e)}")
            if not all(math.isfinite(v) for v in e):
                raise ValueError(f"dimension {i}: breakpoints must be finite: {e}")
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

    def decode(self, flat: int) -> tuple[int, ...]:
        """Per-dimension interval indices from a flat cell index."""
        if not 0 <= flat < self.size:
            raise ValueError(f"cell index {flat} out of range [0, {self.size})")
        out = []
        for m in reversed(self.counts):
            out.append(flat % m)
            flat //= m
        return tuple(reversed(out))

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
    return int(locate_many(partition, np.asarray(point, dtype=np.float64)[None, :])[0])


def _checked_points(partition: Partition, points) -> np.ndarray:
    """points as a float64 (N, n) array, or the error locate_many raises:
    a wrong shape, or the first row with a NaN or infinite coordinate."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != partition.ndim:
        raise ValueError(f"expected (N, {partition.ndim}) points, got shape {points.shape}")
    if not np.isfinite(points).all():
        row = int(np.argmin(np.isfinite(points).all(axis=1)))
        raise ValueError(f"row {row} has a non-finite coordinate: {points[row].tolist()}")
    return points


def locate_many(partition: Partition, points: np.ndarray) -> np.ndarray:
    """Vectorized locate over an (N, n) array of points. A dimension's
    breakpoints are counted into a uint8 tally, which is then added into
    the flat index in place (see the module docstring)."""
    points = _checked_points(partition, points)
    flat = np.zeros(len(points), dtype=np.intp)
    col = np.empty(len(points))
    tally = np.empty(len(points), dtype=np.uint8)
    reached = np.empty(len(points), dtype=bool)
    for d, (e, m) in enumerate(zip(partition.edges, partition.counts)):
        flat *= m
        col[:] = points[:, d]   # contiguous: comparisons run 2-3x faster
        if m - 1 > _COUNT_EDGES:
            flat += np.clip(np.searchsorted(e, col, side="right") - 1, 0, m - 1)
            continue
        tally.fill(0)
        for edge in e[1:-1]:
            tally += np.greater_equal(col, edge, out=reached)
        flat += tally
    return flat


def _cell_order(cells: np.ndarray, size: int) -> np.ndarray:
    """np.argsort(cells, kind="stable") for flat cell indices below size.

    The indices are cast to the narrowest unsigned type that holds them
    first: numpy radix-sorts keys of up to 16 bits, and a stable sort's
    permutation is the same whatever the key type.
    """
    return np.argsort(cells.astype(np.min_scalar_type(size - 1)), kind="stable")


def route(partition: Partition, dataset) -> tuple[np.ndarray, np.ndarray]:
    """Each row's cell, and the rows in flat cell order: (order, cells).

    cells[i] is the cell of row i, in the dataset's order, and order is
    the stable sort of the row indices by cell, so each cell's rows form
    one run of cells[order] in ascending row order.
    """
    if dataset.n != partition.ndim:
        raise ValueError(f"dataset has {dataset.n} dims, partition has {partition.ndim}")
    cells = locate_many(partition, dataset.X)
    return _cell_order(cells, partition.size), cells
