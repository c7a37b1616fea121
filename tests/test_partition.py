"""Partitions: tiling invariants, flat indexing, and point routing."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from pairnet.activation import ActivationKind
from pairnet.datasets import Dataset
from pairnet.partition import (
    _COUNT_EDGES,
    Interval,
    Partition,
    PartitionSamplingError,
    _cell_order,
    locate,
    locate_many,
    random_partition,
    route,
    uniform_partition,
)
from pairnet.model import LocalPairNet, PairNetModel, cell_boxes, forward
from reference_routing import flat_index, searchsorted_locate_many

BOX = (Interval(0.0, 10.0), Interval(-2.0, 2.0), Interval(1.0, 20.0))


class TestInterval:
    def test_width_and_mid(self):
        iv = Interval(2.0, 5.0)
        assert iv.width == 3.0
        assert iv.mid == 3.5

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0)])
    def test_degenerate_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="degenerate"):
            Interval(lo, hi)

    @pytest.mark.parametrize("lo,hi", [
        (0.0, math.inf), (-math.inf, 0.0), (-math.inf, math.inf), (math.inf, math.inf),
        (math.nan, 1.0), (0.0, math.nan), (-1e308, 1e308), (-1.7976931348623157e308, 1e300),
    ])
    def test_non_finite_end_or_width_rejected(self, lo, hi):
        """A NaN or infinite end, or a width hi - lo past the float range,
        is refused where the interval is made, naming both ends."""
        want = f"interval ends and width must be finite: [{lo!r}, {hi!r}]"
        with pytest.raises(ValueError, match=re.escape(want)):
            Interval(lo, hi)

    def test_wide_finite_interval_partitions(self):
        iv = Interval(-8.0e307, 8.0e307)
        assert iv.width == 2 * 8.0e307
        edges = uniform_partition((iv,), (4,)).edges[0]
        assert (edges[0], edges[-1]) == (-8.0e307, 8.0e307)
        assert all(map(math.isfinite, edges))


class TestPartitionStructure:
    def test_uniform_edges_are_linspace(self):
        part = uniform_partition(BOX, (2, 4, 1))
        assert part.counts == (2, 4, 1)
        assert part.size == 8
        np.testing.assert_allclose(part.edges[0], [0.0, 5.0, 10.0])
        np.testing.assert_allclose(part.edges[1], [-2.0, -1.0, 0.0, 1.0, 2.0])
        np.testing.assert_allclose(part.edges[2], [1.0, 20.0])
        assert part.domain == BOX

    def test_intervals_tile_each_dimension(self):
        """The cells' boxes, read from cell_boxes, tile each dimension of
        the domain: their distinct intervals meet end to end."""
        part = uniform_partition(BOX, (3, 2, 5))
        lo, hi = cell_boxes(part, "subspace")
        for d in range(3):
            ivs = sorted(set(zip(lo[d].tolist(), hi[d].tolist())))
            assert len(ivs) == part.counts[d]
            assert ivs[0][0] == BOX[d].lo
            assert ivs[-1][1] == BOX[d].hi
            for a, b in zip(ivs, ivs[1:]):
                assert a[1] == b[0]

    def test_counts_label(self):
        assert uniform_partition(BOX, (6, 6, 6)).counts_label() == "6,6,6"

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            Partition(((0.0, 1.0, 1.0),))
        with pytest.raises(ValueError, match="at least 2"):
            Partition(((0.0,),))
        with pytest.raises(ValueError, match="at least one dimension"):
            Partition(())

    @pytest.mark.parametrize("edges", [(0.0, np.nan, 1.0), (0.0, 1.0, np.inf),
                                       (-np.inf, 0.0, 1.0)])
    def test_rejects_non_finite_edges(self, edges):
        with pytest.raises(ValueError, match="dimension 1: breakpoints must be finite"):
            Partition(((0.0, 1.0), edges))

    @pytest.mark.parametrize("edges", [(-1e308, 1e308), (-1e308, 0.0, 1e308),
                                       (-1.7976931348623157e308, 1e300)])
    def test_rejects_a_span_whose_width_overflows(self, edges):
        """Interval's rule on each dimension's span: its width bounds every
        gap, so no activation divides by an infinite width."""
        want = (f"dimension 1: breakpoint span [{edges[0]!r}, {edges[-1]!r}] "
                "must have a finite width")
        with pytest.raises(ValueError, match=re.escape(want)):
            Partition(((0.0, 1.0), edges))

    def test_wide_finite_span_constructs(self):
        part = Partition(((-1e300, 1e300),))
        assert part.domain[0].width == 2e300


class TestFlatIndexing:
    """Dimension 0 is the most significant mixed-radix digit."""

    def test_worked_example(self):
        part = uniform_partition(BOX[:2], (2, 3))
        assert part.decode(5) == (1, 2)
        assert flat_index(part, (1, 2)) == 1 * 3 + 2 == 5
        assert part.decode(0) == (0, 0)
        assert part.decode(part.size - 1) == (1, 2)

    @given(st.tuples(st.integers(1, 4), st.integers(1, 3), st.integers(1, 5)),
           st.integers(0, 10**6))
    def test_decode_round_trip(self, counts, raw):
        part = uniform_partition(BOX, counts)
        flat = raw % part.size
        idx = part.decode(flat)
        assert all(0 <= i < m for i, m in zip(idx, counts))
        assert flat_index(part, idx) == flat

    def test_cell_matches_decode(self):
        part = uniform_partition(BOX, (2, 2, 2))
        idx = part.decode(5)
        lo, hi = cell_boxes(part, "subspace")
        assert list(zip(lo[:, 5], hi[:, 5])) == [
            (part.edges[d][i], part.edges[d][i + 1]) for d, i in enumerate(idx)]

    def test_out_of_range_rejected(self):
        part = uniform_partition(BOX, (2, 2, 2))
        with pytest.raises(ValueError):
            part.decode(8)
        with pytest.raises(ValueError):
            part.decode(-1)


class TestLocate:
    def test_interior_breakpoint_goes_to_upper_cell(self):
        part = uniform_partition((Interval(0.0, 10.0),), (2,))
        assert locate(part, (4.999,)) == 0
        assert locate(part, (5.0,)) == 1

    def test_domain_endpoints(self):
        part = uniform_partition((Interval(0.0, 10.0),), (4,))
        assert locate(part, (0.0,)) == 0
        assert locate(part, (10.0,)) == 3  # last interval is closed

    def test_out_of_domain_clamps(self):
        part = uniform_partition((Interval(0.0, 10.0),), (4,))
        assert locate(part, (-3.0,)) == 0
        assert locate(part, (11.0,)) == 3

    def test_matches_linear_scan_oracle(self, rng):
        part = random_partition(BOX, (2, 5), rng)
        points = np.column_stack([rng.uniform(iv.lo - 1, iv.hi + 1, 300) for iv in BOX])
        for x in points:
            expected = []
            for d in range(3):
                ivs = [Interval(a, b) for a, b in zip(part.edges[d], part.edges[d][1:])]
                hit = 0 if x[d] < ivs[0].lo else len(ivs) - 1
                for i, iv in enumerate(ivs):
                    last = i == len(ivs) - 1
                    if iv.lo <= x[d] < iv.hi or (last and x[d] >= iv.lo):
                        hit = i
                        break
                expected.append(hit)
            assert locate(part, x) == flat_index(part, expected)

    def test_locate_many_matches_per_point(self, rng):
        part = random_partition(BOX, (2, 6), rng)
        points = np.column_stack([rng.uniform(iv.lo - 1, iv.hi + 1, 500) for iv in BOX])
        flat = locate_many(part, points)
        assert flat.tolist() == [locate(part, x) for x in points]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        """A NaN or infinite coordinate is refused, naming the row; finite
        points outside the domain still clamp (test_out_of_domain_clamps)."""
        part = uniform_partition(BOX, (2, 2, 2))
        points = np.tile([5.0, 0.0, 10.0], (4, 1))
        points[2, 1] = bad
        with pytest.raises(ValueError, match=r"row 2 has a non-finite coordinate"):
            locate_many(part, points)
        with pytest.raises(ValueError, match=r"point \[5.0, .*, 10.0\] has a non-finite"):
            locate(part, points[2])

    def test_dimension_mismatch(self):
        part = uniform_partition(BOX, (2, 2, 2))
        with pytest.raises(ValueError, match="point has 2 dims, partition has 3"):
            locate(part, (1.0, 2.0))
        with pytest.raises(ValueError):
            locate_many(part, np.zeros((4, 2)))


def _edge_probes(part: Partition, gen) -> np.ndarray:
    """Rows that put every dimension on each breakpoint, one ulp below
    it, outside the domain on both sides, and at random in between."""
    cols = []
    for e in part.edges:
        e = np.asarray(e)
        width = e[-1] - e[0]
        values = np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                                 [e[0] - width, e[-1] + width, -1e300, 1e300],
                                 gen.uniform(e[0] - 0.1 * width, e[-1] + 0.1 * width, 300)])
        cols.append(gen.permutation(np.resize(values, 2 * len(values) + 300)))
    rows = max(len(c) for c in cols)
    return np.column_stack([np.resize(c, rows) for c in cols])


def _sorted_uniform_partition(box, counts, gen) -> Partition:
    """Random breakpoints with no width floor, so any count can be drawn."""
    return Partition(tuple((iv.lo, *np.sort(gen.uniform(iv.lo, iv.hi, m - 1)).tolist(), iv.hi)
                           for iv, m in zip(box, counts)))


def _assert_routes_like_search(part: Partition, points: np.ndarray):
    flat = locate_many(part, points)
    assert flat.dtype == np.intp
    np.testing.assert_array_equal(flat, searchsorted_locate_many(part, points))


class TestLocateManyMatchesSearch:
    """locate_many counts breakpoints; the binary search of
    reference_routing is the oracle, exactly and in dtype."""

    def test_breakpoints_ulps_and_outside(self, rng):
        part = random_partition(BOX, (1, 8), rng)
        _assert_routes_like_search(part, _edge_probes(part, rng))

    @pytest.mark.parametrize("edge", [0.0, -0.0])
    def test_signed_zero_breakpoint(self, edge):
        part = Partition(((-1.0, edge, 1.0), (-2.0, -1.0, edge, 3.0)))
        zeros = np.array([0.0, -0.0, np.nextafter(0.0, -1.0), np.nextafter(0.0, 1.0)])
        points = np.array([(a, b) for a in zeros for b in zeros])
        _assert_routes_like_search(part, points)
        assert locate_many(part, points)[:2].tolist() == [flat_index(part, (1, 2))] * 2

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 4), m_max=st.integers(1, 80))
    def test_random_partitions(self, seed, n, m_max):
        gen = np.random.default_rng(seed)
        box = tuple(Interval(-1.0 - i, 2.0 * i + 1.0) for i in range(n))
        counts = tuple(int(gen.integers(1, m_max + 1)) for _ in range(n))
        part = _sorted_uniform_partition(box, counts, gen)
        _assert_routes_like_search(part, _edge_probes(part, gen))

    @pytest.mark.parametrize("interior", [_COUNT_EDGES - 1, _COUNT_EDGES, _COUNT_EDGES + 1,
                                          _COUNT_EDGES + 2, 200, 254, 255, 256, 300])
    def test_both_sides_of_the_search_cutoff(self, interior, rng):
        """Counted up to _COUNT_EDGES interior breakpoints and searched
        past it, next to a counted dimension; the uint8 tally never sees
        more than _COUNT_EDGES."""
        part = _sorted_uniform_partition((Interval(0.0, 1.0), Interval(-3.0, 3.0)),
                                         (interior + 1, 3), rng)
        _assert_routes_like_search(part, _edge_probes(part, rng))

    @pytest.mark.parametrize("counts", [(3, 5, 17), (255,), (4, 4, 16), (256,),
                                        (3, 5, 17, 257), (255, 257), (16, 16, 16, 16),
                                        (256, 256)])
    def test_cell_counts_at_key_widths(self, counts, rng):
        """Partitions of 255, 256, 65,535 and 65,536 cells, at the 8- and
        16-bit widths of route's sort key."""
        part = uniform_partition(tuple(Interval(0.0, float(m)) for m in counts), counts)
        assert part.size in (255, 256, 65_535, 65_536)
        points = _edge_probes(part, rng)
        _assert_routes_like_search(part, points)
        ds = Dataset(points, np.zeros(len(points)), part.domain)
        order, cells = route(part, ds)
        flat = searchsorted_locate_many(part, points)
        np.testing.assert_array_equal(order, np.argsort(flat, kind="stable"))
        np.testing.assert_array_equal(cells, flat)


_TINY = 5e-324   # the smallest subnormal
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestRoutingIsTotal:
    """Every finite point routes, and predicts a finite value: on and next
    to breakpoints, at +-1e308 and the float limits, at subnormals and at
    arbitrary finite values, for breakpoints at any scale and for one
    dimension counted, searched, or past the uint8 tally."""

    @pytest.mark.parametrize("interior", [5, _COUNT_EDGES + 6, 260])
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 3),
           scale=st.sampled_from([1e-310, 1.0, 1e300]),
           tag=st.sampled_from(["linear", "sigmoid"]),
           scope=st.sampled_from(["subspace", "domain"]),
           drawn=arrays(np.float64, (20, 3), elements=_FINITE))
    def test_any_finite_point(self, interior, seed, n, scale, tag, scope, drawn):
        gen = np.random.default_rng(seed)
        wide = int(gen.integers(n))
        edges = []
        for d in range(n):
            cuts = np.unique(gen.uniform(-scale, scale, (interior if d == wide else 2) + 2))
            edges.append(tuple(cuts.tolist()))
        part = Partition(tuple(edges))
        assert all(math.isfinite(iv.width) for iv in part.domain)
        pools = [np.concatenate([e, np.nextafter(e, -np.inf), np.nextafter(e, np.inf),
                                 [1e308, -1e308, np.finfo(float).max, -np.finfo(float).max,
                                  _TINY, -_TINY, 0.0, -0.0]]) for e in map(np.asarray, edges)]
        X = np.vstack([np.column_stack([gen.choice(p, 200) for p in pools]), drawn[:, :n]])

        cells = locate_many(part, X)
        np.testing.assert_array_equal(cells, searchsorted_locate_many(part, X))
        order, routed = route(part, Dataset(X, np.zeros(len(X)), part.domain))
        np.testing.assert_array_equal(routed, cells)
        np.testing.assert_array_equal(order, np.argsort(cells, kind="stable"))

        pool = [LocalPairNet(alphas=gen.dirichlet(np.ones(n)), c=gen.normal(size=2**n),
                             gamma=gen.normal(size=2**n), fallback_mean=mean)
                for mean in (None, None, 1.5)]
        model = PairNetModel(partition=part, locals=tuple(pool[j % 3] for j in range(part.size)),
                             activation_scope=scope, activation=ActivationKind(tag, 4.0))
        assert np.isfinite(forward(model, X)).all()


class TestRoute:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**6), rows=st.integers(1, 400))
    def test_groups_cover_rows_and_agree_with_locate(self, seed, rows):
        """route's (order, cells): each row's cell in row order, the
        binary search's, on breakpoints and outside the domain too; and
        every row once in order, each cell's rows one run in ascending
        row order (a stable sort)."""
        gen = np.random.default_rng(seed)
        part = random_partition(BOX, (1, 4), gen)
        probes = _edge_probes(part, gen)
        X = probes[gen.integers(0, len(probes), rows)]   # repeated points share a cell
        order, cells = route(part, Dataset(X, np.zeros(rows), BOX))
        assert sorted(order.tolist()) == list(range(rows))
        np.testing.assert_array_equal(cells, searchsorted_locate_many(part, X))
        key = cells[order] * rows + order   # nondecreasing cells, ascending rows within each
        assert np.all(np.diff(key) > 0)


    @pytest.mark.parametrize("size", [1, 256, 257, 65_536, 65_537])
    def test_cell_order_is_the_stable_argsort(self, size):
        """The narrow unsigned key sorts to the same permutation as the
        int64 indices, on either side of the 8- and 16-bit key widths."""
        gen = np.random.default_rng(size)
        cells = gen.integers(0, size, 200_000)
        cells[:3] = [0, size - 1, size - 1]
        np.testing.assert_array_equal(_cell_order(cells, size),
                                      np.argsort(cells, kind="stable"))


class TestRandomPartition:
    def test_seed_sweep_tiling_invariant(self):
        """Every draw tiles the box: monotone edges, exact domain ends,
        counts within range, and no interval under 1% of the width."""
        for seed in range(1000):
            part = random_partition(BOX, (2, 6), seed)
            for d, iv in enumerate(BOX):
                e = np.asarray(part.edges[d])
                assert e[0] == iv.lo and e[-1] == iv.hi
                assert 2 <= len(e) - 1 <= 6
                widths = np.diff(e)
                assert np.all(widths > 0)
                assert widths.min() >= 0.01 * iv.width

    def test_deterministic_given_seed(self):
        assert random_partition(BOX, (2, 6), 77) == random_partition(BOX, (2, 6), 77)

    def test_per_dimension_ranges(self, rng):
        part = random_partition(BOX, [(1, 1), (3, 3), (2, 2)], rng)
        assert part.counts == (1, 3, 2)

    def test_unsatisfiable_width_floor_raises(self):
        # 100 intervals each at least 1% of the width must tile it exactly,
        # a measure-zero event for uniform cuts.
        with pytest.raises(PartitionSamplingError):
            random_partition((Interval(0.0, 1.0),), (100, 100), 0)

    def test_bad_count_range(self, rng):
        with pytest.raises(ValueError):
            random_partition(BOX, (0, 3), rng)
        with pytest.raises(ValueError):
            random_partition(BOX, (4, 2), rng)
