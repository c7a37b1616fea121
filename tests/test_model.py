"""Forward-pass algebra: fusion weights, features, and the full network.

The load-bearing facts checked here: the 2^n fusion weights are convex
combinations that sum to 2^(n-1); the output is linear in [c; gamma]
through the feature row [beta, beta * theta]; and the fast vectorized
forward agrees with a literal layer-by-layer transcription of the
four-layer pipeline.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import as_box, default_box, sample_box
from pairnet.activation import LINEAR, ActivationKind, activate
from pairnet.model import (
    _FORWARD_ROWS,
    MAX_DIM,
    LocalPairNet,
    PairNetModel,
    _fixed_sum,
    _prediction_tables,
    _quadratic_basis,
    _quadratic_map,
    _stacked,
    block_rows,
    cell_boxes,
    feature_matrix,
    forward,
    local_forward,
)
from pairnet.partition import Interval, locate_many, random_partition, uniform_partition
from reference_forward import naive_forward, naive_local_forward
from reference_routing import cell_box


def _fusion_weights(g, alphas):
    """Layer 2's w (N, 2^n) for activations g (N, n), read off
    feature_matrix's beta columns (w = beta * 2^(n-1)) on the unit box,
    where the linear activation is the identity."""
    g = np.atleast_2d(np.asarray(g, dtype=np.float64))
    n = g.shape[1]
    local = LocalPairNet(alphas=alphas, c=np.zeros(2**n), gamma=np.zeros(2**n))
    return feature_matrix(local, g, (np.zeros(n), np.ones(n)))[:, :2**n] * 2.0 ** (n - 1)


class TestLayer2Weights:
    def test_worked_example(self):
        w = _fusion_weights([0.8, 0.6], [0.5, 0.5])[0]
        np.testing.assert_allclose(w, [0.7, 0.6, 0.4, 0.3], atol=1e-15)
        assert w.sum() == pytest.approx(2.0, abs=1e-15)

    def test_extreme_patterns(self, rng):
        """w_0 is the all-positive sum, w_{2^n-1} the all-complement sum."""
        g = rng.uniform(size=4)
        alphas = rng.dirichlet(np.ones(4))
        w = _fusion_weights(g, alphas)[0]
        assert w[0] == pytest.approx(float(alphas @ g), abs=1e-15)
        assert w[-1] == pytest.approx(float(alphas @ (1 - g)), abs=1e-15)

    def test_complement_symmetry(self, rng):
        """Complementing input i swaps w_k with w_{k xor bit_i}."""
        n = 3
        g = rng.uniform(size=n)
        alphas = rng.dirichlet(np.ones(n))
        w = _fusion_weights(g, alphas)[0]
        for i in range(n):
            g2 = g.copy()
            g2[i] = 1.0 - g2[i]
            w2 = _fusion_weights(g2, alphas)[0]
            mask = 1 << (n - 1 - i)
            for k in range(2**n):
                assert w2[k] == pytest.approx(w[k ^ mask], abs=1e-14)

    @given(n=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_sum_identity_and_bounds(self, n, seed):
        gen = np.random.default_rng(seed)
        g = gen.uniform(size=(7, n))
        alphas = gen.dirichlet(np.ones(n))
        w = _fusion_weights(g, alphas)
        assert w.shape == (7, 2**n)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        np.testing.assert_allclose(w.sum(axis=-1), 2.0 ** (n - 1), atol=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            _fusion_weights([0.5], [0.9])
        with pytest.raises(ValueError, match="lie in"):
            _fusion_weights([0.5, 0.5], [-0.5, 1.5])
        with pytest.raises(ValueError, match="c must have length 2"):
            _fusion_weights([0.5, 0.5], [1.0])   # one alpha for two inputs


class TestBetas:
    def test_worked_example(self):
        local = LocalPairNet(alphas=[0.5, 0.5], c=np.zeros(4), gamma=np.zeros(4))
        b = feature_matrix(local, np.array([[0.8, 0.6]]), (np.zeros(2), np.ones(2)))[0, :4]
        np.testing.assert_allclose(b, [0.35, 0.3, 0.2, 0.15])

    @given(n=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_convex_weights(self, n, seed):
        gen = np.random.default_rng(seed)
        b = _fusion_weights(gen.uniform(size=n), gen.dirichlet(np.ones(n)))[0] / 2.0 ** (n - 1)
        assert np.all(b >= 0.0)
        assert b.sum() == pytest.approx(1.0, abs=1e-12)


class TestLocalPairNet:
    def test_validation(self, make_local):
        good = make_local(n=2)
        with pytest.raises(ValueError, match="sum to 1"):
            dataclasses.replace(good, alphas=np.array([0.3, 0.3]))
        with pytest.raises(ValueError, match="c must have length 4"):
            dataclasses.replace(good, c=np.zeros(3))
        with pytest.raises(ValueError, match="gamma must have length 4"):
            dataclasses.replace(good, gamma=np.zeros(8))
        with pytest.raises(ValueError, match="one-dimensional"):
            dataclasses.replace(good, alphas=np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError, match="unsupported"):
            make_local(n=MAX_DIM + 1)
        with pytest.raises(ValueError, match="fallback_mean must be finite"):
            dataclasses.replace(good, fallback_mean=float("nan"))

    def test_fields_are_the_cell_numbers(self, make_local):
        """A local holds its numbers only; its n is the alphas' length."""
        assert [f.name for f in dataclasses.fields(LocalPairNet)] == [
            "alphas", "c", "gamma", "fallback_mean"]
        assert make_local(n=3).n == 3
        local = LocalPairNet([0.25, 0.75], np.zeros(4), np.ones(4), 1.5)
        assert (local.n, local.fallback_mean) == (2, 1.5)

    def test_params_stacking(self, make_local):
        local = make_local(n=2)
        np.testing.assert_array_equal(local.params, np.concatenate([local.c, local.gamma]))

    def test_arrays_are_read_only_copies(self, make_local):
        c = np.zeros(4)
        local = dataclasses.replace(make_local(n=2), c=c)
        c[0] = 5.0
        assert local.c[0] == 0.0
        for name in ("alphas", "c", "gamma"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(local, name)[0] = 1.0


class TestFeaturesAndForward:
    def test_two_path_evaluation(self, make_local, rng):
        """phi . [c; gamma] equals the direct sum of beta_k (c_k + theta_k gamma_k)."""
        local, box = make_local(n=3, seed=5), default_box(3)
        X = sample_box(box, 40, seed=6)
        phi = feature_matrix(local, X, as_box(box))
        fast = phi @ local.params
        g = np.stack([activate(X[:, i], iv.lo, iv.hi, LINEAR)
                      for i, iv in enumerate(box)], axis=-1)
        bits = (np.arange(8)[:, None] >> np.arange(2, -1, -1)) & 1   # (2^n, n)
        w = np.where(bits, 1.0 - g[:, None, :], g[:, None, :]) @ local.alphas
        b = w / 4.0
        theta = 0.5 * (1.0 - w)
        np.testing.assert_allclose(phi, np.hstack([b, b * theta]), rtol=1e-13, atol=1e-15)
        direct = np.sum(b * (local.c + theta * local.gamma), axis=-1)
        np.testing.assert_allclose(fast, direct, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pipeline_transcription(self, make_local, n):
        local, box = make_local(n=n, seed=n + 10), default_box(n)
        X = sample_box(box, 25, seed=n)
        out = local_forward(local, X, as_box(box))
        naive = [naive_local_forward(local, x, as_box(box), LINEAR) for x in X]
        np.testing.assert_allclose(out, naive, rtol=1e-12, atol=1e-12)

    def test_sigmoid_kind_also_transcribes(self, make_local):
        local, kind = make_local(n=2, seed=3), ActivationKind("sigmoid", 6.0)
        box = as_box(default_box(2))
        X = sample_box(default_box(2), 25, seed=9)
        naive = [naive_local_forward(local, x, box, kind) for x in X]
        np.testing.assert_allclose(local_forward(local, X, box, kind), naive,
                                   rtol=1e-12, atol=1e-12)

    def test_batch_equals_scalar(self, make_local):
        local, box = make_local(n=2, seed=8), as_box(default_box(2))
        X = sample_box(default_box(2), 30, seed=4)
        batch = local_forward(local, X, box)
        singles = [local_forward(local, x, box) for x in X]
        np.testing.assert_array_equal(batch, singles)

    @settings(max_examples=30, deadline=None)
    @given(n=st.sampled_from([1, 2, 3, 8]), seed=st.integers(0, 10**6),
           rows=st.integers(1, 3000), tag=st.sampled_from(["linear", "sigmoid"]))
    def test_predictions_are_row_local(self, n, seed, rows, tag):
        """A row's prediction is bitwise the same in any permutation or
        sub-batch of its batch and as a single point, across evaluation
        block boundaries and for points outside the box."""
        gen = np.random.default_rng(seed)
        box = tuple(Interval(float(i), float(i) + gen.uniform(0.5, 3.0)) for i in range(n))
        local = LocalPairNet(alphas=gen.dirichlet(np.ones(n)), c=gen.normal(size=2**n),
                             gamma=gen.normal(size=2**n))
        X = np.column_stack([gen.uniform(iv.lo - 0.5, iv.hi + 0.5, rows) for iv in box])
        box, kind = as_box(box), ActivationKind(tag)
        full = local_forward(local, X, box, kind)
        perm = gen.permutation(rows)
        np.testing.assert_array_equal(local_forward(local, X[perm], box, kind), full[perm])
        a, b = sorted(gen.integers(0, rows + 1, size=2))
        np.testing.assert_array_equal(local_forward(local, X[a:b], box, kind), full[a:b])
        for i in gen.choice(rows, size=min(rows, 5), replace=False):
            assert local_forward(local, X[i], box, kind) == full[i]

    def test_output_linear_in_params(self, make_local):
        """f is affine-free and linear in the stacked [c; gamma]."""
        a = make_local(n=2, seed=1)
        b = make_local(n=2, seed=2)
        box = as_box(default_box(2))
        X = sample_box(default_box(2), 20, seed=7)
        combo = dataclasses.replace(a, c=2.0 * a.c - 3.0 * b.c,
                                    gamma=2.0 * a.gamma - 3.0 * b.gamma)
        b_aligned = dataclasses.replace(b, alphas=a.alphas)
        expected = 2.0 * local_forward(a, X, box) - 3.0 * local_forward(b_aligned, X, box)
        np.testing.assert_allclose(local_forward(combo, X, box), expected,
                                   rtol=1e-12, atol=1e-12)

    def test_pure_c_output_is_convex_combination(self, make_local):
        local = make_local(n=3, seed=11)
        local = dataclasses.replace(local, gamma=np.zeros(8))
        X = sample_box(default_box(3), 100, seed=12)
        out = local_forward(local, X, as_box(default_box(3)))
        assert np.all(out >= local.c.min() - 1e-12)
        assert np.all(out <= local.c.max() + 1e-12)

    def test_fallback_mean_is_constant(self, make_local):
        local = make_local(n=2, seed=1, fallback_mean=4.25)
        box = as_box(default_box(2))
        X = sample_box(default_box(2), 10, seed=2)
        np.testing.assert_array_equal(local_forward(local, X, box), np.full(10, 4.25))
        assert local_forward(local, X[0], box) == 4.25


class TestPairNetModel:
    def _model(self, counts=(2, 2), seed=0, scope="subspace"):
        box = (Interval(0.0, 4.0), Interval(-1.0, 1.0))
        part = uniform_partition(box, counts)
        gen = np.random.default_rng(seed)
        locs = [LocalPairNet(alphas=gen.dirichlet(np.ones(2)), c=gen.normal(size=4),
                             gamma=gen.normal(size=4)) for _ in range(part.size)]
        return PairNetModel(partition=part, locals=tuple(locs), activation_scope=scope)

    def test_locals_cannot_change_under_a_cached_model(self):
        """A model caches its tables on its first prediction; its locals
        cannot be edited in place, and dataclasses.replace gives a new
        model that predicts from the new parameters."""
        model = self._model()
        x = np.array([0.5, -0.5])  # cell (0, 0)
        before = forward(model, x)
        with pytest.raises(ValueError, match="read-only"):
            model.locals[0].c[:] += 100.0
        shifted = dataclasses.replace(model.locals[0], c=model.locals[0].c + 100.0)
        edited = dataclasses.replace(model, locals=(shifted, *model.locals[1:]))
        assert forward(model, x) == before
        # The betas sum to 1, so shifting every c shifts the output.
        assert forward(edited, x) == pytest.approx(before + 100.0)

    def test_forward_routes_to_owning_cell(self):
        model = self._model()
        x = np.array([0.5, -0.5])  # cell (0, 0)
        part = model.partition
        assert forward(model, x) == local_forward(model.locals[0], x, cell_box(part, 0))
        x = np.array([3.5, 0.5])   # cell (1, 1) -> flat 3
        assert forward(model, x) == local_forward(model.locals[3], x, cell_box(part, 3))

    def test_batch_forward_matches_per_point(self, rng):
        """Per-point forward is the reference for the grouped batch path,
        bitwise, over empty cells, breakpoints, out-of-domain points and
        a cell whose rows span more than one evaluation block."""
        model = self._model(counts=(3, 3), seed=4)
        part = model.partition
        crowd = np.column_stack([rng.uniform(0.0, 1.0, block_rows(2) + 900),
                                 rng.uniform(-1.0, -0.5, block_rows(2) + 900)])
        on_breakpoints = np.array([(a, part.edges[1][1]) for a in part.edges[0]])
        outside = np.array([[-3.0, -5.0], [9.0, 0.2], [2.0, 7.0], [4.0, 1.0]])
        spread = np.column_stack([rng.uniform(-1, 5, 200), rng.uniform(-2, -0.5, 200)])
        X = rng.permutation(np.vstack([crowd, on_breakpoints, outside, spread]))
        rows_per_cell = np.bincount(locate_many(part, X), minlength=part.size)
        assert rows_per_cell.max() > block_rows(2)
        assert rows_per_cell.min() == 0
        batch = forward(model, X)
        singles = np.array([forward(model, x) for x in X])
        np.testing.assert_array_equal(batch, singles)
        perm = rng.permutation(len(X))
        np.testing.assert_array_equal(forward(model, X[perm]), batch[perm])
        np.testing.assert_array_equal(forward(model, X[37:1500]), batch[37:1500])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_forward_rejects_non_finite_points(self, bad):
        model = self._model()
        X = np.array([[0.5, -0.5], [3.5, 0.5], [9.0, 0.2], [1.0, 0.0]])
        X[3, 0] = bad
        with pytest.raises(ValueError, match=r"row 3 has a non-finite coordinate"):
            forward(model, X)
        with pytest.raises(ValueError, match="non-finite"):
            forward(model, X[3])
        assert np.isfinite(forward(model, X[:3])).all()  # outside the domain still clamps

    def test_forward_blocks_match_local_forward(self, rng):
        """More than two blocks of rows, every cell in every block: each
        row is bitwise its own cell's local_forward."""
        model = self._model(counts=(3, 3), seed=9)
        rows = 2 * _FORWARD_ROWS + 5000
        X = np.column_stack([rng.uniform(-0.5, 4.5, rows), rng.uniform(-1.2, 1.2, rows)])
        cells = locate_many(model.partition, X)
        out = forward(model, X)
        want = np.empty(rows)
        for j, loc in enumerate(model.locals):
            mine = cells == j
            assert len(np.unique(np.flatnonzero(mine) // _FORWARD_ROWS)) == 3
            want[mine] = local_forward(loc, X[mine], cell_box(model.partition, j))
        np.testing.assert_array_equal(out, want)
        for i in (0, _FORWARD_ROWS - 1, _FORWARD_ROWS, 2 * _FORWARD_ROWS, rows - 1):
            box = cell_box(model.partition, cells[i])
            assert out[i] == local_forward(model.locals[cells[i]], X[i], box)

    def test_non_finite_row_is_named_across_blocks(self):
        model = self._model()
        X = np.tile([1.0, 0.0], (3 * _FORWARD_ROWS, 1))
        X[70_000, 1] = np.nan
        with pytest.raises(ValueError, match=r"row 70000 has a non-finite coordinate"):
            forward(model, X)

    def test_forward_memory_stays_at_block_size(self):
        """400k rows of a 64-cell model: the output (3.2 MB) plus one
        block's temporaries, not whole-batch copies of X and the order."""
        part = uniform_partition((Interval(1.0, 20.0),) * 3, (4, 4, 4))
        gen = np.random.default_rng(64)
        model = PairNetModel(partition=part, locals=tuple(
            LocalPairNet(alphas=np.full(3, 1 / 3), c=gen.normal(size=8), gamma=gen.normal(size=8))
            for j in range(part.size)))
        X = gen.uniform(1.0, 20.0, size=(400_000, 3))
        forward(model, X[:10])   # builds the cached tables outside the measurement
        tracemalloc.start()
        try:
            forward(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_locals_count_must_match(self):
        model = self._model()
        with pytest.raises(ValueError, match="locals"):
            PairNetModel(partition=model.partition, locals=model.locals[:3])

    def test_local_dimension_must_match(self, make_local):
        model = self._model()
        locs = model.locals[:2] + (make_local(n=3),) + model.locals[3:]
        with pytest.raises(ValueError, match="local 2 has 3 inputs, partition has 2"):
            PairNetModel(partition=model.partition, locals=locs)

    def test_scope_mismatch_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="unknown activation_scope"):
            PairNetModel(partition=model.partition, locals=model.locals,
                         activation_scope="global")

    def test_domain_scope_accepts_shared_box(self):
        model = self._model(scope="domain")
        lo, hi = cell_boxes(model.partition, model.activation_scope)
        assert lo.shape == hi.shape == (2, 4)
        assert lo.T.tolist() == [[0.0, -1.0]] * 4 and hi.T.tolist() == [[4.0, 1.0]] * 4
        domain = as_box(model.partition.domain)
        for j in range(4):
            np.testing.assert_array_equal(lo[:, j], domain[0])
            np.testing.assert_array_equal(hi[:, j], domain[1])

    @given(counts=st.lists(st.integers(1, 4), min_size=1, max_size=3), seed=st.integers(0, 99))
    def test_cell_boxes_are_the_cells(self, counts, seed):
        """Column j of the subspace boxes is cell j's intervals, in flat
        order, bitwise."""
        part = random_partition(tuple(Interval(-1.0, 2.0) for _ in counts),
                                [(m, m) for m in counts], seed)
        lo, hi = cell_boxes(part, "subspace")
        assert lo.shape == hi.shape == (len(counts), part.size)
        for j in range(part.size):
            assert [tuple(ends) for ends in zip(lo[:, j], hi[:, j])] == [
                (e[i], e[i + 1]) for e, i in zip(part.edges, part.decode(j))]

    def test_equality_ignores_provenance(self):
        a = self._model(seed=9)
        b = dataclasses.replace(a, provenance={"note": "rerun of a"})
        assert a == b
        c = self._model(seed=10)
        assert a != c

    def test_one_activation_per_model(self):
        """The model holds the one activation every cell uses: it defaults
        to linear, takes part in equality and changes the predictions."""
        model = self._model()
        assert model.activation == LINEAR
        assert [f.name for f in dataclasses.fields(PairNetModel)][2:4] == [
            "activation_scope", "activation"]
        sigmoid = dataclasses.replace(model, activation=ActivationKind("sigmoid"))
        assert sigmoid != model
        x = np.array([0.7, -0.2])
        assert forward(sigmoid, x) != forward(model, x)
        assert forward(sigmoid, x) == pytest.approx(naive_forward(sigmoid, x), rel=1e-12)

    def test_equality_compares_every_cell(self):
        a = self._model(seed=9)
        same = PairNetModel(partition=a.partition, locals=tuple(
            dataclasses.replace(loc, c=loc.c.copy()) for loc in a.locals))
        assert a == same
        for change in ({"gamma": a.locals[3].gamma + 1e-12}, {"fallback_mean": 0.5},
                       {"alphas": a.locals[3].alphas[::-1]}):
            locs = a.locals[:3] + (dataclasses.replace(a.locals[3], **change),)
            assert a != PairNetModel(partition=a.partition, locals=locs), change


# (n, alpha_0): alpha_0 None draws every alpha from a flat Dirichlet;
# otherwise alpha_0 is set (0.0 puts it on a face of the simplex) and the
# rest are rescaled to sum to 1 - alpha_0.
_MAP_CASES = [(n, None) for n in range(1, 11)] + [
    (n, a0) for n in range(2, 11) for a0 in (0.0, 1e-12)]


class TestQuadraticBasis:
    """The closed-form map T from the quadratic basis to the features."""

    @pytest.mark.parametrize("tag", ["linear", "sigmoid"])
    @pytest.mark.parametrize("n,a0", _MAP_CASES)
    def test_map_reproduces_the_features(self, n, a0, tag):
        gen = np.random.default_rng(n)
        alphas = gen.dirichlet(np.ones(n))
        if a0 is not None:
            alphas[1:] *= (1.0 - a0) / alphas[1:].sum()
            alphas[0] = a0
        box = tuple(Interval(-1.0, 1.0 + i) for i in range(n))
        local = LocalPairNet(alphas=alphas, c=np.zeros(2**n), gamma=np.zeros(2**n))
        lo, hi = as_box(box)
        # A margin around the box puts rows outside it, where g saturates.
        X = gen.uniform(lo - 1.0, hi + 1.0, size=(300, n))
        T, support = _quadratic_map(alphas)
        assert support.tolist() == [i for i in range(n) if alphas[i] > 0]
        s = len(support)
        d = 2 + s * (s + 1) // 2
        assert T.shape == (d, 2 ** (n + 1))
        # Scaling T's rows to unit norm keeps its rank, and keeps a tiny
        # alpha from reading as rank-deficient.
        assert np.linalg.matrix_rank(T / np.linalg.norm(T, axis=1, keepdims=True)) == d
        g = activate(X.T[support], lo[support, None], hi[support, None], ActivationKind(tag))
        np.testing.assert_allclose(_quadratic_basis(g, alphas[support]) @ T,
                                   feature_matrix(local, X, (lo, hi), ActivationKind(tag)),
                                   rtol=0, atol=1e-15)


def _reference_case_model(gen, n, counts, scope, tag):
    """A model with per-cell alphas, some fallback cells and random
    parameters, on a random box."""
    box = tuple(Interval(float(i), float(i) + gen.uniform(0.5, 3.0)) for i in range(n))
    part = uniform_partition(box, counts)
    kind = ActivationKind(tag, gen.uniform(1.0, 8.0))
    locs = []
    for j in range(part.size):
        locs.append(LocalPairNet(
            alphas=gen.dirichlet(np.ones(n)), c=gen.normal(size=2**n),
            gamma=gen.normal(size=2**n),
            fallback_mean=float(gen.normal()) if gen.uniform() < 0.25 else None,
        ))
    return PairNetModel(partition=part, locals=tuple(locs), activation_scope=scope,
                        activation=kind)


class TestForwardMatchesReference:
    """forward() and local_forward() share one kernel with fit, so they
    are checked against the plain per-row transcription in
    tests/reference_forward.py instead of against each other."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 4), seed=st.integers(0, 10**6),
           scope=st.sampled_from(["subspace", "domain"]),
           tag=st.sampled_from(["linear", "sigmoid"]))
    def test_forward_matches_reference(self, n, seed, scope, tag):
        gen = np.random.default_rng(seed)
        counts = tuple(int(m) for m in gen.integers(1, 4, size=n))
        model = _reference_case_model(gen, n, counts, scope, tag)
        part = model.partition
        lo = np.array([e[0] for e in part.edges])
        hi = np.array([e[-1] for e in part.edges])
        # A crowd in cell 0 spans evaluation blocks; the spread rows land in
        # many cells (some stay empty); some rows lie outside the domain or
        # on breakpoints.
        first_hi = np.array([e[1] for e in part.edges])
        crowd = gen.uniform(lo, first_hi, size=(block_rows(n) + 37, n))
        spread = gen.uniform(lo, hi, size=(300, n))
        outside = gen.uniform(lo - 2.0, hi + 2.0, size=(40, n))
        on_edges = np.array([[gen.choice(e) for e in part.edges] for _ in range(20)])
        X = gen.permutation(np.vstack([crowd, spread, outside, on_edges]))
        want = np.array([naive_forward(model, x) for x in X])
        np.testing.assert_allclose(forward(model, X), want, rtol=1e-12, atol=1e-12)
        for i in gen.choice(len(X), size=10, replace=False):
            assert forward(model, X[i]) == pytest.approx(want[i], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("tag", ["linear", "sigmoid"])
    def test_local_forward_matches_reference(self, tag):
        gen = np.random.default_rng(17)
        model = _reference_case_model(gen, 3, (1, 1, 1), "subspace", tag)
        local = dataclasses.replace(model.locals[0], fallback_mean=None)
        box = cell_box(model.partition, 0)
        X = np.column_stack([gen.uniform(a - 0.5, b + 0.5, block_rows(3) + 99)
                             for a, b in zip(*box)])
        want = [naive_local_forward(local, x, box, model.activation) for x in X]
        np.testing.assert_allclose(local_forward(local, X, box, model.activation), want,
                                   rtol=1e-12, atol=1e-12)


def _kernel_case_model(n, a0, tag, seed):
    """A model with per-cell alphas (alpha_0 set to a0 in every other
    cell when a0 is not None), one fallback cell when it has more than
    one, and parameters of scale 10."""
    gen = np.random.default_rng(seed)
    box = tuple(Interval(float(i), float(i) + gen.uniform(0.5, 3.0)) for i in range(n))
    part = uniform_partition(box, (2,) * min(n, 3) + (1,) * (n - min(n, 3)))
    kind = ActivationKind(tag, gen.uniform(1.0, 8.0))
    locs = []
    for j in range(part.size):
        alphas = gen.dirichlet(np.ones(n))
        if a0 is not None and j % 2 == 0:
            alphas[1:] *= (1.0 - a0) / alphas[1:].sum()
            alphas[0] = a0
        locs.append(LocalPairNet(
            alphas=alphas, c=10.0 * gen.normal(size=2**n), gamma=10.0 * gen.normal(size=2**n),
            fallback_mean=float(gen.normal()) if j == 1 else None,
        ))
    return PairNetModel(partition=part, locals=tuple(locs), activation=kind), gen


class TestPredictionKernel:
    """Prediction runs through the quadratic basis: B(g) . b with
    b = T [c; gamma] per cell, never through the 2^(n+1) features."""

    @pytest.mark.parametrize("tag", ["linear", "sigmoid"])
    @pytest.mark.parametrize("n,a0", [(n, None) for n in range(1, 9)] + [
        (n, a0) for n in range(2, 9) for a0 in (0.0, 1e-12)])
    def test_kernel_matches_the_features(self, n, a0, tag):
        model, gen = _kernel_case_model(n, a0, tag, seed=n)
        part = model.partition
        lo = np.array([e[0] for e in part.edges])
        hi = np.array([e[-1] for e in part.edges])
        # A margin around the domain puts rows outside every box.
        X = gen.uniform(lo - 1.0, hi + 1.0, size=(400, n))
        cells = locate_many(part, X)
        want = np.empty(len(X))
        for j, loc in enumerate(model.locals):
            rows = cells == j
            box = cell_box(part, j)
            want[rows] = (feature_matrix(loc, X[rows], box, model.activation) @ loc.params
                          if loc.fallback_mean is None else loc.fallback_mean)
            np.testing.assert_allclose(local_forward(loc, X[rows], box, model.activation),
                                       want[rows], rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(forward(model, X), want, rtol=1e-12, atol=1e-12)

    def test_coefficients_do_not_depend_on_the_table(self):
        """A cell's b is bitwise the same in a one-cell table (local_forward)
        and in the model's many-cell table, with shared and distinct alphas."""
        model, _ = _kernel_case_model(3, 0.0, "linear", seed=5)
        shared = dataclasses.replace(model.locals[0], c=model.locals[0].c[::-1].copy())
        locs = model.locals + (shared,)
        def b_table(cells):   # b does not depend on the boxes
            return _prediction_tables(np.zeros((3, len(cells))), np.ones((3, len(cells))),
                                      *_stacked(cells))[3]

        many = b_table(locs)
        assert many.shape == (2 + 3 * 4 // 2, len(locs))
        for j, loc in enumerate(locs):
            np.testing.assert_array_equal(b_table([loc])[:, 0], many[:, j])

    @pytest.mark.parametrize("width", range(1, 41))
    def test_fixed_sum_adds_every_row(self, width):
        """Every row counts, at widths that are not powers of two too."""
        assert _fixed_sum(np.ones((width, 3)))[0] == width
        assert _fixed_sum(np.arange(1.0, width + 1.0)[:, None])[0] == width * (width + 1) / 2
        values = np.random.default_rng(width).normal(size=(width, 5))
        want = [math.fsum(col) for col in values.T]
        np.testing.assert_allclose(_fixed_sum(values.copy()), want, rtol=0, atol=1e-14)

    def test_local_forward_never_holds_the_whole_map(self):
        """At n = 16, T would be d x 2^17 = 138 x 131072 values (145 MB);
        the coefficients are built from blocks of terms instead."""
        n = 16
        gen = np.random.default_rng(16)
        local = LocalPairNet(alphas=gen.dirichlet(np.ones(n)), c=gen.normal(size=2**n),
                             gamma=gen.normal(size=2**n))
        box = (np.zeros(n), np.ones(n))
        X = gen.uniform(-0.5, 1.5, size=(20, n))
        tracemalloc.start()
        try:
            out = local_forward(local, X, box)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6
        np.testing.assert_allclose(out[:3], feature_matrix(local, X[:3], box) @ local.params,
                                   rtol=1e-12, atol=1e-12)
