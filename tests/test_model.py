"""Forward-pass algebra: fusion weights, features, and the full network.

The load-bearing facts checked here: the 2^n fusion weights are convex
combinations that sum to 2^(n-1); the output is linear in [c; gamma]
through the feature row [beta, beta * theta]; and the fast vectorized
forward agrees with a literal layer-by-layer transcription of the
four-layer pipeline.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import sample_box
from pairnet.activation import LINEAR, ActivationKind, pair_activation
from pairnet.model import (
    MAX_DIM,
    LocalPairNet,
    PairNetModel,
    betas,
    block_rows,
    feature_matrix,
    feature_row,
    forward,
    layer2_weights,
    local_forward,
)
from pairnet.partition import Interval, locate_many, uniform_partition
from reference_forward import naive_forward, naive_local_forward


class TestLayer2Weights:
    def test_worked_example(self):
        w = layer2_weights(np.array([0.8, 0.6]), np.array([0.5, 0.5]))
        np.testing.assert_allclose(w, [0.7, 0.6, 0.4, 0.3], atol=1e-15)
        assert w.sum() == pytest.approx(2.0, abs=1e-15)

    def test_extreme_patterns(self, rng):
        """w_0 is the all-positive sum, w_{2^n-1} the all-complement sum."""
        g = rng.uniform(size=4)
        alphas = rng.dirichlet(np.ones(4))
        w = layer2_weights(g, alphas)
        assert w[0] == pytest.approx(float(alphas @ g), abs=1e-15)
        assert w[-1] == pytest.approx(float(alphas @ (1 - g)), abs=1e-15)

    def test_complement_symmetry(self, rng):
        """Complementing input i swaps w_k with w_{k xor bit_i}."""
        n = 3
        g = rng.uniform(size=n)
        alphas = rng.dirichlet(np.ones(n))
        w = layer2_weights(g, alphas)
        for i in range(n):
            g2 = g.copy()
            g2[i] = 1.0 - g2[i]
            w2 = layer2_weights(g2, alphas)
            mask = 1 << (n - 1 - i)
            for k in range(2**n):
                assert w2[k] == pytest.approx(w[k ^ mask], abs=1e-14)

    @given(n=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_sum_identity_and_bounds(self, n, seed):
        gen = np.random.default_rng(seed)
        g = gen.uniform(size=(7, n))
        alphas = gen.dirichlet(np.ones(n))
        w = layer2_weights(g, alphas)
        assert w.shape == (7, 2**n)
        assert np.all(w >= 0.0) and np.all(w <= 1.0)
        np.testing.assert_allclose(w.sum(axis=-1), 2.0 ** (n - 1), atol=1e-12)

    def test_alpha_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            layer2_weights(np.array([0.5]), np.array([0.9]))
        with pytest.raises(ValueError, match="lie in"):
            layer2_weights(np.array([0.5, 0.5]), np.array([-0.5, 1.5]))
        with pytest.raises(ValueError, match="does not match"):
            layer2_weights(np.array([0.5, 0.5]), np.array([1.0]))


class TestBetas:
    def test_worked_example(self):
        b = betas(np.array([0.7, 0.6, 0.4, 0.3]))
        np.testing.assert_allclose(b, [0.35, 0.3, 0.2, 0.15])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            betas(np.zeros(6))

    @given(n=st.integers(1, 5), seed=st.integers(0, 10**6))
    def test_convex_weights(self, n, seed):
        gen = np.random.default_rng(seed)
        w = layer2_weights(gen.uniform(size=n), gen.dirichlet(np.ones(n)))
        b = betas(w)
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
        with pytest.raises(ValueError, match="subspace"):
            dataclasses.replace(good, subspace=(Interval(0, 1),))
        with pytest.raises(ValueError, match="unsupported"):
            make_local(n=MAX_DIM + 1)
        with pytest.raises(ValueError, match="fallback_mean must be finite"):
            dataclasses.replace(good, fallback_mean=float("nan"))

    def test_params_stacking(self, make_local):
        local = make_local(n=2)
        np.testing.assert_array_equal(local.params, np.concatenate([local.c, local.gamma]))


class TestFeaturesAndForward:
    def test_two_path_evaluation(self, make_local, rng):
        """phi . [c; gamma] equals the direct sum of beta_k (c_k + theta_k gamma_k)."""
        local = make_local(n=3, seed=5)
        X = sample_box(local.subspace, 40, seed=6)
        phi = feature_matrix(local, X)
        fast = phi @ local.params
        g = np.stack([pair_activation(X[:, i], iv, local.activation)[0]
                      for i, iv in enumerate(local.subspace)], axis=-1)
        w = layer2_weights(g, local.alphas)
        b = betas(w)
        theta = 0.5 * (1.0 - w)
        direct = np.sum(b * (local.c + theta * local.gamma), axis=-1)
        np.testing.assert_allclose(fast, direct, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_pipeline_transcription(self, make_local, n):
        local = make_local(n=n, seed=n + 10)
        X = sample_box(local.subspace, 25, seed=n)
        out = local_forward(local, X)
        naive = [naive_local_forward(local, x) for x in X]
        np.testing.assert_allclose(out, naive, rtol=1e-12, atol=1e-12)

    def test_sigmoid_kind_also_transcribes(self, make_local):
        local = make_local(n=2, seed=3, activation=ActivationKind("sigmoid", 6.0))
        X = sample_box(local.subspace, 25, seed=9)
        naive = [naive_local_forward(local, x) for x in X]
        np.testing.assert_allclose(local_forward(local, X), naive, rtol=1e-12, atol=1e-12)

    def test_batch_equals_scalar(self, make_local):
        local = make_local(n=2, seed=8)
        X = sample_box(local.subspace, 30, seed=4)
        batch = local_forward(local, X)
        singles = [local_forward(local, x) for x in X]
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
        local = LocalPairNet(n=n, alphas=gen.dirichlet(np.ones(n)), c=gen.normal(size=2**n),
                             gamma=gen.normal(size=2**n), subspace=box,
                             activation=ActivationKind(tag))
        X = np.column_stack([gen.uniform(iv.lo - 0.5, iv.hi + 0.5, rows) for iv in box])
        full = local_forward(local, X)
        perm = gen.permutation(rows)
        np.testing.assert_array_equal(local_forward(local, X[perm]), full[perm])
        a, b = sorted(gen.integers(0, rows + 1, size=2))
        np.testing.assert_array_equal(local_forward(local, X[a:b]), full[a:b])
        for i in gen.choice(rows, size=min(rows, 5), replace=False):
            assert local_forward(local, X[i]) == full[i]

    def test_output_linear_in_params(self, make_local):
        """f is affine-free and linear in the stacked [c; gamma]."""
        a = make_local(n=2, seed=1)
        b = make_local(n=2, seed=2, subspace=a.subspace)
        X = sample_box(a.subspace, 20, seed=7)
        combo = dataclasses.replace(a, c=2.0 * a.c - 3.0 * b.c,
                                    gamma=2.0 * a.gamma - 3.0 * b.gamma)
        b_aligned = dataclasses.replace(b, alphas=a.alphas)
        expected = 2.0 * local_forward(a, X) - 3.0 * local_forward(b_aligned, X)
        np.testing.assert_allclose(local_forward(combo, X), expected, rtol=1e-12, atol=1e-12)

    def test_pure_c_output_is_convex_combination(self, make_local):
        local = make_local(n=3, seed=11)
        local = dataclasses.replace(local, gamma=np.zeros(8))
        X = sample_box(local.subspace, 100, seed=12)
        out = local_forward(local, X)
        assert np.all(out >= local.c.min() - 1e-12)
        assert np.all(out <= local.c.max() + 1e-12)

    def test_fallback_mean_is_constant(self, make_local):
        local = make_local(n=2, seed=1, fallback_mean=4.25)
        X = sample_box(local.subspace, 10, seed=2)
        np.testing.assert_array_equal(local_forward(local, X), np.full(10, 4.25))
        assert local_forward(local, X[0]) == 4.25

    def test_feature_row_shape_checks(self, make_local):
        local = make_local(n=2)
        assert feature_row(local, np.array([1.0, 2.0])).shape == (8,)
        with pytest.raises(ValueError, match="shape"):
            feature_row(local, np.array([1.0, 2.0, 3.0]))


class TestPairNetModel:
    def _model(self, counts=(2, 2), seed=0, scope="subspace"):
        box = (Interval(0.0, 4.0), Interval(-1.0, 1.0))
        part = uniform_partition(box, counts)
        gen = np.random.default_rng(seed)
        locs = []
        for j in range(part.size):
            sub = part.cell(j) if scope == "subspace" else part.domain
            locs.append(LocalPairNet(
                n=2, alphas=gen.dirichlet(np.ones(2)), c=gen.normal(size=4),
                gamma=gen.normal(size=4), subspace=sub,
            ))
        return PairNetModel(partition=part, locals=tuple(locs), activation_scope=scope)

    def test_forward_routes_to_owning_cell(self):
        model = self._model()
        x = np.array([0.5, -0.5])  # cell (0, 0)
        assert forward(model, x) == local_forward(model.locals[0], x)
        x = np.array([3.5, 0.5])   # cell (1, 1) -> flat 3
        assert forward(model, x) == local_forward(model.locals[3], x)

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

    def test_locals_count_must_match(self):
        model = self._model()
        with pytest.raises(ValueError, match="locals"):
            PairNetModel(partition=model.partition, locals=model.locals[:3])

    def test_scope_mismatch_rejected(self):
        model = self._model()
        with pytest.raises(ValueError, match="does not match"):
            PairNetModel(partition=model.partition, locals=model.locals,
                         activation_scope="domain")
        with pytest.raises(ValueError, match="unknown activation scope"):
            PairNetModel(partition=model.partition, locals=model.locals,
                         activation_scope="global")

    def test_domain_scope_accepts_shared_box(self):
        model = self._model(scope="domain")
        assert all(loc.subspace == model.partition.domain for loc in model.locals)

    def test_equality_ignores_provenance(self):
        a = self._model(seed=9)
        b = dataclasses.replace(a, provenance={"note": "rerun of a"})
        assert a == b
        c = self._model(seed=10)
        assert a != c

    def test_mixed_activations_rejected(self):
        """One activation per model: save_model writes local 0's for every
        cell, so a mixed model would reload as a different model."""
        model = self._model()
        locs = list(model.locals)
        locs[2] = dataclasses.replace(locs[2], activation=ActivationKind("sigmoid"))
        with pytest.raises(ValueError, match=r"local 2: activation .* differs from local 0's"):
            PairNetModel(partition=model.partition, locals=tuple(locs))

    def test_equality_compares_every_cell(self):
        a = self._model(seed=9)
        same = PairNetModel(partition=a.partition, locals=tuple(
            dataclasses.replace(loc, c=loc.c.copy()) for loc in a.locals))
        assert a == same
        for change in ({"gamma": a.locals[3].gamma + 1e-12}, {"fallback_mean": 0.5},
                       {"alphas": a.locals[3].alphas[::-1]}):
            locs = a.locals[:3] + (dataclasses.replace(a.locals[3], **change),)
            assert a != PairNetModel(partition=a.partition, locals=locs), change


def _reference_case_model(gen, n, counts, scope, tag):
    """A model with per-cell alphas, some fallback cells and random
    parameters, on a random box."""
    box = tuple(Interval(float(i), float(i) + gen.uniform(0.5, 3.0)) for i in range(n))
    part = uniform_partition(box, counts)
    kind = ActivationKind(tag, gen.uniform(1.0, 8.0))
    locs = []
    for j in range(part.size):
        locs.append(LocalPairNet(
            n=n, alphas=gen.dirichlet(np.ones(n)), c=gen.normal(size=2**n),
            gamma=gen.normal(size=2**n),
            subspace=part.cell(j) if scope == "subspace" else part.domain, activation=kind,
            fallback_mean=float(gen.normal()) if gen.uniform() < 0.25 else None,
        ))
    return PairNetModel(partition=part, locals=tuple(locs), activation_scope=scope)


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
        box = local.subspace
        X = np.column_stack([gen.uniform(iv.lo - 0.5, iv.hi + 0.5, block_rows(3) + 99)
                             for iv in box])
        want = [naive_local_forward(local, x) for x in X]
        np.testing.assert_allclose(local_forward(local, X), want, rtol=1e-12, atol=1e-12)
