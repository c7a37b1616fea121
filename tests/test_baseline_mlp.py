"""Backprop MLP baseline: gradient correctness, learning, determinism."""

import numpy as np
import pytest

from pairnet.baseline_mlp import (
    DivergenceError,
    MLPConfig,
    MLPModel,
    _init_model,
    loss_and_grads,
    mlp_forward,
    mlp_train,
)
from pairnet.datasets import Dataset
from pairnet.partition import Interval


def _toy(n_rows=64, seed=2):
    gen = np.random.default_rng(seed)
    X = gen.uniform(-1, 1, size=(n_rows, 2))
    y = X[:, 0] - 2.0 * X[:, 1] + 0.3 * X[:, 0] * X[:, 1]
    return Dataset(X, y, (Interval(-1, 1), Interval(-1, 1)))


def _fd_check(model, X, y, h=1e-6):
    """Worst relative disagreement between backprop and central differences."""
    _, gW, gb = loss_and_grads(model, X, y)
    worst = 0.0

    def loss_with(weights, biases):
        return loss_and_grads(MLPModel(tuple(weights), tuple(biases),
                                       model.x_mean, model.x_std), X, y)[0]

    for li in range(len(model.weights)):
        for idx in np.ndindex(model.weights[li].shape):
            Wp = [w.copy() for w in model.weights]
            Wm = [w.copy() for w in model.weights]
            Wp[li][idx] += h
            Wm[li][idx] -= h
            fd = (loss_with(Wp, model.biases) - loss_with(Wm, model.biases)) / (2 * h)
            an = gW[li][idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
        for idx in np.ndindex(model.biases[li].shape):
            bp = [b.copy() for b in model.biases]
            bm = [b.copy() for b in model.biases]
            bp[li][idx] += h
            bm[li][idx] -= h
            fd = (loss_with(model.weights, bp) - loss_with(model.weights, bm)) / (2 * h)
            an = gb[li][idx]
            worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-8))
    return worst


class TestConfig:
    def test_defaults(self):
        cfg = MLPConfig()
        assert cfg.hidden == (16,) * 20
        assert cfg.epochs == 500
        assert cfg.learning_rate == 1e-3
        assert cfg.momentum == 0.9
        assert cfg.batch_size == 64

    def test_validation(self):
        with pytest.raises(ValueError, match="hidden"):
            MLPConfig(hidden=())
        with pytest.raises(ValueError, match="positive"):
            MLPConfig(hidden=(4, 0))
        with pytest.raises(ValueError, match="epochs"):
            MLPConfig(epochs=0)
        with pytest.raises(ValueError, match="batch"):
            MLPConfig(batch_size=0)

    @pytest.mark.parametrize("lr", [np.nan, np.inf, -1e-3])
    def test_learning_rate_must_be_finite_and_nonnegative(self, lr):
        with pytest.raises(ValueError, match="learning rate must be finite and nonnegative"):
            MLPConfig(learning_rate=lr)

    @pytest.mark.parametrize("momentum", [np.nan, np.inf, -3.0, 1.0, 1.5])
    def test_momentum_must_lie_in_unit_interval(self, momentum):
        with pytest.raises(ValueError, match=r"momentum must lie in \[0, 1\)"):
            MLPConfig(momentum=momentum)


class TestGradients:
    def test_finite_difference_small_net(self):
        """2-3-1 net, 5 points: analytic gradients within 1e-5 relative."""
        ds = _toy(5, seed=3)
        model, _, _ = mlp_train(ds, MLPConfig(hidden=(3,), epochs=1, seed=5))
        assert _fd_check(model, ds.X, ds.y) <= 1e-5

    def test_finite_difference_two_hidden_layers(self):
        ds = _toy(8, seed=4)
        model, _, _ = mlp_train(ds, MLPConfig(hidden=(4, 3), epochs=1, seed=6))
        assert _fd_check(model, ds.X, ds.y) <= 1e-5


class TestForward:
    def test_matches_literal_recomputation(self):
        ds = _toy()
        model, _, _ = mlp_train(ds, MLPConfig(hidden=(5, 4), epochs=2, seed=7))
        x = ds.X[3]
        a = (x - model.x_mean) / model.x_std
        for i, (W, b) in enumerate(zip(model.weights, model.biases)):
            a = a @ W + b
            if i < len(model.weights) - 1:
                a = np.maximum(a, 0.0)
        assert mlp_forward(model, x) == pytest.approx(float(a[0]), rel=1e-12)

    def test_batch_equals_scalar(self):
        ds = _toy()
        model, _, _ = mlp_train(ds, MLPConfig(hidden=(4,), epochs=1, seed=8))
        batch = mlp_forward(model, ds.X[:10])
        singles = [mlp_forward(model, x) for x in ds.X[:10]]
        np.testing.assert_allclose(batch, singles, rtol=1e-12, atol=1e-15)

    def test_shape_chain_validated(self):
        with pytest.raises(ValueError, match="shape chain"):
            MLPModel(
                weights=(np.zeros((2, 3)), np.zeros((4, 1))),
                biases=(np.zeros(3), np.zeros(1)),
                x_mean=np.zeros(2), x_std=np.ones(2),
            )
        with pytest.raises(ValueError, match="width 1"):
            MLPModel(
                weights=(np.zeros((2, 3)),),
                biases=(np.zeros(3),),
                x_mean=np.zeros(2), x_std=np.ones(2),
            )


class TestTraining:
    def test_learns_a_linear_map(self):
        """One hidden unit suffices for y = 2x on positive inputs."""
        x = np.linspace(0.5, 4.0, 64)
        ds = Dataset(x[:, None], 2.0 * x, (Interval(0.5, 4.0),))
        _, history, _ = mlp_train(ds, MLPConfig(hidden=(1,), epochs=500,
                                                batch_size=8, seed=1))
        assert history[-1] < 1e-3

    def test_history_has_one_entry_per_epoch(self):
        ds = _toy()
        _, history, seconds = mlp_train(ds, MLPConfig(hidden=(4,), epochs=7, seed=2))
        assert len(history) == 7
        assert all(np.isfinite(history))
        assert seconds > 0

    def test_same_seed_bitwise_identical(self):
        ds = _toy()
        cfg = MLPConfig(hidden=(6, 6), epochs=3, seed=21)
        m1, h1, _ = mlp_train(ds, cfg)
        m2, h2, _ = mlp_train(ds, cfg)
        assert h1 == h2
        for W1, W2 in zip(m1.weights, m2.weights):
            assert np.array_equal(W1, W2)
        for b1, b2 in zip(m1.biases, m2.biases):
            assert np.array_equal(b1, b2)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_and_names_the_epoch(self):
        ds = _toy(128, seed=9)
        with pytest.raises(DivergenceError, match="epoch"):
            mlp_train(ds, MLPConfig(hidden=(8, 8), epochs=50,
                                    learning_rate=1e3, seed=3))

    def test_plain_sgd_optimizer(self):
        """momentum=0 is plain SGD: one full-batch epoch moves every
        weight and bias by -learning_rate times its gradient."""
        ds = _toy()
        config = MLPConfig(hidden=(4,), epochs=1, learning_rate=0.05, momentum=0.0,
                           batch_size=len(ds), seed=11)
        trained, history, _ = mlp_train(ds, config)
        assert len(history) == 1
        rng = np.random.default_rng(config.seed)
        start = _init_model(ds.n, config, trained.x_mean, trained.x_std, rng)
        order = rng.permutation(len(ds))
        _, gW, gb = loss_and_grads(start, ds.X[order], ds.y[order])
        for got, w, g in zip(trained.weights + trained.biases,
                             start.weights + start.biases, gW + gb):
            np.testing.assert_array_equal(got, w - config.learning_rate * g)

    def test_empty_dataset_rejected(self):
        empty = Dataset(np.empty((0, 1)), np.empty(0), (Interval(0, 1),))
        with pytest.raises(ValueError, match="empty"):
            mlp_train(empty, MLPConfig(hidden=(2,), epochs=1))

    def test_constant_column_does_not_blow_up(self):
        X = np.column_stack([np.full(32, 3.0), np.linspace(0, 1, 32)])
        ds = Dataset(X, X[:, 1], (Interval(2.9, 3.1), Interval(0, 1)))
        model, history, _ = mlp_train(ds, MLPConfig(hidden=(4,), epochs=3, seed=12))
        assert np.isfinite(history[-1])
        assert np.all(model.x_std > 0)

