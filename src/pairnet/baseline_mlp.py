"""A from-scratch ReLU multilayer perceptron trained by backpropagation.

This is the gradient-descent comparator for the closed-form fitter: by
default a 20-hidden-layer, width-16 network trained for 500 epochs of
minibatch SGD with momentum. Inputs are standardized with statistics
from the training set (kept inside the model); without that, deep ReLU
stacks on raw inputs in the tens do not train at all. Everything is
plain numpy and deterministic given the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .datasets import Dataset

__all__ = [
    "MLPConfig",
    "MLPModel",
    "DivergenceError",
    "mlp_forward",
    "mlp_train",
    "loss_and_grads",
]


class DivergenceError(RuntimeError):
    """Training loss became non-finite."""


@dataclass(frozen=True)
class MLPConfig:
    hidden: tuple[int, ...] = (16,) * 20
    epochs: int = 500
    learning_rate: float = 1e-3
    momentum: float = 0.9  # 0.0 gives plain SGD
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if len(self.hidden) < 1:
            raise ValueError("need at least one hidden layer")
        if any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if not 0.0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning rate must be finite and nonnegative, "
                             f"got {self.learning_rate!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must lie in [0, 1), got {self.momentum!r}")


@dataclass(frozen=True)
class MLPModel:
    """Affine-ReLU chain with a linear scalar output plus the input
    standardizer baked in."""

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    x_mean: np.ndarray
    x_std: np.ndarray

    def __post_init__(self):
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up")
        for i, (W, b) in enumerate(zip(self.weights, self.biases)):
            if W.ndim != 2 or b.shape != (W.shape[1],):
                raise ValueError(f"layer {i}: W {W.shape} and b {b.shape} do not line up")
            if i > 0 and W.shape[0] != self.weights[i - 1].shape[1]:
                raise ValueError(f"layer {i}: input width {W.shape[0]} breaks the shape chain")
        if self.weights[-1].shape[1] != 1:
            raise ValueError("output layer must have width 1")
        if self.x_mean.shape != (self.weights[0].shape[0],) or self.x_std.shape != self.x_mean.shape:
            raise ValueError("standardizer shape does not match the input layer")


def _forward_cached(model: MLPModel, X: np.ndarray):
    z = (X - model.x_mean) / model.x_std
    pre, post = [], [z]
    last = len(model.weights) - 1
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        a = post[-1] @ W + b
        pre.append(a)
        post.append(a if i == last else np.maximum(a, 0.0))
    return pre, post


def mlp_forward(model: MLPModel, x):
    """Network output for a point (n,) or batch (N, n)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    out = _forward_cached(model, X)[1][-1][:, 0]
    return float(out[0]) if single else out


def loss_and_grads(model: MLPModel, X: np.ndarray, y: np.ndarray):
    """Mean squared error and its gradients w.r.t. every weight and bias."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    pre, post = _forward_cached(model, X)
    pred = post[-1][:, 0]
    resid = pred - y
    loss = float(np.mean(resid**2))

    grads_W = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = (2.0 * resid / len(y))[:, None]
    for i in range(len(model.weights) - 1, -1, -1):
        grads_W[i] = post[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (pre[i - 1] > 0.0)
    return loss, grads_W, grads_b


def _init_model(n_in: int, config: MLPConfig, x_mean, x_std, rng) -> MLPModel:
    widths = (n_in, *config.hidden, 1)
    weights, biases = [], []
    for fan_in, fan_out in zip(widths, widths[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(tuple(weights), tuple(biases), x_mean, x_std)


def mlp_train(dataset: Dataset, config: MLPConfig):
    """Minibatch backpropagation on the dataset.

    He-initialized, epoch-shuffled, and aborts with DivergenceError the
    first epoch whose full-train MSE is non-finite.

    Returns (MLPModel, per-epoch train MSE history, wall seconds).
    """
    if len(dataset) == 0:
        raise ValueError("cannot train on an empty dataset")
    rng = np.random.default_rng(config.seed)
    x_mean = dataset.X.mean(axis=0)
    x_std = dataset.X.std(axis=0)
    x_std = np.where(x_std < 1e-12, 1.0, x_std)

    t0 = time.perf_counter()
    model = _init_model(dataset.n, config, x_mean, x_std, rng)
    weights = [W.copy() for W in model.weights]
    biases = [b.copy() for b in model.biases]
    vel_W = [np.zeros_like(W) for W in weights]
    vel_b = [np.zeros_like(b) for b in biases]

    history = []
    N = len(dataset)
    # overflow on a diverging run is expected; the epoch MSE check reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            order = rng.permutation(N)
            for start in range(0, N, config.batch_size):
                batch = order[start:start + config.batch_size]
                current = MLPModel(tuple(weights), tuple(biases), x_mean, x_std)
                _, gW, gb = loss_and_grads(current, dataset.X[batch], dataset.y[batch])
                for i in range(len(weights)):
                    vel_W[i] = config.momentum * vel_W[i] - config.learning_rate * gW[i]
                    vel_b[i] = config.momentum * vel_b[i] - config.learning_rate * gb[i]
                    weights[i] = weights[i] + vel_W[i]
                    biases[i] = biases[i] + vel_b[i]
            current = MLPModel(tuple(weights), tuple(biases), x_mean, x_std)
            epoch_mse = float(np.mean((mlp_forward(current, dataset.X) - dataset.y) ** 2))
            if not np.isfinite(epoch_mse):
                raise DivergenceError(f"training diverged at epoch {epoch}: MSE = {epoch_mse}")
            history.append(epoch_mse)
    seconds = time.perf_counter() - t0
    return MLPModel(tuple(weights), tuple(biases), x_mean, x_std), history, seconds

