"""Forward pass of the four-layer pairwise network.

Layer 1 turns each input into the complementary pair (g_i, 1 - g_i) over
the cell's interval. Layer 2 fuses the pairs into 2^n convex weights
w_k: term k combines, per input i, either g_i or its complement, chosen
by bit i of k with dimension 0 the most significant bit (k = 0 is the
all-positive pattern, k = 2^n - 1 the all-complement one). Layer 3 forms
the per-term decisions ybar_k = c_k + theta_k * gamma_k with
theta_k = (1 - w_k) / 2, and Layer 4 averages them with the normalized
weights beta_k = w_k / 2^(n-1).

The output is linear in the trainable (c, gamma): it equals the dot
product of a feature row [beta, beta * theta] with [c; gamma], which is
what makes one-shot least-squares fitting possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Any

import numpy as np

from .activation import ActivationKind, pair_activation
from .partition import Interval, Partition, group_by_cell, locate, locate_many

__all__ = [
    "MAX_DIM",
    "LocalPairNet",
    "PairNetModel",
    "layer2_weights",
    "betas",
    "feature_row",
    "feature_matrix",
    "local_forward",
    "forward",
]

# 2^(n+1) parameters per cell: past ~20 inputs the fusion layer is
# astronomically wide, so refuse early with a clear message.
MAX_DIM = 20

_ALPHA_TOL = 1e-12

# Rows per feature block, in the trainer's Gram loop and in predictions:
# bounds the (rows, 2^(n+1)) feature matrix in memory, and evaluating a
# cell's rows in the same blocks at fit and at eval keeps the training
# MSE reproducible bitwise.
_BLOCK_ROWS = 4096


@lru_cache(maxsize=None)
def _selector(n: int) -> np.ndarray:
    """(2^n, n) table: entry [k, i] is 1 when term k takes 1 - g_i."""
    k = np.arange(2**n, dtype=np.int64)
    return ((k[:, None] >> (n - 1 - np.arange(n))) & 1).astype(np.float64)


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(
            f"input dimension {n} unsupported: each cell carries 2^(n+1) parameters, "
            f"which is intractable past n = {MAX_DIM}"
        )


def _check_alphas(alphas: np.ndarray) -> None:
    if np.any(alphas < 0.0) or np.any(alphas > 1.0):
        raise ValueError(f"alphas must lie in [0, 1], got {alphas.tolist()}")
    if abs(float(alphas.sum()) - 1.0) > _ALPHA_TOL:
        raise ValueError(f"alphas must sum to 1 within {_ALPHA_TOL:g}, got sum {alphas.sum()!r}")


def layer2_weights(g, alphas) -> np.ndarray:
    """Fusion weights w of shape (..., 2^n) from activations g (..., n).

    w_k is the alpha-weighted sum over inputs of g_i or 1 - g_i per the
    selector bit pattern of k. Each w_k lies in [0, 1] and the w sum to
    2^(n-1) whenever the alphas sum to 1.
    """
    g = np.asarray(g, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    n = g.shape[-1]
    if alphas.shape != (n,):
        raise ValueError(f"alphas shape {alphas.shape} does not match {n} inputs")
    _check_alphas(alphas)
    sel = _selector(n)
    base = sel @ alphas                      # contribution of the complemented inputs
    w = base + g @ ((1.0 - 2.0 * sel) * alphas).T
    return np.clip(w, 0.0, 1.0)


def betas(w) -> np.ndarray:
    """Layer-4 mixing weights: w normalized by the analytic sum 2^(n-1)."""
    w = np.asarray(w, dtype=np.float64)
    m = w.shape[-1]
    n = m.bit_length() - 1
    if 2**n != m:
        raise ValueError(f"fusion weight count {m} is not a power of two")
    return w / 2.0 ** (n - 1)


@dataclass(frozen=True)
class LocalPairNet:
    """One cell's fitted network.

    ``subspace`` holds the intervals the activations normalize over
    (the cell itself, or the whole domain for domain-scoped fits). When
    ``fallback_mean`` is set the cell had too few rows and the model is
    the constant predictor at that value; c and gamma are then inert.
    """

    n: int
    alphas: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    subspace: tuple[Interval, ...]
    activation: ActivationKind = ActivationKind("linear")
    fallback_mean: float | None = None

    def __post_init__(self):
        _check_dim(self.n)
        object.__setattr__(self, "alphas", np.asarray(self.alphas, dtype=np.float64))
        object.__setattr__(self, "c", np.asarray(self.c, dtype=np.float64))
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=np.float64))
        if self.alphas.shape != (self.n,):
            raise ValueError(f"alphas must have shape ({self.n},), got {self.alphas.shape}")
        _check_alphas(self.alphas)
        m = 2**self.n
        if self.c.shape != (m,):
            raise ValueError(f"c must have length {m}, got shape {self.c.shape}")
        if self.gamma.shape != (m,):
            raise ValueError(f"gamma must have length {m}, got shape {self.gamma.shape}")
        if len(self.subspace) != self.n:
            raise ValueError(f"subspace must have {self.n} intervals, got {len(self.subspace)}")

    @property
    def params(self) -> np.ndarray:
        """Stacked parameter vector [c; gamma] of length 2^(n+1)."""
        return np.concatenate([self.c, self.gamma])


def _activations(local: LocalPairNet, X: np.ndarray) -> np.ndarray:
    cols = [pair_activation(X[..., i], iv, local.activation)[0]
            for i, iv in enumerate(local.subspace)]
    return np.stack(cols, axis=-1)


def feature_row(local: LocalPairNet, x) -> np.ndarray:
    """Feature vector phi of length 2^(n+1) with output = phi . [c; gamma]."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (local.n,):
        raise ValueError(f"expected point of shape ({local.n},), got {x.shape}")
    return feature_matrix(local, x[None, :])[0]


def feature_matrix(local: LocalPairNet, X: np.ndarray) -> np.ndarray:
    """Feature rows for a batch of points, shape (N, 2^(n+1))."""
    X = np.asarray(X, dtype=np.float64)
    g = _activations(local, X)
    w = layer2_weights(g, local.alphas)
    b = betas(w)
    theta = 0.5 * (1.0 - w)
    return np.concatenate([b, b * theta], axis=-1)


def local_forward(local: LocalPairNet, x):
    """Evaluate one cell's network at a point (n,) or batch (N, n).

    A batch is evaluated in blocks of _BLOCK_ROWS rows.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if local.fallback_mean is not None:
        out = np.full(X.shape[0], local.fallback_mean)
    else:
        params = local.params
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            out[start:stop] = feature_matrix(local, X[start:stop]) @ params
    return float(out[0]) if single else out


@dataclass(frozen=True)
class PairNetModel:
    """A partition plus one fitted LocalPairNet per cell, in flat order.

    ``activation_scope`` records what the activations normalize over:
    "subspace" (each local uses its own cell) or "domain" (all locals
    share the partition's domain box). Provenance is free-form metadata
    and never participates in equality.
    """

    partition: Partition
    locals: tuple[LocalPairNet, ...]
    activation_scope: str = "subspace"
    provenance: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.activation_scope not in ("subspace", "domain"):
            raise ValueError(f"unknown activation scope {self.activation_scope!r}")
        if len(self.locals) != self.partition.size:
            raise ValueError(
                f"model has {len(self.locals)} locals but partition has "
                f"{self.partition.size} cells"
            )
        for j, loc in enumerate(self.locals):
            expected = (self.partition.cell(j) if self.activation_scope == "subspace"
                        else self.partition.domain)
            if loc.subspace != expected:
                raise ValueError(
                    f"local {j}: subspace {loc.subspace} does not match the "
                    f"partition's ({self.activation_scope} scope)"
                )

    @property
    def n(self) -> int:
        return self.partition.ndim

    def __eq__(self, other):
        if not isinstance(other, PairNetModel):
            return NotImplemented
        if self.partition != other.partition or self.activation_scope != other.activation_scope:
            return False
        return len(self.locals) == len(other.locals) and all(
            a.n == b.n
            and np.array_equal(a.alphas, b.alphas)
            and np.array_equal(a.c, b.c)
            and np.array_equal(a.gamma, b.gamma)
            and a.subspace == b.subspace
            and a.activation == b.activation
            and a.fallback_mean == b.fallback_mean
            for a, b in zip(self.locals, other.locals)
        )

    __hash__ = None


def forward(model: PairNetModel, x):
    """Evaluate the model at a point (n,) or batch (N, n).

    Each point is routed to its cell's local network; points on interior
    breakpoints belong to the upper cell, and points outside the domain
    use the nearest boundary cell. A batch is grouped by cell as route()
    groups it, so on the training rows this repeats fit's predictions
    bitwise.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return local_forward(model.locals[locate(model.partition, x)], x)
    groups = group_by_cell(locate_many(model.partition, x), model.partition.size)
    out = np.empty(x.shape[0])
    for local, rows in zip(model.locals, groups):
        if len(rows):
            out[rows] = local_forward(local, x[rows])
    return out
