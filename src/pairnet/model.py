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
from typing import Any

import numpy as np

from .activation import ActivationKind, activate
from .partition import Interval, Partition, group_by_cell, locate, locate_many

__all__ = [
    "MAX_DIM",
    "LocalPairNet",
    "PairNetModel",
    "layer2_weights",
    "betas",
    "feature_row",
    "feature_matrix",
    "scope_boxes",
    "block_rows",
    "predict_rows",
    "local_forward",
    "forward",
]

# 2^(n+1) parameters per cell: past ~20 inputs the fusion layer is
# astronomically wide, so refuse early with a clear message.
MAX_DIM = 20

_ALPHA_TOL = 1e-12

# Feature values per evaluation block (see block_rows). Predictions are
# row-local, so the blocking never changes a result, only its speed.
_BLOCK_VALUES = 1 << 15


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(
            f"input dimension {n} unsupported: each cell carries 2^(n+1) parameters, "
            f"which is intractable past n = {MAX_DIM}"
        )


def _check_alphas(alphas: np.ndarray) -> None:
    if (alphas < 0.0).any() or (alphas > 1.0).any():
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
    flat = g.reshape(-1, n).T
    return _fuse(flat, alphas).T.reshape(g.shape[:-1] + (2**n,))


def _fuse(g: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """layer2_weights without the checks, in column layout: g is (n, N)
    and w comes out (2^n, N), so every operation runs along the rows.

    The pattern table is built one input at a time, from the last input
    (least significant bit) to the first, so each w_k is the fixed-order
    sum a_0 + (a_1 + (... + a_{n-1})) with a_i = alpha_i * g_i or
    alpha_i * (1 - g_i). Every step is elementwise: a point's w depends
    on that point's g alone.
    """
    a = alphas[:, None]
    pairs = np.stack([g * a, (1.0 - g) * a], axis=1)   # (n, 2, N)
    w = pairs[-1]
    for i in range(g.shape[0] - 2, -1, -1):
        w = (pairs[i, :, None, :] + w[None, :, :]).reshape(-1, g.shape[1])
    return np.clip(w, 0.0, 1.0, out=w)


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


def feature_row(local: LocalPairNet, x) -> np.ndarray:
    """Feature vector phi of length 2^(n+1) with output = phi . [c; gamma]."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (local.n,):
        raise ValueError(f"expected point of shape ({local.n},), got {x.shape}")
    return feature_matrix(local, x[None, :])[0]


def feature_matrix(local: LocalPairNet, X: np.ndarray, bounds=None) -> np.ndarray:
    """Feature rows for a batch of points (N, n), shape (N, 2^(n+1)).

    The activations normalize over local.subspace, or over ``bounds``, a
    pair (lo, hi) of arrays broadcastable to X that gives each row its
    own box. Every step is elementwise, so a row's features do not
    depend on the other rows. Layers 2-3 run over block_rows(n) rows at
    a time, so their temporaries stay small.
    """
    X = np.asarray(X, dtype=np.float64)
    n, m = local.n, 2**local.n
    lo, hi = _box_bounds(local.subspace) if bounds is None else bounds
    # Column layout: (n, N) activations, so every operation runs along the rows.
    g = activate(np.ascontiguousarray(X.T), np.reshape(lo, (-1, n)).T,
                 np.reshape(hi, (-1, n)).T, local.activation)
    phi = np.empty((2 * m, g.shape[1]))    # column layout, returned transposed
    step = block_rows(n)
    for start in range(0, g.shape[1], step):
        cols = slice(start, start + step)
        w = _fuse(g[:, cols], local.alphas)
        b = np.divide(w, 2.0 ** (n - 1), out=phi[:m, cols])   # Layer 4's betas
        theta = np.subtract(1.0, w, out=w)
        theta *= 0.5
        np.multiply(b, theta, out=phi[m:, cols])
    return phi.T


def block_rows(n: int) -> int:
    """Rows per evaluation block for n inputs: about _BLOCK_VALUES
    feature values, so a block's temporaries stay in cache."""
    return max(1, _BLOCK_VALUES >> (n + 1))


def scope_boxes(partition: Partition, scope: str) -> tuple[tuple[Interval, ...], ...]:
    """Each cell's activation box, in flat order: the cell itself
    ("subspace" scope) or the partition's whole domain ("domain")."""
    if scope == "subspace":
        return partition.cells
    return (partition.domain,) * partition.size


def _box_bounds(box) -> tuple[np.ndarray, np.ndarray]:
    """The (lo, hi) arrays of a box of intervals."""
    return np.array([iv.lo for iv in box]), np.array([iv.hi for iv in box])


def predict_rows(phi: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Row-local prediction phi . params for feature rows (N, d).

    params is (d,) or one vector per row (N, d). The products are summed
    by halving the columns, a fixed order over each row, so a row's
    prediction is bitwise the same whatever batch it sits in.
    """
    s = phi * params
    half = s.shape[1] // 2
    while half:
        np.add(s[:, :half], s[:, half:2 * half], out=s[:, :half])
        half //= 2
    return s[:, 0]


def local_forward(local: LocalPairNet, x):
    """Evaluate one cell's network at a point (n,) or batch (N, n).

    A batch is evaluated in blocks of block_rows(n) rows; each row's
    value is the same as for that point alone.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[None, :] if single else x
    if local.fallback_mean is not None:
        out = np.full(X.shape[0], local.fallback_mean)
    else:
        params = local.params
        bounds = _box_bounds(local.subspace)
        out = np.empty(X.shape[0])
        step = block_rows(local.n)
        for start in range(0, X.shape[0], step):
            stop = start + step
            out[start:stop] = predict_rows(feature_matrix(local, X[start:stop], bounds), params)
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
        boxes = scope_boxes(self.partition, self.activation_scope)
        for j, (loc, expected) in enumerate(zip(self.locals, boxes)):
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
