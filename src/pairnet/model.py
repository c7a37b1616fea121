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

Within a cell's box those 2^(n+1) features are F = B T, with B the
quadratic basis [1, g_i, g_i g_j (i < j), sum_i alpha_i^2 g_i^2] of
d = 2 + n(n+1)/2 columns and T the closed-form map of _quadratic_map.
Prediction never builds F: each cell carries b = T [c; gamma] (d values)
in the model's prediction table, and a row predicts B(g) . b. fit's
training predictions, forward() and local_forward() share that kernel,
_predict, and fit predicts through the table of the model it returns.
Every step is elementwise or a sum in an order set by n alone
(_fixed_sum), so a cell's b is bitwise the same in any table, and a row
predicts bitwise the same in any batch and in any row order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

import numpy as np

from .activation import LINEAR, ActivationKind, activate
from .partition import Partition, _checked_points, locate_many

__all__ = [
    "MAX_DIM",
    "LocalPairNet",
    "PairNetModel",
    "feature_matrix",
    "cell_boxes",
    "block_rows",
    "local_forward",
    "forward",
]

# 2^(n+1) parameters per cell: past ~20 inputs the fusion layer is
# astronomically wide, so refuse early with a clear message.
MAX_DIM = 20

_ALPHA_TOL = 1e-12

# What a model's activations may normalize over (see cell_boxes).
SCOPES = ("subspace", "domain")

# Basis values per evaluation block (see block_rows), and per block of
# _coefficients' products. Predictions are row-local, so the blocking
# never changes a result, only its speed.
_BLOCK_VALUES = 1 << 15

# Rows per block of forward: each block is routed and predicted on its
# own, so forward's temporaries stay this size.
_FORWARD_ROWS = 1 << 15


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIM:
        raise ValueError(
            f"input dimension {n} unsupported: each cell carries 2^(n+1) parameters, "
            f"which is intractable past n = {MAX_DIM}"
        )


def _check_alphas(alphas) -> None:
    """Refuse fusion weights outside [0, 1] or off the unit sum; a NaN
    fails both comparisons, so it is refused too."""
    alphas = np.asarray(alphas, dtype=np.float64)
    if not ((alphas >= 0.0) & (alphas <= 1.0)).all():
        raise ValueError(f"alphas must lie in [0, 1], got {alphas.tolist()}")
    total = float(alphas.sum())
    if not abs(total - 1.0) <= _ALPHA_TOL:
        raise ValueError(f"alphas must sum to 1 within {_ALPHA_TOL:g}, got sum {total!r}")


def _fuse(g: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Layer 2's fusion weights w (2^n, N) from activations g (n, N) and
    alphas a (n, 1), in column layout, so every operation runs along the
    rows.

    w_k sums a_i = alpha_i * g_i or alpha_i * (1 - g_i), chosen by bit i
    of k, in the fixed order a_0 + (a_1 + (... + a_{n-1})): the pattern
    table is built from the last input (least significant bit) to the
    first. Every step is elementwise, so a point's w depends on its g
    alone. Each w_k lies in [0, 1], and the w sum to 2^(n-1) when the
    alphas sum to 1.
    """
    pairs = np.stack([g * a, (1.0 - g) * a], axis=1)   # (n, 2, N)
    w = pairs[-1]
    for i in range(g.shape[0] - 2, -1, -1):
        w = (pairs[i, :, None, :] + w[None, :, :]).reshape(-1, g.shape[1])
    return np.clip(w, 0.0, 1.0, out=w)


@dataclass(frozen=True)
class LocalPairNet:
    """One cell's fitted network: its numbers alone.

    The box its activations normalize over and the activation itself
    belong to the model (see cell_boxes). When ``fallback_mean`` is set
    the cell had too few rows and the model is the constant predictor at
    that value; c and gamma are then inert. ``alphas``, ``c`` and
    ``gamma`` are stored as read-only copies.
    """

    alphas: np.ndarray
    c: np.ndarray
    gamma: np.ndarray
    fallback_mean: float | None = None

    def __post_init__(self):
        # Read-only copies: a model caches its prediction table from its
        # locals, so an in-place edit would go unseen; edit with
        # dataclasses.replace instead.
        for name in ("alphas", "c", "gamma"):
            value = np.array(getattr(self, name), dtype=np.float64)
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        if self.alphas.ndim != 1:
            raise ValueError(f"alphas must be one-dimensional, got shape {self.alphas.shape}")
        _check_dim(self.n)
        _check_alphas(self.alphas)
        m = 2**self.n
        if self.c.shape != (m,):
            raise ValueError(f"c must have length {m}, got shape {self.c.shape}")
        if self.gamma.shape != (m,):
            raise ValueError(f"gamma must have length {m}, got shape {self.gamma.shape}")
        if self.fallback_mean is not None and not np.isfinite(self.fallback_mean):
            raise ValueError(f"fallback_mean must be finite, got {self.fallback_mean!r}")

    @property
    def n(self) -> int:
        return len(self.alphas)

    @property
    def params(self) -> np.ndarray:
        """Stacked parameter vector [c; gamma] of length 2^(n+1)."""
        return np.concatenate([self.c, self.gamma])


def feature_matrix(local: LocalPairNet, X: np.ndarray, box,
                   activation: ActivationKind = LINEAR) -> np.ndarray:
    """Feature rows for a batch of points (N, n), shape (N, 2^(n+1)).

    This is the one literal definition of the four layers: activations
    over the box (lo, hi), two length-n arrays, fusion with local.alphas,
    and per row the Layer-4 betas beta_k = w_k / 2^(n-1) followed by
    beta_k * theta_k, so the output is this row . [c; gamma]. Prediction
    never builds these rows (see _predict); they serve reference and
    inspection.
    """
    X = np.asarray(X, dtype=np.float64)
    lo, hi = (np.asarray(end, dtype=np.float64)[:, None] for end in box)
    # Column layout: (n, N) activations, so every operation runs along the rows.
    g = activate(X.T, lo, hi, activation)
    w = _fuse(g, local.alphas[:, None])
    beta = w / 2.0 ** (local.n - 1)    # Layer 4's betas
    return np.vstack([beta, beta * ((1.0 - w) * 0.5)]).T


def _selector_bits(n: int, start: int, stop: int) -> np.ndarray:
    """Selector bits (n, stop - start) of terms start..stop: bit i of k,
    dimension 0 the most significant."""
    return (np.arange(start, stop)[None, :] >> (n - 1 - np.arange(n))[:, None]) & 1


def _map_columns(alphas: np.ndarray, bits: np.ndarray, offset: np.ndarray, n: int):
    """T's columns (see _quadratic_map) for K terms: the beta columns and
    the beta * theta columns, (2 + s(s+1)/2, K) each, from the alphas
    (s,) and selector bits (s, K) of s inputs and the terms' offsets (K,)."""
    slope = alphas[:, None] * (1.0 - 2.0 * bits)   # (s, K)
    i, j = np.triu_indices(len(alphas), 1)
    beta = np.vstack([offset, slope, np.zeros((len(i) + 1, len(offset)))]) / 2.0 ** (n - 1)
    beta_theta = np.vstack([offset - offset**2, slope * (1.0 - 2.0 * offset),
                            -2.0 * slope[i] * slope[j], np.full(len(offset), -1.0)]) / 2.0**n
    return beta, beta_theta


def _quadratic_map(alphas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(T, S): the closed-form map from the quadratic basis to the features.

    Within its box a cell's features are quadratic in its activations g:
    feature_matrix = _quadratic_basis(g[S], alphas[S]) @ T, where S is the
    support of the alphas (the inputs with alpha_i > 0) and T has
    d = 2 + s(s+1)/2 rows, s = len(S), and rank d. Term k has selector
    bits b_i (bit i of k, dimension 0 the most significant), signs
    sigma_i = 1 - 2 b_i and offset a_k = sum_i alpha_i b_i, so
    w_k = a_k + sum_i alpha_i sigma_i g_i; its beta column is
    [a_k, alpha_i sigma_i, 0, 0] / 2^(n-1) and its beta * theta column,
    beta * theta = w_k (1 - w_k) / 2^n, is
    [a_k - a_k^2, alpha_i sigma_i (1 - 2 a_k), -2 alpha_i alpha_j sigma_i sigma_j, -1] / 2^n.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    n = len(alphas)
    support = np.flatnonzero(alphas > 0.0)
    bits = _selector_bits(n, 0, 2**n)
    T = _map_columns(alphas[support], bits[support], alphas @ bits, n)
    return np.hstack(T), support


def _quadratic_basis(g: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """Basis rows (N, 2 + s(s+1)/2) of activations g (s, N) on the
    support, with the support's alphas (s,): [1, g_i, g_i g_j (i < j),
    sum_i alpha_i^2 g_i^2], in _quadratic_map's row order."""
    i, j = np.triu_indices(len(g), 1)
    squares = (alphas[:, None] ** 2 * g**2).sum(axis=0)
    return np.vstack([np.ones(g.shape[1]), g, g[i] * g[j], squares]).T


def _width(n: int) -> int:
    """d = 2 + n(n+1)/2, the quadratic basis's width over all n inputs."""
    return 2 + n * (n + 1) // 2


def block_rows(n: int) -> int:
    """Rows per evaluation block for n inputs: about _BLOCK_VALUES
    basis values, so a block's temporaries stay in cache."""
    return max(1, _BLOCK_VALUES // _width(n))


def cell_boxes(partition: Partition, scope: str) -> tuple[np.ndarray, np.ndarray]:
    """Every cell's activation box as (n, M) arrays lo, hi, column j for
    flat cell j: the cell itself ("subspace" scope) or the partition's
    whole domain ("domain")."""
    edges = [np.asarray(e) for e in partition.edges]
    if scope == "subspace":
        digits = np.unravel_index(np.arange(partition.size), partition.counts)
        return tuple(np.array([e[k + end] for e, k in zip(edges, digits)]) for end in (0, 1))
    return tuple(np.repeat([[e[end]] for e in edges], partition.size, axis=1) for end in (0, -1))


def _fixed_sum(s: np.ndarray) -> np.ndarray:
    """Sum over the first axis of s, in place, in an order set by its
    length alone: while k > 1 slices remain, the last k // 2 are added
    onto the first k // 2. Each output element sums its own column."""
    k = len(s)
    while k > 1:
        half = k // 2
        np.add(s[:half], s[k - half:k], out=s[:half])
        k -= half
    return s[0]


def _coefficients(alphas: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Each cell's basis coefficients b = T [c; gamma], (d, M), from its
    alphas (n, M) and [c; gamma] (2^(n+1), M), with T over all n inputs
    (an input with alpha_i = 0 has zero rows).

    T is built once per distinct alphas column and a block of terms at a
    time, never whole: a power of two of them, about _BLOCK_VALUES / d.
    Each block's products are summed by _fixed_sum and the blocks are
    added in term order, an order set by n alone, so a cell's b depends
    on its own alphas and parameters only, bitwise.
    """
    n, size = alphas.shape
    m, d = 2**n, _width(n)
    terms = min(m, 1 << max(0, (_BLOCK_VALUES // d).bit_length() - 1))
    chunk = max(1, _BLOCK_VALUES // (terms * d))   # cells per block of products
    b = np.empty((d, size))
    order = np.lexsort(alphas[::-1])   # cells with equal alphas end up adjacent
    ordered = alphas[:, order]
    starts = np.flatnonzero((ordered[:, 1:] != ordered[:, :-1]).any(axis=0)) + 1
    for members in np.split(order, starts):
        a = alphas[:, members[0]]
        for start in range(0, m, terms):
            bits = _selector_bits(n, start, start + terms)
            beta, beta_theta = (np.ascontiguousarray(t.T)[:, :, None] for t in
                                _map_columns(a, bits, _fixed_sum(a[:, None] * bits), n))
            for first in range(0, len(members), chunk):
                cols = members[first:first + chunk]
                c = params[start:start + terms, None, cols]
                gamma = params[m + start:m + start + terms, None, cols]
                part = _fixed_sum(beta * c + beta_theta * gamma)   # (terms, d, cells)
                b[:, cols] = part if start == 0 else b[:, cols] + part
    return b


def _prediction_table(lo, hi, alphas, params, means) -> np.ndarray:
    """_predict's table (3n + d, M), one column per cell: the box ends
    lo, hi (n, M), the squared alphas and the coefficients b (d, M),
    stacked; from the alphas (n, M), [c; gamma] (2^(n+1), M) and the
    fallback means (M,), NaN where solved. A fallback cell's b is
    [mean, 0, ..., 0], so it predicts its mean exactly."""
    b = _coefficients(alphas, params)
    fallback = ~np.isnan(means)
    b[:, fallback] = 0.0
    b[0, fallback] = means[fallback]
    return np.vstack([lo, hi, alphas * alphas, b])


def _stacked(locs) -> tuple[np.ndarray, ...]:
    """A sequence of locals as columns: alphas (n, M), [c; gamma]
    (2^(n+1), M) and fallback means (M,), NaN where solved."""
    alphas, c, gamma = (np.array([getattr(loc, k) for loc in locs]) for k in ("alphas", "c", "gamma"))
    return (alphas.T.copy(), np.hstack([c, gamma]).T.copy(),
            np.array([loc.fallback_mean for loc in locs], dtype=float))  # None -> NaN


def _columns(table: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Each row's column of a per-cell table (k, M), as (k, rows), for
    rows in any order: rows that all lie in one cell share its column,
    a view."""
    if (cells == cells[0]).all():
        return table[:, cells[0], None]
    return np.take(table, cells, axis=1)


def _predict(activation: ActivationKind, table: np.ndarray, X: np.ndarray, cells: np.ndarray):
    """Predictions B(g) . b for rows X (N, n) in any order, where
    B(g) = [1, g_i, g_i g_j (i < j), sum_i alpha_i^2 g_i^2] over all n
    inputs; table is _prediction_table's and cells[i] is row i's column.
    Each block of block_rows(n) rows is elementwise and each row's d
    products are summed by _fixed_sum: a row's value is its own.
    """
    n = X.shape[1]
    i, j = np.triu_indices(n, 1)
    out = np.empty(len(X))
    step = block_rows(n)
    for start in range(0, len(X), step):
        rows = slice(start, start + step)
        cols = _columns(table, cells[rows])
        lo, hi, squares, b = cols[:n], cols[n:2 * n], cols[2 * n:3 * n], cols[3 * n:]
        g = activate(np.ascontiguousarray(X[rows].T), lo, hi, activation)   # (n, rows)
        terms = np.empty((len(b), g.shape[1]))
        terms[0] = b[0]
        np.multiply(g, b[1:n + 1], out=terms[1:n + 1])
        np.multiply(g[i], g[j], out=terms[n + 1:-1])
        terms[n + 1:-1] *= b[n + 1:-1]
        np.multiply(_fixed_sum(squares * g * g), b[-1], out=terms[-1])
        out[rows] = _fixed_sum(terms)
    return out


def local_forward(local: LocalPairNet, x, box, activation: ActivationKind = LINEAR):
    """Evaluate one cell's network, with activations over the box (lo, hi),
    at a point (n,) or batch (N, n).

    A batch is evaluated in blocks of block_rows(n) rows; each row's
    value is the same as for that point alone.
    """
    x = np.asarray(x, dtype=np.float64)
    X = x[None, :] if x.ndim == 1 else x
    lo, hi = (np.asarray(end, dtype=np.float64)[:, None] for end in box)
    table = _prediction_table(lo, hi, *_stacked([local]))
    out = _predict(activation, table, X, np.zeros(len(X), dtype=np.intp))
    return float(out[0]) if x.ndim == 1 else out


@dataclass(frozen=True)
class PairNetModel:
    """A partition plus one fitted LocalPairNet per cell, in flat order.

    ``activation_scope`` records what the activations normalize over:
    "subspace" (each local uses its own cell) or "domain" (all locals
    share the partition's domain box); cell_boxes gives the boxes. Every
    local uses ``activation``. Provenance is free-form metadata and never
    participates in equality. The locals are stacked once into columns
    (_cells), which prediction, equality and save_model read; a non-finite
    c or gamma is refused there, a fallback cell's inert ones too.
    """

    partition: Partition
    locals: tuple[LocalPairNet, ...]
    activation_scope: str = "subspace"
    activation: ActivationKind = LINEAR
    provenance: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.activation_scope not in SCOPES:
            raise ValueError(f"unknown activation_scope {self.activation_scope!r}")
        if len(self.locals) != self.partition.size:
            raise ValueError(
                f"model has {len(self.locals)} locals but partition has "
                f"{self.partition.size} cells"
            )
        for j, loc in enumerate(self.locals):
            if loc.n != self.n:
                raise ValueError(f"local {j} has {loc.n} inputs, partition has {self.n}")
        finite = np.isfinite(self._cells[1]).all(axis=0)
        if not finite.all():
            j = int(np.argmin(finite))
            name = "c" if not np.isfinite(self.locals[j].c).all() else "gamma"
            raise ValueError(f"locals[{j}].{name} contains non-finite values: "
                             f"{getattr(self.locals[j], name).tolist()}")

    @property
    def n(self) -> int:
        return self.partition.ndim

    @cached_property
    def _cells(self) -> tuple[np.ndarray, ...]:
        """The locals as columns (see _stacked), stacked once."""
        return _stacked(self.locals)

    @cached_property
    def _table(self) -> np.ndarray:
        """The prediction table, built from _cells on first use."""
        return _prediction_table(*cell_boxes(self.partition, self.activation_scope),
                                 *self._cells)

    def __eq__(self, other):
        if not isinstance(other, PairNetModel):
            return NotImplemented
        return (self.partition == other.partition
                and self.activation_scope == other.activation_scope
                and self.activation == other.activation
                and all(np.array_equal(a, b, equal_nan=True)
                        for a, b in zip(self._cells, other._cells)))

    __hash__ = None


def forward(model: PairNetModel, x):
    """Evaluate the model at a point (n,) or batch (N, n).

    Each point is routed to its cell's local network; points on interior
    breakpoints belong to the upper cell, and points outside the domain
    use the nearest boundary cell. A batch is taken _FORWARD_ROWS rows
    at a time, each block routed and predicted in the order given, so no
    temporary grows with the batch. Every row's value is its own (see
    _predict), so on the training rows this repeats fit bitwise.
    """
    x = np.asarray(x, dtype=np.float64)
    X = _checked_points(model.partition, x[None, :] if x.ndim == 1 else x)
    out = np.empty(len(X))
    for start in range(0, len(X), _FORWARD_ROWS):
        rows = slice(start, start + _FORWARD_ROWS)
        out[rows] = _predict(model.activation, model._table, X[rows],
                             locate_many(model.partition, X[rows]))
    return float(out[0]) if x.ndim == 1 else out
