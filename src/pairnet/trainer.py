"""One-shot closed-form fitting of a pairwise network per partition cell.

For each cell the ridge objective sum (y - phi . p)^2 + ridge * |p|^2
over the cell's rows is minimized by one linear solve. The 2^(n+1)
features phi are a quadratic in the activations: phi = B T, with B the
d = 2 + s(s+1)/2 basis columns of model._quadratic_basis (s inputs with
a positive alpha) and T the closed-form map of model._quadratic_map,
of rank d. With T^T = Q R (Q's columns orthonormal), phi = C Q^T for
the reduced rows C = B R^T, and the ridge solution, which lies in T's
row space, is p = Q v with (C^T C + ridge I) v = C^T y: the same
problem, solved exactly in d unknowns instead of 2^(n+1).

fit routes the rows once (partition.route) and makes two blocked
sweeps, so rows are expanded one block at a time (bounded memory
regardless of data size). The first sweep reads the rows sorted by cell,
in blocks of at most _GRAM_ROWS rows that end on cell boundaries, builds
each block's reduced rows, each row in its own cell's box, adds each
cell's segment into that cell's C^T C and C^T y, and hands every cell
with enough rows to the Cholesky solver, in flat order. Cells with fewer
than 2^(n+1) rows do not determine the parameters; depending on policy
they either raise or fall back to a constant predictor at the target
mean. The second sweep predicts the rows as given, as B(g) . b through
the prediction table of the model fit builds, b = T [c; gamma] per cell:
the computation forward() makes (see model.py). The report's training
errors are read from those predictions and the model keeps the table,
so forward() on the training data reproduces them bitwise.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activation import LINEAR, ActivationKind, activate
from .datasets import Dataset
from .ioutil import write_csv_rows
from .linsolve import solve_spd
from .model import (
    LocalPairNet,
    PairNetModel,
    _check_alphas,
    _check_dim,
    _columns,
    _predict,
    _quadratic_basis,
    _quadratic_map,
    cell_boxes,
    feature_matrix,  # noqa: F401 - perfbench/tracing.py rebinds it here
    forward,
)
from .partition import Partition, route

__all__ = [
    "FitConfig",
    "SubspaceFit",
    "FitReport",
    "InsufficientDataError",
    "SubspaceFitError",
    "fit",
    "mse",
    "min_rows_threshold",
]


# Rows per Gram chunk: a cell's normal equations are summed over chunks of
# this many rows from the cell's start, and the first sweep's feature
# blocks hold at most this many rows.
_GRAM_ROWS = 4096


class InsufficientDataError(ValueError):
    """A cell had fewer rows than the 2^(n+1) parameter count."""


class SubspaceFitError(RuntimeError):
    """A per-cell failure, annotated with the cell's flat index."""


def min_rows_threshold(n: int) -> int:
    """Minimum rows a cell needs to determine its 2^(n+1) parameters."""
    return 2 ** (n + 1)


@dataclass(frozen=True)
class FitConfig:
    """How to fit: fusion weights, activation, regularization, policies.

    ridge=None uses the floor 1e-10 * trace(phi^T phi) / 2^(n+1) of the
    cell's full features phi; 0.0 requests plain least squares, its
    minimum-norm solution, since the 2^(n+1) features span only
    d = 2 + s(s+1)/2 dimensions (s inputs with a positive alpha). Each
    cell is solved in that d-dimensional basis, where the solver
    escalates the ridge only if the d x d system is singular, as it is
    for a cell whose rows do not determine the quadratic.
    activation_scope chooses what the Layer-1 activations normalize
    over: each cell ("subspace", the default) or the whole partition
    domain ("domain", which makes refinements exactly nested).
    """

    alphas: Sequence[float]
    activation: ActivationKind = LINEAR
    ridge: float | None = None
    min_rows_policy: str = "fallback_mean"
    activation_scope: str = "subspace"

    def __post_init__(self):
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        _check_alphas(self.alphas)
        if self.min_rows_policy not in ("fallback_mean", "error"):
            raise ValueError(f"unknown min_rows_policy {self.min_rows_policy!r}")
        if self.activation_scope not in ("subspace", "domain"):
            raise ValueError(f"unknown activation_scope {self.activation_scope!r}")
        if self.ridge is not None and not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")


@dataclass(frozen=True)
class SubspaceFit:
    """Per-cell solve record.

    residual is the norm of the solved d x d system's residual, which
    equals that of the full normal equations (G + ridge I) p - r because
    Q's columns are orthonormal.
    """

    index: int
    n_rows: int
    sse: float
    fallback: bool
    ridge: float | None
    escalations: int
    residual: float | None

    @property
    def mse(self) -> float:
        return self.sse / self.n_rows if self.n_rows else 0.0


@dataclass(frozen=True)
class FitReport:
    """Fit diagnostics: one record per cell plus global training error.

    fit_seconds is the wall time of the whole fit() call, from entry to
    the assembled model: routing, solves, training predictions and all.
    """

    subspaces: tuple[SubspaceFit, ...]
    train_mse: float
    fit_seconds: float

    @property
    def n_rows(self) -> int:
        return sum(s.n_rows for s in self.subspaces)

    def to_csv(self, path) -> None:
        write_csv_rows(path, [
            ["subspace", "n_rows", "sse", "mse", "fallback", "ridge", "escalations", "residual"],
            *([s.index, s.n_rows, repr(s.sse), repr(s.mse), int(s.fallback),
               "" if s.ridge is None else repr(s.ridge), s.escalations,
               "" if s.residual is None else repr(s.residual)] for s in self.subspaces),
        ])


def fit(dataset: Dataset, partition: Partition, config: FitConfig):
    """Fit one local network per cell: (PairNetModel, FitReport).

    The rows are routed once and read in two blocked sweeps, one that
    solves the cells and one that predicts the rows (see the module
    docstring). The report's per-cell SSEs and training MSE come from
    those predictions, which the returned model reproduces bitwise. A
    solve that overflows raises ValueError: a model refuses non-finite
    parameters. fit_seconds covers the whole call, from entry to the
    assembled model.
    """
    t0 = time.perf_counter()
    if len(dataset) == 0:
        raise ValueError("cannot fit an empty dataset")
    if dataset.n != partition.ndim:
        raise ValueError(f"dataset has {dataset.n} dims, partition has {partition.ndim}")
    if len(config.alphas) != dataset.n:
        raise ValueError(f"{len(config.alphas)} alphas for {dataset.n} inputs")
    _check_dim(dataset.n)
    # The sweeps' temporaries are freed when _fit returns, inside the timing.
    model, cells, train_mse = _fit(dataset, partition, config)
    report = FitReport(subspaces=cells, train_mse=train_mse,
                       fit_seconds=time.perf_counter() - t0)
    return model, report


def _fit(dataset: Dataset, partition: Partition, config: FitConfig):
    """fit's work after validation: (model, per-cell records, train MSE),
    the model carrying the table its training rows were predicted with."""
    size, m = partition.size, 2**dataset.n
    alphas = np.asarray(config.alphas)
    order, cells = route(partition, dataset)
    cell_of = cells[order]   # the sorted rows' cells, nondecreasing
    bounds = np.searchsorted(cell_of, np.arange(size + 1)).tolist()   # cell j: bounds[j:j + 2]
    X, y = np.take(dataset.X, order, axis=0), dataset.y[order]
    lo, hi = cell_boxes(partition, config.activation_scope)

    # Cells are solved in the reduced rows C = B R^T and lifted by Q
    # (see the module docstring).
    T, support = _quadratic_map(alphas)
    Q, R = np.linalg.qr(T.T)
    support_box, support_alphas = np.vstack([lo[support], hi[support]]), alphas[support]

    def reduced(start, stop):
        """Reduced rows C of sorted rows start..stop, each in its cell's box."""
        box = np.split(_columns(support_box, cell_of[start:stop]), 2)   # lo, hi (s, rows)
        g = activate(X[start:stop, support].T, *box, config.activation)
        return _quadratic_basis(g, support_alphas) @ R.T

    coords, fallback, diags = _solve_cells(reduced, len(T), y, bounds, partition, config)
    params = coords @ Q.T
    model = PairNetModel(
        partition=partition,
        locals=tuple(LocalPairNet(alphas, params[j, :m], params[j, m:],
                                  None if diag else float(fallback[j]))
                     for j, diag in enumerate(diags)),
        activation_scope=config.activation_scope, activation=config.activation,
        # Only the recipe goes in: provenance is serialized with the model,
        # and equal-seed runs must produce byte-identical files, so wall
        # clock stays on the report.
        provenance={
            "alphas": list(config.alphas),
            "activation": config.activation.tag,
            "activation_scope": config.activation_scope,
        },
    )
    # The model's own table: it predicts with it from here on. bincount adds
    # each cell's errors in ascending row order, the stable sort's order.
    pred = _predict(config.activation, model._table, dataset.X, cells)
    sse = np.bincount(cells, weights=(dataset.y - pred) ** 2, minlength=size)

    records = []
    for j, (count, diag) in enumerate(zip(np.diff(bounds).tolist(), diags)):
        solved = (diag.ridge, diag.escalations, diag.residual) if diag else (None, 0, None)
        records.append(SubspaceFit(j, count, float(sse[j]), diag is None, *solved))
    return model, tuple(records), _mean_squared_error(dataset.y, pred)


def _solve_cells(reduced, d, y, bounds, partition, config):
    """The first sweep, in flat cell order: each cell's reduced
    coordinates (one row of an (M, d) array) and solve record, or its
    fallback mean (an (M,) array, NaN where the cell is solved).

    ``reduced(start, stop)`` gives the d-wide reduced rows of the
    cell-sorted rows start..stop; ``bounds[j]:bounds[j + 1]`` are cell j's rows.
    Every solve uses the caller's ridge or, for ridge=None, the floor of
    the full 2^(n+1)-wide system, 1e-10 * trace(phi^T phi) / 2^(n+1):
    Q's columns are orthonormal, so that trace is the reduced Gram's.
    """
    n, size = partition.ndim, partition.size
    threshold = min_rows_threshold(n)
    coords = np.zeros((size, d))
    fallback = np.full(size, np.nan)
    diags = [None] * size
    block_start = block_stop = 0
    for j in range(size):
        a, b = bounds[j], bounds[j + 1]
        if b - a < threshold:
            if config.min_rows_policy == "error":
                exc = InsufficientDataError(
                    f"{b - a} rows < {threshold} parameters (2^(n+1) with n={n})"
                )
                raise _cell_error(partition, j, exc) from exc
            fallback[j] = np.mean(y[a:b]) if b > a else 0.0
            continue
        G = np.zeros((d, d))
        r = np.zeros(d)
        for start in range(a, b, _GRAM_ROWS):
            stop = min(start + _GRAM_ROWS, b)
            if start >= block_stop:
                # A new block: this chunk, then whole cells up to _GRAM_ROWS rows.
                reach = bounds[bisect.bisect_right(bounds, start + _GRAM_ROWS) - 1]
                block_start, block_stop = start, max(stop, reach)
                c_block = reduced(block_start, block_stop)
            c = c_block[start - block_start:stop - block_start]
            G += c.T @ c
            r += c.T @ y[start:stop]
        ridge = config.ridge
        if ridge is None:
            # 1e-10 * trace / 2^(n+1): the solver's floor 1e-10 * trace / d,
            # evaluated in that order, rescaled from d to 2^(n+1).
            ridge = 1e-10 * float(np.trace(G)) / d * d / 2 ** (n + 1)
        try:
            coords[j], diags[j] = solve_spd(G, r, ridge)
        except Exception as exc:
            raise _cell_error(partition, j, exc) from exc
    return coords, fallback, diags


def _cell_error(partition: Partition, j: int, exc: Exception) -> SubspaceFitError:
    return SubspaceFitError(f"subspace {j} {partition.decode(j)}: {exc}")


def _mean_squared_error(y: np.ndarray, pred: np.ndarray) -> float:
    return float(np.sum((y - pred) ** 2)) / len(y)


def mse(model: PairNetModel, dataset: Dataset) -> float:
    """Mean squared prediction error over the dataset."""
    if len(dataset) == 0:
        raise ValueError("MSE of an empty dataset is undefined")
    if dataset.n != model.n:
        raise ValueError(f"dataset has {dataset.n} dims, model has {model.n}")
    return _mean_squared_error(dataset.y, forward(model, dataset.X))
