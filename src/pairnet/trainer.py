"""One-shot closed-form fitting of a pairwise network per partition cell.

For each cell the quadratic objective Q = 1/2 * sum (y - phi . p)^2 over
the cell's rows is minimized by solving its normal equations G p = r,
with G = sum phi phi^T and r = sum phi y over the cell's rows. fit
routes the rows once, sorts them by cell and makes two blocked sweeps
over the sorted rows, so features exist one block at a time (bounded
memory regardless of data size). The first sweep builds each block's
features in one call, each row in its own cell's box, adds each cell's
segment into that cell's G and r, and hands every cell with enough rows
to the Cholesky solver. Cells with fewer than 2^(n+1) rows cannot
determine the parameters; depending on policy they either raise or fall
back to a constant predictor at the target mean. The second sweep
predicts every row with the prediction kernel forward() uses, and every
training error in the report is read from those predictions.
"""

from __future__ import annotations

import bisect
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .activation import ActivationKind, LINEAR
from .datasets import Dataset
from .linsolve import DenseSystem, solve_spd
from .model import (
    LocalPairNet,
    PairNetModel,
    _columns,
    _predict,
    feature_matrix,
    forward,
    scope_boxes,
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

    ridge=None uses the solver's auto floor; 0.0 requests the plain
    normal equations (the solver still escalates if they are singular,
    which for this model family they typically are).
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
        if self.min_rows_policy not in ("fallback_mean", "error"):
            raise ValueError(f"unknown min_rows_policy {self.min_rows_policy!r}")
        if self.activation_scope not in ("subspace", "domain"):
            raise ValueError(f"unknown activation_scope {self.activation_scope!r}")
        if self.ridge is not None and not 0 <= self.ridge < np.inf:
            raise ValueError(f"ridge must be finite and nonnegative, got {self.ridge}")


@dataclass(frozen=True)
class SubspaceFit:
    """Per-cell solve record."""

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
        import csv
        import io

        from .ioutil import atomic_write_text

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(
            ["subspace", "n_rows", "sse", "mse", "fallback", "ridge", "escalations", "residual"]
        )
        for s in self.subspaces:
            writer.writerow(
                [s.index, s.n_rows, repr(s.sse), repr(s.mse), int(s.fallback),
                 "" if s.ridge is None else repr(s.ridge), s.escalations,
                 "" if s.residual is None else repr(s.residual)]
            )
        atomic_write_text(path, buf.getvalue())


def fit(dataset: Dataset, partition: Partition, config: FitConfig):
    """Fit one local network per cell, in two blocked sweeps over the rows.

    Rows are routed to cells once and sorted by cell. The first sweep
    reads the sorted rows in blocks of at most _GRAM_ROWS rows that end
    on cell boundaries (a larger cell is read every _GRAM_ROWS rows from
    its start), builds each block's features in one call, each row in
    its own cell's box, and solves every cell with enough rows from its
    segments' Gram sums, in flat order. The second sweep predicts every
    row with the kernel forward() and local_forward() use, so the
    per-cell SSEs and the training MSE come from one prediction array,
    and forward() on the training data reproduces it bitwise. fit_seconds
    covers the whole call, from entry to the assembled model.

    Returns (PairNetModel, FitReport).
    """
    t0 = time.perf_counter()
    if len(dataset) == 0:
        raise ValueError("cannot fit an empty dataset")
    if dataset.n != partition.ndim:
        raise ValueError(f"dataset has {dataset.n} dims, partition has {partition.ndim}")
    if len(config.alphas) != dataset.n:
        raise ValueError(f"{len(config.alphas)} alphas for {dataset.n} inputs")
    # The sweeps' temporaries are freed when _fit returns, inside the timing.
    model, cells, train_mse = _fit(dataset, partition, config)
    report = FitReport(subspaces=cells, train_mse=train_mse,
                       fit_seconds=time.perf_counter() - t0)
    return model, report


def _fit(dataset: Dataset, partition: Partition, config: FitConfig):
    """fit's work after validation: (model, per-cell records, train MSE)."""
    n, size = dataset.n, partition.size
    m = 2**n
    probe = LocalPairNet(n=n, alphas=np.asarray(config.alphas), c=np.zeros(m),
                         gamma=np.zeros(m), subspace=partition.domain,
                         activation=config.activation)
    groups = route(partition, dataset)
    order = np.concatenate(groups)
    bounds = [0, *np.cumsum([len(rows) for rows in groups]).tolist()]
    X, y = np.take(dataset.X, order, axis=0), dataset.y[order]
    cell_of = np.repeat(np.arange(size), np.diff(bounds))
    boxes = scope_boxes(partition, config.activation_scope)
    lo, hi = np.array([[(iv.lo, iv.hi) for iv in box] for box in boxes]).T   # (n, M) each
    boxes_alphas = (lo, hi, np.broadcast_to(probe.alphas[:, None], lo.shape))

    def features(start, stop):
        """Feature rows of sorted rows start..stop, each in its cell's box."""
        cells = cell_of[start:stop]
        return feature_matrix(probe, X[start:stop], [_columns(t, cells) for t in boxes_alphas])

    params, fallback, diags = _solve_cells(features, y, bounds, partition, config)
    pred_sorted = _predict(probe, (*boxes_alphas, params.T.copy(), fallback), X, cell_of)
    counts = np.diff(bounds)
    sse = np.bincount(cell_of, weights=(y - pred_sorted) ** 2, minlength=size)
    pred = np.empty(len(y))
    pred[order] = pred_sorted

    locals_, cells = [], []
    for j, diag in enumerate(diags):
        locals_.append(LocalPairNet(
            n=n, alphas=probe.alphas, c=params[j, :m], gamma=params[j, m:], subspace=boxes[j],
            activation=config.activation, fallback_mean=None if diag else float(fallback[0, j]),
        ))
        if diag is None:
            cells.append(SubspaceFit(j, int(counts[j]), float(sse[j]), True, None, 0, None))
        else:
            cells.append(SubspaceFit(j, int(counts[j]), float(sse[j]), False, diag.ridge,
                                     diag.escalations, diag.residual))

    model = PairNetModel(
        partition=partition, locals=tuple(locals_), activation_scope=config.activation_scope,
        # Only the recipe goes in: provenance is serialized with the model,
        # and equal-seed runs must produce byte-identical files, so wall
        # clock stays on the report.
        provenance={
            "alphas": list(config.alphas),
            "activation": config.activation.tag,
            "activation_scope": config.activation_scope,
        },
    )
    return model, tuple(cells), _mean_squared_error(dataset.y, pred)


def _solve_cells(features, y, bounds, partition, config):
    """The first sweep, in flat cell order: each cell's parameters (one
    row of an (M, 2^(n+1)) array) and solve record, or its fallback mean
    (a (1, M) array, NaN where the cell is solved).

    ``features(start, stop)`` gives the feature rows of the cell-sorted
    rows start..stop; ``bounds[j]:bounds[j + 1]`` are cell j's rows.
    """
    n, size = partition.ndim, partition.size
    d, threshold = 2 ** (n + 1), min_rows_threshold(n)
    params = np.zeros((size, d))
    fallback = np.full((1, size), np.nan)
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
            fallback[0, j] = np.mean(y[a:b]) if b > a else 0.0
            continue
        G = np.zeros((d, d))
        r = np.zeros(d)
        for start in range(a, b, _GRAM_ROWS):
            stop = min(start + _GRAM_ROWS, b)
            if start >= block_stop:
                # A new block: this chunk, then whole cells up to _GRAM_ROWS rows.
                reach = bounds[bisect.bisect_right(bounds, start + _GRAM_ROWS) - 1]
                block_start, block_stop = start, max(stop, reach)
                phi_block = features(block_start, block_stop)
            phi = phi_block[start - block_start:stop - block_start]
            G += phi.T @ phi
            r += phi.T @ y[start:stop]
        try:
            params[j], diags[j] = solve_spd(DenseSystem(G, r), config.ridge)
        except Exception as exc:
            raise _cell_error(partition, j, exc) from exc
    return params, fallback, diags


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
