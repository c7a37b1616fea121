"""One-shot closed-form fitting of a pairwise network per partition cell.

For each cell the quadratic objective Q = 1/2 * sum (y - phi . p)^2 over
the cell's rows is minimized by solving its normal equations: the Gram
matrix G = sum phi phi^T and moment vector r = sum phi y are accumulated
in one streaming pass over the rows (bounded memory regardless of data
size) and handed to the Cholesky solver. Cells with fewer than 2^(n+1)
rows cannot determine the parameters; depending on policy they either
raise or fall back to a constant predictor at the target mean. Each
cell's rows are then predicted once, by the same call evaluation uses,
and every training error in the report is read from those predictions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .activation import ActivationKind, LINEAR
from .datasets import Dataset
from .linsolve import DenseSystem, solve_spd
from .model import _BLOCK_ROWS, LocalPairNet, PairNetModel, feature_matrix, forward, local_forward
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
        if self.ridge is not None and self.ridge < 0:
            raise ValueError(f"ridge must be nonnegative, got {self.ridge}")


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


def _solve_cell(X, y, subspace, config):
    """One cell's network and its solve diagnostics (None for a fallback)."""
    n = X.shape[1]
    threshold = min_rows_threshold(n)
    probe = LocalPairNet(
        n=n, alphas=np.asarray(config.alphas), c=np.zeros(2**n), gamma=np.zeros(2**n),
        subspace=tuple(subspace), activation=config.activation,
    )
    if len(y) < threshold:
        if config.min_rows_policy == "error":
            raise InsufficientDataError(
                f"{len(y)} rows < {threshold} parameters (2^(n+1) with n={n})"
            )
        return replace(probe, fallback_mean=float(np.mean(y)) if len(y) else 0.0), None

    d = 2 ** (n + 1)
    G = np.zeros((d, d))
    r = np.zeros(d)
    for start in range(0, len(y), _BLOCK_ROWS):
        phi = feature_matrix(probe, X[start:start + _BLOCK_ROWS])
        G += phi.T @ phi
        r += phi.T @ y[start:start + _BLOCK_ROWS]
    p, diag = solve_spd(DenseSystem(G, r), config.ridge)
    return replace(probe, c=p[:2**n], gamma=p[2**n:]), diag


def fit(dataset: Dataset, partition: Partition, config: FitConfig):
    """Fit one local network per cell; one pass over the data per cell.

    Rows are routed to cells once. Each cell is solved, then its rows
    are predicted by local_forward, the same call evaluation makes, so
    the per-cell SSEs and the training MSE come from one prediction
    array, and forward() on the training data reproduces it bitwise.
    fit_seconds covers the whole call, from entry to the assembled model.

    Returns (PairNetModel, FitReport).
    """
    t0 = time.perf_counter()
    if len(dataset) == 0:
        raise ValueError("cannot fit an empty dataset")
    if dataset.n != partition.ndim:
        raise ValueError(f"dataset has {dataset.n} dims, partition has {partition.ndim}")
    if len(config.alphas) != dataset.n:
        raise ValueError(f"{len(config.alphas)} alphas for {dataset.n} inputs")

    pred = np.empty(len(dataset))
    locals_, cells = [], []
    for j, rows in enumerate(route(partition, dataset)):
        box = partition.cell(j) if config.activation_scope == "subspace" else partition.domain
        X, y = dataset.X[rows], dataset.y[rows]
        try:
            local, diag = _solve_cell(X, y, box, config)
        except Exception as exc:
            raise SubspaceFitError(f"subspace {j} {partition.decode(j)}: {exc}") from exc
        cell_pred = local_forward(local, X)
        pred[rows] = cell_pred
        sse = float(np.sum((y - cell_pred) ** 2))
        if diag is None:
            cells.append(SubspaceFit(j, len(y), sse, True, None, 0, None))
        else:
            cells.append(SubspaceFit(j, len(y), sse, False, diag.ridge, diag.escalations,
                                     diag.residual))
        locals_.append(local)

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
    report = FitReport(subspaces=tuple(cells), train_mse=_mean_squared_error(dataset.y, pred),
                       fit_seconds=time.perf_counter() - t0)
    return model, report


def _mean_squared_error(y: np.ndarray, pred: np.ndarray) -> float:
    return float(np.sum((y - pred) ** 2)) / len(y)


def mse(model: PairNetModel, dataset: Dataset) -> float:
    """Mean squared prediction error over the dataset."""
    if len(dataset) == 0:
        raise ValueError("MSE of an empty dataset is undefined")
    if dataset.n != model.n:
        raise ValueError(f"dataset has {dataset.n} dims, model has {model.n}")
    return _mean_squared_error(dataset.y, forward(model, dataset.X))
