"""Plain per-cell reference for trainer.fit, kept as a test oracle.

This is the fit as pairnet wrote it before the blocked sweeps: route the
rows once (by binary search, reference_routing), then cell by cell build the cell's features, sum its normal
equations in 4096-row chunks from the cell's first row, solve them with
solve_spd, and predict the cell's rows with local_forward. Under
ridge=0.0 a cell is instead the minimum-norm least-squares fit of its
full features (np.linalg.lstsq), the plain least squares FitConfig
promises. trainer.fit must reproduce its fallbacks, errors, SSEs and
training MSE within the reference's own rounding noise.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from conftest import as_box
from pairnet.linsolve import SolveDiagnostics, solve_spd
from pairnet.model import LocalPairNet, PairNetModel, feature_matrix, local_forward
from pairnet.trainer import (
    FitReport,
    InsufficientDataError,
    SubspaceFit,
    SubspaceFitError,
    min_rows_threshold,
)
from reference_routing import cell_box, cell_rows

_CHUNK_ROWS = 4096


def _solve_cell(X, y, box, config):
    n = X.shape[1]
    threshold = min_rows_threshold(n)
    probe = LocalPairNet(alphas=np.asarray(config.alphas), c=np.zeros(2**n),
                         gamma=np.zeros(2**n))
    if len(y) < threshold:
        if config.min_rows_policy == "error":
            raise InsufficientDataError(
                f"{len(y)} rows < {threshold} parameters (2^(n+1) with n={n})"
            )
        return replace(probe, fallback_mean=float(np.mean(y)) if len(y) else 0.0), None
    d = 2 ** (n + 1)
    G = np.zeros((d, d))
    r = np.zeros(d)
    for start in range(0, len(y), _CHUNK_ROWS):
        phi = feature_matrix(probe, X[start:start + _CHUNK_ROWS], box, config.activation)
        G += phi.T @ phi
        r += phi.T @ y[start:start + _CHUNK_ROWS]
    if config.ridge == 0.0:
        p = np.linalg.lstsq(feature_matrix(probe, X, box, config.activation), y,
                            rcond=None)[0]
        diag = SolveDiagnostics(ridge=0.0, escalations=0,
                                residual=float(np.linalg.norm(G @ p - r)))
    else:
        p, diag = solve_spd(G, r, config.ridge)
    return replace(probe, c=p[:2**n], gamma=p[2**n:]), diag


def reference_fit(dataset, partition, config):
    """(PairNetModel, FitReport) of the per-cell fit; fit_seconds is 0."""
    pred = np.empty(len(dataset))
    locals_, cells = [], []
    for j, rows in enumerate(cell_rows(partition, dataset.X)):
        box = (cell_box(partition, j) if config.activation_scope == "subspace"
               else as_box(partition.domain))
        X, y = dataset.X[rows], dataset.y[rows]
        try:
            local, diag = _solve_cell(X, y, box, config)
        except Exception as exc:
            raise SubspaceFitError(f"subspace {j} {partition.decode(j)}: {exc}") from exc
        cell_pred = local_forward(local, X, box, config.activation)
        pred[rows] = cell_pred
        sse = float(np.sum((y - cell_pred) ** 2))
        if diag is None:
            cells.append(SubspaceFit(j, len(y), sse, True, None, 0, None))
        else:
            cells.append(SubspaceFit(j, len(y), sse, False, diag.ridge, diag.escalations,
                                     diag.residual))
        locals_.append(local)
    model = PairNetModel(partition=partition, locals=tuple(locals_),
                         activation_scope=config.activation_scope, activation=config.activation)
    train_mse = float(np.sum((dataset.y - pred) ** 2)) / len(dataset)
    return model, FitReport(subspaces=tuple(cells), train_mse=train_mse, fit_seconds=0.0)
