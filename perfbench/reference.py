"""Independent reference for checking pairnet fits.

Written from the paper's formulas in plain numpy; it imports nothing from
pairnet. Per cell with intervals [lo_i, hi_i] and fusion weights alpha:

    g_i    = clip((x_i - lo_i) / (hi_i - lo_i), 0, 1)
    w_k    = sum_i alpha_i * (g_i if bit i of k is 0 else 1 - g_i)
             (bit 0 is the most significant bit of the n-bit pattern k)
    beta_k = w_k / 2^(n-1),  theta_k = (1 - w_k) / 2
    y_hat  = sum_k beta_k * (c_k + theta_k * gamma_k)

so the feature row is [beta, beta * theta]. A cell with at least
2^(n+1) rows is fit by ridge regression with pairnet's documented
floor, lam = 1e-10 * trace(phi^T phi) / d, solved as minimum-norm
least squares (np.linalg.lstsq) on the augmented rows
[phi; sqrt(lam) I] against [y; 0], never through the normal equations;
one with fewer rows predicts its target mean (0.0 when it has none).
Points route to cells left-closed/right-open per dimension, last
interval closed, out-of-domain points clamped to the boundary cell.

The ridge matters: the features are rank-deficient by construction, and
a cell of 16 to 24 rows can be so ill-conditioned that the floor ridge
moves its held-out predictions by 6e-5 relative against the plain
minimum-norm solution, while its in-sample sse barely moves. With the
ridge in the reference, fits agree to better than 1e-10 relative on
the benchmark workloads; the tolerances below leave a wide margin above
that and stay far below what a wrong feature or a wrong cell produces.
A solve that escalates its ridge past the floor may fall outside
them; none does on these workloads (see
linsolve.cholesky_attempts_per_solve).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# The documented ridge: lam = RIDGE_SCALE * trace(phi^T phi) / d.
RIDGE_SCALE = 1e-10
# |sse_model - sse_ref| <= SSE_RTOL * sse_ref + SSE_ATOL * sum(y^2 in cell)
SSE_RTOL = 1e-5
SSE_ATOL = 1e-12
# |mse_model - mse_ref| <= MSE_RTOL * mse_ref + MSE_ATOL * mean(y^2)
MSE_RTOL = 1e-5
MSE_ATOL = 1e-12


def features(X: np.ndarray, lo: np.ndarray, hi: np.ndarray, alphas) -> np.ndarray:
    """Feature rows [beta, beta * theta] of shape (N, 2^(n+1))."""
    X = np.asarray(X, dtype=np.float64)
    alphas = np.asarray(alphas, dtype=np.float64)
    n = X.shape[1]
    g = np.clip((X - lo) / (hi - lo), 0.0, 1.0)
    terms = 2**n
    w = np.zeros((X.shape[0], terms))
    for k in range(terms):
        for i in range(n):
            complement = (k >> (n - 1 - i)) & 1
            w[:, k] += alphas[i] * ((1.0 - g[:, i]) if complement else g[:, i])
    beta = w / 2.0 ** (n - 1)
    theta = 0.5 * (1.0 - w)
    return np.concatenate([beta, beta * theta], axis=1)


def cell_of(edges, X: np.ndarray) -> np.ndarray:
    """Flat cell index per row, dimension 0 most significant."""
    X = np.asarray(X, dtype=np.float64)
    flat = np.zeros(X.shape[0], dtype=np.int64)
    for d, e in enumerate(edges):
        e = np.asarray(e, dtype=np.float64)
        m = len(e) - 1
        idx = np.clip(np.searchsorted(e, X[:, d], side="right") - 1, 0, m - 1)
        flat = flat * m + idx
    return flat


def cell_box(edges, flat: int):
    """(lo, hi) arrays of the cell with the given flat index."""
    counts = [len(e) - 1 for e in edges]
    idx = []
    for m in reversed(counts):
        idx.append(flat % m)
        flat //= m
    idx.reverse()
    lo = np.array([edges[d][i] for d, i in enumerate(idx)], dtype=np.float64)
    hi = np.array([edges[d][i + 1] for d, i in enumerate(idx)], dtype=np.float64)
    return lo, hi


@dataclass(frozen=True)
class CellFit:
    sse: float
    energy: float  # sum of y^2 over the cell's rows, the scale of its sse
    params: np.ndarray | None  # None: constant predictor at ``mean``
    mean: float


def fit_cell(X: np.ndarray, y: np.ndarray, lo, hi, alphas) -> CellFit:
    n = X.shape[1]
    energy = float(np.sum(y**2))
    if len(y) < 2 ** (n + 1):
        mean = float(np.mean(y)) if len(y) else 0.0
        return CellFit(float(np.sum((y - mean) ** 2)), energy, None, mean)
    phi = features(X, lo, hi, alphas)
    d = phi.shape[1]
    lam = RIDGE_SCALE * float(np.sum(phi**2)) / d
    augmented = np.concatenate([phi, np.sqrt(lam) * np.eye(d)])
    params = np.linalg.lstsq(augmented, np.concatenate([y, np.zeros(d)]), rcond=None)[0]
    resid = y - phi @ params
    return CellFit(float(resid @ resid), energy, params, 0.0)


class ReferenceFit:
    """Reference fits of chosen cells of a grid partition.

    ``edges`` are the per-dimension breakpoints; ``cells`` the flat
    indices to fit (all cells when None). Activations normalize over
    each cell's own box, as pairnet's default "subspace" scope does.
    """

    def __init__(self, edges, alphas, X, y, cells=None):
        self.edges = [np.asarray(e, dtype=np.float64) for e in edges]
        self.alphas = np.asarray(alphas, dtype=np.float64)
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        size = int(np.prod([len(e) - 1 for e in self.edges]))
        wanted = range(size) if cells is None else sorted(int(j) for j in cells)
        owner = cell_of(self.edges, X)
        order = np.argsort(owner, kind="stable")
        bounds = np.searchsorted(owner[order], np.arange(size + 1))
        self.cells = {}
        for j in wanted:
            rows = order[bounds[j]:bounds[j + 1]]
            lo, hi = cell_box(self.edges, j)
            self.cells[j] = fit_cell(X[rows], y[rows], lo, hi, self.alphas)

    def covers(self, X) -> np.ndarray:
        """Mask of rows that route to a fitted cell."""
        owner = cell_of(self.edges, X)
        return np.isin(owner, np.fromiter(self.cells, dtype=np.int64))

    def predict(self, X) -> np.ndarray:
        """Predictions for rows that all route to fitted cells."""
        X = np.asarray(X, dtype=np.float64)
        owner = cell_of(self.edges, X)
        out = np.empty(X.shape[0])
        for j in np.unique(owner):
            fitted = self.cells[int(j)]
            mask = owner == j
            if fitted.params is None:
                out[mask] = fitted.mean
            else:
                lo, hi = cell_box(self.edges, int(j))
                out[mask] = features(X[mask], lo, hi, self.alphas) @ fitted.params
        return out

    def mse(self, X, y) -> float:
        y = np.asarray(y, dtype=np.float64)
        resid = y - self.predict(X)
        return float(resid @ resid) / len(y)


def sse_close(model_sse: float, ref: CellFit) -> bool:
    return abs(model_sse - ref.sse) <= SSE_RTOL * ref.sse + SSE_ATOL * ref.energy


def mse_close(model_mse: float, ref_mse: float, y) -> bool:
    scale = float(np.mean(np.asarray(y, dtype=np.float64) ** 2))
    return abs(model_mse - ref_mse) <= MSE_RTOL * ref_mse + MSE_ATOL * scale
