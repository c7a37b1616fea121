"""Cholesky solver for the small symmetric systems of the normal equations.

The trainer solves each cell in its quadratic basis, whose d x d Gram
is positive definite once the cell's rows determine the quadratic: the
null space of the full 2^(n+1)-wide features never reaches this solver.
A Gram can still be singular (rows that repeat or lie on a lower-degree
surface) or numerically so, and then the ridge escalates: when Cholesky
hits a non-positive pivot the ridge rises tenfold from a floor of
1e-10 * trace/d up to 1e-4 * trace/d before giving up.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

__all__ = [
    "DenseSystem",
    "SolveDiagnostics",
    "SingularSystemError",
    "solve_spd",
    "residual_norm",
    "auto_ridge",
]

_SYMMETRY_RTOL = 1e-10
# Ridge schedule, as fractions of trace(G)/d.
_RIDGE_FLOOR_SCALE = 1e-10
_RIDGE_CAP_SCALE = 1e-4


class SingularSystemError(RuntimeError):
    """The system stayed non-positive-definite at the maximum ridge."""


@dataclass(frozen=True)
class DenseSystem:
    """A symmetric PSD system G p = r of size d >= 2."""

    G: np.ndarray
    r: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "G", np.asarray(self.G, dtype=np.float64))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=np.float64))
        d = self.G.shape[0] if self.G.ndim == 2 else 0
        if self.G.shape != (d, d) or d < 2:
            raise ValueError(f"G must be square with d >= 2, got shape {self.G.shape}")
        if self.r.shape != (d,):
            raise ValueError(f"r must have shape ({d},), got {self.r.shape}")
        scale = np.abs(self.G).max()
        if scale > 0 and np.abs(self.G - self.G.T).max() > _SYMMETRY_RTOL * scale:
            raise ValueError("G is not symmetric within 1e-10 relative tolerance")


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the solver actually did: final ridge, escalations, residual."""

    ridge: float
    escalations: int
    residual: float

    @property
    def escalated(self) -> bool:
        return self.escalations > 0


def auto_ridge(G: np.ndarray) -> float:
    """Default ridge: 1e-10 * trace(G)/d, a negligible-bias floor."""
    d = G.shape[0]
    return _RIDGE_FLOOR_SCALE * float(np.trace(G)) / d


def solve_spd(system: DenseSystem, ridge: float | None = None):
    """Solve (G + ridge*I) p = r by Cholesky with ridge escalation.

    ridge=None uses the auto floor (1e-10 * trace/d); ridge=0.0 attempts
    the unregularized system first. On a non-PD pivot the ridge rises
    tenfold per retry, starting from the auto floor, until it exceeds
    1e-4 * trace/d, at which point SingularSystemError is raised.

    Returns (p, SolveDiagnostics). Deterministic: identical inputs give
    bitwise-identical outputs.
    """
    G, r = system.G, system.r
    d = G.shape[0]
    if ridge is not None and ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    floor = auto_ridge(G)
    cap = _RIDGE_CAP_SCALE * float(np.trace(G)) / d
    eye = np.eye(d)

    escalations = 0
    current = floor if ridge is None else float(ridge)
    while True:
        A = G + current * eye
        # LAPACK's Cholesky factor and solve, as scipy's cho_factor and
        # cho_solve call them, without their wrappers' per-call overhead.
        factor, info = dpotrf(A, lower=1, clean=0)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of potrf")
        if info == 0:
            p, info = dpotrs(factor, r, lower=1)
            if info != 0:
                raise ValueError(f"illegal value in argument {-info} of potrs")
            break
        nxt = floor if current < floor else current * 10.0
        if nxt <= current or nxt > cap:
            raise SingularSystemError(
                f"system stayed singular up to ridge {current:g} (cap {cap:g})"
            )
        current = nxt
        escalations += 1
    res = residual_norm(A, p, r)
    return p, SolveDiagnostics(ridge=current, escalations=escalations, residual=res)


def residual_norm(G: np.ndarray, p: np.ndarray, r: np.ndarray) -> float:
    """Euclidean norm of G @ p - r."""
    G = np.asarray(G, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if G.ndim != 2 or G.shape[1] != p.shape[0] or G.shape[0] != r.shape[0]:
        raise ValueError(f"shape mismatch: G {G.shape}, p {p.shape}, r {r.shape}")
    return float(np.linalg.norm(G @ p - r))
