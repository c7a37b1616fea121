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

__all__ = ["SolveDiagnostics", "SingularSystemError", "solve_spd"]

# Ridge schedule, as fractions of trace(G)/d.
_RIDGE_FLOOR_SCALE = 1e-10
_RIDGE_CAP_SCALE = 1e-4


class SingularSystemError(RuntimeError):
    """The system stayed non-positive-definite at the maximum ridge."""


@dataclass(frozen=True)
class SolveDiagnostics:
    """What the solver actually did: final ridge, escalations, residual."""

    ridge: float
    escalations: int
    residual: float


def solve_spd(G: np.ndarray, r: np.ndarray, ridge: float | None = None):
    """Solve (G + ridge*I) p = r by Cholesky with ridge escalation.

    G is a symmetric (d, d) float64 array, not checked for symmetry
    (the factorization reads only its lower triangle), and r a (d,)
    float64 array. ridge=None uses the floor 1e-10 * trace/d; ridge=0.0
    attempts the unregularized system first. On a non-PD pivot the ridge rises tenfold per retry, starting
    from the floor, until it exceeds 1e-4 * trace/d, at which point
    SingularSystemError is raised.

    Returns (p, SolveDiagnostics), whose residual is |(G + ridge*I) p - r|
    at the final ridge. Deterministic: identical inputs give
    bitwise-identical outputs.
    """
    d = G.shape[0]
    trace = float(np.trace(G))
    floor = _RIDGE_FLOOR_SCALE * trace / d
    cap = _RIDGE_CAP_SCALE * trace / d
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
    residual = float(np.linalg.norm(A @ p - r))
    return p, SolveDiagnostics(ridge=current, escalations=escalations, residual=residual)
