"""Layer-1 pair activations: an increasing map g(x) of an interval onto
[0, 1] and its complement 1 - g(x).

Two kinds are provided. "linear" is min-max normalization over the
interval; "sigmoid" is a logistic curve affinely renormalized so that
g(lo) = 0 and g(hi) = 1 exactly, with the logistic evaluated as
0.5 + 0.5 * tanh(z / 2), which never overflows. Both clamp outside the
interval, so the pair is total, complementary (g + gbar == 1) and
non-decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import Interval

__all__ = ["ActivationKind", "LINEAR", "activate", "pair_activation"]

_KINDS = ("linear", "sigmoid")


@dataclass(frozen=True)
class ActivationKind:
    """Activation family tag plus the sigmoid steepness.

    Steepness is in units of inverse interval half-widths: the logistic
    argument runs over [-steepness, steepness] across the interval. It is
    ignored by the linear kind.
    """

    tag: str = "linear"
    steepness: float = 4.0

    def __post_init__(self):
        if self.tag not in _KINDS:
            raise ValueError(f"unknown activation kind {self.tag!r}; expected one of {_KINDS}")
        if not 0 < self.steepness < np.inf:
            raise ValueError(f"steepness must be positive and finite, got {self.steepness!r}")


LINEAR = ActivationKind("linear")


def pair_activation(x, interval: Interval, kind: ActivationKind = LINEAR):
    """Evaluate (g, 1 - g) for a scalar or array of inputs.

    g is non-decreasing with g(interval.lo) = 0 and g(interval.hi) = 1;
    inputs outside the interval saturate at those endpoint values.
    """
    g = activate(x, interval.lo, interval.hi, kind)
    if g.ndim == 0:
        g = float(g)
    return g, 1.0 - g


def activate(x, lo, hi, kind: ActivationKind = LINEAR) -> np.ndarray:
    """g(x) over the interval [lo, hi], elementwise over broadcast arrays.

    Each output element depends only on its own x, lo and hi, so a point
    gets the same g whatever batch it is evaluated in.
    """
    x = np.asarray(x, dtype=np.float64)
    width = np.subtract(hi, lo)
    if kind.tag == "linear":
        return np.clip((x - lo) / width, 0.0, 1.0)
    s = kind.steepness
    u = 2.0 * (x - 0.5 * np.add(lo, hi)) / width
    low = _logistic(-s)
    return np.clip((_logistic(s * u) - low) / (_logistic(s) - low), 0.0, 1.0)


def _logistic(z):
    """1 / (1 + exp(-z)) in the tanh form, finite for every finite z."""
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(z, dtype=np.float64))
