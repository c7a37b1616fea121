"""Layer-1 pair activations: an increasing map g(x) of an interval onto
[0, 1] and its complement 1 - g(x).

Two kinds are provided. "linear" is min-max normalization over the
interval; "sigmoid" is a logistic curve affinely renormalized so that
g(lo) = 0 and g(hi) = 1 exactly, with the logistic evaluated as
0.5 + 0.5 * tanh(z / 2), which never overflows. Both clamp outside the
interval, so g is total and non-decreasing; the model's fusion layer
(model._fuse) forms the complement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["ActivationKind", "LINEAR", "activate"]

_KINDS = ("linear", "sigmoid")


@dataclass(frozen=True)
class ActivationKind:
    """Activation family tag plus the sigmoid steepness.

    Steepness is in units of inverse interval half-widths: the logistic
    argument runs over [-steepness, steepness] across the interval. The
    linear kind ignores it and keeps the default, so linear kinds compare
    equal whatever steepness they were given.
    """

    tag: str = "linear"
    steepness: float = 4.0

    def __post_init__(self):
        if self.tag not in _KINDS:
            raise ValueError(f"unknown activation kind {self.tag!r}; expected one of {_KINDS}")
        if not 0 < self.steepness < np.inf:
            raise ValueError(f"steepness must be positive and finite, got {self.steepness!r}")
        if self.tag == "linear":
            object.__setattr__(self, "steepness", ActivationKind.steepness)


LINEAR = ActivationKind("linear")


def activate(x, lo, hi, kind: ActivationKind = LINEAR) -> np.ndarray:
    """g(x) over the interval [lo, hi], elementwise over broadcast arrays.

    Each output element depends only on its own x, lo and hi, so a point
    gets the same g whatever batch it is evaluated in.
    """
    x = np.asarray(x, dtype=np.float64)
    width = np.subtract(hi, lo)
    if kind.tag == "linear":   # clamped first: no x overflows, and rounding keeps g in [0, 1]
        return (np.clip(x, lo, hi) - lo) / width
    s = kind.steepness
    with np.errstate(over="ignore"):   # a distant x saturates u at +-inf, so g at 0 or 1
        u = 2.0 * (x - 0.5 * np.add(lo, hi)) / width
    low = _logistic(-s)
    return np.clip((_logistic(s * u) - low) / (_logistic(s) - low), 0.0, 1.0)


def _logistic(z):
    """1 / (1 + exp(-z)) in the tanh form, finite for every finite z."""
    return 0.5 + 0.5 * np.tanh(0.5 * np.asarray(z, dtype=np.float64))
