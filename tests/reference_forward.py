"""Plain per-row reference for prediction, kept as a test oracle.

A literal transcription of routing and the four layers, one point at a
time, in Python scalars and loops: locate the point's cell by bisecting
each dimension's breakpoints, then evaluate that cell's local network.
It shares no arithmetic with pairnet.model, so forward() and
local_forward(), which run through one vectorized kernel, are checked
against it rather than against themselves.
"""

from __future__ import annotations

import bisect
import math


def naive_activation(x: float, lo: float, hi: float, kind) -> float:
    """g(x) over [lo, hi], clamped to [0, 1]."""
    if kind.tag == "linear":
        g = (x - lo) / (hi - lo)
    else:
        s = kind.steepness
        # Clamping u first gives the same g and keeps exp() in range.
        u = min(max(2.0 * (x - 0.5 * (lo + hi)) / (hi - lo), -1.0), 1.0)

        def sigma(z):
            return 1.0 / (1.0 + math.exp(-z))

        g = (sigma(s * u) - sigma(-s)) / (sigma(s) - sigma(-s))
    return min(max(g, 0.0), 1.0)


def naive_local_forward(local, x) -> float:
    """One cell's network at one point, layer by layer."""
    if local.fallback_mean is not None:
        return float(local.fallback_mean)
    n = local.n
    g = [naive_activation(float(x[i]), iv.lo, iv.hi, local.activation)
         for i, iv in enumerate(local.subspace)]
    y = 0.0
    for k in range(2**n):
        w_k = 0.0
        for i in range(n):
            bit = (k >> (n - 1 - i)) & 1
            w_k += float(local.alphas[i]) * ((1.0 - g[i]) if bit else g[i])
        w_k = min(max(w_k, 0.0), 1.0)
        beta_k = w_k / 2.0 ** (n - 1)
        theta_k = (1.0 - w_k) / 2.0
        ybar_k = float(local.c[k]) + theta_k * float(local.gamma[k])
        y += beta_k * ybar_k
    return y


def naive_locate(partition, x) -> int:
    """Flat cell of a point: upper cell on a breakpoint, clamped outside."""
    flat = 0
    for xi, edges in zip(x, partition.edges):
        m = len(edges) - 1
        i = bisect.bisect_right(edges, float(xi)) - 1
        flat = flat * m + min(max(i, 0), m - 1)
    return flat


def naive_forward(model, x) -> float:
    """The model at one point: route it, then evaluate its cell."""
    return naive_local_forward(model.locals[naive_locate(model.partition, x)], x)
