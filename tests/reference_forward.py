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


def naive_local_forward(local, x, box, activation) -> float:
    """One cell's network at one point, layer by layer, with activations
    over box = (lo, hi)."""
    if local.fallback_mean is not None:
        return float(local.fallback_mean)
    n = local.n
    lo, hi = box
    g = [naive_activation(float(x[i]), float(lo[i]), float(hi[i]), activation)
         for i in range(n)]
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


def naive_indices(partition, x) -> list[int]:
    """A point's interval per dimension: the upper one on a breakpoint,
    the nearest one outside the domain."""
    out = []
    for xi, edges in zip(x, partition.edges):
        i = bisect.bisect_right(edges, float(xi)) - 1
        out.append(min(max(i, 0), len(edges) - 2))
    return out


def naive_forward(model, x) -> float:
    """The model at one point: route it, then evaluate its cell over the
    cell's box (subspace scope) or the partition's domain."""
    edges = model.partition.edges
    indices = naive_indices(model.partition, x)
    j = 0
    for i, e in zip(indices, edges):   # dimension 0 the most significant digit
        j = j * (len(e) - 1) + i
    if model.activation_scope == "subspace":
        lo, hi = [e[i] for e, i in zip(edges, indices)], [e[i + 1] for e, i in zip(edges, indices)]
    else:
        lo, hi = [e[0] for e in edges], [e[-1] for e in edges]
    return naive_local_forward(model.locals[j], x, (lo, hi), model.activation)
