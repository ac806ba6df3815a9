"""The grid transform pair of e^{-tau x^m} as a dense cosine sum, written from
the formula in the `umbra.opcalc.fourier` docstrings and sharing no code with
it.

    e~_m(k, tau) = (2 / sqrt(2 pi)) integral_0^X cos(k x) e^{-tau x^m} dx,
    X = (40 / tau)^{1/m},

taken with its own composite 16-point Gauss-Legendre rule on the same equal
panels as the route (at least 64, and enough that a panel spans at most a
quarter period of cos(k x) at the largest |k|), and every cos(k x_i) formed
node by node.  The route factors e^{ikx} per panel instead, so an agreement
with it is an independent check of that factoring.

`legendre_composite_loop` is the composite Gauss-Legendre rule built one panel
at a time, the reference for the whole-array `legendre_composite_rule`.
"""
from math import pi, sqrt

import numpy as np


def e_tilde_dense(m, tau, ks):
    ks = np.asarray(ks, dtype=float)
    X = (40.0 / tau) ** (1.0 / m)
    kmax = float(np.max(np.abs(ks))) if len(ks) else 1.0
    panels = max(64, int(2 * X * max(kmax, 1.0) / pi) + 1)
    base_nodes, base_weights = np.polynomial.legendre.leggauss(16)
    edges = np.linspace(0.0, X, panels + 1)
    mids, halves = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    nodes = (mids[:, None] + halves[:, None] * base_nodes).ravel()
    weights = (halves[:, None] * base_weights).ravel()
    body = weights * np.exp(-tau * nodes ** m)
    return (2.0 / sqrt(2.0 * pi)) * np.sum(np.cos(np.outer(ks, nodes)) * body, axis=1)


def legendre_composite_loop(a, b, panels, order):
    """(nodes, weights) of the composite rule on [a, b] with equal panels, panel by panel."""
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    nodes, weights = [], []
    for lo, hi in zip(edges[:-1], edges[1:]):
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        nodes.append(mid + half * base_nodes)
        weights.append(half * base_weights)
    return np.concatenate(nodes), np.concatenate(weights)
