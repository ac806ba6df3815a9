"""Gauss-weighted quadrature engine.

Every operator-function evaluation in this package reduces to integrals of the
form integral exp(-A k^2) G(k) dk with G smooth, which a Gauss-Hermite rule
handles after the substitution k = u / sqrt(A).  Rules self-check their
Gaussian moments at construction; evaluations double the node count until two
successive results agree, warning at the 1024-node cap.  One doubling loop
serves a single integrand (`adaptive_hermite`) and a stack of integrands
(`gaussian_fourier_rows`) that share the Gaussian factor: each row converges,
counts its nodes and warns on its own, and only the rows still doubling are
evaluated at the next rule.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial, isinf, log, pi, sqrt
from typing import Callable

import numpy as np

from ..errors import InvalidParameterError
from ..seqcore import _exact, _factorials, _gauss_egf

DEFAULT_START_NODES = 128
NODE_CAP = 1024
CONVERGENCE_TOL = 1e-10


class QuadratureConvergenceWarning(UserWarning):
    """Raised when doubling hits the node cap without two matching results."""


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def log_gamma_half(size: int) -> np.ndarray:
    """log Gamma(p + 1/2) for p < size, read-only.

    Taken from the exact ratio Gamma(p + 1/2) = sqrt(pi) (2p)! / (4^p p!), rounded
    once; where that ratio overflows a float, from the logs of its two integers.
    """
    out = np.empty(size)
    num = den = 1  # (2p)! and 4^p p!
    for p in range(size):
        if p:
            num *= (2 * p - 1) * 2 * p
            den *= 4 * p
        try:
            value = sqrt(pi) * (num / den)
        except OverflowError:
            value = float("inf")
        out[p] = 0.5 * log(pi) + log(num) - log(den) if isinf(value) else log(value)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def factorials(size: int) -> np.ndarray:
    """n! rounded to the nearest double, n < size (read-only, shared)."""
    table = np.array([float(factorial(n)) for n in range(size)])
    table.flags.writeable = False
    return table


def _check_hermite_moments(nodes: np.ndarray, weights: np.ndarray) -> None:
    # moments: integral e^{-k^2} k^{2m} dk = Gamma(m + 1/2); checked in log space
    # densely for small m and on a sparse sample up to the theoretical limit.
    # k^{2m} amplifies node rounding by ~2m ulp, so the very high moments get a
    # proportional allowance on top of the 1e-13 baseline.
    n = len(nodes)
    limit = n // 2 - 1
    ms = list(range(0, min(limit, 60) + 1))
    ms += [int(v) for v in np.geomspace(61, limit, 12)] if limit > 60 else []
    with np.errstate(divide="ignore"):
        # extreme-node weights underflow to 0 at >= 1024 nodes; -inf drops them
        logw = np.log(weights)
        logk = np.log(np.abs(nodes))
    log_gamma = log_gamma_half(limit + 1)
    for m in sorted(set(ms)):
        ref = log_gamma[m]
        terms = np.exp(logw - ref) if m == 0 else np.exp(logw + 2 * m * logk - ref)
        if abs(np.sum(terms) - 1.0) > 1e-13 * (1.0 + m / 32.0):
            raise InvalidParameterError(
                f"gauss-hermite rule with {n} nodes fails the moment self-check at m={m}"
            )


#: Newton steps that polish the eigenvalue estimates of the Hermite nodes
_NEWTON_STEPS = 3


@lru_cache(maxsize=None)
def gauss_hermite_rule(node_count: int) -> QuadratureRule:
    """Gauss-Hermite rule for weight e^{-k^2}, moment-checked at construction.

    The nodes are the eigenvalues of the Jacobi matrix J (zero diagonal,
    off-diagonals sqrt(k/2)), polished by Newton steps on the three-term
    recurrence of the orthonormal Hermite polynomials p_k.  They come in pairs
    +-x, so only the nonnegative half is computed: its squares are the
    eigenvalues of the even-index block of J^2, a tridiagonal matrix of half
    the size.  The weights are 1 / (n p_{n-1}(x)^2), formed in log space
    because p_{n-1} overflows at the outer nodes of large rules.
    """
    n = node_count
    if n < 1:
        raise InvalidParameterError("a gauss-hermite rule needs at least one node")
    b2 = np.r_[0.0, np.arange(1, n) / 2.0, 0.0]  # squared off-diagonals b_0 .. b_n of J
    even = np.arange(0, n, 2)
    off = np.sqrt(b2[even[:-1] + 1] * b2[even[:-1] + 2])
    block = np.diag(b2[even] + b2[even + 1]) + np.diag(off, 1) + np.diag(off, -1)
    # the recurrence runs in long double where the platform has one: in doubles
    # its rounding costs the weights up to 1e-13 at 256 nodes, here about an ulp
    x = np.sqrt(np.maximum(np.linalg.eigvalsh(block), 0.0)).astype(np.longdouble)
    for _ in range(_NEWTON_STEPS):
        q_prev, q, log_scale = _hermite_pair(x, n)
        x = x - q / (np.sqrt(np.longdouble(2 * n)) * q_prev)
    # q_prev was taken at the last step's start, a node converged already
    with np.errstate(under="ignore"):
        w = np.exp(log(sqrt(pi) / n) - 2 * (np.log(np.abs(q_prev)) + log_scale)).astype(float)
    x = x.astype(float)
    # mirror the half; for odd n its first node is 0 and appears once
    nodes = np.r_[-x[::-1], x[n % 2 :]]
    weights = np.r_[w[::-1], w[n % 2 :]]
    _check_hermite_moments(nodes, weights)
    return QuadratureRule(nodes, weights)


def _hermite_pair(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q_{n-1}, q_n, log s) at the long-double points x, where q_k = pi^{1/4} p_k
    (so q_0 = 1) and s is a common scale that keeps the pair inside float range."""
    k = np.arange(1, n + 1, dtype=np.longdouble)
    up, back = np.sqrt(2 / k), np.sqrt((k - 1) / k)
    q_prev, q, log_scale = np.zeros_like(x), np.ones_like(x), np.zeros_like(x)
    for j in range(n):
        q_prev, q = q, up[j] * x * q - back[j] * q_prev
        if j % 16 == 15:  # 16 steps grow the pair by less than 1e30
            s = np.maximum(np.abs(q), np.abs(q_prev))
            q, q_prev = q / s, q_prev / s
            log_scale += np.log(s)
    return q_prev, q, log_scale


#: composite rules kept: the m >= 4 evolution asks for one interval per distinct
#: tau, so an unbounded cache would grow with the calls; a grid of evolve rows
#: uses a handful of rules
LEGENDRE_RULE_CACHE = 64


@lru_cache(maxsize=LEGENDRE_RULE_CACHE)
def legendre_composite_rule(a: float, b: float, panels: int, order: int) -> QuadratureRule:
    """Composite Gauss-Legendre rule over [a, b] split into equal panels."""
    if b <= a or panels < 1:
        raise InvalidParameterError("legendre composite rule needs b > a and panels >= 1")
    base_nodes, base_weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid, half = (edges[:-1] + edges[1:]) / 2, (edges[1:] - edges[:-1]) / 2
    return QuadratureRule((mid[:, None] + half[:, None] * base_nodes).ravel(), (half[:, None] * base_weights).ravel())


@dataclass(frozen=True)
class QuadratureResult:
    value: complex
    node_count: int
    converged: bool


def _doubling(g: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: int) -> list[QuadratureResult]:
    """The doubling loop for a stack of integrands: g(u, active) gives the rows
    `active` at the nodes u.  A row stops once two successive sums agree, or at
    the cap with one warning naming the row of a stack (a repeated message
    prints once); only the rows still doubling are evaluated."""
    results: list = [None] * rows
    active, previous = np.arange(rows), None
    n = DEFAULT_START_NODES
    while len(active):
        rule = gauss_hermite_rule(n)
        sums = (rule.weights * np.asarray(g(rule.nodes, active), dtype=complex)).sum(axis=-1)
        values = [complex(v) for v in sums]
        keep = []
        for i, (row, value) in enumerate(zip(active, values)):
            if previous is not None and abs(value - previous[i]) < CONVERGENCE_TOL * max(1.0, abs(value)):
                results[row] = QuadratureResult(value, n, True)
            elif n >= NODE_CAP:
                results[row] = QuadratureResult(value, n, False)
            else:
                keep.append(i)
        active, previous = active[keep], [values[i] for i in keep]
        n *= 2
    for row, res in enumerate(results):
        if not res.converged:
            where = f" (integrand {row} of {rows})" if rows > 1 else ""
            warnings.warn(
                f"quadrature did not converge below {CONVERGENCE_TOL:g} at {NODE_CAP} nodes{where}",
                QuadratureConvergenceWarning,
                stacklevel=3,
            )
    return results


def adaptive_hermite(g: Callable[[np.ndarray], np.ndarray]) -> QuadratureResult:
    """Sum w_i g(u_i) over Gauss-Hermite rules, doubling nodes until stable."""
    return _doubling(lambda u, _: np.reshape(np.asarray(g(u), dtype=complex), (1, -1)), 1)[0]


def _hermite_scale(gauss_coeff: float) -> float:
    if not gauss_coeff > 0:
        raise InvalidParameterError("gaussian fourier integral needs a positive gaussian coefficient")
    return 1.0 / sqrt(gauss_coeff)


def node_reach(gauss_coeff: float) -> float:
    """A bound on |k| at every node gaussian_fourier_integral or
    gaussian_fourier_rows can evaluate: the zeros of the n-th Hermite polynomial
    lie inside |u| < sqrt(2n + 1), n <= NODE_CAP, and k = u / sqrt(gauss_coeff)."""
    return sqrt(2 * NODE_CAP + 1) * _hermite_scale(gauss_coeff)


def gaussian_fourier_integral(gauss_coeff: float, g: Callable[[np.ndarray], np.ndarray]) -> QuadratureResult:
    """integral exp(-gauss_coeff k^2) g(k) dk via substitution k = u / sqrt(gauss_coeff)."""
    s = _hermite_scale(gauss_coeff)
    res = adaptive_hermite(lambda u: g(u * s))
    return QuadratureResult(res.value * s, res.node_count, res.converged)


def gaussian_fourier_rows(
    gauss_coeff: float, g: Callable[[np.ndarray, np.ndarray], np.ndarray], rows: int
) -> tuple[QuadratureResult, ...]:
    """gaussian_fourier_integral for `rows` integrands that share the weight
    exp(-gauss_coeff k^2): g(k, active) gives the rows `active` at the 1-d nodes
    k.  Each row doubles, converges, counts its nodes and warns, naming itself,
    as its own gaussian_fourier_integral call would, and whatever g shares
    between rows is computed once per node set."""
    s = _hermite_scale(gauss_coeff)
    return tuple(
        QuadratureResult(res.value * s, res.node_count, res.converged)
        for res in _doubling(lambda u, active: g(u * s, active), rows)
    )


def gauss_weighted_integral(h: Callable[[np.ndarray], np.ndarray], y: float) -> QuadratureResult:
    """integral exp(-k^2 / 4y) h(k) dk, y > 0, via k = 2 sqrt(y) u.

    With h = 1 the value is 2 sqrt(pi y).
    """
    if not y > 0:
        raise InvalidParameterError("gauss_weighted_integral needs y > 0")
    return gaussian_fourier_integral(1.0 / (4.0 * y), h)


#: the transform convention Phi(op) = (1/sqrt(2 pi)) integral Phi~(k) e^{i k op} dk
_SQRT2PI = sqrt(2.0 * pi)


@dataclass(frozen=True)
class FourierSymbol:
    """A symbol function Phi through its Fourier transform, split as
    Phi~(k) = exp(-gauss_coeff k^2) * envelope(k).

    The explicit Gaussian factor is what lets the Gauss-Hermite engine absorb
    the decay; `envelope` must stay subdominant (polynomial or cosh growth).
    `func` is the symbol itself, used by spectral/series oracles.
    """

    gauss_coeff: float
    envelope: Callable[[np.ndarray], np.ndarray]
    func: Callable[[complex], complex] | None = None

    def ft(self, k):
        return np.exp(-self.gauss_coeff * np.asarray(k) ** 2) * self.envelope(np.asarray(k))


def gaussian_symbol(scale: float = 1.0) -> FourierSymbol:
    """Phi(u) = exp(-scale u^2); transform (1/sqrt(2 scale)) exp(-k^2 / (4 scale))."""
    if not scale > 0:
        raise InvalidParameterError("gaussian symbol needs scale > 0")
    amp = 1.0 / sqrt(2.0 * scale)
    return FourierSymbol(
        gauss_coeff=1.0 / (4.0 * scale),
        envelope=lambda k: np.full_like(np.asarray(k, dtype=float), amp, dtype=complex),
        func=lambda u: np.exp(-scale * u ** 2),
    )


def cos_gaussian_symbol(scale: float = 1.0) -> FourierSymbol:
    """Phi(u) = cos(u) exp(-scale u^2); transform carries a cosh(k / 2 scale) envelope."""
    if not scale > 0:
        raise InvalidParameterError("cos-gaussian symbol needs scale > 0")
    amp = np.exp(-1.0 / (4.0 * scale)) / sqrt(2.0 * scale)
    return FourierSymbol(
        gauss_coeff=1.0 / (4.0 * scale),
        envelope=lambda k: amp * np.cosh(np.asarray(k) / (2.0 * scale)),
        func=lambda u: np.cos(u) * np.exp(-scale * u ** 2),
    )


def gaussian_taylor(scale: Fraction, order: int) -> tuple[Fraction, ...]:
    """Exact Taylor coefficients of exp(-scale u^2) through the given order.

    With scale = p/q the coefficient at j = 2r is (-p)^r (2r)!/r! over (2r)! q^r:
    each Fraction is built from two integers.
    """
    scale = _exact((scale,), "gaussian scale")[0]
    q, egf = scale.denominator, _gauss_egf(-scale.numerator, order + 1)
    return tuple(Fraction(w, j_factorial * q ** (j // 2))
                 for j, (w, j_factorial) in enumerate(zip(egf, _factorials(order + 1))))
