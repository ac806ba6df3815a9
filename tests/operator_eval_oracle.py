"""Element-by-element forms of the whole-array operator evaluations, kept as
references for them:

- `adaptive_hermite`: one integrand, its own doubling loop;
- `expansion_coefficients`: one adaptive integral per order, 1/A(ik) taken
  node by node, and the growth probes one (order, point) pair at a time;
- `integro_matrix_oracle`: the n! and 1/n! scalings one coefficient at a time
  and a Taylor generator that allocates a fresh vector per application;
- `tricomi_c`: both magnitude reductions at every step past the minimum;
- `integro_diff_evolve`: the series converted to complex on every call, the
  Borel and index tables built afresh, one point at a time, a real moment
  vector cast inside the product, the moment-law weights built term by term,
  and the bracket polynomial evaluated at ik and -ik in two Horner passes.

Each performs the same floating-point operations as the library, in the same
order, so the two must agree bit for bit.
"""
import warnings
from math import comb, factorial, inf, lgamma, log, pi, sqrt

import numpy as np

from umbra.appell import _GUARD_POINTS, MAX_COEFFICIENTS
from umbra.errors import DivergenceError, InternalConsistencyError, TruncationError
from umbra.opcalc.fourier import _bracket_polynomial, _e_tilde_grid
from umbra.opcalc.oracles import ORACLE_TAYLOR_BETA, ORACLE_TAYLOR_ORDERS, _unit_eigensystem
from umbra.opcalc.quadrature import (
    _SQRT2PI,
    CONVERGENCE_TOL,
    DEFAULT_START_NODES,
    NODE_CAP,
    QuadratureConvergenceWarning,
    QuadratureResult,
    gauss_hermite_rule,
    legendre_composite_rule,
    log_gamma_half,
)
from umbra.specfun import polyval_coeffs


def adaptive_hermite(g):
    previous = None
    n = DEFAULT_START_NODES
    while True:
        rule = gauss_hermite_rule(n)
        value = complex(np.sum(rule.weights * np.asarray(g(rule.nodes), dtype=complex)))
        if previous is not None and abs(value - previous) < CONVERGENCE_TOL * max(1.0, abs(value)):
            return QuadratureResult(value, n, True)
        if n >= NODE_CAP:
            warnings.warn("quadrature did not converge", QuadratureConvergenceWarning)
            return QuadratureResult(value, n, False)
        previous = value
        n *= 2


def expansion_coefficients(fam, f, N):
    """(coefficients, node counts, converged flags) of appell.expansion_coefficients."""
    if N > MAX_COEFFICIENTS:
        raise TruncationError(f"coefficient count capped at {MAX_COEFFICIENTS}: n! growth drowns doubles")
    sym = f.symbol()

    def integrand_mag(k, n):
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            value = abs(complex(sym.ft(k)) * fam.inverse_at(1j * k) * k ** n)
        return float("inf") if not np.isfinite(value) else value

    if fam.eval_inv is None:
        for k in _GUARD_POINTS:
            full = fam.inverse_at(1j * k)
            dropped = polyval_coeffs(map(complex, fam.a_inv_taylor[:max(1, len(fam.a_inv_taylor) - 2)]), 1j * k)
            if abs(full - dropped) > 1e-6 * max(abs(full), 1e-300):
                raise DivergenceError(
                    f"1/A Taylor data has not converged at |k| = {k:g}: supply more "
                    "coefficients or an analytic evaluator"
                )
    for n in range(N + 1):
        probes = [integrand_mag(k, n) for k in _GUARD_POINTS]
        grows = probes[-1] > probes[0] or probes[-1] == float("inf")
        if grows and probes[-1] > 1e-8:
            raise DivergenceError(
                f"integrand for coefficient n={n} grows at large |k|: "
                f"family {fam.name!r} is inadmissible against this function"
            )

    inverse = {}

    def inverse_on(k):
        key = k.tobytes()
        if key not in inverse:
            inverse[key] = np.array([fam.inverse_at(1j * kk) for kk in k])
        return inverse[key]

    def integrand(k, n):
        return sym.envelope(k) * inverse_on(k) * k ** n

    s = 1.0 / sqrt(sym.gauss_coeff)
    coeffs, nodes, converged = [], [], []
    for n in range(N + 1):
        res = adaptive_hermite(lambda u, n=n: integrand(u * s, n))
        coeffs.append(1j ** n / (_SQRT2PI * factorial(n)) * (res.value * s))
        nodes.append(res.node_count)
        converged.append(res.converged)
    return tuple(coeffs), tuple(nodes), tuple(converged)


def integro_matrix_oracle(f_ord_coeffs, beta, m, tau, x, degree_cap):
    n_basis = degree_cap + 1
    coeffs = list(f_ord_coeffs)[:n_basis]
    e_coeffs = np.zeros(n_basis, dtype=complex)
    for n, c in enumerate(coeffs):
        e_coeffs[n] = complex(c) * factorial(n)

    if beta < ORACLE_TAYLOR_BETA:
        down = np.arange(1, n_basis)

        def generator(v):
            out = np.zeros_like(v)
            out[:-1] = v[1:] * down
            if beta:
                out[1:] += beta * v[:-1]
            return out

        total = e_coeffs.copy()
        term = e_coeffs.copy()
        peak = 0.0
        for k in range(1, ORACLE_TAYLOR_ORDERS + 1):
            for _ in range(m):
                term = generator(term)
            term = term * (-tau) / k
            if not np.any(term):
                break
            total += term
            if beta:
                size = np.max(np.abs(term))
                peak = max(peak, size)
                if size <= 1e-17 * np.max(np.abs(total)):
                    break
        else:
            raise TruncationError(
                f"Taylor sum of e^(-tau G^{m}) not converged in {ORACLE_TAYLOR_ORDERS} orders "
                f"(beta = {beta:g}, tau = {tau:g}, degree cap {degree_cap})"
            )
        if peak > 1e6 * np.max(np.abs(total)):
            raise TruncationError(
                f"Taylor sum of e^(-tau G^{m}) cancels {peak / np.max(np.abs(total)):.1e}-fold "
                f"(beta = {beta:g}, tau = {tau:g}, degree cap {degree_cap})"
            )
        evolved_e = total
    else:
        unit_vals, eigvecs, log_fact = _unit_eigensystem(n_basis)
        eigvals = sqrt(beta) * unit_vals
        log_s = 0.5 * (np.arange(n_basis) * np.log(beta) - log_fact)
        d = e_coeffs * np.exp(-log_s)
        decay = np.exp(-tau * eigvals ** m) if tau else 1.0
        d = eigvecs @ (decay * (eigvecs.T @ d))
        evolved_e = d * np.exp(log_s)

    evolved = np.array([evolved_e[n] / factorial(n) for n in range(n_basis)])
    return complex(polyval_coeffs(evolved, x))


def tricomi_c(n, x):
    z = np.asarray(x, dtype=complex)
    term = np.full(z.shape, 1.0 / factorial(n), dtype=complex)
    total = term.copy()
    r = 0
    while True:
        term = term * (-z) / ((r + 1) * (n + r + 1))
        total += term
        r += 1
        if r >= n + 10 and np.max(np.abs(term)) < 1e-18 * max(np.max(np.abs(total)), 1e-300):
            break
        if r > 1000:
            raise InternalConsistencyError("tricomi series failed to converge")
    if np.ndim(x) == 0:
        return complex(total)
    return total


def integro_diff_evolve(coeffs, beta, m, tau, x):
    """The route of opcalc.integro_diff_evolve past its argument guards."""
    f_ord = [complex(c) for c in coeffs]
    if tau == 0:
        return polyval_coeffs(f_ord, x)
    tf = len(f_ord) - 1
    work_order = max(tf, 48) + 16
    deg = np.arange(tf + 1)[:, None]
    r = np.arange(work_order + 1)
    borel = np.zeros(2 * tf + 1, dtype=complex)
    borel[: tf + 1] = [factorial(n) * c for n, c in enumerate(f_ord)]
    binomial = np.array([[comb(j + s, j) if j + s <= tf else 0 for s in range(tf + 1)] for j in range(tf + 1)],
                        dtype=float)
    a = binomial * borel[deg + deg.T]
    xpow = np.zeros(tf + work_order + 1)
    xpow[: work_order + 1] = np.cumprod(np.r_[1.0, x / r[1:]])
    b = xpow[deg + r] * np.cumprod(np.r_[1.0, beta / r[1:]])

    if m == 2:
        degree = a.shape[1] + b.shape[1] - 1
        half = np.arange(0, degree, 2) / 2.0 + 0.5
        log_moments = (
            log_gamma_half(len(half)) - half * log(1.0 / (4.0 * tau) + beta / 2.0) - 0.5 * log(4.0 * pi * tau)
        )
        moments = np.zeros(degree)
        moments[::2] = np.where(np.arange(len(half)) % 2, -1.0, 1.0) * np.exp(log_moments)
        hankel = moments[np.arange(a.shape[1])[:, None] + np.arange(b.shape[1])]
        return complex(np.sum((a @ hankel) * b))
    if beta == 0:
        order = tf // m + 1
        log_scale = max((2.0 * lgamma(n + 1.0) + log(abs(c)) for n, c in enumerate(f_ord) if c), default=-inf)
        if order * log(tau) - lgamma(order + 1.0) + log_scale > log(1e-15):
            raise TruncationError("moment sum truncated")
        log_weights = [log(factorial(m * j) // factorial(j)) + j * log(tau) for j in range(order)]
        weights = np.array([(-1.0) ** j for j in range(order)]) * np.exp(log_weights)
        return complex((b[:, 0] @ a)[::m] @ weights)

    for K in (4.0, 8.0, 16.0, 32.0):
        tail = abs(_e_tilde_grid(m, tau, np.array([K, 1.25 * K])).max()) * np.exp(-beta * K * K / 2.0)
        if tail < 1e-15:
            break
    else:
        raise TruncationError("cutoff search exhausted")
    if tf < int(2.5 * K + 1):
        raise TruncationError("series too short for the cutoff")
    rule = legendre_composite_rule(-K, K, max(64, int(8 * K)), 12)
    poly = _bracket_polynomial(a, b)
    half = len(rule.nodes) // 2
    k = rule.nodes[half:]
    damped = _e_tilde_grid(m, tau, k) * np.exp(-beta * k ** 2 / 2.0)
    integrand = damped * polyval_coeffs(poly, 1j * k) + damped * polyval_coeffs(poly, 1j * -k)
    return complex(np.sum(rule.weights[half:] * integrand)) / _SQRT2PI
