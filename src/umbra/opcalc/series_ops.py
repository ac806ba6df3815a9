"""Series-level operators: Borel transform, e^{-alpha D^{-1}} and e^{alpha LD}.

Series are ascending coefficient tuples (index = monomial degree).  Exact
coefficients stay exact, so the catalog can assert eigenfunction and
commutator claims on them with zero tolerance.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial


def borel_transform(coeffs) -> tuple:
    """f_B(x) = integral_0^inf f(s x) e^{-s} ds, termwise x^n -> n! x^n."""
    return tuple(factorial(n) * cn for n, cn in enumerate(coeffs))


def exp_negD(alpha, coeffs) -> tuple:
    """e^{-alpha D^{-1}} f: termwise e^{-alpha D^{-1}} x^n = n! x^n C_n(alpha x).

    The output keeps the input truncation order; contributions of c_n to
    degree m are c_n (-alpha)^{m-n} n! / ((m-n)! m!).
    """
    out = [0 * coeffs[0]] * len(coeffs)
    for m in range(len(coeffs)):
        total = out[m]
        for n in range(m + 1):
            if coeffs[n] == 0:
                continue
            total += coeffs[n] * (-alpha) ** (m - n) * Fraction(factorial(n), factorial(m - n) * factorial(m))
        out[m] = total
    return tuple(out)


def exp_laguerre_derivative(alpha, coeffs) -> tuple:
    """e^{alpha LD} f via the Borel route f_B(D^{-1} + alpha) . 1.

    Exact on rational input.  The catalog cross-checks it against the
    terminating exponential of eps LD on the sparse operator engine
    (`formal.exp_apply`).
    """
    borel = borel_transform(coeffs)
    order = len(borel) - 1
    out = [0 * borel[0]] * (order + 1)
    for j in range(order + 1):
        total = out[j]
        for n in range(j, order + 1):
            if borel[n] == 0:
                continue
            total += borel[n] * comb(n, j) * alpha ** (n - j) * Fraction(1, factorial(j))
        out[j] = total
    return tuple(out)
