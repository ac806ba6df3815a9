"""Series-level operators: Borel transform, e^{-alpha D^{-1}}, e^{alpha LD}, [LD, D^{-1}].

Series are ascending coefficient tuples (index = monomial degree), as in
`TruncatedOperator.apply`.  Exact coefficients stay exact, so eigenfunction and
commutator claims can be asserted with zero tolerance.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .operators import derivative_op, laguerre_derivative_op, neg_derivative_op, x_multiply_op


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


def commutator_check_LD(coeffs) -> tuple:
    """Residual of the Weyl pair claim [LD, D^{-1}] = 1 in its operational use.

    LD o D^{-1} is computed honestly.  D^{-1} o LD is computed the way the
    Weyl-algebra manipulations use it: LD is split as x d^2 + d and the
    D^{-1} d factor is cancelled formally, leaving D^{-1} x d^2 + 1.  That
    cancellation is only exact on inputs with f(0) = 0, which is precisely the
    restriction the pair carries: the residual is -f(0) as a constant series.

    Both products are banded operators at cap deg f + 2, where neither loses
    a coefficient; the residual has the input's length.
    """
    cap = len(coeffs) + 1
    d = derivative_op(cap)
    neg = neg_derivative_op(cap)
    lhs = laguerre_derivative_op(cap).compose(neg)
    rhs = neg.compose(x_multiply_op(cap).compose(d.compose(d)))
    return tuple(r - 2 * c for r, c in zip((lhs + rhs.scale(-1)).apply(coeffs), coeffs))


def exp_laguerre_derivative(alpha, coeffs) -> tuple:
    """e^{alpha LD} f via the Borel route f_B(D^{-1} + alpha) . 1.

    Exact on rational input.  The catalog cross-checks it against the
    nilpotent matrix exponential of the truncated LD operator
    (`laguerre_derivative_op(order).expm_apply`).
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
