"""Series-level operators: Borel transform, e^{-alpha D^{-1}} and e^{alpha LD}.

Series are ascending coefficient tuples (index = monomial degree).  The
operators take exact input, a float entering as its exact value, and return
Fractions, so the catalog can assert eigenfunction and commutator claims on
them with zero tolerance.
"""
from __future__ import annotations

from math import factorial

from ..seqcore import _cleared, _egf_product, _exact, _factorials, _integer_correlation, _powers


def borel_transform(coeffs) -> tuple:
    """f_B(x) = integral_0^inf f(s x) e^{-s} ds, termwise x^n -> n! x^n."""
    return tuple(factorial(n) * cn for n, cn in enumerate(coeffs))


def exp_negD(alpha, coeffs) -> tuple:
    """e^{-alpha D^{-1}} f: termwise e^{-alpha D^{-1}} x^n = n! x^n C_n(alpha x).

    The output keeps the input truncation order; contributions of c_n to
    degree m are c_n (-alpha)^{m-n} n! / ((m-n)! m!), so m!^2 times the output
    is the EGF product of ((-alpha)^j) and (n!^2 c_n).
    """
    alpha, *coeffs = _exact((alpha, *coeffs), "series coefficients and alpha")
    squares = [f * f for f in _factorials(len(coeffs))]
    product = _egf_product([(-alpha) ** j for j in range(len(coeffs))],
                           [s * c for s, c in zip(squares, coeffs)], alpha.denominator)
    return tuple(b / s for b, s in zip(product.terms, squares))


def exp_laguerre_derivative(alpha, coeffs) -> tuple:
    """e^{alpha LD} f via the Borel route f_B(D^{-1} + alpha) . 1.

    In exponential coefficients of f_B, (n!)^2 c_n, shifting D^{-1} by alpha
    is e^{alpha d/dx}; the output is the correlation with alpha^k / k! over
    (j!)^2.  The catalog cross-checks it against the terminating exponential
    of eps LD on the sparse operator engine (`formal.exp_apply`).
    """
    alpha, *coeffs = _exact((alpha, *coeffs), "series coefficients and alpha")
    n = len(coeffs)
    squares = [f * f for f in _factorials(n)]
    steps = [bk * f for bk, f in zip(_powers(alpha.denominator, n), _factorials(n))]
    return _integer_correlation(_cleared(_powers(alpha.numerator, n), divisors=steps),
                                _cleared(squares, coeffs), n, squares)
