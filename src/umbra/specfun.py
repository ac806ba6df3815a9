"""Reference special functions the rest of the package tests against.

Two-variable Hermite polynomials, Tricomi-Bessel functions, Stirling numbers
of the second kind.  Rational inputs stay exact; complex inputs go through
float arithmetic (the quadrature engine evaluates C_n at imaginary arguments).
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from .errors import InternalConsistencyError, InvalidParameterError


def hermite2_coeffs(n: int, y) -> tuple:
    """Ascending coefficients in x of H_n(x, y): x^{n-2r} carries n! y^r / ((n-2r)! r!).

    Exact on rational y; y = 1 gives the integers n!/((n-2r)! r!).
    """
    out = [0 * y] * (n + 1)
    number = 1
    for r in range(n // 2 + 1):
        out[n - 2 * r] = number * y ** r
        # n!/((n-2r-2)! (r+1)!) from n!/((n-2r)! r!); the quotient is exact
        number = number * (n - 2 * r) * (n - 2 * r - 1) // (r + 1)
    return tuple(out)


def hermite2(n: int, x, y):
    """Two-variable Hermite polynomial H_n(x, y) = n! sum_r x^{n-2r} y^r / ((n-2r)! r!).

    Generating function: sum t^n H_n(x,y) / n! = exp(x t + y t^2).
    Accepts exact rationals (exact result), floats, complex, or numpy arrays.
    """
    numbers = hermite2_coeffs(n, 1)
    total = 0
    for r in range(n // 2 + 1):
        total = total + numbers[n - 2 * r] * x ** (n - 2 * r) * y ** r
    return total


#: relative cutoff for tricomi series tails; terms decay factorially
_TRICOMI_RELATIVE_CUTOFF = 1e-18


def tricomi_c(n: int, x):
    """Tricomi-Bessel function C_n(x) = sum_r (-1)^r x^r / (r! (n+r)!).

    C_0(x) = J_0(2 sqrt(x)) for x >= 0.  Entire of order 1/2: the series is
    summed until the term magnitude drops below 1e-18 of the running sum,
    with a minimum of n + 10 terms.  Accepts complex scalars or numpy arrays.
    max|sum| never exceeds B = sum_r max|term_r| (nor, after rounding, 2B), so
    the sum's magnitude is taken only once the test against 2B passes.
    """
    import numpy as np

    z = np.asarray(x, dtype=complex)
    neg_z = -z
    term = np.full(z.shape, 1.0 / factorial(n), dtype=complex)
    total, mags = term.copy(), np.empty(z.shape)
    bound = 1.0 / factorial(n)
    r = 0
    while True:
        np.multiply(term, neg_z, out=term)
        np.divide(term, (r + 1) * (n + r + 1), out=term)
        total += term
        r += 1
        size = float(np.abs(term, out=mags).max())
        bound += size
        if (r >= n + 10 and size < _TRICOMI_RELATIVE_CUTOFF * max(2 * bound, 1e-300)
                and size < _TRICOMI_RELATIVE_CUTOFF * max(np.abs(total).max(), 1e-300)):
            break
        if r > 1000:  # unreachable for finite inputs; guards NaN propagation
            raise InternalConsistencyError("tricomi series failed to converge")
    if np.ndim(x) == 0:
        return complex(total)
    return total


def tricomi_series(n: int, order: int) -> tuple[Fraction, ...]:
    """Exact ordinary coefficients of C_n: coefficient of x^r is (-1)^r / (r! (n+r)!)."""
    return tuple(Fraction((-1) ** r, factorial(r) * factorial(n + r)) for r in range(order + 1))


#: largest n whose n! converts to a finite double (171! ~ 1.2e309 overflows)
FACTORIAL_DEGREE_MAX = 170


def polyval_coeffs(coeffs, x):
    """Evaluate an ascending coefficient vector at x (Horner).

    Exact on exact inputs; x may also be a float, complex or a numpy array.
    """
    value = 0
    for c in reversed(list(coeffs)):
        value = value * x + c
    return value


def stirling2(k: int, n: int) -> int:
    """Stirling number of the second kind, S2(k, n) = (1/k!) sum_j (-1)^{k-j} C(k,j) j^n.

    Argument order follows the source formula: k is the number of blocks (the
    classical literature often writes S(n, k) with the arguments swapped).
    Convention 0^0 = 1, so S2(0, 0) = 1.
    """
    if k < 0 or n < 0:
        raise InvalidParameterError("stirling2 needs nonnegative arguments")
    total = 0
    for j in range(k + 1):
        jn = 1 if n == 0 else j ** n
        total += (-1) ** (k - j) * comb(k, j) * jn
    q, rem = divmod(total, factorial(k))
    if rem:
        raise InternalConsistencyError(f"S2({k},{n}) sum not divisible by {k}!")
    return q

