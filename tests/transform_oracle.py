"""Plain double sums for the eight sequence transforms, written from the
formulas in the `umbra.seqcore` docstrings and sharing no code with it.

Every term is an exact `Fraction` sum over the index range the docstring
gives; nothing is cleared, rescaled or convolved, so an agreement with
`seqcore` is an independent check of its kernel.
"""
from fractions import Fraction
from math import comb, factorial


def binomial(a):
    """b_n = sum_{s<=n} (-1)^s C(n,s) a_s."""
    return [sum((-1) ** s * comb(n, s) * a[s] for s in range(n + 1)) for n in range(len(a))]


def modular(a, alpha, beta):
    """b_n = sum_{s<=n} (-1)^s C(n,s) alpha^{n-s} beta^s a_s."""
    return [
        sum((-1) ** s * comb(n, s) * alpha ** (n - s) * beta ** s * a[s] for s in range(n + 1))
        for n in range(len(a))
    ]


def modular_inverse(b, alpha, beta):
    """a_n = beta^{-n} sum_{s<=n} (-1)^s C(n,s) alpha^{n-s} b_s."""
    return [
        beta ** -n * sum((-1) ** s * comb(n, s) * alpha ** (n - s) * b[s] for s in range(n + 1))
        for n in range(len(b))
    ]


def k_binomial(a, k):
    """b_n = sum_{s<=n} (-1)^s C(n,s) s^k a_s, with 0^0 = 1."""
    return [sum((-1) ** s * comb(n, s) * s ** k * a[s] for s in range(n + 1)) for n in range(len(a))]


def hermite(a, alpha, beta):
    """b_n = sum_{r<=n/2} n!/((n-2r)! r!) alpha^{n-2r} beta^r a_r."""
    return [
        sum(
            Fraction(factorial(n), factorial(n - 2 * r) * factorial(r)) * alpha ** (n - 2 * r) * beta ** r * a[r]
            for r in range(n // 2 + 1)
        )
        for n in range(len(a))
    ]


def hermite_complementary(a, alpha, beta):
    """b_n = n! sum_{r<=n/2} alpha^{n-2r} beta^r a_{n-2r} / ((n-2r)! r!)."""
    return [
        factorial(n) * sum(
            alpha ** (n - 2 * r) * beta ** r * a[n - 2 * r] / (factorial(n - 2 * r) * factorial(r))
            for r in range(n // 2 + 1)
        )
        for n in range(len(a))
    ]


def hermite_inverse(b, alpha, beta):
    """a_n = alpha^{-n} n! sum_r b_{n-2r} (-beta)^r / ((n-2r)! r!)."""
    return [
        alpha ** -n * factorial(n) * sum(
            b[n - 2 * r] * (-beta) ** r / (factorial(n - 2 * r) * factorial(r))
            for r in range(n // 2 + 1)
        )
        for n in range(len(b))
    ]


def laguerre(a, alpha, beta):
    """b_n = n! sum_{r<=n} (-1)^r beta^{n-r} alpha^r a_r / ((r!)^2 (n-r)!)."""
    return [
        factorial(n) * sum(
            (-1) ** r * beta ** (n - r) * alpha ** r * a[r] / (factorial(r) ** 2 * factorial(n - r))
            for r in range(n + 1)
        )
        for n in range(len(a))
    ]


def expected(name, terms, alpha=None, beta=None, k=None):
    """The docstring double sum of one named transform, as a list of Fractions."""
    terms = [Fraction(t) for t in terms]
    if name == "binomial":
        return binomial(terms)
    if name == "k-binomial":
        return k_binomial(terms, k)
    table = {
        "modular": modular,
        "modular-inverse": modular_inverse,
        "hermite": hermite,
        "hermite-complementary": hermite_complementary,
        "hermite-inverse": hermite_inverse,
        "laguerre": laguerre,
    }
    return [Fraction(v) for v in table[name](terms, Fraction(alpha), Fraction(beta))]
