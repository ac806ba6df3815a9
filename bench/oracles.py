"""Exact double sums for the eight sequence transforms, written from the
formulas in the `umbra.seqcore` docstrings and sharing no code with it.

Each function takes and returns lists of `Fraction`.  Sums are accumulated
over a common denominator: the input terms are scaled to integers, each
output term is one integer sum, and a single `Fraction` is built per output
term, so the oracle costs about as much as the transform it checks.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm


def _cleared(terms):
    """(D, [a_s * D]) with D the least common denominator."""
    den = lcm(*(t.denominator for t in terms))
    return den, [t.numerator * (den // t.denominator) for t in terms]


def _powers(base: int, count: int) -> list[int]:
    out = [1]
    for _ in range(count):
        out.append(out[-1] * base)
    return out


def binomial(a):
    """b_n = sum_{s<=n} (-1)^s C(n,s) a_s."""
    den, ints = _cleared(a)
    return [
        Fraction(sum((-1) ** s * comb(n, s) * ints[s] for s in range(n + 1)), den)
        for n in range(len(a))
    ]


def modular(a, alpha: Fraction, beta: Fraction):
    """b_n = sum_{s<=n} (-1)^s C(n,s) alpha^{n-s} beta^s a_s.

    With alpha = p/q and beta = r/t, q^n t^n alpha^{n-s} beta^s = p^{n-s} t^{n-s} r^s q^s.
    """
    den, ints = _cleared(a)
    top = len(a) - 1
    lead = _powers(alpha.numerator * beta.denominator, top)
    trail = _powers(beta.numerator * alpha.denominator, top)
    scale = _powers(alpha.denominator * beta.denominator, top)
    return [
        Fraction(
            sum((-1) ** s * comb(n, s) * lead[n - s] * trail[s] * ints[s] for s in range(n + 1)),
            den * scale[n],
        )
        for n in range(len(a))
    ]


def modular_inverse(b, alpha: Fraction, beta: Fraction):
    """a_n = beta^{-n} sum_{s<=n} (-1)^s C(n,s) alpha^{n-s} b_s."""
    den, ints = _cleared(b)
    top = len(b) - 1
    up = _powers(alpha.numerator, top)
    down = _powers(alpha.denominator, top)
    bnum = _powers(beta.numerator, top)
    bden = _powers(beta.denominator, top)
    out = []
    for n in range(len(b)):
        # alpha^{n-s} = p^{n-s} q^s / q^n
        total = sum((-1) ** s * comb(n, s) * up[n - s] * down[s] * ints[s] for s in range(n + 1))
        out.append(Fraction(total * bden[n], den * down[n] * bnum[n]))
    return out


def k_binomial(a, k: int):
    """b_n = sum_{s<=n} (-1)^s C(n,s) s^k a_s, with 0^0 = 1."""
    den, ints = _cleared(a)
    weight = [s ** k for s in range(len(a))]
    return [
        Fraction(sum((-1) ** s * comb(n, s) * weight[s] * ints[s] for s in range(n + 1)), den)
        for n in range(len(a))
    ]


def _hermite_coeff(n: int, r: int) -> int:
    return factorial(n) // (factorial(n - 2 * r) * factorial(r))


def hermite(a, alpha: Fraction, beta: Fraction):
    """b_n = sum_{r<=n/2} n!/((n-2r)! r!) alpha^{n-2r} beta^r a_r.

    Scaled by q^n t^n: alpha^{n-2r} beta^r q^n t^n = p^{n-2r} q^{2r} v^r t^{n-r}
    with alpha = p/q and beta = v/t.
    """
    den, ints = _cleared(a)
    top = len(a) - 1
    p, q = _powers(alpha.numerator, top), _powers(alpha.denominator, top)
    v, t = _powers(beta.numerator, top), _powers(beta.denominator, top)
    out = []
    for n in range(len(a)):
        total = sum(
            _hermite_coeff(n, r) * p[n - 2 * r] * q[2 * r] * v[r] * t[n - r] * ints[r]
            for r in range(n // 2 + 1)
        )
        out.append(Fraction(total, den * q[n] * t[n]))
    return out


def hermite_complementary(a, alpha: Fraction, beta: Fraction):
    """b_n = n! sum_{r<=n/2} alpha^{n-2r} beta^r a_{n-2r} / ((n-2r)! r!)."""
    den, ints = _cleared(a)
    top = len(a) - 1
    p, q = _powers(alpha.numerator, top), _powers(alpha.denominator, top)
    v, t = _powers(beta.numerator, top), _powers(beta.denominator, top)
    out = []
    for n in range(len(a)):
        total = sum(
            _hermite_coeff(n, r) * p[n - 2 * r] * q[2 * r] * v[r] * t[n - r] * ints[n - 2 * r]
            for r in range(n // 2 + 1)
        )
        out.append(Fraction(total, den * q[n] * t[n]))
    return out


def hermite_inverse(b, alpha: Fraction, beta: Fraction):
    """a_n = alpha^{-n} n! sum_r b_{n-2r} (-beta)^r / ((n-2r)! r!)."""
    den, ints = _cleared(b)
    top = len(b) - 1
    v, t = _powers(-beta.numerator, top), _powers(beta.denominator, top)
    p, q = _powers(alpha.numerator, top), _powers(alpha.denominator, top)
    out = []
    for n in range(len(b)):
        # scaled by t^{n//2}: (-beta)^r t^{n//2} = (-v)^r t^{n//2 - r}
        half = n // 2
        total = sum(
            _hermite_coeff(n, r) * v[r] * t[half - r] * ints[n - 2 * r] for r in range(half + 1)
        )
        out.append(Fraction(total * q[n], den * t[half] * p[n]))
    return out


def laguerre(a, alpha: Fraction, beta: Fraction):
    """b_n = n! sum_{r<=n} (-1)^r beta^{n-r} alpha^r a_r / ((r!)^2 (n-r)!).

    n!/((r!)^2 (n-r)!) = C(n,r)/r!; scaled by n! q^n t^n the term becomes
    C(n,r) n!/r! v^{n-r} q^{n-r} p^r t^r with alpha = p/q and beta = v/t.
    """
    den, ints = _cleared(a)
    top = len(a) - 1
    p, q = _powers(alpha.numerator, top), _powers(alpha.denominator, top)
    v, t = _powers(beta.numerator, top), _powers(beta.denominator, top)
    out = []
    for n in range(len(a)):
        fn = factorial(n)
        total = sum(
            (-1) ** r * comb(n, r) * (fn // factorial(r)) * v[n - r] * q[n - r] * p[r] * t[r] * ints[r]
            for r in range(n + 1)
        )
        out.append(Fraction(total, den * fn * q[n] * t[n]))
    return out


def expected(name: str, terms, alpha=None, beta=None, k=None):
    """The docstring double sum for one named transform."""
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
    return table[name](terms, alpha, beta)
