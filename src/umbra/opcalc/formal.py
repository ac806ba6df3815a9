"""Exact eps-series engine for operator exponentials.

An operator is a list of `OperatorTerm`s (see `operators`) in a formal
parameter eps (standing for ik) with exact rational coefficients.  Every term
of an exponentiated operator carries at least one power of eps, so its series
truncates at the order cap; the catalog checks disentanglement identities like
e^{A+B} = e^A e^B e^{-[A,B]/2} on this engine, and their residuals are
exactly zero or exactly nonzero.  A degree-lowering term such as eps LD is
nilpotent on a polynomial, and its exponential terminates below any cap past
the degree.

The series runs on cleared integers: with the start state over one
denominator d and the term scalars over their lcm q, (q T)^m applied to the
cleared state needs no division, the sum of T^m / m! is accumulated over
q^cap cap! d, and one Fraction is built per coefficient at the end.  Only
D^{-1}'s factor 1/(n + 1) leaves Fractions in the series, and they stay
exact.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from numbers import Rational

from ..errors import InvalidParameterError
from .operators import Expansion, OperatorTerm, apply_operator


def exp_apply(terms: list[OperatorTerm], state: Expansion, cap: int) -> Expansion:
    """Apply exp(sum of terms): the series terminates because every term raises the eps order.

    An eps^0 term would not raise it, and the series would stop at the cap
    without warning, so such a term is rejected; so is a float or complex
    scalar or state value, since the engine is exact."""
    if any(term.eps_shift < 1 for term in terms):
        raise InvalidParameterError("exp_apply needs terms that carry at least eps^1")
    if not all(isinstance(v, Rational) for v in [*(term.scalar for term in terms), *state.values()]):
        raise InvalidParameterError("exp_apply needs exact rational scalars and state coefficients")
    d = lcm(*(c.denominator for c in state.values()))
    q = lcm(*(term.scalar.denominator for term in terms))
    cleared = [OperatorTerm(term.eps_shift, term.scalar.numerator * (q // term.scalar.denominator), term.action)
               for term in terms]
    # current = (q T)^m applied to d * state, q^m m! d times the m-th series term;
    # it enters the sum with weight q^(cap - m) cap! / m!, over q^cap cap! d
    current = {key: c.numerator * (d // c.denominator) for key, c in state.items()}
    weight = q ** cap * factorial(cap)
    total = {key: c * weight for key, c in current.items()}
    for m in range(1, cap + 1):
        current = apply_operator(cleared, current, cap)
        if not current:
            break
        weight //= q * m
        for key, c in current.items():
            total[key] = total.get(key, 0) + c * weight
    denominator = q ** cap * factorial(cap) * d
    return {key: Fraction(c, denominator) for key, c in total.items() if c}
