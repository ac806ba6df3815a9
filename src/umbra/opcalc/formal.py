"""Exact eps-series engine for operator exponentials.

An operator is a list of `OperatorTerm`s (see `operators`) in a formal
parameter eps (standing for ik) with exact rational coefficients.  Every term
of an exponentiated operator carries at least one power of eps, so its series
truncates at the order cap; the catalog checks disentanglement identities like
e^{A+B} = e^A e^B e^{-[A,B]/2} on this engine, and their residuals are
exactly zero or exactly nonzero.  A degree-lowering term such as eps LD is
nilpotent on a polynomial, and its exponential terminates below any cap past
the degree.
"""
from __future__ import annotations

from ..errors import InvalidParameterError
from .operators import Expansion, OperatorTerm, _accumulate, apply_operator


def exp_apply(terms: list[OperatorTerm], state: Expansion, cap: int) -> Expansion:
    """Apply exp(sum of terms): the series terminates because every term raises the eps order.

    An eps^0 term would not raise it, and the series would stop at the cap
    without warning, so such a term is rejected."""
    if any(term.eps_shift < 1 for term in terms):
        raise InvalidParameterError("exp_apply needs terms that carry at least eps^1")
    total = dict(state)
    current = state
    for m in range(1, cap + 1):
        current = {key: c / m for key, c in apply_operator(terms, current, cap).items()}
        if not current:
            break
        for key, c in current.items():
            _accumulate(total, key, c)
    return total
