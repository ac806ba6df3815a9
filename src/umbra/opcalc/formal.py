"""Exact eps-series engine for operator exponentials.

Operators are sums of terms in a formal parameter eps (standing for ik) with
exact rational coefficients.  Every operator term carries at least one power
of eps, so exponentials truncate at the order cap; the catalog checks
disentanglement identities like e^{A+B} = e^A e^B e^{-[A,B]/2} on this engine,
and their residuals are exactly zero or exactly nonzero.

An expansion is a sparse map {(eps order, x degree): nonzero Fraction}, so
applying a term touches only the monomials that are present.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import InvalidParameterError

Expansion = dict[tuple[int, int], Fraction]

#: each action sends x^n to factor * x^(new degree); a zero factor kills the monomial
_ACTIONS = {
    "1": lambda n: (1, n),
    "d": lambda n: (n, n - 1),
    "d2": lambda n: (n * (n - 1), n - 2),
    "x": lambda n: (1, n + 1),
}

@dataclass(frozen=True)
class OperatorTerm:
    """One term scalar * eps^shift * action, with action in {1, d, d2, x}."""

    eps_shift: int
    scalar: Fraction
    action: str

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise InvalidParameterError(f"unknown action {self.action!r}")
        if self.eps_shift < 1:
            raise InvalidParameterError("operator terms must carry at least eps^1")


def _accumulate(out: Expansion, key: tuple[int, int], value: Fraction) -> None:
    value += out.get(key, 0)
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def apply_operator(terms: list[OperatorTerm], state: Expansion, cap: int) -> Expansion:
    """Apply the sum of terms, dropping every eps order above cap."""
    out: Expansion = {}
    for term in terms:
        act = _ACTIONS[term.action]
        for (order, degree), c in state.items():
            factor, new_degree = act(degree)
            if factor and order + term.eps_shift <= cap:
                _accumulate(out, (order + term.eps_shift, new_degree), term.scalar * factor * c)
    return out


def exp_apply(terms: list[OperatorTerm], state: Expansion, cap: int) -> Expansion:
    """Apply exp(sum of terms): the series terminates because every term raises the eps order."""
    total = dict(state)
    current = state
    for m in range(1, cap + 1):
        current = {key: c / m for key, c in apply_operator(terms, current, cap).items()}
        if not current:
            break
        for key, c in current.items():
            _accumulate(total, key, c)
    return total
