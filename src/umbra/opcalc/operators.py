"""Operators on polynomials, as sums of elementary actions on monomials.

One action table serves every operator the catalog applies: each action sends
x^n to factor * x^m.  An operator is a list of `OperatorTerm`s, scalar *
eps^shift * action, applied to a sparse state {(eps order, x degree): nonzero
coefficient}, so a term touches only the monomials that are present and
nothing is truncated but the eps orders above a cap.  Exact coefficients stay
exact.  A term with shift 0 is plain application to a polynomial, a state at
eps order 0; terms that carry eps are exponentiated by `formal.exp_apply`.
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
    # D^{-1} integrates from 0; the Laguerre derivative LD = d x d
    "Dinv": lambda n: (Fraction(1, n + 1), n + 1),
    "LD": lambda n: (n * n, n - 1),
}


@dataclass(frozen=True)
class OperatorTerm:
    """One term scalar * eps^shift * action, with action a key of the action table."""

    eps_shift: int
    scalar: Fraction
    action: str

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise InvalidParameterError(f"unknown action {self.action!r}")
        if self.eps_shift < 0:
            raise InvalidParameterError("operator terms carry a nonnegative power of eps")


def polynomial(coeffs) -> Expansion:
    """The state of an ascending coefficient vector, at eps order 0."""
    return {(0, n): c for n, c in enumerate(coeffs) if c}


def coefficients(state: Expansion, length: int) -> list:
    """Coefficients of x^0 .. x^(length - 1), summed over eps orders (eps = 1);
    the state must hold no higher degree."""
    out = [0] * length
    for (_, degree), c in state.items():
        out[degree] += c
    return out


def _accumulate(out: Expansion, key: tuple[int, int], value: Fraction) -> None:
    value += out.get(key, 0)
    if value:
        out[key] = value
    else:
        out.pop(key, None)


def apply_operator(terms: list[OperatorTerm], state: Expansion, cap: int) -> Expansion:
    """Apply the sum of terms, dropping every eps order above cap.

    Each term sends distinct degrees to distinct degrees, so a float output
    coefficient is a sum of at most one contribution per term, added in term
    order."""
    out: Expansion = {}
    for term in terms:
        act = _ACTIONS[term.action]
        for (order, degree), c in state.items():
            factor, new_degree = act(degree)
            if factor and order + term.eps_shift <= cap:
                _accumulate(out, (order + term.eps_shift, new_degree), term.scalar * factor * c)
    return out
