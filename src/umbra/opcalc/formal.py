"""Order-by-order verification of operator disentanglement identities.

Identities like e^{A+B} = e^A e^B e^{-[A,B]/2} are checked as power series in
a formal parameter eps (standing for ik), with exact rational coefficients.
Every operator term carries at least one power of eps, so exponentials
truncate at the order cap and residuals are exactly zero or exactly nonzero;
no numerical tolerance enters.

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

#: the identities are checked on every monomial x^n up to these degrees
WEYL_MAX_DEGREE = 8
CUBIC_MAX_DEGREE = 6


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


def product_residual(lhs: list[list[OperatorTerm]], rhs: list[list[OperatorTerm]],
                     order: int, max_degree: int) -> Fraction:
    """Largest |coefficient| of lhs - rhs on x^n, n <= max_degree; a side lists its e^{sum} factors."""
    worst = Fraction(0)
    for degree in range(max_degree + 1):
        sides = []
        for product in (lhs, rhs):
            state = {(0, degree): Fraction(1)}
            for exponent in reversed(product):  # the rightmost factor acts first
                state = exp_apply(exponent, state, order)
            sides.append(state)
        left, right = sides
        for key in left.keys() | right.keys():
            worst = max(worst, abs(left.get(key, 0) - right.get(key, 0)))
    return worst


def weyl_check(a, b, order: int = 8) -> Fraction:
    """Residual of e^{A+B} = e^A e^B e^{-[A,B]/2} for A = eps a d/dx, B = eps b x.

    [A, B] = eps^2 a b is central, so the residual must vanish identically;
    returns the largest coefficient of lhs - rhs over monomials up to
    WEYL_MAX_DEGREE, exactly.
    """
    if order > 16:
        raise InvalidParameterError("weyl check is exact but quadratic in order; keep order <= 16")
    a, b = Fraction(a), Fraction(b)
    A = OperatorTerm(1, a, "d")
    B = OperatorTerm(1, b, "x")
    comm_half = OperatorTerm(2, -a * b / 2, "1")
    return product_residual([[A, B]], [[A], [B], [comm_half]], order, WEYL_MAX_DEGREE)


def cubic_disentangle_check(alpha, beta, order: int = 8) -> Fraction:
    """Residual of the cubic disentanglement e^{A+B} = e^{m^2/12 - (m/2) A^{1/2} + A} e^B
    with A = eps alpha d^2, B = eps beta x, [A, B] = m A^{1/2}, on monomials up
    to CUBIC_MAX_DEGREE.

    The commutator forces m = 2 eps^{3/2} sqrt(alpha) beta, under which the
    exponent is rational: m^2/12 = eps^3 alpha beta^2 / 3 and (m/2) A^{1/2}
    = eps^2 alpha beta d.
    """
    if order > 10:
        raise InvalidParameterError("cubic check is exact but cubic in order; keep order <= 10")
    alpha, beta = Fraction(alpha), Fraction(beta)
    A = OperatorTerm(1, alpha, "d2")
    B = OperatorTerm(1, beta, "x")
    scalar = OperatorTerm(3, alpha * beta ** 2 / 3, "1")
    drift = OperatorTerm(2, -alpha * beta, "d")
    return product_residual([[A, B]], [[scalar, drift, A], [B]], order, CUBIC_MAX_DEGREE)
