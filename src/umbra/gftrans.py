"""Truncated generating-function evaluation and the closed-form transform identities.

Each section-1..3 transform has a closed form acting on the ordinary (OGF) or
exponential (EGF) generating function of the input sequence.  These are
evaluated here on truncated series with rigorous geometric / factorial tail
bounds, so the identity suite can compare them against direct series summation
of the transformed sequence within computed error budgets.

Coefficients are complex floats in this module; the exact sequences of seqcore
convert losslessly on entry.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from math import exp, factorial, inf, lgamma, log
from typing import Callable, Literal

from .errors import DivergenceError, InvalidParameterError, TruncationError
from .seqcore import Sequence
from .specfun import polyval_coeffs, stirling2

Kind = Literal["ordinary", "exponential"]


def _check_kind(kind: str) -> None:
    if kind not in ("ordinary", "exponential"):
        raise InvalidParameterError(f"unknown series kind {kind!r}")


@dataclass(frozen=True)
class PowerSeries:
    """Truncated series: sum c_n x^n (ordinary) or sum c_n x^n / n! (exponential)."""

    coeffs: tuple
    kind: Kind

    def __post_init__(self) -> None:
        _check_kind(self.kind)
        if len(self.coeffs) < 1:
            raise InvalidParameterError("a series needs at least the constant coefficient")
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


def ordinary_tail(M: float, rho: float, xabs: float, first_omitted: int) -> float:
    """Tail of sum_{n >= first_omitted} M (rho |x|)^n, assuming |c_n| <= M rho^n."""
    s = rho * xabs
    if s >= 1.0:
        return float("inf")
    return M * s ** first_omitted / (1.0 - s)


_LOG_FLOAT_MAX = log(sys.float_info.max)


def power_over_factorial(s: float, n: int) -> float:
    """s^n / n! for s >= 0, in log space so that no order overflows a float."""
    if s == 0.0:
        return 0.0 ** n
    log_value = n * log(s) - lgamma(n + 1)
    return exp(log_value) if log_value < _LOG_FLOAT_MAX else inf


def exponential_tail(M: float, rho: float, xabs: float, first_omitted: int) -> float:
    """Tail of sum_{n >= fo} M (rho |x|)^n / n! bounded by the shifted exponential."""
    s = rho * xabs
    return M * power_over_factorial(s, first_omitted) * exp(s)


def derivative_tail_ordinary(M: float, rho: float, r: int, uabs: float, first_omitted: int) -> float:
    """Truncation tail of the r-th derivative of an ordinary series with |c_n| <= M rho^n.

    f^(r)(u) = sum_n c_{n+r} (n+r)!/n! u^n; the geometric majorant sums in
    closed form to M rho^r r! / (1-s)^{r+1}, so the tail is that total minus
    the kept partial sum (exact for the majorant).  At r = 0 the tail is
    `ordinary_tail`, the geometric closed form: the subtraction would lose it
    to cancellation once it falls below the rounding of the total.
    """
    if r == 0:
        return ordinary_tail(M, rho, uabs, first_omitted)
    s = rho * uabs
    if s >= 1.0:
        return float("inf")
    total = M * rho ** r * factorial(r) / (1.0 - s) ** (r + 1)
    kept = 0.0
    for n in range(first_omitted):
        kept += M * rho ** r * (factorial(n + r) // factorial(n)) * s ** n
    return max(total - kept, 0.0)


def _eval_ordinary(coeffs, x: complex) -> complex:
    return polyval_coeffs(map(complex, coeffs), x)


def _eval_exponential(coeffs, x: complex) -> complex:
    value = 0j
    power = 1.0 + 0j
    for n, c in enumerate(coeffs):
        if n:
            power *= x / n
        value += complex(c) * power
    return value


def _eval_bessel(coeffs, x: complex) -> complex:
    # q(x) = sum c_r x^r / (r!)^2, the Laguerre-side companion series
    value = 0j
    power = 1.0 + 0j
    for r, c in enumerate(coeffs):
        if r:
            power *= x / (r * r)
        value += complex(c) * power
    return value


def _derivative_terms(terms: tuple, r: int, kind: Kind) -> tuple:
    """Exact r-th derivative of the truncated series, in one pass over its terms.

    ordinary: c_{n+r} (n+r)!/n! by a running falling factorial; exponential: c_{n+r}.
    A prefix of r terms or fewer has no r-th derivative: TruncationError.
    """
    if r >= len(terms):
        raise TruncationError(f"derivative order {r} exceeds truncation order {len(terms) - 1}")
    if kind == "exponential":
        return terms[r:]
    falling = factorial(r)
    out = []
    for n, c in enumerate(terms[r:]):
        if n:
            falling = falling * (n + r) // n
        out.append(c * falling)
    return tuple(out)


def _radius_guard(label: str, s: float) -> None:
    if s >= 1.0:
        raise DivergenceError(f"{label}: |argument| = {s:g} outside the unit-radius condition")


def binomial_gf_ordinary(a: Sequence, x: complex) -> complex:
    """Closed form of the binomial transform on the OGF: (1/(1-x)) f(-x/(1-x)), |x| < 1."""
    _radius_guard("binomial ordinary closed form", abs(x))
    u = -x / (1 - x)
    return _eval_ordinary(a.terms, u) / (1 - x)


def binomial_gf_exponential(a: Sequence, x: complex) -> complex:
    """Closed form of the binomial transform on the EGF: e^x g(-x); entire."""
    from cmath import exp as cexp

    return cexp(x) * _eval_exponential(a.terms, -x)


def modular_gf(a: Sequence, alpha, beta, x: complex, kind: Kind) -> complex:
    """Modular-transform closed forms: (1/(1-ax)) f(bx/(ax-1)) or e^{ax} g(-bx)."""
    from cmath import exp as cexp

    _check_kind(kind)
    alpha = complex(alpha)
    beta = complex(beta)
    if kind == "ordinary":
        _radius_guard("modular ordinary closed form", abs(alpha * x))
        u = beta * x / (alpha * x - 1)
        return _eval_ordinary(a.terms, u) / (1 - alpha * x)
    return cexp(alpha * x) * _eval_exponential(a.terms, -beta * x)


def k_binomial_closed(a: Sequence, k: int, kind: Kind) -> Callable[[complex], complex]:
    """Rising k-binomial closed form of a, as a function of x.

    ordinary:    sum_r (-x)^r / (1-x)^{r+1} S2(r,k) f^(r)(-x/(1-x)),  |x| < 1
    exponential: e^x sum_r (-x)^r S2(r,k) g^(r)(-x)

    The exact derivatives f^(r), g^(r) do not depend on x; they are taken once
    here, so a caller evaluating at many points binds the sequence once.
    """
    from cmath import exp as cexp

    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    _check_kind(kind)
    derivatives = []
    for r in range(k + 1):
        s2 = stirling2(r, k)
        if s2:
            derivatives.append((r, s2, tuple(map(complex, _derivative_terms(a.terms, r, kind)))))
    if kind == "ordinary":

        def closed(x: complex) -> complex:
            _radius_guard("k-binomial ordinary closed form", abs(x))
            u = -x / (1 - x)
            total = 0j
            for r, s2, der in derivatives:
                total += (-x) ** r / (1 - x) ** (r + 1) * s2 * _eval_ordinary(der, u)
            return total

        return closed

    def closed(x: complex) -> complex:
        total = 0j
        for r, s2, der in derivatives:
            total += (-x) ** r * s2 * _eval_exponential(der, -x)
        return cexp(x) * total

    return closed


HermiteVariant = Literal["standard", "complementary"]


def hermite_gf(a: Sequence, alpha, beta, x: complex, variant: HermiteVariant = "standard") -> complex:
    """Hermite-transform closed forms on the EGF.

    standard:      e^{alpha x} g(beta x^2)
    complementary: e^{beta x^2} g(alpha x)
    """
    from cmath import exp as cexp

    alpha = complex(alpha)
    beta = complex(beta)
    if variant == "standard":
        return cexp(alpha * x) * _eval_exponential(a.terms, beta * x * x)
    if variant == "complementary":
        return cexp(beta * x * x) * _eval_exponential(a.terms, alpha * x)
    raise InvalidParameterError(f"unknown hermite variant {variant!r}")


def laguerre_gf(a: Sequence, alpha, beta, x: complex, kind: Kind) -> complex:
    """Laguerre-transform closed forms.

    ordinary:    (1/(1-beta x)) G(-alpha x / (1-beta x)) with G the EGF of a
    exponential: e^{beta x} q(-alpha x) with q(u) = sum a_r u^r / (r!)^2

    The ordinary case reads the source's bare "g" as the exponential
    generating function of the same sequence; that reading reproduces the
    (1/(1-x)) e^{-x/(1-x)} special case exactly.
    """
    from cmath import exp as cexp

    _check_kind(kind)
    alpha = complex(alpha)
    beta = complex(beta)
    if kind == "ordinary":
        _radius_guard("laguerre ordinary closed form", abs(beta * x))
        u = -alpha * x / (1 - beta * x)
        return _eval_exponential(a.terms, u) / (1 - beta * x)
    return cexp(beta * x) * _eval_bessel(a.terms, -alpha * x)


def binomial_gf_involution_residual(a: Sequence, x: complex) -> float:
    """|twice-applied closed-form map - f(x)|: x -> -x/(1-x) composed with its
    prefactor is an exact involution, so this should vanish to rounding."""
    u = -x / (1 - x)
    inner = binomial_gf_ordinary(a, u)
    twice = inner / (1 - x)
    direct = _eval_ordinary(a.terms, x)
    return abs(twice - direct)


def sequence_series_value(a: Sequence, x: complex, kind: Kind) -> complex:
    """Direct truncated summation of the generating function of a at x."""
    _check_kind(kind)
    if kind == "ordinary":
        return _eval_ordinary(a.terms, x)
    return _eval_exponential(a.terms, x)
