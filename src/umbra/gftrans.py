"""Truncated generating-function evaluation and the closed-form transform identities.

Each section-1..3 transform has a closed form acting on the ordinary (OGF) or
exponential (EGF) generating function of the input sequence.  Each is written
once, as a `Form`: a sum of terms w P(x) S^(r)(U(x)) built from
`TransformParams`, and the same terms evaluate the form on a truncated series.
The identity catalog (`checks`) reads those terms at |x| for its truncation
budgets and compares each form against direct series summation of the
transformed sequence.

Coefficients are complex floats in this module; the exact sequences of seqcore
convert losslessly on entry.
"""
from __future__ import annotations

from cmath import exp as cexp
from dataclasses import dataclass
from functools import cached_property, partial
from math import factorial
from typing import Callable, Literal

from .errors import DivergenceError, InvalidParameterError, TruncationError
from .seqcore import Sequence, TransformParams
from .specfun import polyval_coeffs, stirling2

Kind = Literal["ordinary", "exponential"]
#: the input series of a closed-form term; "bessel" is sum a_n u^n / (n!)^2
Series = Literal["ordinary", "exponential", "bessel"]


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

    @cached_property
    def complex_coeffs(self) -> tuple:
        """The coefficients as Python complex numbers, converted on first access
        and kept with the series (a tuple, so read-only; not a field, so equality
        and hash ignore it).  A grid of evaluations should reuse one series."""
        return tuple(map(complex, self.coeffs))

    @cached_property
    def borel_table(self):
        """The Borel table a[j, s] = C(j+s, j) (j+s)! c_{j+s} of the Eq. 86 route
        (`opcalc.fourier._borel_table`), built from `complex_coeffs` on first access
        and kept with the series as a read-only array, like them."""
        from .opcalc.fourier import _borel_table

        return _borel_table(self.complex_coeffs)


def _divided_power_series(coeffs, x: complex, step: int) -> complex:
    """sum c_n x^n / (n!)^step: the exponential series at step 1, at step 2 the
    bessel series, the Laguerre-side companion q(x) = sum c_r x^r / (r!)^2."""
    value = 0j
    power = 1.0 + 0j
    for n, c in enumerate(coeffs):
        if n:
            power *= x / n ** step
        value += c * power
    return value


def _derivative_terms(terms: tuple, r: int, kind: Series) -> tuple:
    """Exact r-th derivative of the truncated series, in one pass over its terms.

    ordinary: c_{n+r} (n+r)!/n! by a running falling factorial; exponential: c_{n+r};
    r = 0: the terms themselves.  A prefix of r terms or fewer has no r-th derivative: TruncationError.
    """
    if r >= len(terms):
        raise TruncationError(f"derivative order {r} exceeds truncation order {len(terms) - 1}")
    if r == 0 or kind == "exponential":
        return terms[r:]
    falling = factorial(r)
    out = []
    for n, c in enumerate(terms[r:]):
        if n:
            falling = falling * (n + r) // n
        out.append(c * falling)
    return tuple(out)


#: evaluators of each input series on complex coefficients
_EVALUATORS = {"ordinary": polyval_coeffs, "exponential": partial(_divided_power_series, step=1),
               "bessel": partial(_divided_power_series, step=2)}


def _unit(x: complex) -> int:
    return 1


@dataclass(frozen=True)
class Term:
    """One summand w P(x) S^(r)(U(x)) of a closed form, with P = prefactor / divisor.

    S is the input series: ordinary sum a_n u^n, exponential sum a_n u^n / n!,
    or bessel sum a_n u^n / (n!)^2 (r = 0 only).  P and U are signed maps of
    complex x, e.g. U(x) = -x/(1-x); a divisor (a pole factor 1 - c x) divides
    the term last.  Taken at |x| they bound the term, |P(x)| <= |P(|x|)| and
    |U(x)| <= |U(|x|)|, whenever P and U have Taylor coefficients of one sign:
    the forms below have that for alpha, beta >= 0.
    """

    weight: int
    prefactor: Callable[[complex], complex]
    argument: Callable[[complex], complex]
    series: Series
    r: int = 0
    divisor: Callable[[complex], complex] | None = None

    def scale(self, x: complex) -> complex:
        """w P(x)."""
        p = self.weight * self.prefactor(x)
        return p / self.divisor(x) if self.divisor else p


@dataclass(frozen=True)
class Form:
    """A closed form sum_t w P(x) S^(r)(U(x)) of a transformed sequence's generating function.

    kind is the generating function the form equals; a nonzero pole c makes
    it hold for |c x| < 1 only.
    """

    terms: tuple[Term, ...]
    kind: Kind
    pole: float = 0.0

    def bind(self, a: Sequence) -> Callable[[complex], complex]:
        """The form for input a, as a function of x; the exact derivatives are taken once."""
        bound = [(t, _EVALUATORS[t.series], tuple(map(complex, _derivative_terms(a.terms, t.r, t.series))))
                 for t in self.terms]
        pole = self.pole

        def value(x: complex) -> complex:
            if abs(pole * x) >= 1.0:
                raise DivergenceError(f"{self.kind} closed form needs |{pole:g} x| < 1, got {abs(pole * x):g}")
            total = 0j
            for t, evaluate, series in bound:
                v = t.weight * t.prefactor(x) * evaluate(series, t.argument(x))
                total += v / t.divisor(x) if t.divisor else v
            return total

        return value


def modular_form(p: TransformParams, kind: Kind) -> Form:
    """(1/(1-ax)) f(bx/(ax-1)) or e^{ax} g(-bx); the binomial transform's at a = b = 1."""
    _check_kind(kind)
    al, be = float(p.alpha), float(p.beta)
    if kind == "ordinary":
        return Form((Term(1, _unit, lambda x: be * x / (al * x - 1), "ordinary", divisor=lambda x: 1 - al * x),),
                    kind, al)
    return Form((Term(1, lambda x: cexp(al * x), lambda x: -be * x, "exponential"),), kind)


def k_binomial_form(k: int, kind: Kind) -> Form:
    """Rising k-binomial closed form, terms r <= k weighted by S2(r, k).

    ordinary:    sum_r (-x)^r / (1-x)^{r+1} S2(r,k) f^(r)(-x/(1-x)),  |x| < 1
    exponential: e^x sum_r (-x)^r S2(r,k) g^(r)(-x)
    """
    if k < 0:
        raise InvalidParameterError("k must be nonnegative")
    _check_kind(kind)
    weights = [(r, w) for r in range(k + 1) if (w := stirling2(r, k))]
    if kind == "ordinary":
        return Form(tuple(Term(w, lambda x, r=r: (-x) ** r / (1 - x) ** (r + 1), lambda x: -x / (1 - x), kind, r)
                          for r, w in weights), kind, 1.0)
    return Form(tuple(Term(w, lambda x, r=r: cexp(x) * (-x) ** r, lambda x: -x, kind, r)
                      for r, w in weights), kind)


HermiteVariant = Literal["standard", "complementary"]


def hermite_form(p: TransformParams, variant: HermiteVariant = "standard") -> Form:
    """Hermite-transform closed forms on the EGF.

    standard:      e^{alpha x} g(beta x^2)
    complementary: e^{beta x^2} g(alpha x)
    """
    al, be = float(p.alpha), float(p.beta)
    if variant == "standard":
        return Form((Term(1, lambda x: cexp(al * x), lambda x: be * x * x, "exponential"),), "exponential")
    if variant == "complementary":
        return Form((Term(1, lambda x: cexp(be * x * x), lambda x: al * x, "exponential"),), "exponential")
    raise InvalidParameterError(f"unknown hermite variant {variant!r}")


def laguerre_form(p: TransformParams, kind: Kind) -> Form:
    """Laguerre-transform closed forms.

    ordinary:    (1/(1-beta x)) G(-alpha x / (1-beta x)) with G the EGF of a
    exponential: e^{beta x} q(-alpha x) with q(u) = sum a_r u^r / (r!)^2

    The ordinary case reads the source's bare "g" as the exponential
    generating function of the same sequence; that reading reproduces the
    (1/(1-x)) e^{-x/(1-x)} special case exactly.
    """
    _check_kind(kind)
    al, be = float(p.alpha), float(p.beta)
    if kind == "ordinary":
        return Form((Term(1, _unit, lambda x: -al * x / (1 - be * x), "exponential", divisor=lambda x: 1 - be * x),),
                    kind, be)
    return Form((Term(1, lambda x: cexp(be * x), lambda x: -al * x, "bessel"),), kind)


def sequence_series(a: Sequence, kind: Kind) -> Callable[[complex], complex]:
    """Direct truncated summation of the generating function of a, as a function
    of x; the terms are converted to complex once, as `Form.bind` does."""
    return coefficient_series(tuple(map(complex, a.terms)), kind)


def coefficient_series(coeffs: tuple, kind: Kind) -> Callable[[complex], complex]:
    """sequence_series on terms already converted to complex."""
    _check_kind(kind)
    evaluate = _EVALUATORS[kind]
    return lambda x: evaluate(coeffs, x)
