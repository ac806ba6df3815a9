"""Appell polynomial families and expansions of functions in an Appell basis.

A family is fixed by its characteristic function A(t) with A(0) != 0.  The
"+" polynomials are A(d/dx) x^n, the "-" polynomials use 1/A; expansion
coefficients of a function come either from Fourier quadrature (the integral
with [A(ik)]^{-1} k^n against the function's transform) or from the
operational series oracle, and the two routes must agree.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, pi, sqrt
from typing import Callable, Sequence as SequenceABC

import numpy as np

from .errors import DivergenceError, InvalidParameterError, TruncationError
from .gftrans import hermite_gf
from .opcalc.quadrature import FourierSymbol, gaussian_fourier_integral
from .seqcore import Sequence, TransformParams, hermite_complementary_seq
from .specfun import polyval_coeffs

_SQRT2PI = sqrt(2.0 * pi)

#: n! growth in the coefficient prefactor makes higher orders meaningless in doubles
MAX_COEFFICIENTS = 24


def series_reciprocal(coeffs: SequenceABC) -> tuple:
    """Taylor coefficients of 1/A from those of A; exact on rational input.

    Standard convolution recurrence d_0 = 1/c_0, d_n = -(1/c_0) sum c_j d_{n-j}.
    """
    c0 = coeffs[0]
    if c0 == 0:
        raise InvalidParameterError("characteristic function must not vanish at 0")
    inv = [1 / Fraction(c0) if isinstance(c0, (int, Fraction)) else 1.0 / c0]
    for n in range(1, len(coeffs)):
        acc = sum(coeffs[j] * inv[n - j] for j in range(1, n + 1))
        inv.append(-inv[0] * acc)
    return tuple(inv)


@dataclass(frozen=True)
class AppellFamily:
    """Characteristic function A(t) as Taylor coefficients plus complex evaluators."""

    name: str
    a_taylor: tuple
    a_inv_taylor: tuple = field(default=())
    eval_a: Callable[[complex], complex] | None = None
    eval_inv: Callable[[complex], complex] | None = None

    def __post_init__(self) -> None:
        if not self.a_taylor:
            raise InvalidParameterError("need at least the constant Taylor coefficient")
        object.__setattr__(self, "a_taylor", tuple(self.a_taylor))
        if not self.a_inv_taylor:
            object.__setattr__(self, "a_inv_taylor", series_reciprocal(self.a_taylor))
        # convolution of A and 1/A must be the identity series
        for n in range(len(self.a_taylor)):
            conv = sum(self.a_taylor[j] * self.a_inv_taylor[n - j] for j in range(n + 1))
            target = 1 if n == 0 else 0
            if abs(complex(conv) - target) > 1e-12:
                raise InvalidParameterError(f"A * (1/A) deviates from 1 at order {n}")

    @property
    def order(self) -> int:
        return len(self.a_taylor) - 1

    def reciprocal(self) -> "AppellFamily":
        return AppellFamily(
            f"1/({self.name})", self.a_inv_taylor, self.a_taylor, self.eval_inv, self.eval_a
        )

    def inverse_at(self, z: complex) -> complex:
        if self.eval_inv is not None:
            return self.eval_inv(z)
        return polyval_coeffs(map(complex, self.a_inv_taylor), z)

    def value_at(self, z: complex) -> complex:
        if self.eval_a is not None:
            return self.eval_a(z)
        return polyval_coeffs(map(complex, self.a_taylor), z)


#: default Taylor depth for the built-in families: deep enough that the
#: operational oracle's m-sum dies well below every tolerance in use
DEFAULT_FAMILY_ORDER = 90


def identity_family(order: int = DEFAULT_FAMILY_ORDER) -> AppellFamily:
    one = (Fraction(1),) + (Fraction(0),) * order
    return AppellFamily("identity", one, one, lambda z: 1.0 + 0j, lambda z: 1.0 + 0j)


def bernoulli_numbers(order: int) -> tuple[Fraction, ...]:
    """B_0 .. B_order via the defining recurrence sum_j C(n+1, j) B_j = 0."""
    b = [Fraction(1)]
    for n in range(1, order + 1):
        acc = sum(comb(n + 1, j) * b[j] for j in range(n))
        b.append(-acc / (n + 1))
    return tuple(b)


#: below this radius (e^t - 1)/t goes through its series; above, the direct formula
_BERNOULLI_CROSSOVER = 0.25


def _expm1_over(z: complex) -> complex:
    if abs(z) < _BERNOULLI_CROSSOVER:
        total, term = 1.0 + 0j, 1.0 + 0j
        for n in range(1, 24):
            term *= z / (n + 1)
            total += term
        return total
    return (np.exp(z) - 1.0) / z


def bernoulli_family(order: int = DEFAULT_FAMILY_ORDER) -> AppellFamily:
    """A(t) = t / (e^t - 1): the Bernoulli-polynomial family."""
    numbers = bernoulli_numbers(order)
    a = tuple(bn / Fraction(factorial(n)) for n, bn in enumerate(numbers))
    inv = tuple(Fraction(1, factorial(n + 1)) for n in range(order + 1))
    return AppellFamily(
        "bernoulli", a, inv,
        eval_a=lambda z: 1.0 / _expm1_over(z),
        eval_inv=_expm1_over,
    )


def gauss_hermite_family(order: int = DEFAULT_FAMILY_ORDER) -> AppellFamily:
    """A(t) = e^{-t^2}: a Hermite-type family with [A(ik)]^{-1} = e^{-k^2}."""
    a = [Fraction(0)] * (order + 1)
    inv = [Fraction(0)] * (order + 1)
    for l in range(order // 2 + 1):
        a[2 * l] = Fraction((-1) ** l, factorial(l))
        inv[2 * l] = Fraction(1, factorial(l))
    return AppellFamily(
        "gauss-hermite-type", tuple(a), tuple(inv),
        eval_a=lambda z: np.exp(-z * z),
        eval_inv=lambda z: np.exp(z * z),
    )


def family_from_taylor(coeffs: SequenceABC, name: str = "user-taylor") -> AppellFamily:
    return AppellFamily(name, tuple(coeffs))


def appell_poly(fam: AppellFamily, n: int, sign: str = "plus") -> tuple:
    """Coefficients (ascending) of a_n^+(x) = A(d/dx) x^n or a_n^-(x) with 1/A.

    a_n(x) = sum_m c_m n!/(n-m)! x^{n-m}; exact for rational families.
    """
    if n > fam.order:
        raise TruncationError(f"family carries Taylor data through order {fam.order}, asked for {n}")
    if sign == "plus":
        source = fam.a_taylor
    elif sign == "minus":
        source = fam.a_inv_taylor
    else:
        raise InvalidParameterError("sign must be 'plus' or 'minus'")
    poly = [0 * source[0]] * (n + 1)
    for m in range(n + 1):
        poly[n - m] = source[m] * (factorial(n) // factorial(n - m))
    return tuple(poly)


def generating_check(fam: AppellFamily, N: int, t: complex, x: complex, sign: str = "plus") -> float:
    """|sum_{n<=N} t^n a_n(x)/n! - A(t)^{+-1} e^{tx}|: residual of the defining product."""
    total = 0j
    for n in range(N + 1):
        value = polyval_coeffs(map(complex, appell_poly(fam, n, sign)), x)
        total += t ** n / factorial(n) * value
    closed = (fam.value_at(t) if sign == "plus" else fam.inverse_at(t)) * np.exp(t * x)
    return abs(total - closed)


@dataclass(frozen=True)
class GaussianFunction:
    """f(x) = exp(-scale x^2) with its transform pair and exact Taylor data."""

    scale: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", Fraction(self.scale))
        if self.scale <= 0:
            raise InvalidParameterError("gaussian scale must be positive")

    def __call__(self, x):
        return np.exp(-float(self.scale) * np.asarray(x) ** 2)

    def symbol(self) -> FourierSymbol:
        s = float(self.scale)
        amp = 1.0 / sqrt(2.0 * s)
        return FourierSymbol(
            gauss_coeff=1.0 / (4.0 * s),
            envelope=lambda k: np.full_like(np.asarray(k, dtype=float), amp, dtype=complex),
            func=self,
        )

    def taylor(self, j: int) -> Fraction:
        if j % 2:
            return Fraction(0)
        return (-self.scale) ** (j // 2) / Fraction(factorial(j // 2))


@dataclass(frozen=True)
class ExpansionResult:
    coefficients: tuple
    family_name: str
    node_counts: tuple[int, ...]

    @property
    def max_imag(self) -> float:
        return max(abs(complex(c).imag) for c in self.coefficients)


#: integrand growth probes: 1/A(ik) may explode (e.g. A = e^{t^2} against a Gaussian)
_GUARD_POINTS = (10.0, 20.0, 40.0)


def expansion_coefficients(fam: AppellFamily, f: GaussianFunction, N: int) -> ExpansionResult:
    """alpha_n = (i^n / (sqrt(2 pi) n!)) integral f~(k) [A(ik)]^{-1} k^n dk for n <= N.

    The integrand is tail-sampled before quadrature: growth at large |k| means
    the family is inadmissible against this function and raises, naming the
    offending order.
    """
    if N > MAX_COEFFICIENTS:
        raise TruncationError(f"coefficient count capped at {MAX_COEFFICIENTS}: n! growth drowns doubles")
    sym = f.symbol()

    def integrand_mag(k: float, n: int) -> float:
        with np.errstate(over="ignore", invalid="ignore", under="ignore"):
            value = abs(complex(sym.ft(k)) * fam.inverse_at(1j * k) * k ** n)
        # overflow inside 1/A(ik) already is the answer: the integrand explodes
        return float("inf") if not np.isfinite(value) else value

    if fam.eval_inv is None:
        # Taylor-only families: a truncated polynomial cannot witness growth,
        # so instead demand that the 1/A evaluation has converged out at the
        # probe points before trusting it under the integral
        for k in _GUARD_POINTS:
            full = fam.inverse_at(1j * k)
            dropped = polyval_coeffs(map(complex, fam.a_inv_taylor[:-2]), 1j * k)
            if abs(full - dropped) > 1e-6 * max(abs(full), 1e-300):
                raise DivergenceError(
                    f"1/A Taylor data has not converged at |k| = {k:g}: supply more "
                    "coefficients or an analytic evaluator"
                )

    for n in range(N + 1):
        probes = [integrand_mag(k, n) for k in _GUARD_POINTS]
        grows = probes[-1] > probes[0] or probes[-1] == float("inf")
        if grows and probes[-1] > 1e-8:
            raise DivergenceError(
                f"integrand for coefficient n={n} grows at large |k|: "
                f"family {fam.name!r} is inadmissible against this function"
            )

    coeffs, nodes = [], []
    for n in range(N + 1):
        res = gaussian_fourier_integral(
            sym.gauss_coeff,
            lambda k, n=n: sym.envelope(k) * np.array([fam.inverse_at(1j * kk) for kk in np.atleast_1d(k)]) * k ** n,
        )
        coeffs.append(1j ** n / (_SQRT2PI * factorial(n)) * res.value)
        nodes.append(res.node_count)
    return ExpansionResult(tuple(coeffs), fam.name, tuple(nodes))


def operational_coefficients(fam: AppellFamily, f: GaussianFunction, N: int) -> tuple:
    """Series oracle: Taylor coefficients of [A(d/dx)]^{-1} f.

    alpha_n = sum_m c^-_m f_{n+m} (n+m)!/n! over the family's stored Taylor
    data; the built-in families carry enough orders for the tail to die.
    """
    inv = fam.a_inv_taylor
    out = []
    for n in range(N + 1):
        acc = Fraction(0) if isinstance(inv[0], (int, Fraction)) else 0.0
        for m, cm in enumerate(inv):
            if cm:
                acc += cm * f.taylor(n + m) * (factorial(n + m) // factorial(n))
        out.append(acc)
    return tuple(out)


def reconstruct(fam: AppellFamily, res: ExpansionResult, x: complex) -> complex:
    """Partial sum f(x) ~ sum alpha_n a_n^+(x) through the stored coefficients."""
    total = 0j
    for n, alpha in enumerate(res.coefficients):
        value = polyval_coeffs(map(complex, appell_poly(fam, n, "plus")), x)
        total += complex(alpha) * value
    return total


def reconstruction_residual(fam: AppellFamily, res: ExpansionResult, f, xs) -> float:
    """Sup-residual of the partial expansion against f on a grid."""
    return max(abs(reconstruct(fam, res, float(x)) - complex(f(float(x)))) for x in xs)


def umbral_composition_check(fam: AppellFamily, n: int):
    """A(d/dx) applied to a_n^-(x) must return x^n: the two operators cancel.

    Returns the residual polynomial coefficients; exactly zero in rational mode.
    """
    minus = appell_poly(fam, n, "minus")
    out = [0 * fam.a_taylor[0]] * (n + 1)
    for m, cm in enumerate(fam.a_taylor[: n + 1]):
        if cm == 0:
            continue
        # cm * d^m applied to the minus polynomial
        for j in range(m, n + 1):
            if minus[j] != 0:
                out[j - m] += cm * minus[j] * (factorial(j) // factorial(j - m))
    out[n] -= 1
    return tuple(out)


def gauss_umbral_bridge_residual(a: Sequence, y, xs) -> float:
    """Max residual between the umbral-derivative Gaussian evolution of the EGF
    and the closed form e^{y x^2} g(x).

    The evolution e^{y (d/da^)^2} turns a_n into the complementary Hermite
    transform with parameters (1, y); its EGF must match the closed product.
    """
    transformed = hermite_complementary_seq(a, TransformParams(1, Fraction(y)))
    worst = 0.0
    for x in xs:
        umbral_side = 0j
        for n, b in enumerate(transformed.terms):
            umbral_side += complex(b) * complex(x) ** n / factorial(n)
        closed = hermite_gf(a, 1, float(y), complex(x), "complementary")
        worst = max(worst, abs(umbral_side - closed))
    return worst
