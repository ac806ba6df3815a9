"""Appell polynomial families and expansions of functions in an Appell basis.

A family is fixed by its characteristic function A(t) with A(0) != 0.  The
"+" polynomials are A(d/dx) x^n, the "-" polynomials use 1/A; expansion
coefficients of a function come either from Fourier quadrature (the integral
with [A(ik)]^{-1} k^n against the function's transform) or from the
operational series oracle, and the two routes must agree.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import cache
from fractions import Fraction
from math import comb, factorial, lcm, log, pi, sqrt
from typing import Callable, Sequence as SequenceABC

import numpy as np

from .errors import DivergenceError, InvalidParameterError, TruncationError
from .opcalc.quadrature import FourierSymbol, gaussian_fourier_rows, gaussian_symbol, gaussian_taylor, node_reach
from .seqcore import _cleared, _exact, _factorials, _gauss_egf, _integer_correlation, _integer_product
from .specfun import polyval_coeffs

_SQRT2PI = sqrt(2.0 * pi)

#: n! growth in the coefficient prefactor makes higher orders meaningless in doubles
MAX_COEFFICIENTS = 24
_FLOAT_MAX = Fraction(sys.float_info.max)
_FLOAT_MIN = Fraction(sys.float_info.min)
_LOG_FLOAT_MAX = log(sys.float_info.max)


def series_reciprocal(coeffs: SequenceABC) -> tuple:
    """Exact Taylor coefficients of 1/A from the rational ones of A.

    Standard convolution recurrence d_0 = 1/c_0, d_n = -(1/c_0) sum c_j d_{n-j}.
    """
    c0 = coeffs[0]
    if c0 == 0:
        raise InvalidParameterError("characteristic function must not vanish at 0")
    inv = [1 / Fraction(c0)]
    for n in range(1, len(coeffs)):
        acc = sum(coeffs[j] * inv[n - j] for j in range(1, n + 1))
        inv.append(-inv[0] * acc)
    return tuple(inv)


@dataclass(frozen=True)
class AppellFamily:
    """Characteristic function A(t) as exact Taylor coefficients plus complex evaluators.

    Taylor data is stored as Fractions (a float enters as its exact value), each
    of A and 1/A within float range.  The evaluators work elementwise, on a
    complex scalar or a numpy array.
    """

    name: str
    a_taylor: tuple
    a_inv_taylor: tuple = field(default=())
    eval_a: Callable[[complex], complex] | None = None
    eval_inv: Callable[[complex], complex] | None = None

    def __post_init__(self) -> None:
        if not self.a_taylor:
            raise InvalidParameterError("need at least the constant Taylor coefficient")
        a = _exact(self.a_taylor, "Taylor coefficients")
        inv = _exact(self.a_inv_taylor, "Taylor coefficients") if self.a_inv_taylor else series_reciprocal(a)
        object.__setattr__(self, "a_taylor", a)
        object.__setattr__(self, "a_inv_taylor", inv)
        for label, taylor in (("A", a), ("1/A", inv)):
            n = next((n for n, c in enumerate(taylor) if abs(c) > _FLOAT_MAX), None)
            if n is not None:
                raise InvalidParameterError(f"Taylor coefficient {n} of {label} must be small enough for a float")
        # convolution of A and 1/A must be the identity series: n! conv_n is the
        # EGF product of (j! a_j) and (j! inv_j), taken on integers, and an exact
        # identity needs no float test
        inv = inv[:len(a)]
        weights = [factorial(j) for j in range(len(a))]
        scaled = _integer_product(_cleared(weights, a), _cleared(weights, inv)).terms
        if scaled[0] == 1 and not any(scaled[1:]):
            return
        for n, (v, w) in enumerate(zip(scaled, weights)):
            if abs(complex(v / w) - (n == 0)) > 1e-12:
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


#: Taylor depth of the built-in families: deep enough that the operational
#: oracle's m-sum dies well below every tolerance in use.  A built-in family is
#: immutable and takes no argument, so each is built once per process.
FAMILY_ORDER = 90


def _unit(z):
    """1 + 0j at every element of z."""
    return np.ones_like(z, dtype=complex)[()]


@cache
def identity_family() -> AppellFamily:
    one = (Fraction(1),) + (Fraction(0),) * FAMILY_ORDER
    return AppellFamily("identity", one, one, _unit, _unit)


def bernoulli_numbers(order: int) -> tuple[Fraction, ...]:
    """B_0 .. B_order via the defining recurrence sum_j C(n+1, j) B_j = 0, run on the
    integers D B_n, D = lcm(1 .. order+1): by von Staudt-Clausen D B_n is an integer,
    so each division by n + 1 is exact."""
    den = lcm(*range(1, order + 2))
    nums = [den]
    for n in range(1, order + 1):
        nums.append(-sum(comb(n + 1, j) * nums[j] for j in range(n)) // (n + 1))
    return tuple(Fraction(v, den) for v in nums)


#: below this radius (e^t - 1)/t goes through its series; above, the direct formula
_BERNOULLI_CROSSOVER = 0.25


def _expm1_over(z):
    """(e^z - 1)/z; an array is taken elementwise, each element as its scalar."""
    if np.ndim(z):
        z = np.asarray(z, dtype=complex)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = (np.exp(z) - 1.0) / z
        small = np.abs(z) < _BERNOULLI_CROSSOVER
        out[small] = [_expm1_over(complex(v)) for v in z[small]]
        return out
    if abs(z) < _BERNOULLI_CROSSOVER:
        total, term = 1.0 + 0j, 1.0 + 0j
        for n in range(1, 24):
            term *= z / (n + 1)
            total += term
        return total
    return (np.exp(z) - 1.0) / z


@cache
def bernoulli_family() -> AppellFamily:
    """A(t) = t / (e^t - 1): the Bernoulli-polynomial family."""
    numbers = bernoulli_numbers(FAMILY_ORDER)
    a = tuple(bn / Fraction(factorial(n)) for n, bn in enumerate(numbers))
    inv = tuple(Fraction(1, factorial(n + 1)) for n in range(FAMILY_ORDER + 1))
    return AppellFamily(
        "bernoulli", a, inv,
        eval_a=lambda z: 1.0 / _expm1_over(z),
        eval_inv=_expm1_over,
    )


@cache
def gauss_hermite_family() -> AppellFamily:
    """A(t) = e^{-t^2}: a Hermite-type family with [A(ik)]^{-1} = e^{-k^2}."""
    return AppellFamily(
        "gauss-hermite-type", gaussian_taylor(1, FAMILY_ORDER), gaussian_taylor(-1, FAMILY_ORDER),
        eval_a=lambda z: np.exp(-z * z),
        eval_inv=lambda z: np.exp(z * z),
    )


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
    # x^n has the single exponential coefficient n! at n
    return _integer_correlation(_cleared([1] * (n + 1), source[: n + 1]), (1, [0] * n + [factorial(n)]),
                                n + 1, _factorials(n + 1))


@dataclass(frozen=True)
class GaussianFunction:
    """f(x) = exp(-scale x^2) with its transform pair; its exact Taylor data is gaussian_taylor(scale, ...)."""

    scale: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", _exact((self.scale,), "gaussian scale")[0])
        if self.scale <= 0:
            raise InvalidParameterError("gaussian scale must be positive")
        # the transform's width 4 scale and its Gaussian coefficient 1/(4 scale) are floats
        if not _FLOAT_MIN <= 4 * self.scale <= _FLOAT_MAX:
            raise InvalidParameterError(f"gaussian scale must be between {sys.float_info.min / 4:.3g} "
                                        f"and {sys.float_info.max / 4:.3g}")

    def __call__(self, x):
        return np.exp(-float(self.scale) * np.asarray(x) ** 2)

    def symbol(self) -> FourierSymbol:
        return gaussian_symbol(float(self.scale))


def require_capped(N: int) -> None:
    if N > MAX_COEFFICIENTS:
        raise TruncationError(f"coefficient count capped at {MAX_COEFFICIENTS}: n! growth drowns doubles")


@dataclass(frozen=True)
class ExpansionResult:
    """Coefficients with, per order, the quadrature's node count and whether it
    converged before the node cap."""

    coefficients: tuple
    node_counts: tuple[int, ...]
    converged: tuple[bool, ...]


#: integrand growth probes: 1/A(ik) may explode (e.g. A = e^{t^2} against a Gaussian)
_GUARD_POINTS = (10.0, 20.0, 40.0)


def expansion_coefficients(fam: AppellFamily, f: GaussianFunction, N: int) -> ExpansionResult:
    """alpha_n = (i^n / (sqrt(2 pi) n!)) integral f~(k) [A(ik)]^{-1} k^n dk for n <= N.

    The integrand is tail-sampled before quadrature: growth at large |k| means
    the family is inadmissible against this function and raises, naming the
    lowest offending order.  All orders share one doubling loop, so each node
    set evaluates f~(k) [A(ik)]^{-1} once and raises it to every order still
    doubling there.
    """
    require_capped(N)
    sym = f.symbol()
    # the nodes are scaled by f~'s width alone, so k^n must stay a float out to
    # the widest node the doubling can reach, whatever [A(ik)]^{-1} does to it
    reach = node_reach(sym.gauss_coeff)
    if N * log(reach) > _LOG_FLOAT_MAX:
        n = int(_LOG_FLOAT_MAX / log(reach)) + 1
        raise DivergenceError(
            f"integrand for coefficient n={n} takes k^{n} at nodes out to |k| = {reach:.3g}, past the "
            f"float range: a Gaussian of scale {float(f.scale):.3g} is too wide for {N + 1} coefficients"
        )
    probes = np.array(_GUARD_POINTS)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        inverse = fam.inverse_at(1j * probes)
        # Taylor-only families: a truncated polynomial cannot witness growth,
        # so instead demand that the 1/A evaluation has converged out at the
        # probe points before trusting it under the integral; c_0 always stays
        if fam.eval_inv is None:
            kept = max(1, len(fam.a_inv_taylor) - 2)
            dropped = polyval_coeffs(map(complex, fam.a_inv_taylor[:kept]), 1j * probes)
            unsettled = np.abs(inverse - dropped) > 1e-6 * np.maximum(np.abs(inverse), 1e-300)
            if unsettled.any():
                raise DivergenceError(
                    f"1/A Taylor data has not converged at |k| = {probes[unsettled][0]:g}: supply more "
                    "coefficients or an analytic evaluator"
                )
        # |integrand| at the probes, one row per order; overflow inside 1/A(ik)
        # already is the answer: the integrand explodes
        powers = np.array([[k ** n for k in _GUARD_POINTS] for n in range(N + 1)])
        mags = np.abs(sym.ft(probes) * inverse * powers)
    mags[~np.isfinite(mags)] = np.inf
    grows = (mags[:, -1] > mags[:, 0]) | (mags[:, -1] == np.inf)
    inadmissible = np.flatnonzero(grows & (mags[:, -1] > 1e-8))
    if len(inadmissible):
        raise DivergenceError(
            f"integrand for coefficient n={inadmissible[0]} grows at large |k|: "
            f"family {fam.name!r} is inadmissible against this function"
        )

    def integrands(k: np.ndarray, orders: np.ndarray) -> np.ndarray:
        shared = sym.envelope(k) * fam.inverse_at(1j * k)
        # one power per order: k ** 2 is a square, an exponent array would be pow
        return np.array([shared * k ** int(n) for n in orders])

    results = gaussian_fourier_rows(sym.gauss_coeff, integrands, N + 1)
    coeffs = [1j ** n / (_SQRT2PI * factorial(n)) * res.value for n, res in enumerate(results)]
    return ExpansionResult(
        tuple(coeffs), tuple(res.node_count for res in results), tuple(res.converged for res in results)
    )


def operational_coefficients(fam: AppellFamily, f: GaussianFunction, N: int) -> tuple:
    """Series oracle: Taylor coefficients of [A(d/dx)]^{-1} f.

    alpha_n = sum_m c^-_m F_{n+m} / n!, F_j = j! f_j, over the family's stored
    Taylor data; the built-in families carry enough orders for the tail to die.
    The correlation runs on integers: the c^-_m over one denominator, the F_j
    over q^R for the scale p/q.
    """
    inv = fam.a_inv_taylor
    p, q = f.scale.numerator, f.scale.denominator
    rank = (N + len(inv) - 1) // 2
    # q^R F_{2l} = (2l)!/l! (-p)^l q^{R-l}; odd orders vanish
    scaled = [w * q ** (rank - j // 2) for j, w in enumerate(_gauss_egf(-p, 2 * rank + 2))]
    return _integer_correlation(_cleared([1] * len(inv), inv), (q ** rank, scaled), N + 1, _factorials(N + 1))


def widening_coefficients(f: GaussianFunction, N: int) -> tuple:
    """Oracle of the gauss-hermite-type family from the Eq. 40 widening law
    e^{d^2} e^{-s x^2} = (1+4s)^{-1/2} e^{-s x^2/(1+4s)}: the Taylor coefficients of the
    widened Gaussian.  The operational series of e^{d^2} diverges from s = 3/16 on.
    """
    amplitude = 1.0 / sqrt(1 + 4 * f.scale)
    return tuple(amplitude * float(c) for c in gaussian_taylor(f.scale / (1 + 4 * f.scale), N))


def appell_sums(fam: AppellFamily, rows, sign: str = "plus") -> list[complex]:
    """sum_n w_n a_n(x) in doubles for each row (w, x), w = (w_0, w_1, ...): partial sums of an
    expansion (Eq. 61) or of the generating function (Eq. 59), each a_n built once for all rows."""
    polys, sums = [], []
    for weights, x in rows:
        polys += [[complex(c) for c in appell_poly(fam, n, sign)] for n in range(len(polys), len(weights))]
        total = 0j
        for w, poly in zip(weights, polys):
            total += w * polyval_coeffs(poly, x)
        sums.append(total)
    return sums
