"""Series-level operators: negative derivatives, Borel transform, Laguerre derivative.

These act termwise on truncated PowerSeries and keep exact coefficients exact,
so eigenfunction and commutator claims can be asserted with zero tolerance.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from ..errors import InvalidParameterError, PreconditionError
from ..gftrans import PowerSeries


def _to_ordinary(f: PowerSeries) -> tuple:
    if f.kind == "ordinary":
        return f.coeffs
    return tuple(c / _fact_like(c, n) for n, c in enumerate(f.coeffs))


def _fact_like(c, n: int):
    # keep Fractions exact, floats floating
    return Fraction(factorial(n)) if isinstance(c, (int, Fraction)) else float(factorial(n))


def _from_ordinary(coeffs: tuple, kind: str) -> PowerSeries:
    if kind == "ordinary":
        return PowerSeries(coeffs, "ordinary")
    return PowerSeries(tuple(c * _fact_like(c, n) for n, c in enumerate(coeffs)), "exponential")


def neg_derivative_pow(f: PowerSeries, n: int) -> PowerSeries:
    """D^{-n}: repeated integration from 0; x^m -> m! x^{m+n} / (m+n)!.

    The truncation order grows by n: nothing is lost.
    """
    if n < 0:
        raise InvalidParameterError("negative-derivative power must be nonnegative")
    c = _to_ordinary(f)
    out = [0 * c[0]] * (len(c) + n)
    for m, cm in enumerate(c):
        if cm != 0:
            out[m + n] = cm * Fraction(factorial(m), factorial(m + n))
    return _from_ordinary(tuple(out), f.kind)


def x_multiply(f: PowerSeries) -> PowerSeries:
    c = _to_ordinary(f)
    return _from_ordinary((0 * c[0],) + c, f.kind)


def laguerre_derivative(f: PowerSeries) -> PowerSeries:
    """L-derivative d/dx x d/dx: x^n -> n^2 x^{n-1}."""
    c = _to_ordinary(f)
    if len(c) == 1:
        return _from_ordinary((0 * c[0],), f.kind)
    out = tuple((m + 1) ** 2 * c[m + 1] for m in range(len(c) - 1))
    return _from_ordinary(out, f.kind)


def borel_transform(f: PowerSeries) -> PowerSeries:
    """f_B(x) = integral_0^inf f(s x) e^{-s} ds, termwise x^n -> n! x^n."""
    c = _to_ordinary(f)
    return _from_ordinary(tuple(factorial(n) * cn for n, cn in enumerate(c)), f.kind)


def exp_negD(alpha, f: PowerSeries) -> PowerSeries:
    """e^{-alpha D^{-1}} f: termwise e^{-alpha D^{-1}} x^n = n! x^n C_n(alpha x).

    The output keeps the input truncation order; contributions of c_n to
    degree m are c_n (-alpha)^{m-n} n! / ((m-n)! m!).
    """
    c = _to_ordinary(f)
    order = len(c) - 1
    out = [0 * c[0]] * (order + 1)
    for m in range(order + 1):
        total = out[m]
        for n in range(m + 1):
            if c[n] == 0:
                continue
            total += c[n] * (-alpha) ** (m - n) * Fraction(factorial(n), factorial(m - n) * factorial(m))
        out[m] = total
    return _from_ordinary(tuple(out), f.kind)


def commutator_check_LD(f: PowerSeries, strict: bool = True) -> PowerSeries:
    """Residual of the Weyl pair claim [LD, D^{-1}] = 1 in its operational use.

    LD o D^{-1} is computed honestly.  D^{-1} o LD is computed the way the
    Weyl-algebra manipulations use it: LD is split as x d^2 + d and the
    D^{-1} d factor is cancelled formally.  That cancellation is only exact
    on inputs with f(0) = 0, which is precisely the restriction the pair
    carries; the residual is -f(0) as a constant series.
    """
    c = _to_ordinary(f)
    if c[0] != 0:
        if strict:
            raise PreconditionError("commutator check needs f(0) = 0; rerun with strict=False to see the defect")
    lhs = laguerre_derivative(neg_derivative_pow(f, 1))
    # second derivative with zero-padding semantics (low orders hit empty series)
    if len(c) > 2:
        second = tuple((m + 2) * (m + 1) * c[m + 2] for m in range(len(c) - 2))
    else:
        second = (0 * c[0],)
    rhs_tail = neg_derivative_pow(x_multiply(_from_ordinary(second, f.kind)), 1)
    lo, ro, fo = _to_ordinary(lhs), _to_ordinary(rhs_tail), c
    order = max(len(lo), len(ro), len(fo)) - 1
    def at(t, i):
        return t[i] if i < len(t) else 0
    residual = tuple(at(lo, i) - at(ro, i) - 2 * at(fo, i) for i in range(order + 1))
    return _from_ordinary(residual, f.kind)


def exp_laguerre_derivative(alpha, f: PowerSeries) -> PowerSeries:
    """e^{alpha LD} f via the Borel route f_B(D^{-1} + alpha) . 1.

    Exact on rational input.  The catalog cross-checks it against the
    nilpotent matrix exponential of the truncated LD operator
    (`laguerre_derivative_op(order).expm_apply`).
    """
    c = _to_ordinary(f)
    order = len(c) - 1
    borel = tuple(factorial(n) * cn for n, cn in enumerate(c))
    out = [0 * c[0]] * (order + 1)
    for j in range(order + 1):
        total = out[j]
        for n in range(j, order + 1):
            if borel[n] == 0:
                continue
            total += borel[n] * comb(n, j) * alpha ** (n - j) * Fraction(1, factorial(j))
        out[j] = total
    return _from_ordinary(tuple(out), f.kind)
