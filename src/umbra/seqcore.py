"""Exact-arithmetic sequence transforms.

All transforms act on a finite prefix (a_0 .. a_N) of exact rational terms and
return a sequence of the same length.  Everything here is a polynomial identity
in the inputs, so no floating point is allowed to enter: roundtrips and
involutions hold with exact equality.

Every transform is one product of exponential generating functions,
B(x) = L(s x) R(s x), so coefficientwise

    b_n = s^n sum_j C(n,j) L_j R_{n-j},

and one kernel computes all eight from these (L, R, s); an entry "at j = 2r"
is zero at odd j:

    name                   L_j                           R_j                            s
    binomial               1                             (-1)^j a_j                     1
    modular                alpha^j                       (-beta)^j a_j                  1
    modular-inverse        alpha^j                       (-1)^j b_j                     1/beta
    k-binomial             1                             (-1)^j j^k a_j  (0^0 = 1)      1
    hermite                alpha^j                       beta^r a_r (2r)!/r! at j = 2r  1
    hermite-complementary  beta^r (2r)!/r! at j = 2r     alpha^j a_j                    1
    hermite-inverse        (-beta)^r (2r)!/r! at j = 2r  b_j                            1/alpha
    laguerre               beta^j                        (-alpha)^j a_j / j!            1

These are the paper's closed forms e^x g(-x), e^{alpha x} g(-beta x),
e^{alpha x} g(beta x^2), e^{beta x^2} g(alpha x) and e^{beta x} q(-alpha x),
with g(x) = sum a_j x^j / j! and q(x) = sum a_j x^j / (j!)^2.

The kernel sees integers only.  The same sum is (s/c)^n sum_j C(n,j) (c^j L_j)
(c^{n-j} R_{n-j}) for any integer c, and with c a common denominator of the
parameters every weight below is an integer built from their numerators and
denominators, alpha = a1/a2 and beta = b1/b2 in lowest terms.  With u = a1 b2,
v = -b1 a2 and g = b1 a2^2 b2:

    name                   c      c^j L_j                        c^j R_j                      s/c
    binomial               1      1                              (-1)^j a_j                   1
    modular                a2 b2  u^j                            v^j a_j                      1/(a2 b2)
    modular-inverse        a2     a1^j                           (-a2)^j b_j                  b2/(b1 a2)
    k-binomial             1      1                              (-1)^j j^k a_j               1
    hermite                a2 b2  u^j                            g^r (2r)!/r! a_r at j = 2r   1/(a2 b2)
    hermite-complementary  a2 b2  g^r (2r)!/r! at j = 2r         u^j a_j                      1/(a2 b2)
    hermite-inverse        b2     (-b1 b2)^r (2r)!/r! at j = 2r  b2^j b_j                     a2/(a1 b2)
    laguerre               a2 b2  (b1 a2)^j                      (-a1 b2)^j a_j / j!          1/(a2 b2)

The side that carries the terms is cleared to integers over one common
denominator (`_cleared`), and `_integer_product` takes the double sum on
integers and reduces each b_n once.  `_egf_product` is the same kernel for
factors given as lists of rationals; it serves the catalog's k-binomial
majorant, the umbral double-sum oracle and e^{-alpha D^{-1}}.  The Appell
A * (1/A) check calls `_integer_product`.

The twin kernel `_integer_correlation` applies Phi(d/dx): d^k shifts
exponential coefficients by k, so [Phi(d) g]_j = sum_k phi_k F_{j+k}, F_j =
j! g_j.  Its users: e^{-y d^2}, e^{alpha LD} (e^{alpha d} between Borel
transforms), A(d) x^n, [A(d)]^{-1} f and the catalog's A(d) [1/A(d)] check.
"""
from __future__ import annotations

import json
import sys
import threading
from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import comb, gcd, lcm
from typing import Iterable

from .errors import InvalidParameterError, SequenceFormatError, quoted

Rational = Fraction | int | str


#: what Fraction raises on a value that is no finite rational
_NOT_RATIONAL = (TypeError, ValueError, OverflowError, ZeroDivisionError)


def _frac(value: Rational) -> Fraction:
    if isinstance(value, float):
        raise InvalidParameterError("exact sequences do not accept floats; pass Fraction, int or 'p/q' string")
    try:
        return Fraction(value)
    except _NOT_RATIONAL:
        raise InvalidParameterError(
            f"{quoted(str(value))} is not an exact rational; pass Fraction, int or 'p/q' string"
        ) from None


@dataclass(frozen=True)
class Sequence:
    """Finite prefix of exact rational terms a_0 .. a_N."""

    terms: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        # a Fraction is immutable and already in lowest terms
        object.__setattr__(self, "terms", tuple(t if type(t) is Fraction else _frac(t) for t in self.terms))
        if len(self.terms) < 1:
            raise InvalidParameterError("a sequence needs at least one term")

    @classmethod
    def of(cls, terms: Iterable[Rational]) -> "Sequence":
        return cls(tuple(terms))

    def __len__(self) -> int:
        return len(self.terms)

    def __getitem__(self, n: int) -> Fraction:
        return self.terms[n]


@dataclass(frozen=True)
class TransformParams:
    """The (alpha, beta) pair of the modular, Hermite and Laguerre transforms."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "alpha", _frac(self.alpha))
        object.__setattr__(self, "beta", _frac(self.beta))

    @property
    def scale(self) -> int:
        """alpha and beta times this are integers."""
        return self.alpha.denominator * self.beta.denominator


def _cleared(weights: list[int], terms: Iterable[Fraction | int] | None = None,
             divisors: Iterable[int] | None = None) -> tuple[int, list[int]]:
    """(D, [D w_j t_j / d_j]) with D the least common denominator of the w_j t_j / d_j.

    The weights are integers, the terms (default 1) exact rationals and the
    divisors (default 1) positive integers; each quotient is reduced on
    integers before D is taken, so D is the same as for the reduced Fractions.
    """
    if terms is None and divisors is None:
        return 1, weights
    pairs = []
    for w, t, d in zip(weights, terms or repeat(1), divisors or repeat(1)):
        p, q = w * t.numerator, t.denominator * d
        g = gcd(p, q)
        pairs.append((p // g, q // g))
    den = lcm(*(q for _, q in pairs))
    return den, [p * (den // q) for p, q in pairs]


def _integer_product(left: tuple[int, list[int]], right: tuple[int, list[int]],
                     ratio: Fraction | int = 1) -> Sequence:
    """b_n = ratio^n sum_j C(n,j) l_j r_{n-j} / (D_L D_R) for the cleared sides (D_L, l), (D_R, r).

    The double sum is integer arithmetic and each b_n is reduced once.
    """
    (dl, ls), (dr, rs) = left, right
    active = []  # (j, r_j) for the nonzero r_j with j <= n
    num, den = 1, dl * dr
    out = []
    for n in range(len(ls)):
        if rs[n]:
            active.append((n, rs[n]))
        out.append(Fraction(sum(comb(n, j) * ls[n - j] * r for j, r in active) * num, den))
        num *= ratio.numerator
        den *= ratio.denominator
    return Sequence.of(out)


def _integer_correlation(left: tuple[int, list[int]], right: tuple[int, list[int]], count: int,
                         divisors: Iterable[int] | None = None) -> tuple[Fraction, ...]:
    """c_j = sum_k l_k r_{j+k} / (D_L D_R d_j) for j < count, on the cleared sides (D_L, l), (D_R, r),
    with r zero past its end and d_j = 1 by default; the sum is on integers and each c_j reduced once."""
    (dl, ls), (dr, rs) = left, right
    active = [(k, l) for k, l in enumerate(ls) if l]
    reach = [k for k, _ in active]
    return tuple(
        Fraction(sum(l * rs[j + k] for k, l in active[:bisect_left(reach, len(rs) - j)]), dl * dr * d)
        for j, d in zip(range(count), divisors or repeat(1))
    )


def _exact(values: Iterable, what: str) -> tuple[Fraction, ...]:
    """values as Fractions: a float converts to its exact value; complex, NaN and inf raise."""
    try:
        return tuple(map(Fraction, values))
    except _NOT_RATIONAL:
        raise InvalidParameterError(f"{what} must be rational or finite floats") from None


def _powers(x: int, count: int) -> list[int]:
    """x^j for j < count, with 0^0 = 1."""
    out, xj = [], 1
    for _ in range(count):
        out.append(xj)
        xj *= x
    return out


def _factorials(count: int) -> list[int]:
    """j! for j < count."""
    out, f = [], 1
    for j in range(count):
        if j:
            f *= j
        out.append(f)
    return out


def _gauss_egf(y: Fraction | int, count: int) -> list:
    """EGF coefficients of e^{y t^2} below index count: y^r (2r)!/r! at 2r, 0 at odd indices."""
    out, w = [], 1
    for j in range(count):
        if j and j % 2 == 0:
            w = w * (2 * (j - 1)) * y  # (2r)!/r! = 2 (2r - 1) (2r - 2)!/(r - 1)!
        out.append(0 if j % 2 else w)
    return out


def _egf_product(left: list[Fraction | int], right: list[Fraction | int], c: int = 1) -> Sequence:
    """b_n = sum_j C(n,j) L_j R_{n-j}, the coefficients of L(x) R(x).

    The sum is taken as c^{-n} sum_j C(n,j) (c^j L_j) (c^{n-j} R_{n-j}), the
    same number; with c a common denominator of the parameters whose powers
    L and R carry, each c^j L_j has a small denominator.
    """
    cj = _powers(c, len(left))
    return _integer_product(_cleared(cj, left), _cleared(cj, right), Fraction(1, c))


def binomial_transform(a: Sequence) -> Sequence:
    """b_n = sum_{s<=n} (-1)^s C(n,s) a_s.  Self-inverse."""
    n = len(a)
    return _integer_product(_cleared([1] * n), _cleared(_powers(-1, n), a.terms))


def modular_transform(a: Sequence, p: TransformParams) -> Sequence:
    """b_n = sum_{s<=n} (-1)^s C(n,s) alpha^{n-s} beta^s a_s."""
    al, be, n = p.alpha, p.beta, len(a)
    return _integer_product(_cleared(_powers(al.numerator * be.denominator, n)),
                            _cleared(_powers(-be.numerator * al.denominator, n), a.terms), Fraction(1, p.scale))


def modular_inverse(b: Sequence, p: TransformParams) -> Sequence:
    """a_n = beta^{-n} sum_{s<=n} (-1)^s C(n,s) alpha^{n-s} b_s."""
    if p.beta == 0:
        raise InvalidParameterError("modular inverse needs beta != 0")
    al, be, n = p.alpha, p.beta, len(b)
    return _integer_product(_cleared(_powers(al.numerator, n)), _cleared(_powers(-al.denominator, n), b.terms),
                            Fraction(be.denominator, be.numerator * al.denominator))


def rising_k_binomial(a: Sequence, k: int) -> Sequence:
    """b_n = sum_{s<=n} (-1)^s C(n,s) s^k a_s, with 0^0 = 1."""
    if not isinstance(k, int) or k < 0:
        raise InvalidParameterError(f"k must be a nonnegative integer, got {k!r}")
    n = len(a)
    return _integer_product(_cleared([1] * n), _cleared([(-1) ** s * s ** k for s in range(n)], a.terms))


def hermite_transform_seq(a: Sequence, p: TransformParams) -> Sequence:
    """b_n = sum_{r<=n/2} n!/((n-2r)! r!) alpha^{n-2r} beta^r a_r."""
    al, be, n = p.alpha, p.beta, len(a)
    spread = [a[j // 2] for j in range(n)]  # a_r at j = 2r; the odd j carry weight 0
    return _integer_product(_cleared(_powers(al.numerator * be.denominator, n)),
                            _cleared(_gauss_egf(be.numerator * al.denominator ** 2 * be.denominator, n), spread),
                            Fraction(1, p.scale))


def hermite_complementary_seq(a: Sequence, p: TransformParams) -> Sequence:
    """b_n = n! sum_{r<=n/2} alpha^{n-2r} beta^r a_{n-2r} / ((n-2r)! r!).

    The printed coefficient C(n,2r) would contradict the closed form
    e^{beta x^2} g(alpha x); the umbral coefficient n!/((n-2r)! r!) is used
    instead and the generating-function tests enforce it.
    """
    al, be, n = p.alpha, p.beta, len(a)
    return _integer_product(_cleared(_gauss_egf(be.numerator * al.denominator ** 2 * be.denominator, n)),
                            _cleared(_powers(al.numerator * be.denominator, n), a.terms), Fraction(1, p.scale))


def hermite_inverse_seq(b: Sequence, p: TransformParams) -> Sequence:
    """a_n = alpha^{-n} n! sum_r b_{n-2r} (-beta)^r / ((n-2r)! r!).

    Inverts hermite_complementary_seq exactly.  The degree-doubling transform
    hermite_transform_seq has no termwise inverse at all on finite prefixes
    (b_1 = alpha a_0 never sees a_1), so this is the only pairing the
    inversion identity can refer to.
    """
    if p.alpha == 0:
        raise InvalidParameterError("hermite inverse needs alpha != 0")
    al, be, n = p.alpha, p.beta, len(b)
    return _integer_product(_cleared(_gauss_egf(-be.numerator * be.denominator, n)),
                            _cleared(_powers(be.denominator, n), b.terms),
                            Fraction(al.denominator, al.numerator * be.denominator))


def laguerre_transform_seq(a: Sequence, p: TransformParams) -> Sequence:
    """b_n = n! sum_{r<=n} (-1)^r beta^{n-r} alpha^r a_r / ((r!)^2 (n-r)!).

    Carries the n! prefactor missing from the printed coefficient so that the
    transform of (1,1,...) at alpha = beta = 1 is the classical Laguerre value
    L_n(1); the generating function e^{yt} C_0(xt) forces this normalization.
    """
    al, be, n = p.alpha, p.beta, len(a)
    return _integer_product(_cleared(_powers(be.numerator * al.denominator, n)),
                            _cleared(_powers(-al.numerator * be.denominator, n), a.terms, _factorials(n)),
                            Fraction(1, p.scale))


@dataclass(frozen=True)
class Stage:
    """One named transform with its parameters, as the command line gives it."""

    name: str
    alpha: Fraction | None = None
    beta: Fraction | None = None
    k: int | None = None

    def apply(self, a: Sequence) -> Sequence:
        try:
            runner = _STAGES[self.name]
        except KeyError:
            raise InvalidParameterError(f"unknown transform {self.name!r}") from None
        return runner(self, a)


def _need(value, what: str):
    if value is None:
        raise InvalidParameterError(f"stage needs parameter {what}")
    return value


def _params(st: Stage) -> TransformParams:
    return TransformParams(_need(st.alpha, "alpha"), _need(st.beta, "beta"))


_STAGES = {
    "binomial": lambda st, a: binomial_transform(a),
    "modular": lambda st, a: modular_transform(a, _params(st)),
    "modular-inverse": lambda st, a: modular_inverse(a, _params(st)),
    "k-binomial": lambda st, a: rising_k_binomial(a, _need(st.k, "k")),
    "hermite": lambda st, a: hermite_transform_seq(a, _params(st)),
    "hermite-complementary": lambda st, a: hermite_complementary_seq(a, _params(st)),
    "hermite-inverse": lambda st, a: hermite_inverse_seq(a, _params(st)),
    "laguerre": lambda st, a: laguerre_transform_seq(a, _params(st)),
}

TRANSFORM_NAMES = tuple(_STAGES)


_DIGITS_LOCK = threading.RLock()


@contextmanager
def _any_digits():
    """Lift the interpreter's cap on int <-> str conversion (4300 digits) inside the
    exchange-format functions: an exact term may have any number of digits.  The
    cap is process-wide, so one caller at a time (nesting allowed) saves and restores it."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    with _DIGITS_LOCK:
        saved = sys.get_int_max_str_digits()
        set_limit(0)
        try:
            yield
        finally:
            set_limit(saved)


def render_rational(q: Fraction) -> str:
    return str(q)


@_any_digits()
def sequence_to_json(a: Sequence) -> str:
    """Serialize in the exchange format: {"terms": ["p/q" | "p", ...]}."""
    return json.dumps({"terms": [render_rational(t) for t in a.terms]})


@_any_digits()
def sequence_from_json(text: str) -> Sequence:
    """Parse the exchange format; exact round-trip with sequence_to_json."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SequenceFormatError(f"invalid JSON: {exc.msg}", exc.lineno, exc.colno) from exc
    if not isinstance(doc, dict) or "terms" not in doc:
        raise SequenceFormatError("document must be an object with a 'terms' field")
    raw = doc["terms"]
    if not isinstance(raw, list) or not raw:
        raise SequenceFormatError("'terms' must be a non-empty list")
    terms = []
    for i, item in enumerate(raw):
        # bool is an int subclass: JSON true/false are not terms
        if isinstance(item, bool) or not isinstance(item, (str, int)):
            raise SequenceFormatError(f"term {i} must be a string or integer, got {type(item).__name__}")
        try:
            terms.append(Fraction(item))
        except (ValueError, ZeroDivisionError) as exc:
            raise SequenceFormatError(f"term {i} is not a valid rational: {quoted(item)}") from exc
    return Sequence.of(terms)
