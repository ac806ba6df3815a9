"""Truncated operators on the monomial basis x^0 .. x^D.

These operators are the brute-force oracle for the evolution and
function-of-operator claims: an operator polynomial is assembled from the
elementary factors and applied to coefficient vectors, exactly when the entries
are rational.  Every factor is banded, so an operator is stored by its
diagonals.  Degree-raising factors lose the top of the basis under the cap, so
each one decrements the trusted input degree (`validity_degree`);
degree-lowering operators are nilpotent and exponentiate exactly.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from ..errors import InvalidParameterError


class ValidityWarning(UserWarning):
    """An apply() request exceeded the operator's trusted input degree."""


@dataclass(frozen=True)
class TruncatedOperator:
    """Linear operator on coefficient vectors (index = monomial degree).

    `bands[d][i]` is the entry (i, i + d): the coefficient of x^(i + d) in the
    input that lands on x^i.  Offsets d > 0 lower the degree and d < 0 raise
    it; each band has degree_cap + 1 entries, zero where i + d is off the basis.
    `raising_count` adds under composition and is stored rather than read off
    the bands: d/dx after x has offset 0 but has still lost x * x^D.
    """

    bands: dict[int, tuple]
    degree_cap: int
    raising_count: int = 0

    @property
    def validity_degree(self) -> int:
        return self.degree_cap - self.raising_count

    def apply(self, coeffs) -> tuple:
        """Apply to a coefficient vector (padded/truncated to the cap)."""
        c = list(coeffs)
        degree = max((i for i, v in enumerate(c) if v != 0), default=0)
        if degree > self.validity_degree:
            warnings.warn(
                f"input degree {degree} exceeds trusted degree {self.validity_degree}",
                ValidityWarning,
                stacklevel=2,
            )
        n = self.degree_cap + 1
        c = (c + [0] * (n - len(c)))[:n]
        # ascending offsets = ascending columns, so float sums match a row-by-column product
        bands = sorted(self.bands.items())
        return tuple(
            sum(band[i] * c[i + d] for d, band in bands if 0 <= i + d < n and band[i] != 0 and c[i + d] != 0)
            for i in range(n)
        )

    def compose(self, other: "TruncatedOperator") -> "TruncatedOperator":
        """self after other (matrix product self @ other): offsets add."""
        if self.degree_cap != other.degree_cap:
            raise InvalidParameterError("operators must share a degree cap")
        n = self.degree_cap + 1
        out: dict[int, list] = {}
        # entry (i, i+da+db) sums over the middle column k = i+da in ascending order
        for da, a in sorted(self.bands.items()):
            for db, b in sorted(other.bands.items()):
                band = out.setdefault(da + db, [0] * n)
                for i in range(n):
                    k = i + da
                    if 0 <= k < n and 0 <= k + db < n and a[i] != 0 and b[k] != 0:
                        band[i] += a[i] * b[k]
        return TruncatedOperator({d: tuple(band) for d, band in out.items()}, self.degree_cap,
                                 self.raising_count + other.raising_count)

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        if self.degree_cap != other.degree_cap:
            raise InvalidParameterError("operators must share a degree cap")
        out = dict(self.bands)
        for d, band in other.bands.items():
            out[d] = tuple(x + y for x, y in zip(out[d], band)) if d in out else band
        return TruncatedOperator(out, self.degree_cap, max(self.raising_count, other.raising_count))

    def scale(self, s) -> "TruncatedOperator":
        return TruncatedOperator(
            {d: tuple(s * e for e in band) for d, band in self.bands.items()},
            self.degree_cap, self.raising_count,
        )

    def is_degree_lowering(self) -> bool:
        """True when every nonzero entry lies above the diagonal (offset d > 0)."""
        return all(e == 0 for d, band in self.bands.items() if d <= 0 for e in band)

    def expm_apply(self, coeffs, scale=1):
        """Apply exp(scale * self) to a coefficient vector; degree-lowering operators only.

        A degree-lowering operator is nilpotent: the exponential series
        terminates and is evaluated exactly (rational inputs stay rational).
        """
        if not self.is_degree_lowering():
            raise InvalidParameterError("expm_apply needs a degree-lowering (nilpotent) operator")
        c = list(coeffs) + [0] * (self.degree_cap + 1 - len(coeffs))
        total = list(c)
        term = list(c)
        for j in range(1, self.degree_cap + 2):
            term = [t * scale / j for t in self.apply(term)]
            if all(t == 0 for t in term):
                break
            total = [a + b for a, b in zip(total, term)]
        return tuple(total)


def derivative_op(degree_cap: int) -> TruncatedOperator:
    """d/dx: x^n -> n x^{n-1}; degree-lowering."""
    return TruncatedOperator({1: tuple(range(1, degree_cap + 1)) + (0,)}, degree_cap, 0)


def x_multiply_op(degree_cap: int) -> TruncatedOperator:
    """multiplication by x; degree-raising (loses the top coefficient)."""
    return TruncatedOperator({-1: (0,) + (1,) * degree_cap}, degree_cap, 1)


def neg_derivative_op(degree_cap: int) -> TruncatedOperator:
    """D^{-1}: x^n -> x^{n+1}/(n+1), integration from 0; degree-raising."""
    band = (0,) + tuple(Fraction(1, n) for n in range(1, degree_cap + 1))
    return TruncatedOperator({-1: band}, degree_cap, 1)


def laguerre_derivative_op(degree_cap: int) -> TruncatedOperator:
    """Laguerre derivative d/dx x d/dx: x^n -> n^2 x^{n-1}; degree-lowering."""
    return TruncatedOperator({1: tuple(n * n for n in range(1, degree_cap + 1)) + (0,)}, degree_cap, 0)


def second_derivative_plus_x_op(alpha, beta, degree_cap: int) -> TruncatedOperator:
    """alpha d^2/dx^2 + beta x, the argument operator of the cubic-commutator symbol."""
    d = derivative_op(degree_cap)
    return d.compose(d).scale(alpha) + x_multiply_op(degree_cap).scale(beta)
