"""Truncated operators on the monomial basis x^0 .. x^D.

These dense matrices are the brute-force oracle for every disentanglement and
evolution claim: an operator polynomial is assembled from the elementary
factors, exponentiated, and applied to coefficient vectors.  Degree-raising
factors lose the top of the basis under the cap, so each one decrements the
trusted input degree (`validity_degree`); degree-lowering operators are
nilpotent and exponentiate exactly on the rational path.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

from ..errors import InvalidParameterError

Matrix = tuple[tuple, ...]


class ValidityWarning(UserWarning):
    """An apply() request exceeded the operator's trusted input degree."""


def _zeros(n: int) -> list[list]:
    return [[0 for _ in range(n)] for _ in range(n)]


@dataclass(frozen=True)
class TruncatedOperator:
    """Linear operator on coefficient vectors (index = monomial degree)."""

    matrix: Matrix
    degree_cap: int
    raising_count: int = 0

    @property
    def validity_degree(self) -> int:
        return self.degree_cap - self.raising_count

    def _rows(self) -> list[list]:
        return [list(row) for row in self.matrix]

    def to_array(self) -> np.ndarray:
        return np.array([[complex(e) for e in row] for row in self.matrix], dtype=complex)

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
        c = (c + [0] * (self.degree_cap + 1 - len(c)))[: self.degree_cap + 1]
        return tuple(sum(row[j] * c[j] for j in range(len(c)) if row[j] != 0 and c[j] != 0) for row in self.matrix)

    def compose(self, other: "TruncatedOperator") -> "TruncatedOperator":
        """self after other (matrix product self @ other)."""
        if self.degree_cap != other.degree_cap:
            raise InvalidParameterError("operators must share a degree cap")
        n = self.degree_cap + 1
        a, b = self.matrix, other.matrix
        out = _zeros(n)
        for i in range(n):
            arow = a[i]
            for k in range(n):
                if arow[k] == 0:
                    continue
                brow = b[k]
                aik = arow[k]
                for j in range(n):
                    if brow[j] != 0:
                        out[i][j] += aik * brow[j]
        return TruncatedOperator(tuple(tuple(r) for r in out), self.degree_cap,
                                 self.raising_count + other.raising_count)

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        if self.degree_cap != other.degree_cap:
            raise InvalidParameterError("operators must share a degree cap")
        out = tuple(
            tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(self.matrix, other.matrix)
        )
        return TruncatedOperator(out, self.degree_cap, max(self.raising_count, other.raising_count))

    def scale(self, s) -> "TruncatedOperator":
        return TruncatedOperator(
            tuple(tuple(s * e for e in row) for row in self.matrix), self.degree_cap, self.raising_count
        )

    def power(self, m: int) -> "TruncatedOperator":
        if m < 0:
            raise InvalidParameterError("power must be nonnegative")
        out = identity_op(self.degree_cap)
        for _ in range(m):
            out = out.compose(self)
        return out

    def is_degree_lowering(self) -> bool:
        """True when the matrix is strictly upper triangular in coefficient space."""
        return all(
            self.matrix[i][j] == 0 for i in range(self.degree_cap + 1) for j in range(i + 1)
        )

    def expm_apply(self, coeffs, scale=1):
        """Apply exp(scale * self) to a coefficient vector.

        Degree-lowering operators are nilpotent: the exponential series
        terminates and is evaluated exactly (rational inputs stay rational).
        General operators go through scipy's dense expm in complex floats.
        """
        c = list(coeffs) + [0] * (self.degree_cap + 1 - len(coeffs))
        if self.is_degree_lowering():
            total = list(c)
            term = list(c)
            for j in range(1, self.degree_cap + 2):
                term = [t * scale / j for t in self.apply(term)]
                if all(t == 0 for t in term):
                    break
                total = [a + b for a, b in zip(total, term)]
            return tuple(total)
        arr = scipy.linalg.expm(complex(scale) * self.to_array())
        return tuple(arr @ np.array([complex(v) for v in c]))


def identity_op(degree_cap: int) -> TruncatedOperator:
    m = _zeros(degree_cap + 1)
    for i in range(degree_cap + 1):
        m[i][i] = 1
    return TruncatedOperator(tuple(tuple(r) for r in m), degree_cap, 0)


def derivative_op(degree_cap: int) -> TruncatedOperator:
    """d/dx: x^n -> n x^{n-1}; degree-lowering."""
    m = _zeros(degree_cap + 1)
    for n in range(degree_cap):
        m[n][n + 1] = n + 1
    return TruncatedOperator(tuple(tuple(r) for r in m), degree_cap, 0)


def x_multiply_op(degree_cap: int) -> TruncatedOperator:
    """multiplication by x; degree-raising (loses the top coefficient)."""
    m = _zeros(degree_cap + 1)
    for n in range(1, degree_cap + 1):
        m[n][n - 1] = 1
    return TruncatedOperator(tuple(tuple(r) for r in m), degree_cap, 1)


def neg_derivative_op(degree_cap: int) -> TruncatedOperator:
    """D^{-1}: x^n -> x^{n+1}/(n+1), integration from 0; degree-raising."""
    m = _zeros(degree_cap + 1)
    for n in range(1, degree_cap + 1):
        m[n][n - 1] = Fraction(1, n)
    return TruncatedOperator(tuple(tuple(r) for r in m), degree_cap, 1)


def laguerre_derivative_op(degree_cap: int) -> TruncatedOperator:
    """Laguerre derivative d/dx x d/dx: x^n -> n^2 x^{n-1}; degree-lowering."""
    m = _zeros(degree_cap + 1)
    for n in range(degree_cap):
        m[n][n + 1] = (n + 1) ** 2
    return TruncatedOperator(tuple(tuple(r) for r in m), degree_cap, 0)


def second_derivative_plus_x_op(alpha, beta, degree_cap: int) -> TruncatedOperator:
    """alpha d^2/dx^2 + beta x, the argument operator of the cubic-commutator symbol."""
    d = derivative_op(degree_cap)
    return d.compose(d).scale(alpha) + x_multiply_op(degree_cap).scale(beta)
