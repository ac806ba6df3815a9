"""Reference special functions: exact values and oracle comparisons."""
from fractions import Fraction
from math import comb, factorial, perm

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra.specfun import (
    hermite2,
    hermite2_coeffs,
    polyval_coeffs,
    stirling2,
    tricomi_c,
    tricomi_series,
)

small_rationals = st.fractions(min_value=Fraction(-5), max_value=Fraction(5), max_denominator=12)


def laguerre2(n, x, y):
    """Two-variable Laguerre polynomial L_n(x, y) = n! sum_r (-1)^r x^r y^{n-r} / ((r!)^2 (n-r)!),
    exact on rational input; L_n(x, 1) is the classical Laguerre polynomial."""
    return sum(
        Fraction((-1) ** r * factorial(n), factorial(r) ** 2 * factorial(n - r)) * x ** r * y ** (n - r)
        for r in range(n + 1)
    )


def classical_laguerre(n, x):
    """Three-term recurrence oracle: (n+1) L_{n+1} = (2n+1-x) L_n - n L_{n-1}."""
    prev, cur = Fraction(1), 1 - x
    if n == 0:
        return prev
    for m in range(1, n):
        prev, cur = cur, ((2 * m + 1 - x) * cur - m * prev) / (m + 1)
    return cur


class TestHermite2:
    def test_h0(self):
        assert hermite2(0, Fraction(7), Fraction(-3)) == 1

    def test_h2_formula(self):
        x, y = Fraction(3), Fraction(5)
        assert hermite2(2, x, y) == x * x + 2 * y

    def test_h3_at_2_1(self):
        assert hermite2(3, 2, 1) == 20

    def test_y_zero_gives_monomial(self):
        assert hermite2(5, Fraction(2, 3), 0) == Fraction(2, 3) ** 5

    def test_x_zero_even_odd(self):
        assert hermite2(5, 0, Fraction(4)) == 0
        assert hermite2(6, 0, Fraction(4)) == Fraction(720, 6) * 4 ** 3

    @pytest.mark.parametrize("x,y", [(0.3, 0.8), (-0.9, 0.2), (1.0, -1.0)])
    def test_generating_function(self, x, y):
        # sum t^n H_n(x,y)/n! == exp(xt + yt^2) at |t| <= 1/2, tail < 1e-12
        for t in (0.5, -0.5, 0.25):
            total = sum(hermite2(n, x, y) * t ** n / scipy.special.factorial(n) for n in range(41))
            assert total == pytest.approx(np.exp(x * t + y * t * t), abs=1e-12)

    def test_coefficient_numbers(self):
        # the recurrence for n!/((n-2r)! r!) against the factorials, odd degrees skipped
        for n in range(31):
            want = [0] * (n + 1)
            for r in range(n // 2 + 1):
                want[n - 2 * r] = factorial(n) // (factorial(n - 2 * r) * factorial(r))
            assert hermite2_coeffs(n, 1) == tuple(want)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 16), small_rationals, small_rationals)
    def test_coefficients_evaluate_to_h(self, n, x, y):
        assert polyval_coeffs(hermite2_coeffs(n, y), x) == hermite2(n, x, y)

    def test_exact_and_float_paths_agree(self):
        exact = hermite2(7, Fraction(1, 3), Fraction(-2, 5))
        floaty = hermite2(7, 1 / 3, -2 / 5)
        assert floaty == pytest.approx(float(exact), rel=1e-13)


class TestLaguerre2:
    def test_l0(self):
        assert laguerre2(0, Fraction(9), Fraction(2)) == 1

    def test_l1(self):
        x, y = Fraction(2), Fraction(7)
        assert laguerre2(1, x, y) == y - x

    def test_l2_at_1_1(self):
        assert laguerre2(2, 1, 1) == Fraction(-1, 2)

    @pytest.mark.parametrize("n", range(21))
    def test_matches_classical_recurrence(self, n):
        for x in (Fraction(1), Fraction(-3, 2), Fraction(5, 7)):
            assert laguerre2(n, x, 1) == classical_laguerre(n, x)


class TestTricomi:
    def test_c0_at_zero(self):
        assert tricomi_c(0, 0) == 1

    def test_c1_at_zero(self):
        assert tricomi_c(1, 0) == 1

    def test_c0_is_bessel_j0(self):
        # C_0(x) = J_0(2 sqrt(x)); scipy's j0 is an independent implementation
        assert tricomi_c(0, 1).real == pytest.approx(scipy.special.j0(2.0), abs=1e-12)
        assert abs(tricomi_c(0, 1).imag) < 1e-15
        for x in (0.1, 0.5, 2.0, 7.3):
            assert tricomi_c(0, x).real == pytest.approx(scipy.special.j0(2 * np.sqrt(x)), abs=1e-12)

    def test_derivative_shift_relation(self):
        # d/dx C_n = -C_{n+1}, via central differences
        h = 1e-5
        for n in range(4):
            for x in (0.3, 1.1):
                fd = (tricomi_c(n, x + h) - tricomi_c(n, x - h)) / (2 * h)
                assert fd.real == pytest.approx(-tricomi_c(n + 1, x).real, abs=1e-8)

    def test_series_coefficients_shift_exactly(self):
        # termwise: coefficient r of C_n' equals -(coefficient r-1... ) matches -C_{n+1}
        n = 2
        cn = tricomi_series(n, 12)
        cn1 = tricomi_series(n + 1, 11)
        derived = tuple((r + 1) * cn[r + 1] for r in range(12))
        assert derived == tuple(-c for c in cn1)

    def test_accepts_arrays(self):
        z = np.array([0.0, 1.0, -2.0j])
        vals = tricomi_c(0, z)
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(1.0)

    def test_complex_argument(self):
        # sanity against direct high-order summation
        z = -1.5j
        direct = sum((-z) ** r / (scipy.special.factorial(r) ** 2) for r in range(40))
        assert tricomi_c(0, z) == pytest.approx(complex(direct), abs=1e-13)


class TestStirling2:
    def test_single_block(self):
        for n in range(1, 8):
            assert stirling2(1, n) == 1

    def test_s2_2_3(self):
        assert stirling2(2, 3) == 3

    def test_s2_3_3(self):
        assert stirling2(3, 3) == 1

    def test_zero_zero(self):
        assert stirling2(0, 0) == 1

    def test_table_self_checks(self):
        # x^n = sum_k S2(k, n) x(x-1)...(x-k+1), and S2(k, n) = 0 for k > n
        for n in range(9):
            for x in range(10):
                assert x ** n == sum(stirling2(k, n) * perm(x, k) for k in range(n + 1))
        assert stirling2(2, 3) == 3
        assert stirling2(5, 3) == 0


def hermite_addition_check(n, x, y, z):
    """sum_s C(n,s) x^s H_{n-s}(y,z) - H_n(x+y, z): the addition theorem, exactly zero on rationals."""
    return sum(comb(n, s) * x ** s * hermite2(n - s, y, z) for s in range(n + 1)) - hermite2(n, x + y, z)


class TestHermiteAddition:
    def test_n0(self):
        assert hermite_addition_check(0, Fraction(1), Fraction(2), Fraction(3)) == 0

    def test_n2_integers(self):
        assert hermite_addition_check(2, Fraction(1), Fraction(1), Fraction(1)) == 0

    @given(st.integers(min_value=0, max_value=10), small_rationals, small_rationals, small_rationals)
    @settings(max_examples=60)
    def test_residual_vanishes_exactly(self, n, x, y, z):
        assert hermite_addition_check(n, x, y, z) == 0
