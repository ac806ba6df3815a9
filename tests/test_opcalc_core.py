"""Quadrature engine, formal disentanglement, the sparse operator engine, series operators."""
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
import scipy.special
from exp_apply_oracle import exp_apply_fractions
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbra import checks, opcalc
from umbra.opcalc import formal, operators, quadrature
from umbra.errors import InvalidParameterError

small_rationals = st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=6)


class TestQuadratureRules:
    def test_moments_reproduce_gamma(self):
        rule = opcalc.gauss_hermite_rule(128)
        for m in (0, 1, 5, 20, 63):
            got = np.sum(rule.weights * rule.nodes ** (2 * m))
            assert got == pytest.approx(scipy.special.gamma(m + 0.5), rel=1e-13)

    def test_gauss_weighted_normalization(self):
        res = opcalc.gauss_weighted_integral(lambda k: np.ones_like(k), 1.7)
        assert res.value == pytest.approx(2 * np.sqrt(np.pi * 1.7), rel=1e-13)

    def test_gauss_weighted_second_moment(self):
        y = 0.8
        res = opcalc.gauss_weighted_integral(lambda k: k * k, y)
        assert res.value == pytest.approx(2 * np.sqrt(np.pi * y) * 2 * y, rel=1e-12)

    def test_gauss_weighted_odd_vanishes(self):
        res = opcalc.gauss_weighted_integral(lambda k: k, 1.0)
        assert abs(res.value) < 1e-15

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(InvalidParameterError):
            opcalc.gauss_weighted_integral(lambda k: k, 0.0)

    def test_adaptive_reports_node_count(self):
        res = opcalc.gauss_weighted_integral(lambda k: np.exp(-(k**2)), 1.0)
        assert res.converged
        assert res.node_count in (128, 256, 512, 1024)

    def test_convergence_warning_at_cap(self):
        # a spike the coarse rules cannot see forces doubling to the cap
        with pytest.warns(opcalc.QuadratureConvergenceWarning):
            opcalc.adaptive_hermite(lambda u: np.exp(-((u * 3000.0) ** 2) % 7.0))

    @pytest.mark.parametrize("n", [128, 256, 512, 1024])
    def test_hermite_rule_matches_scipy(self, n):
        nodes, weights = scipy.special.roots_hermite(n)
        rule = opcalc.gauss_hermite_rule(n)
        assert np.max(np.abs(rule.nodes - nodes)) <= 3e-14
        kept = weights > 1e-250  # scipy's smallest weights are not accurate to the last bits
        assert np.max(np.abs(rule.weights[kept] / weights[kept] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 32, 127])
    def test_hermite_rule_small_and_odd_counts(self, n):
        nodes, weights = scipy.special.roots_hermite(n)
        rule = opcalc.gauss_hermite_rule(n)
        assert np.max(np.abs(rule.nodes - nodes)) <= 1e-14
        # below 150 nodes scipy takes Golub-Welsch weights, off by up to 1e-12 at the outer nodes
        assert np.max(np.abs(rule.weights / weights - 1.0)) <= 3e-12
        assert np.array_equal(rule.nodes, -rule.nodes[::-1])

    def test_node_reach_bounds_every_rule_the_doubling_uses(self):
        # the guard against k^n overflow reads the reach, never the rules themselves;
        # at gauss_coeff = 1/9 the nodes are k = 3u
        n = quadrature.DEFAULT_START_NODES
        while n <= quadrature.NODE_CAP:
            widest = np.max(np.abs(opcalc.gauss_hermite_rule(n).nodes))
            assert widest * 3.0 < quadrature.node_reach(1 / 9)
            n *= 2

    def test_hermite_rule_rejects_empty(self):
        with pytest.raises(InvalidParameterError):
            opcalc.gauss_hermite_rule(0)

    def test_log_gamma_half_matches_scipy(self):
        table = quadrature.log_gamma_half(600)
        ref = scipy.special.gammaln(np.arange(600) + 0.5)
        assert np.max(np.abs(table - ref) / np.maximum(1.0, np.abs(ref))) <= 2e-15
        assert not table.flags.writeable

    def test_legendre_rule_matches_scipy(self):
        for order in (12, 16):
            nodes, weights = scipy.special.roots_legendre(order)
            rule = opcalc.legendre_composite_rule(-1.0, 1.0, 1, order)
            assert np.max(np.abs(rule.nodes - nodes)) <= 1e-15
            assert np.max(np.abs(rule.weights - weights)) <= 5e-15

    def test_legendre_composite_integrates_poly(self):
        rule = opcalc.legendre_composite_rule(-1.0, 3.0, 8, 6)
        got = np.sum(rule.weights * rule.nodes ** 4)
        assert got == pytest.approx((3.0 ** 5 - (-1.0) ** 5) / 5, rel=1e-13)


class TestWeylCheck:
    def test_a_zero(self):
        assert checks._weyl_check(0, 3) == 0

    def test_b_zero(self):
        assert checks._weyl_check(Fraction(5, 2), 0) == 0

    def test_unit(self):
        assert checks._weyl_check(1, 1, order=8) == 0

    @given(small_rationals, small_rationals)
    @settings(max_examples=15, deadline=None)
    def test_exact_for_rationals(self, a, b):
        assert checks._weyl_check(a, b, order=6) == 0


class TestCubicDisentangle:
    def test_beta_zero(self):
        assert checks._cubic_disentangle_check(Fraction(2, 3), 0) == 0

    def test_alpha_zero(self):
        assert checks._cubic_disentangle_check(0, 2) == 0

    def test_unit_exact(self):
        assert checks._cubic_disentangle_check(1, 1, order=8) == 0

    def test_nontrivial_exact(self):
        assert checks._cubic_disentangle_check(Fraction(3, 4), 2, order=8) == 0

    def test_printed_constant_matches_at_alpha_one(self):
        # alpha = 1 hides the Eq. 72 misprint: the printed alpha^4/3 and alpha^{5/2}
        # terms are the derived alpha/3 and alpha there
        A, B = formal.OperatorTerm(1, Fraction(1), "d2"), formal.OperatorTerm(1, Fraction(1), "x")
        scalar = formal.OperatorTerm(3, Fraction(1, 3), "1")
        drift = formal.OperatorTerm(2, Fraction(-1), "d")
        assert checks._product_residual([[A, B]], [[scalar, drift, A], [B]], 6, checks._CUBIC_MAX_DEGREE) == 0


class TestExpApply:
    """e^{eps^s c A} x^n against closed forms, one action at a time; the order cap
    drops every eps^{s m} with s m > cap."""

    @given(small_rationals, st.integers(1, 3), st.integers(0, 8), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_x_term_multiplies_by_exponential(self, b, shift, n, cap):
        # e^{eps b x} x^n = sum_m (eps b)^m x^{n+m} / m!
        got = formal.exp_apply([formal.OperatorTerm(shift, b, "x")], {(0, n): Fraction(1)}, cap)
        want = {(shift * m, n + m): b ** m / factorial(m) for m in range(cap // shift + 1) if b ** m}
        assert got == want

    @given(small_rationals, st.integers(1, 3), st.integers(0, 8), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_d_term_is_the_taylor_shift(self, a, shift, n, cap):
        # e^{eps a d/dx} x^n = (x + eps a)^n = sum_m C(n, m) (eps a)^m x^{n-m}
        got = formal.exp_apply([formal.OperatorTerm(shift, a, "d")], {(0, n): Fraction(1)}, cap)
        want = {(shift * m, n - m): comb(n, m) * a ** m
                for m in range(min(n, cap // shift) + 1) if a ** m}
        assert got == want

    @given(small_rationals, st.integers(1, 3), st.integers(0, 8), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_d2_term_is_the_heat_semigroup(self, a, shift, n, cap):
        # e^{eps a d^2} x^n = sum_m (eps a)^m / m! n! / (n - 2m)! x^{n-2m}
        got = formal.exp_apply([formal.OperatorTerm(shift, a, "d2")], {(0, n): Fraction(1)}, cap)
        want = {(shift * m, n - 2 * m): a ** m / factorial(m) * factorial(n) / factorial(n - 2 * m)
                for m in range(min(n // 2, cap // shift) + 1) if a ** m}
        assert got == want

    @given(small_rationals, st.integers(1, 3), st.integers(0, 8), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_dinv_term_raises_by_integration(self, a, shift, n, cap):
        # e^{eps a D^{-1}} x^n = sum_m (eps a)^m / m! n! / (n + m)! x^{n+m}
        got = formal.exp_apply([formal.OperatorTerm(shift, a, "Dinv")], {(0, n): Fraction(1)}, cap)
        want = {(shift * m, n + m): a ** m / factorial(m) * Fraction(factorial(n), factorial(n + m))
                for m in range(cap // shift + 1) if a ** m}
        assert got == want

    @given(small_rationals, st.integers(1, 3), st.integers(0, 8), st.integers(0, 10))
    @settings(max_examples=60, deadline=None)
    def test_ld_term_is_nilpotent(self, a, shift, n, cap):
        # e^{eps a LD} x^n = sum_m (eps a)^m / m! (n! / (n - m)!)^2 x^{n-m}
        got = formal.exp_apply([formal.OperatorTerm(shift, a, "LD")], {(0, n): Fraction(1)}, cap)
        want = {(shift * m, n - m): a ** m / factorial(m) * Fraction(factorial(n), factorial(n - m)) ** 2
                for m in range(min(n, cap // shift) + 1) if a ** m}
        assert got == want

    def test_rejects_an_eps0_term(self):
        # e^{A} with A of order eps^0 does not terminate in eps: the series would stop at the cap
        terms = [formal.OperatorTerm(0, Fraction(3, 10), "d2"), formal.OperatorTerm(1, Fraction(1, 5), "x")]
        with pytest.raises(InvalidParameterError):
            formal.exp_apply(terms, {(0, 1): Fraction(1)}, 8)

    @pytest.mark.parametrize("scalar, value", [
        (0.5, Fraction(1)), (1j, Fraction(1)), (Fraction(1, 2), 0.1), (Fraction(1, 2), 1 + 0j), (np.float64(2.0), 1),
    ])
    def test_rejects_an_inexact_scalar_or_state_value(self, scalar, value):
        # cleared to integers, a float would enter as its exact binary value and the result
        # would look exact; the engine takes exact rationals only
        with pytest.raises(InvalidParameterError, match="exact rational"):
            formal.exp_apply([formal.OperatorTerm(1, scalar, "x")], {(0, 1): value}, 4)

    @given(
        st.lists(st.builds(formal.OperatorTerm, st.integers(1, 3),
                           st.fractions(min_value=-9, max_value=9, max_denominator=10 ** 6),
                           st.sampled_from(sorted(operators._ACTIONS))), min_size=1, max_size=5),
        st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 8)),
                        st.fractions(min_value=-50, max_value=50, max_denominator=10 ** 6).filter(bool),
                        min_size=1, max_size=6),
        st.integers(0, 10),
    )
    @settings(max_examples=150, deadline=None)
    def test_integer_series_equals_the_fraction_loop(self, terms, state, cap):
        # all six actions, D^{-1}'s 1/(n + 1) among them, on multi-monomial states
        got = formal.exp_apply(terms, state, cap)
        assert got == exp_apply_fractions(terms, state, cap)
        assert all(got.values()) and all(type(c) is Fraction for c in got.values())


def _apply(action, coeffs):
    """One eps^0 action on an ascending coefficient vector, read back at its length."""
    state = operators.apply_operator([operators.OperatorTerm(0, 1, action)], operators.polynomial(coeffs), 0)
    return tuple(operators.coefficients(state, len(coeffs)))


def _exp(action, scalar, coeffs):
    """e^{scalar action} by eps-grading a degree-lowering action, summed over eps orders."""
    state = formal.exp_apply([operators.OperatorTerm(1, scalar, action)], operators.polynomial(coeffs), len(coeffs))
    return tuple(operators.coefficients(state, len(coeffs)))


class TestApplyOperator:
    def test_rejects_unknown_action_and_negative_shift(self):
        with pytest.raises(InvalidParameterError):
            operators.OperatorTerm(0, 1, "d3")
        with pytest.raises(InvalidParameterError):
            operators.OperatorTerm(-1, 1, "d")

    def test_derivative_and_x(self):
        assert _apply("d", (0, 0, 1)) == (0, 2, 0)
        assert _apply("x", (1, 1, 0)) == (0, 1, 1)

    def test_dinv_matrix(self):
        # D^{-1} on monomials; D^{-2} is its square
        assert _apply("Dinv", (Fraction(1), 0, 0, 0)) == (0, 1, 0, 0)
        assert _apply("Dinv", (0, 2, 0, 0)) == (0, 0, 1, 0)
        assert _apply("Dinv", _apply("Dinv", (Fraction(1), 0, 0, 0))) == (0, 0, Fraction(1, 2), 0)
        assert _apply("Dinv", (0, 0, Fraction(1), 0)) == (0, 0, 0, Fraction(1, 3))

    def test_laguerre_derivative_monomials(self):
        assert _apply("LD", (0, Fraction(1), 0)) == (1, 0, 0)
        assert _apply("LD", (0, 0, Fraction(1))) == (0, 4, 0)

    def test_laguerre_derivative_c0_eigenfunction(self):
        c0 = opcalc.c0_series(16)
        assert _apply("LD", c0) == tuple(-c for c in c0[:-1]) + (0,)

    def test_exp_laguerre_derivative_on_x(self):
        # e^{LD} x = x + 1 exactly
        assert _exp("LD", Fraction(1), (0, Fraction(1), 0, 0, 0, 0)) == (1, 1, 0, 0, 0, 0)

    @pytest.mark.parametrize("alpha,beta,n,x,want", [
        *[(0.25, 0.25, n, 0.5, w) for n, w in enumerate((
            0.9905878793015467, 0.37268538138857266, 0.07775530563153268,
            0.013680750706418875, -1.4838725608455114, -0.9426649655778224))],
        (0.5, 0.0, 2, 1.0, 1.0),
        (0.25, 0.25, 3, 0.4, 0.0025060795230343537),
    ])
    def test_taylor_oracle_doubles_are_pinned(self, alpha, beta, n, x, want):
        # Eq. 75's Taylor oracle: alpha d^2 + beta x puts at most two contributions on
        # an output degree, so its float sums do not depend on the order of addition
        tab = opcalc.gaussian_taylor(Fraction(1), 200)
        terms = [operators.OperatorTerm(0, alpha, "d2"), operators.OperatorTerm(0, beta, "x")]
        got = opcalc.apply_entire_function(lambda j: float(tab[j]) if j < len(tab) else 0.0,
                                           terms, [0.0] * n + [1.0], x)
        assert got == complex(want)


def _shift(coeffs, y):
    return opcalc.gaussian_shift_transform(coeffs, y)


def _negD(coeffs, alpha):
    return opcalc.exp_negD(alpha, coeffs)


def _laguerre(coeffs, alpha):
    return opcalc.exp_laguerre_derivative(alpha, coeffs)


#: the series-level Phi(d) operators, each as (coefficients, parameter)
SERIES_OPERATORS = (_shift, _negD, _laguerre)


class TestSeriesOps:
    def test_exp_negD_constant_gives_c0(self):
        out = opcalc.exp_negD(Fraction(1), (Fraction(1),) + (Fraction(0),) * 12)
        assert out == opcalc.c0_series(12)

    def test_exp_negD_zero_alpha_identity(self):
        f = (Fraction(1), Fraction(2), Fraction(3))
        assert opcalc.exp_negD(Fraction(0), f) == f

    def test_exp_negD_on_x(self):
        out = opcalc.exp_negD(Fraction(1), (0, Fraction(1), 0, 0))
        # x - x^2/2 + x^3/12 - ... = 1! x C_1(x)
        assert out == (0, 1, Fraction(-1, 2), Fraction(1, 12))

    def test_commutator_zero_on_f0_zero(self):
        res = checks._commutator_check_LD((0, Fraction(1), 0, Fraction(1), Fraction(5)))
        assert len(res) == 5
        assert all(c == 0 for c in res)

    def test_commutator_x_cubed(self):
        res = checks._commutator_check_LD((0, 0, 0, Fraction(1)))
        assert all(c == 0 for c in res)

    def test_commutator_defect_is_minus_f0(self):
        res = checks._commutator_check_LD((Fraction(1), Fraction(1)))
        assert res[0] == -1
        assert all(c == 0 for c in res[1:])

    @given(st.lists(small_rationals, min_size=1, max_size=30))
    @settings(max_examples=60, deadline=None)
    @example([0, Fraction(3), 0, Fraction(-2)])
    def test_commutator_residual_is_minus_f0(self, coeffs):
        res = checks._commutator_check_LD(coeffs)
        assert res == (-coeffs[0],) + (0,) * (len(coeffs) - 1)

    def test_borel_basics(self):
        assert opcalc.borel_transform((Fraction(1), 0, Fraction(1))) == (1, 0, 2)

    def test_borel_c0_is_exp(self):
        out = opcalc.borel_transform(opcalc.c0_series(14))
        assert out == tuple(Fraction((-1) ** n, factorial(n)) for n in range(15))

    def test_exp_laguerre_zero_alpha(self):
        f = (0, Fraction(1), Fraction(7))
        assert opcalc.exp_laguerre_derivative(Fraction(0), f) == f

    def test_exp_laguerre_on_x(self):
        assert opcalc.exp_laguerre_derivative(Fraction(1), (0, Fraction(1))) == (1, 1)

    def test_exp_laguerre_c0_eigenfunction(self):
        # e^{alpha LD} C_0 = e^{-alpha} C_0 up to the truncation-fed top
        # coefficients: the low half converges factorially fast
        c0 = opcalc.c0_series(24)
        out = opcalc.exp_laguerre_derivative(Fraction(1, 2), c0)
        for j in range(12):
            assert float(out[j] / c0[j]) == pytest.approx(np.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("op", SERIES_OPERATORS, ids=lambda op: op.__name__)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12), st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_floats_enter_as_their_exact_values(self, op, coeffs, param):
        got = op(coeffs, param)
        assert all(type(c) is Fraction for c in got)
        assert got == op([Fraction(c) for c in coeffs], Fraction(param))

    @pytest.mark.parametrize("op", SERIES_OPERATORS, ids=lambda op: op.__name__)
    @pytest.mark.parametrize("coeffs,param", [
        ((1, 2), float("inf")), ((1, 2), float("-inf")), ((1, 2), float("nan")),
        ((1, 1j), 1), ((1, float("nan")), 1), ((float("inf"),), 1), ((1,), 1j),
    ])
    def test_non_finite_or_complex_input_raises(self, op, coeffs, param):
        # y = inf returned non-finite coefficients from the shift transform
        with pytest.raises(InvalidParameterError):
            op(coeffs, param)

    def test_exp_laguerre_dual_routes_agree_float(self):
        # the series route takes a float as its exact value; the engine takes exact
        # values only, so it is handed those, and the routes agree exactly
        f = (0.0, 1.0, 0.5, -0.25)
        out = opcalc.exp_laguerre_derivative(0.7, f)
        via_engine = _exp("LD", Fraction(0.7), tuple(map(Fraction, f)))
        assert len(out) == 4
        assert out == via_engine
