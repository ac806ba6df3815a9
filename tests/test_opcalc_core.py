"""Quadrature engine, formal disentanglement, truncated operators, series operators."""
import warnings
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import checks, opcalc
from umbra.opcalc import formal, quadrature
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


class TestTruncatedOperator:
    def test_derivative_lowers(self):
        d = opcalc.derivative_op(5)
        assert d.apply((0, 0, 1)) == (0, 2, 0, 0, 0, 0)
        assert d.is_degree_lowering()

    def test_x_raises_and_tracks_validity(self):
        xop = opcalc.x_multiply_op(5)
        assert xop.validity_degree == 4
        assert xop.apply((1, 1))[:3] == (0, 1, 1)

    def test_validity_warning_on_top_degree(self):
        xop = opcalc.x_multiply_op(3)
        with pytest.warns(opcalc.ValidityWarning):
            xop.apply((0, 0, 0, 1))

    def test_neg_derivative_matrix(self):
        ninv = opcalc.neg_derivative_op(4)
        assert ninv.apply((1,)) == (0, 1, 0, 0, 0)
        assert ninv.apply((0, 2)) == (0, 0, 1, 0, 0)

    def test_compose_counts_raises(self):
        op = opcalc.x_multiply_op(6).compose(opcalc.neg_derivative_op(6))
        assert op.raising_count == 2
        assert op.validity_degree == 4

    def test_nilpotent_expm_exact(self):
        ld = opcalc.laguerre_derivative_op(6)
        got = ld.expm_apply((0, Fraction(1)), scale=Fraction(1))
        # e^{LD} x = x + 1 exactly
        assert got[:2] == (Fraction(1), Fraction(1))
        assert all(v == 0 for v in got[2:])

    def test_expm_rejects_non_nilpotent_operator(self):
        op = opcalc.second_derivative_plus_x_op(Fraction(3, 10), Fraction(1, 5), 8)
        with pytest.raises(InvalidParameterError):
            op.expm_apply([1, Fraction(1, 2)], scale=Fraction(1, 10))

    def test_lowering_after_raising_keeps_the_lost_degree(self):
        # d/dx after x drops x^D * x under the cap, so x^D is no longer trusted
        op = opcalc.derivative_op(4).compose(opcalc.x_multiply_op(4))
        assert op.validity_degree == 3
        assert op.apply((0, 0, 0, 1)) == (0, 0, 0, 4, 0)
        with pytest.warns(opcalc.ValidityWarning):
            assert op.apply((0, 0, 0, 0, 1)) == (0, 0, 0, 0, 0)

    def test_float_apply_sums_in_column_order(self):
        # same rounding as a dense row-by-column product, so float oracles stay bit-identical
        cap = 60
        tree = ("add", ("d2_plus_x", 0.25, 0.3),
                ("add", ("scale", ("derivative",), 0.7), ("scale", ("compose", ("x",), ("x",)), -0.4)))
        op, dense, _ = _build_both(tree, cap)
        v = [0.0, 1.0, -0.7, 0.1] + [0.0] * (cap - 3)
        for _ in range(20):
            want = tuple(sum(row[j] * v[j] for j in range(cap + 1) if row[j] != 0 and v[j] != 0) for row in dense)
            v = list(op.apply(v))
            assert [repr(x) for x in v] == [repr(x) for x in want]

    @pytest.mark.filterwarnings("ignore::umbra.opcalc.ValidityWarning")
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bands_match_dense_reference(self, data):
        cap = data.draw(st.integers(0, 12), label="cap")
        tree = data.draw(operator_trees, label="tree")
        op, dense, _ = _build_both(tree, cap)
        vec = data.draw(st.lists(exact_scales, max_size=cap + 1), label="vec")
        vec += [0] * (cap + 1 - len(vec))
        assert op.apply(vec) == tuple(sum(row[j] * vec[j] for j in range(cap + 1)) for row in dense)


# Dense list-of-lists reference for the banded operators: entries written out
# from the constructors' definitions, combined by plain matrix arithmetic.
exact_scales = st.one_of(st.integers(-5, 5), small_rationals)
_leaves = st.one_of(
    st.sampled_from([("derivative",), ("x",), ("neg_derivative",), ("laguerre",)]),
    st.tuples(st.just("d2_plus_x"), exact_scales, exact_scales),
)
operator_trees = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.tuples(st.just("compose"), sub, sub),
        st.tuples(st.just("add"), sub, sub),
        st.tuples(st.just("scale"), sub, exact_scales),
    ),
    max_leaves=6,
)


def _dense_leaf(kind, cap, alpha=None, beta=None):
    n = cap + 1
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        if kind == "derivative" and i + 1 < n:
            m[i][i + 1] = i + 1
        if kind == "laguerre" and i + 1 < n:
            m[i][i + 1] = (i + 1) ** 2
        if kind == "x" and i >= 1:
            m[i][i - 1] = 1
        if kind == "neg_derivative" and i >= 1:
            m[i][i - 1] = Fraction(1, i)
        if kind == "d2_plus_x":
            if i + 2 < n:
                m[i][i + 2] = alpha * (i + 1) * (i + 2)
            if i >= 1:
                m[i][i - 1] = beta
    return m


def _entries(op):
    """Read a banded operator entrywise: bands[d][i] is the entry (i, i + d)."""
    n = op.degree_cap + 1
    out = [[0] * n for _ in range(n)]
    for d, band in op.bands.items():
        assert len(band) == n
        for i, e in enumerate(band):
            if 0 <= i + d < n:
                out[i][i + d] = e
            else:
                assert e == 0
    return out


def _build_both(tree, cap):
    """(operator, dense reference, raising count by the additive rule), checked at every node."""
    kind = tree[0]
    if kind == "compose":
        a, da, ra = _build_both(tree[1], cap)
        b, db, rb = _build_both(tree[2], cap)
        n = cap + 1
        dense = [[sum(da[i][k] * db[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        op, raises = a.compose(b), ra + rb
    elif kind == "add":
        a, da, ra = _build_both(tree[1], cap)
        b, db, rb = _build_both(tree[2], cap)
        dense = [[x + y for x, y in zip(u, v)] for u, v in zip(da, db)]
        op, raises = a + b, max(ra, rb)
    elif kind == "scale":
        a, da, raises = _build_both(tree[1], cap)
        dense = [[tree[2] * e for e in row] for row in da]
        op = a.scale(tree[2])
    else:
        build = {
            "derivative": opcalc.derivative_op,
            "x": opcalc.x_multiply_op,
            "neg_derivative": opcalc.neg_derivative_op,
            "laguerre": opcalc.laguerre_derivative_op,
        }
        if kind == "d2_plus_x":
            op = opcalc.second_derivative_plus_x_op(tree[1], tree[2], cap)
            dense = _dense_leaf(kind, cap, tree[1], tree[2])
        else:
            op = build[kind](cap)
            dense = _dense_leaf(kind, cap)
        raises = 1 if kind in ("x", "neg_derivative", "d2_plus_x") else 0
    assert _entries(op) == dense
    assert op.degree_cap == cap
    assert op.is_degree_lowering() == all(dense[i][j] == 0 for i in range(cap + 1) for j in range(i + 1))
    assert op.raising_count == raises
    assert op.validity_degree == cap - raises
    return op, dense, raises


class TestSeriesOps:
    def test_neg_pow_basics(self):
        # D^{-1} on the banded operator; D^{-2} is its square
        neg = opcalc.neg_derivative_op(3)
        assert neg.apply((Fraction(1),)) == (0, 1, 0, 0)
        assert neg.compose(neg).apply((Fraction(1),)) == (0, 0, Fraction(1, 2), 0)
        assert neg.apply((0, 0, Fraction(1))) == (0, 0, 0, Fraction(1, 3))

    def test_laguerre_derivative_monomials(self):
        ld = opcalc.laguerre_derivative_op(2)
        assert ld.apply((0, Fraction(1))) == (1, 0, 0)
        assert ld.apply((0, 0, Fraction(1))) == (0, 4, 0)

    def test_laguerre_derivative_c0_eigenfunction(self):
        c0 = opcalc.c0_series(16)
        out = opcalc.laguerre_derivative_op(16).apply(c0)
        assert out == tuple(-c for c in c0[:-1]) + (0,)

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
    def test_commutator_residual_is_minus_f0(self, coeffs):
        # exact on every input, with no ValidityWarning at the chosen cap
        with warnings.catch_warnings():
            warnings.simplefilter("error", opcalc.ValidityWarning)
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

    def test_exp_laguerre_dual_routes_agree_float(self):
        f = (0.0, 1.0, 0.5, -0.25)
        out = opcalc.exp_laguerre_derivative(0.7, f)
        via_matrix = opcalc.laguerre_derivative_op(3).expm_apply(f, scale=0.7)
        assert len(out) == 4
        assert max(abs(a - b) for a, b in zip(out, via_matrix)) <= 1e-10
