"""Quadrature engine, formal disentanglement, truncated operators, series operators."""
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import opcalc
from umbra.errors import InvalidParameterError, PreconditionError
from umbra.gftrans import PowerSeries

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
            opcalc.adaptive_hermite(lambda u: np.exp(-((u * 3000.0) ** 2) % 7.0), start=128)

    def test_legendre_composite_integrates_poly(self):
        rule = opcalc.legendre_composite_rule(-1.0, 3.0, 8, 6)
        got = np.sum(rule.weights * rule.nodes ** 4)
        assert got == pytest.approx((3.0 ** 5 - (-1.0) ** 5) / 5, rel=1e-13)


class TestWeylCheck:
    def test_a_zero(self):
        assert opcalc.weyl_check(0, 3) == 0

    def test_b_zero(self):
        assert opcalc.weyl_check(Fraction(5, 2), 0) == 0

    def test_unit(self):
        assert opcalc.weyl_check(1, 1, order=8) == 0

    @given(small_rationals, small_rationals)
    @settings(max_examples=15, deadline=None)
    def test_exact_for_rationals(self, a, b):
        assert opcalc.weyl_check(a, b, order=6, max_degree=5) == 0


class TestCubicDisentangle:
    def test_beta_zero(self):
        assert opcalc.cubic_disentangle_check(Fraction(2, 3), 0) == 0

    def test_alpha_zero(self):
        assert opcalc.cubic_disentangle_check(0, 2) == 0

    def test_unit_exact(self):
        assert opcalc.cubic_disentangle_check(1, 1, order=8) == 0

    def test_nontrivial_exact(self):
        assert opcalc.cubic_disentangle_check(Fraction(3, 4), 2, order=8) == 0

    def test_printed_constant_fails(self):
        # the printed alpha^2 factor in the commutator constant breaks the identity
        residual = opcalc.cubic_disentangle_check(4, 1, order=6, printed_m=True)
        assert residual != 0

    def test_printed_constant_matches_at_alpha_one(self):
        # alpha = 1 hides the misprint: both constants coincide there
        assert opcalc.cubic_disentangle_check(1, 1, order=6, printed_m=True) == 0

    def test_printed_needs_square_alpha(self):
        with pytest.raises(InvalidParameterError):
            opcalc.cubic_disentangle_check(2, 1, printed_m=True)


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


def c0_powerseries(order):
    return PowerSeries(opcalc.c0_series(order), "ordinary")


class TestSeriesOps:
    def test_neg_pow_basics(self):
        one = PowerSeries((Fraction(1),), "ordinary")
        assert opcalc.neg_derivative_pow(one, 1).coeffs == (0, 1)
        assert opcalc.neg_derivative_pow(one, 2).coeffs == (0, 0, Fraction(1, 2))
        x2 = PowerSeries((0, 0, Fraction(1)), "ordinary")
        assert opcalc.neg_derivative_pow(x2, 1).coeffs == (0, 0, 0, Fraction(1, 3))

    def test_neg_pow_exponential_kind(self):
        # in EGF coefficients D^{-1} is a plain shift
        g = PowerSeries((Fraction(2), Fraction(3)), "exponential")
        out = opcalc.neg_derivative_pow(g, 1)
        assert out.kind == "exponential"
        assert out.coeffs == (0, 2, 3)

    def test_laguerre_derivative_monomials(self):
        assert opcalc.laguerre_derivative(PowerSeries((0, Fraction(1)), "ordinary")).coeffs == (1,)
        assert opcalc.laguerre_derivative(PowerSeries((0, 0, Fraction(1)), "ordinary")).coeffs == (0, 4)

    def test_laguerre_derivative_c0_eigenfunction(self):
        c0 = c0_powerseries(16)
        out = opcalc.laguerre_derivative(c0)
        assert out.coeffs == tuple(-c for c in c0.coeffs[:-1])

    def test_exp_negD_constant_gives_c0(self):
        one = PowerSeries((Fraction(1),) + (Fraction(0),) * 12, "ordinary")
        out = opcalc.exp_negD(Fraction(1), one)
        assert out.coeffs == opcalc.c0_series(12)

    def test_exp_negD_zero_alpha_identity(self):
        f = PowerSeries((Fraction(1), Fraction(2), Fraction(3)), "ordinary")
        assert opcalc.exp_negD(Fraction(0), f).coeffs == f.coeffs

    def test_exp_negD_on_x(self):
        f = PowerSeries((0, Fraction(1), 0, 0), "ordinary")
        out = opcalc.exp_negD(Fraction(1), f)
        # x - x^2/2 + x^3/12 - ... = 1! x C_1(x)
        assert out.coeffs == (0, 1, Fraction(-1, 2), Fraction(1, 12))

    def test_commutator_zero_on_f0_zero(self):
        f = PowerSeries((0, Fraction(1), 0, Fraction(1), Fraction(5)), "ordinary")
        res = opcalc.commutator_check_LD(f)
        assert all(c == 0 for c in res.coeffs)

    def test_commutator_x_cubed(self):
        res = opcalc.commutator_check_LD(PowerSeries((0, 0, 0, Fraction(1)), "ordinary"))
        assert all(c == 0 for c in res.coeffs)

    def test_commutator_strict_rejects_constant(self):
        with pytest.raises(PreconditionError):
            opcalc.commutator_check_LD(PowerSeries((Fraction(1), Fraction(1)), "ordinary"))

    def test_commutator_defect_is_minus_f0(self):
        res = opcalc.commutator_check_LD(PowerSeries((Fraction(1), Fraction(1)), "ordinary"), strict=False)
        assert res.coeffs[0] == -1
        assert all(c == 0 for c in res.coeffs[1:])

    def test_borel_basics(self):
        f = PowerSeries((Fraction(1), 0, Fraction(1)), "ordinary")
        assert opcalc.borel_transform(f).coeffs == (1, 0, 2)

    def test_borel_c0_is_exp(self):
        out = opcalc.borel_transform(c0_powerseries(14))
        assert out.coeffs == tuple(Fraction((-1) ** n, factorial(n)) for n in range(15))

    def test_exp_laguerre_zero_alpha(self):
        f = PowerSeries((0, Fraction(1), Fraction(7)), "ordinary")
        assert opcalc.exp_laguerre_derivative(Fraction(0), f).coeffs == f.coeffs

    def test_exp_laguerre_on_x(self):
        out = opcalc.exp_laguerre_derivative(Fraction(1), PowerSeries((0, Fraction(1)), "ordinary"))
        assert out.coeffs == (1, 1)

    def test_exp_laguerre_c0_eigenfunction(self):
        # e^{alpha LD} C_0 = e^{-alpha} C_0 up to the truncation-fed top
        # coefficients: the low half converges factorially fast
        c0 = c0_powerseries(24)
        out = opcalc.exp_laguerre_derivative(Fraction(1, 2), c0)
        for j in range(12):
            assert float(out.coeffs[j] / c0.coeffs[j]) == pytest.approx(np.exp(-0.5), rel=1e-12)

    def test_exp_laguerre_dual_routes_agree_float(self):
        f = PowerSeries((0.0, 1.0, 0.5, -0.25), "ordinary")
        out = opcalc.exp_laguerre_derivative(0.7, f)
        via_matrix = opcalc.laguerre_derivative_op(3).expm_apply(f.coeffs, scale=0.7)
        assert len(out.coeffs) == 4
        assert max(abs(a - b) for a, b in zip(out.coeffs, via_matrix)) <= 1e-10
