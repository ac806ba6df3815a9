"""Quadrature operator functions against their independent oracles."""
from fractions import Fraction
from math import comb, exp, factorial, gamma, pi, sqrt
from unittest import mock

import convolution_oracle
import fourier_oracle
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbra import checks, opcalc
from umbra.opcalc import formal, fourier, operators, oracles, quadrature
from umbra.errors import (
    DivergenceError,
    DomainTooSmallError,
    InvalidParameterError,
    TruncationError,
    UnsupportedSymbolError,
)
from umbra.gftrans import PowerSeries
from umbra.seqcore import Sequence
from umbra.specfun import hermite2, hermite2_coeffs, tricomi_c


def _monomial(n):
    return (0,) * n + (1,)


positive_rationals = st.fractions(min_value=Fraction(1, 50), max_value=Fraction(10), max_denominator=50)


class TestPhiShift:
    """Phi(d/dx) p for the Gaussian symbol e^{-y u^2}: the Gaussian-moment sum."""

    @pytest.mark.parametrize("n,x,y", [(0, 0.3, 0.7), (1, -1.0, 0.4), (2, 1.0, 0.5), (3, 1.0, 1.0)])
    def test_gaussian_symbol_gives_negative_y_hermite(self, n, x, y):
        got = opcalc.polyval_coeffs(opcalc.gaussian_shift_transform(_monomial(n), y), x)
        assert got == pytest.approx(hermite2(n, x, -y), abs=1e-12)

    def test_n0_normalization(self):
        assert opcalc.gaussian_shift_transform((1,), 1.3) == (1,)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.fractions(min_value=-100, max_value=100, max_denominator=50), min_size=1, max_size=17),
           positive_rationals)
    def test_matches_nilpotent_exponential(self, coeffs, y):
        # e^{-y d^2} on polynomials as the terminating exponential of eps (-y) d^2, summed over eps orders
        state = formal.exp_apply([operators.OperatorTerm(1, -y, "d2")], operators.polynomial(coeffs), len(coeffs))
        assert opcalc.gaussian_shift_transform(coeffs, y) == tuple(operators.coefficients(state, len(coeffs)))

    @pytest.mark.parametrize("y", [0.1, 0.5, 2.0])
    def test_floats_match_fixed_hermite_rule(self, y):
        # 32 nodes integrate e^{-u^2} times a polynomial of degree <= 63 exactly;
        # k = 2 sqrt(y) u turns e^{-k^2/4y} dk / (2 sqrt(pi y)) into e^{-u^2} du / sqrt(pi)
        rule = opcalc.gauss_hermite_rule(32)
        coeffs = list(np.random.default_rng(3).uniform(-1.0, 1.0, 17))
        for x in (-2.0, -0.5, 0.0, 1.0, 2.0):
            got = opcalc.polyval_coeffs(opcalc.gaussian_shift_transform(coeffs, y), x)
            nodes = x + 2j * sqrt(y) * rule.nodes
            want = np.sum(rule.weights * opcalc.polyval_coeffs(coeffs, nodes)) / sqrt(pi)
            assert got == pytest.approx(want, rel=1e-12)


class TestMonomialFromHermite:
    """The Gaussian shift transform undoes H_n(x, y): Eq. 48's x^n."""

    def test_n0(self):
        assert opcalc.gaussian_shift_transform(hermite2_coeffs(0, 1.0), 1.0) == (1,)

    def test_n1_imaginary_cancels(self):
        # the odd Gaussian moments vanish
        assert opcalc.gaussian_shift_transform(hermite2_coeffs(1, Fraction(1, 2)), Fraction(1, 2)) == (0, 1)

    def test_n2(self):
        assert opcalc.gaussian_shift_transform(hermite2_coeffs(2, 1.0), 1.0) == (0, 0, 1)

    @settings(max_examples=25, deadline=None)
    @given(positive_rationals)
    def test_recovers_monomials_through_n20(self, y):
        for n in range(21):
            assert opcalc.gaussian_shift_transform(hermite2_coeffs(n, y), y) == _monomial(n)

    @pytest.mark.parametrize("y", [Fraction(1, 10) + Fraction(19, 40) * j for j in range(5)], ids=str)
    def test_both_directions_exact_over_widths(self, y):
        # Eqs. 46/47 and 48 with exact coefficients, at five widths from 1/10 to 2
        for n in range(11):
            assert opcalc.gaussian_shift_transform(_monomial(n), y) == hermite2_coeffs(n, -y)
            assert opcalc.gaussian_shift_transform(hermite2_coeffs(n, y), y) == _monomial(n)

    def test_rejects_bad_y(self):
        for y in (-1.0, 0.0, float("nan")):
            with pytest.raises(InvalidParameterError):
                opcalc.gaussian_shift_transform((0, 1), y)


def _gaussian_taylor_float(order=200, scale=Fraction(1)):
    tab = opcalc.gaussian_taylor(scale, order)
    return lambda j: float(tab[j]) if j < len(tab) else 0.0


class TestBigO:
    def test_beta_zero_n0_is_symbol_at_zero(self):
        sym = opcalc.gaussian_symbol(1.0)
        got = opcalc.big_o_on_monomial(sym, 0.5, 0.0, 0, 2.0)
        assert got == pytest.approx(1.0, abs=1e-10)  # f(0) = 1 for the Gaussian

    @pytest.mark.parametrize(
        "alpha,beta,n,x",
        [(0.5, 0.0, 2, 1.0), (0.25, 0.25, 1, 0.5), (0.25, 0.25, 3, 0.4)],
    )
    def test_matches_taylor_oracle(self, alpha, beta, n, x):
        sym = opcalc.gaussian_symbol(1.0)
        got = opcalc.big_o_on_monomial(sym, alpha, beta, n, x)
        argument = [opcalc.OperatorTerm(0, alpha, "d2"), opcalc.OperatorTerm(0, beta, "x")]
        ref = opcalc.apply_entire_function(_gaussian_taylor_float(), argument, [0.0] * n + [1.0], x)
        assert got == pytest.approx(ref, abs=1e-7)


class TestPauli:
    def test_omega_zero_gives_f0_identity(self):
        sym = opcalc.gaussian_symbol(1.0)
        got = opcalc.matrix_function_pauli(sym, 0.0)
        assert np.allclose(got, np.eye(2), atol=1e-12)

    def test_gaussian_at_unit_omega(self):
        got = opcalc.matrix_function_pauli(opcalc.gaussian_symbol(1.0), 1.0)
        assert np.allclose(got, np.exp(-1.0) * np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("omega", [0.0, 0.7, 1.0, 2.0])
    @pytest.mark.parametrize("factory", [opcalc.gaussian_symbol, opcalc.cos_gaussian_symbol])
    def test_matches_spectral_oracle(self, omega, factory):
        sym = factory(1.0)
        got = opcalc.matrix_function_pauli(sym, omega)
        ref = opcalc.pauli_spectral(sym.func, omega)
        assert np.max(np.abs(got - ref)) < 1e-8

    def test_cos_damped_is_even_scalar(self):
        sym = opcalc.cos_gaussian_symbol(1.0)
        got = opcalc.matrix_function_pauli(sym, 0.7)
        expected = np.cos(0.7) * np.exp(-0.49)
        assert got[0, 0] == pytest.approx(expected, abs=1e-10)
        assert abs(got[0, 1]) < 1e-12


class TestTricomiEvolution:
    def test_tau_zero_is_initial_condition(self):
        assert opcalc.tricomi_evolution(0.7, 0.0) == 1.0

    def test_rejects_negative_tau(self):
        with pytest.raises(InvalidParameterError):
            opcalc.tricomi_evolution(0.5, -0.1)

    def test_spot_value(self):
        got = opcalc.tricomi_evolution(1.0, 1.0)
        assert got.real == pytest.approx(0.5206029, abs=5e-7)
        assert got.real == pytest.approx(opcalc.tricomi_evolution_series(1.0, 1.0), abs=1e-10)

    def test_small_tau_expansion(self):
        tau, x = 1e-3, 0.8
        got = opcalc.tricomi_evolution(x, tau)
        assert got.real == pytest.approx(1 - tau * x * x / 2, abs=1e-6)

    def test_grid_against_series_oracle(self):
        for x in (0.0, 0.5, 1.0):
            for tau in (0.1, 0.6, 1.0):
                got = opcalc.tricomi_evolution(x, tau)
                assert abs(got - opcalc.tricomi_evolution_series(x, tau)) < 1e-8

    @staticmethod
    def _counted_nodes(run):
        """run() with the node count of every row of every doubling loop, in the order the loops run."""
        nodes, doubling = [], quadrature._doubling

        def counted(g, rows):
            results = doubling(g, rows)
            nodes.extend(res.node_count for res in results)
            return results

        with mock.patch.object(quadrature, "_doubling", counted):
            return run(), nodes

    def test_stacked_sweep_is_the_per_point_route_bit_for_bit(self):
        # 13 x 11 has ten tau > 0 stacks of 13 rows each, and the tau = 0 column and x = 0 row are in;
        # the stacks run tau by tau, so the per-point node counts are compared in that order
        stacked, stacked_nodes = self._counted_nodes(lambda: checks.tricomi_sweep(13, 11))

        def per_point_sweep():
            rows = []
            for x, tau, *_ in sorted(stacked, key=lambda row: row[1]):
                value = opcalc.tricomi_evolution(x, tau)
                rows.append((x, tau, value, abs(value - opcalc.tricomi_evolution_series(x, tau))))
            return rows

        per_point, nodes = self._counted_nodes(per_point_sweep)
        per_point.sort(key=lambda row: row[0])  # stable: x-major again, tau ascending in each x
        assert len(stacked) == 143 and {x for x, *_ in stacked} >= {0.0} and {t for _, t, *_ in stacked} >= {0.0}
        assert [tuple(map(repr, row)) for row in stacked] == [tuple(map(repr, row)) for row in per_point]
        assert stacked_nodes == nodes and len(nodes) == 130

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_stacked_points_are_the_per_point_route_bit_for_bit(self, data):
        # a few taus, 0 among the candidates, shared by points in any order; a small row
        # cap splits the points of one tau into several stacks.  The stacks run in order
        # of each tau's first point, so the per-point node counts are compared in that order
        taus = data.draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=1, max_size=4))
        points = data.draw(st.lists(st.tuples(st.floats(-1.0, 1.0), st.sampled_from(taus)), min_size=1, max_size=24))
        with mock.patch.object(fourier, "TRICOMI_STACK_ROWS", data.draw(st.sampled_from([3, 32]))):
            stacked, stacked_nodes = self._counted_nodes(lambda: opcalc.tricomi_evolution_points(points))
        per_point = [opcalc.tricomi_evolution(x, tau) for x, tau in points]
        first = {}
        for i, (_, tau) in enumerate(points):
            first.setdefault(tau, i)
        stack_order = sorted((i for i, (_, tau) in enumerate(points) if tau != 0), key=lambda i: first[points[i][1]])
        _, nodes = self._counted_nodes(lambda: [opcalc.tricomi_evolution(*points[i]) for i in stack_order])
        assert list(map(repr, stacked)) == list(map(repr, per_point))
        assert stacked_nodes == nodes

    def test_stacked_route_rejects_negative_tau(self):
        with pytest.raises(InvalidParameterError):
            opcalc.tricomi_evolution_points([(0.5, 0.5), (0.5, -0.1)])

    def test_stacked_route_names_an_unconverged_point_in_its_block(self, monkeypatch):
        # one row of a tau stack never settles: it warns alone, as integrand 1 of the two points
        # at tau = 0.2 (the tau = 0 point is no row, and the point at tau = 0.3 is its own stack)
        route = fourier._tricomi_integrand

        def restless(k, x):
            # the row at x = 0.9 gains 1e-3 per node: its sum moves with every doubling
            return route(k, x) + 1e-3 * k.shape[-1] * (x == 0.9)

        monkeypatch.setattr(fourier, "_tricomi_integrand", restless)
        with pytest.warns(quadrature.QuadratureConvergenceWarning, match=r"\(integrand 1 of 2\)") as caught:
            opcalc.tricomi_evolution_points([(0.5, 0.0), (0.1, 0.2), (0.4, 0.3), (0.9, 0.2)])
        assert len(caught) == 1


def _evolved_series_values(f_ord: list[complex], beta: float, ks: np.ndarray, x: float, work_order: int) -> np.ndarray:
    """Per-node values of e^{i beta k D^{-1}} e^{i k LD} f at x, via the Borel route."""
    tf = len(f_ord) - 1
    borel = [factorial(n) * c for n, c in enumerate(f_ord)]
    ik = 1j * ks
    pow_ik = np.ones((tf + 1, len(ks)), dtype=complex)
    for p in range(1, tf + 1):
        pow_ik[p] = pow_ik[p - 1] * ik
    # e^{ik LD} f = f_B(D^{-1} + ik) . 1: coefficient of x^j
    c1 = np.zeros((tf + 1, len(ks)), dtype=complex)
    for j in range(tf + 1):
        acc = np.zeros(len(ks), dtype=complex)
        for n in range(j, tf + 1):
            if borel[n]:
                acc += (comb(n, j) * borel[n]) * pow_ik[n - j]
        c1[j] = acc / factorial(j)
    # e^{i beta k D^{-1}}: coefficient l picks up c1[j] (i beta k)^{l-j} j!/((l-j)! l!)
    ibk = 1j * beta * ks
    pow_ibk = np.ones((work_order + 1, len(ks)), dtype=complex)
    for p in range(1, work_order + 1):
        pow_ibk[p] = pow_ibk[p - 1] * ibk
    values = np.zeros(len(ks), dtype=complex)
    xpow = 1.0
    for l in range(work_order + 1):
        c2l = np.zeros(len(ks), dtype=complex)
        for j in range(min(l, tf) + 1):
            w = float(Fraction(factorial(j), factorial(l - j) * factorial(l)))
            c2l += c1[j] * (w * pow_ibk[l - j])
        values += c2l * xpow
        xpow *= x
    return values


class TestIntegroDiff:
    def setup_method(self):
        self.f = PowerSeries(opcalc.c0_series(40), "ordinary")
        self.f_ord = [float(c) for c in opcalc.c0_series(40)]

    def test_tau_zero_evaluates_f(self):
        got = opcalc.integro_diff_evolve(self.f, 1.0, 2, 0.0, 0.3)
        assert got == pytest.approx(sum(c * 0.3 ** n for n, c in enumerate(self.f_ord)), abs=1e-14)

    def test_odd_m_rejected(self):
        with pytest.raises(UnsupportedSymbolError):
            opcalc.integro_diff_evolve(self.f, 1.0, 3, 0.1, 0.1)

    def test_region_guard(self):
        with pytest.raises(TruncationError):
            opcalc.integro_diff_evolve(self.f, 1.0, 2, 0.1, 0.75)

    @pytest.mark.parametrize("m,beta", [(2, 0.5), (4, 0.0)])
    @pytest.mark.parametrize("tau", [-0.1, float("nan")])
    def test_tau_guard(self, m, beta, tau):
        with pytest.raises(InvalidParameterError):
            opcalc.integro_diff_evolve(self.f, beta, m, tau, 0.1)

    def test_exponential_kind_rejected(self):
        # the series is read as ordinary coefficients; an EGF is not converted
        with pytest.raises(InvalidParameterError, match="ordinary"):
            opcalc.integro_diff_evolve(PowerSeries(self.f.coeffs, "exponential"), 1.0, 2, 0.1, 0.1)

    def test_beta_zero_eigenfunction(self):
        tau, x = 0.4, 0.3
        got = opcalc.integro_diff_evolve(self.f, 0.0, 2, tau, x)
        expected = exp(-tau) * sum(c * x ** n for n, c in enumerate(self.f_ord))
        assert got.real == pytest.approx(expected, abs=1e-12)

    def test_matrix_oracle_at_tau_zero_is_f(self):
        # at m = 400 lambda^m overflows to inf; the decay at tau = 0 is still 1, not -0 * inf
        f_ord = [float(c) for c in opcalc.c0_series(81)]
        got = opcalc.integro_matrix_oracle(f_ord, 1.0, 400, 0.0, 0.5, 81)
        assert got == pytest.approx(sum(c * 0.5 ** n for n, c in enumerate(f_ord)), abs=1e-14)

    def test_matches_matrix_oracle(self):
        got = opcalc.integro_diff_evolve(self.f, 1.0, 2, 0.25, 0.25)
        ref = opcalc.integro_matrix_oracle(self.f_ord, 1.0, 2, 0.25, 0.25, 40)
        assert abs(got - ref) < 1e-6

    @staticmethod
    def hermite_reference(f_ord, beta, tau, x):
        # the Gauss-Hermite route the moment sum replaced: the same truncated
        # polynomial integrand, evaluated node by node and summed adaptively
        work_order = max(len(f_ord) - 1, 48) + 16
        amp = 1.0 / sqrt(2.0 * tau)
        res = opcalc.gaussian_fourier_integral(
            1.0 / (4.0 * tau) + beta / 2.0,
            lambda k: amp * _evolved_series_values(f_ord, beta, k, x, work_order),
        )
        return res.value / sqrt(2.0 * pi)

    @settings(max_examples=60, deadline=None)
    @given(
        beta=st.one_of(st.just(0.0), st.floats(0.0, fourier.INTEGRO_BETA_BOUND)),
        x=st.floats(-fourier.INTEGRO_REGION, fourier.INTEGRO_REGION),
        tau=st.one_of(st.floats(1e-12, 1e-6), st.floats(1e-6, 0.5)),
    )
    @example(beta=0.0, x=0.5, tau=1e-12)
    @example(beta=1e-9, x=0.5, tau=1e-12)
    @example(beta=fourier.INTEGRO_BETA_BOUND, x=-0.5, tau=0.5)
    def test_m2_moment_route_matches_oracle_and_quadrature(self, beta, x, tau):
        got = opcalc.integro_diff_evolve(self.f, beta, 2, tau, x)
        assert abs(got - self.hermite_reference(self.f_ord, beta, tau, x)) <= 1e-12
        assert abs(got - opcalc.integro_matrix_oracle(self.f_ord, beta, 2, tau, x, 40)) <= 1e-10

    @pytest.mark.parametrize("n_basis", [41, 82])
    @pytest.mark.parametrize("beta", [0.04, 0.5, 2.0])
    def test_cached_eigensystem_scales_like_scipy(self, n_basis, beta):
        scipy_linalg = pytest.importorskip("scipy.linalg")
        scipy_special = pytest.importorskip("scipy.special")
        unit_vals, vecs, log_fact = oracles._unit_eigensystem(n_basis)
        off = np.sqrt(beta * np.arange(1, n_basis))
        vals, ref_vecs = scipy_linalg.eigh_tridiagonal(np.zeros(n_basis), off)
        assert np.max(np.abs(np.sqrt(beta) * unit_vals - vals)) <= 1e-13 * np.sqrt(beta) * n_basis
        # eigenvectors agree up to sign
        signs = np.sign(np.sum(vecs * ref_vecs, axis=0))
        assert np.max(np.abs(vecs * signs - ref_vecs)) <= 1e-12
        assert np.max(np.abs(log_fact - scipy_special.gammaln(np.arange(n_basis) + 1.0))) <= 1e-12
        assert not (unit_vals.flags.writeable or vecs.flags.writeable or log_fact.flags.writeable)

    def test_matrix_oracle_small_beta(self):
        # F(0, tau) = 1 - tau (1 + beta) + O(tau^2) for f = C_0
        tau, beta = 1e-6, 1e-6
        ref = opcalc.integro_matrix_oracle(self.f_ord, beta, 2, tau, 0.0, 40)
        assert abs(ref - (1.0 - tau * (1.0 + beta))) < 1e-10

    @pytest.mark.parametrize("m,degree", [(2, 40), (4, 81)])
    @pytest.mark.parametrize("beta", [1e-12, 1e-3, 0.039])
    def test_matrix_oracle_taylor_sum_matches_route(self, m, degree, beta):
        # below ORACLE_TAYLOR_BETA the oracle sums the Taylor series of its generator
        assert beta < opcalc.oracles.ORACLE_TAYLOR_BETA
        f_ord = [float(c) for c in opcalc.c0_series(degree)]
        f = PowerSeries(opcalc.c0_series(degree), "ordinary")
        for x, tau in [(0.0, 0.1), (0.5, 0.3), (0.25, 0.35)]:
            got = opcalc.integro_diff_evolve(f, beta, m, tau, x)
            assert abs(got - opcalc.integro_matrix_oracle(f_ord, beta, m, tau, x, degree)) <= 1e-13

    @pytest.mark.parametrize("degree,reason", [(121, "cancels"), (161, "not converged")])
    def test_matrix_oracle_taylor_sum_raises(self, degree, reason):
        # m = 4 just below the switch: the larger the degree cap, the larger the
        # eigenvalues whose Taylor terms must cancel; a garbage value never comes back
        f_ord = [float(c) for c in opcalc.c0_series(degree)]
        with pytest.raises(TruncationError, match=reason):
            opcalc.integro_matrix_oracle(f_ord, 0.039, 4, 0.5, 0.5, degree)

    def test_m2_makes_no_quadrature_call(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("m = 2 evolution reached the Gauss-Hermite engine")

        monkeypatch.setattr(quadrature, "adaptive_hermite", no_quadrature)
        got = opcalc.integro_diff_evolve(self.f, 1.0, 2, 0.25, 0.25)
        assert abs(got - opcalc.integro_matrix_oracle(self.f_ord, 1.0, 2, 0.25, 0.25, 40)) < 1e-14

    @pytest.mark.parametrize("beta", [2.5, 1000.0, 1e300, float("inf"), float("nan")])
    def test_beta_guard(self, beta):
        with pytest.raises(TruncationError):
            opcalc.integro_diff_evolve(self.f, beta, 2, 0.25, 0.25)

    def test_m4_requires_deep_truncation(self):
        with pytest.raises(TruncationError):
            opcalc.integro_diff_evolve(self.f, 0.0, 4, 0.3, 0.25)

    def test_m4_grid_transform_path(self):
        f81 = PowerSeries(opcalc.c0_series(81), "ordinary")
        got = opcalc.integro_diff_evolve(f81, 0.0, 4, 0.3, 0.25)
        expected = exp(-0.3) * sum(float(c) * 0.25 ** n for n, c in enumerate(opcalc.c0_series(81)))
        assert got.real == pytest.approx(expected, abs=1e-8)

    def test_m4_with_integral_term(self):
        f81 = PowerSeries(opcalc.c0_series(81), "ordinary")
        got = opcalc.integro_diff_evolve(f81, 0.5, 4, 0.2, 0.25)
        ref = opcalc.integro_matrix_oracle(
            [float(c) for c in opcalc.c0_series(81)], 0.5, 4, 0.2, 0.25, degree_cap=81
        )
        assert abs(got - ref) < 1e-6

    @pytest.mark.parametrize("m,degree", [(4, 81), (6, 97)])
    def test_beta_zero_moment_law(self, m, degree):
        # LD C_0 = -C_0, so e^{-tau LD^m} C_0 = e^{-tau} C_0 for every even m; at
        # m = 6 degree 81 drops a moment of 7e-16 at tau = 1/2, hence degree 97
        f = PowerSeries(opcalc.c0_series(degree), "ordinary")
        f_ord = [float(c) for c in opcalc.c0_series(degree)]
        for x in np.linspace(0.0, 0.5, 11):
            for tau in (1e-12, 0.1, 0.375, 0.4, 0.5):
                got = opcalc.integro_diff_evolve(f, 0.0, m, tau, float(x))
                assert abs(got - exp(-tau) * tricomi_c(0, float(x))) <= 1e-15
                assert abs(got - opcalc.integro_matrix_oracle(f_ord, 0.0, m, tau, float(x), degree)) <= 1e-15

    @pytest.mark.parametrize("m", [4, 6])
    def test_beta_zero_makes_no_legendre_call(self, monkeypatch, m):
        def no_rule(*args, **kwargs):
            raise AssertionError("a beta = 0 evolution reached the Gauss-Legendre rule")

        monkeypatch.setattr(fourier, "legendre_composite_rule", no_rule)
        got = opcalc.integro_diff_evolve(PowerSeries(opcalc.c0_series(81), "ordinary"), 0.0, m, 0.4, 0.3)
        assert abs(got - exp(-0.4) * tricomi_c(0, 0.3)) <= 1e-15

    @pytest.mark.parametrize("x,tau", [(0.25, 0.3), (0.5, 0.1), (0.1, 0.35)])
    def test_beta_zero_matches_legendre_route(self, x, tau):
        # the Gauss-Legendre route the moment sum replaced: the grid transform of
        # the symbol against the bracket evaluated node by node, out to the
        # first cutoff where the symbol is below 1e-15
        K = next(
            K for K in (4.0, 8.0, 16.0, 32.0)
            if abs(fourier_oracle.e_tilde_dense(4, tau, np.array([K, 1.25 * K])).max()) < 1e-15
        )
        rule = quadrature.legendre_composite_rule(-K, K, max(64, int(8 * K)), 12)
        f81 = [float(c) for c in opcalc.c0_series(81)]
        integrand = fourier_oracle.e_tilde_dense(4, tau, rule.nodes) * _evolved_series_values(
            f81, 0.0, rule.nodes, x, 81 + 16
        )
        legendre = np.sum(rule.weights * integrand) / sqrt(2.0 * pi)
        got = opcalc.integro_diff_evolve(PowerSeries(opcalc.c0_series(81), "ordinary"), 0.0, 4, tau, x)
        assert abs(got - legendre) <= 1e-14

    @pytest.mark.parametrize("beta,x,tau", [(0.5, 0.5, 0.1), (1.0, 0.1, 0.35), (0.5, 0.25, 0.2)])
    def test_m4_polynomial_matches_per_node_reference(self, monkeypatch, beta, x, tau):
        # same Gauss-Legendre nodes, bracket evaluated node by node instead
        rules = []

        def recording_rule(a, b, panels, order):
            rule = quadrature.legendre_composite_rule(a, b, panels, order)
            rules.append((a, rule))
            return rule

        monkeypatch.setattr(fourier, "legendre_composite_rule", recording_rule)
        f81 = [float(c) for c in opcalc.c0_series(81)]
        got = opcalc.integro_diff_evolve(PowerSeries(opcalc.c0_series(81), "ordinary"), beta, 4, tau, x)
        (rule,) = [rule for a, rule in rules if a < 0]
        ks = rule.nodes
        integrand = (
            fourier_oracle.e_tilde_dense(4, tau, ks)
            * np.exp(-beta * ks ** 2 / 2.0)
            * _evolved_series_values(f81, beta, ks, x, 81 + 16)
        )
        assert abs(got - np.sum(rule.weights * integrand) / sqrt(2.0 * pi)) <= 1e-15

    @pytest.mark.parametrize("beta,x,tau", [(0.25, 0.0, 0.1), (0.25, 0.3, 0.2), (0.25, 0.5, 0.1), (0.5, 0.0, 0.3)])
    def test_m4_real_series_gives_real_value(self, beta, x, tau):
        # each node is summed with its mirror, so the odd, imaginary part of
        # the integrand cancels exactly; the full-rule sum left up to 4.4e-17
        got = opcalc.integro_diff_evolve(PowerSeries(opcalc.c0_series(81), "ordinary"), beta, 4, tau, x)
        assert got.imag == 0.0

    @pytest.mark.parametrize("m", [4, 6])
    @pytest.mark.parametrize("tau", [0.05, 0.1, 0.25, 0.5])
    def test_e_tilde_grid_matches_dense_reference(self, m, tau):
        # k up to 40 gives the rule on [0, X] more than 64 panels (all but m = 6
        # at tau >= 1/4); the route factors e^{ikx} per panel, the reference
        # forms every cos(k x_i)
        ks = np.linspace(0.0, 40.0, 241)
        assert np.max(np.abs(fourier._e_tilde_grid(m, tau, ks) - fourier_oracle.e_tilde_dense(m, tau, ks))) <= 1e-15
        # e~_m(0) = (2 / sqrt(2 pi)) integral_0^inf e^{-tau x^m} dx
        closed = sqrt(2.0 / pi) * gamma(1.0 + 1.0 / m) * tau ** (-1.0 / m)
        assert abs(fourier._e_tilde_grid(m, tau, np.array([0.0]))[0] / closed - 1.0) <= 1e-15

    @settings(max_examples=100, deadline=None)
    @given(st.floats(-50.0, 50.0), st.floats(1e-3, 100.0), st.integers(1, 300), st.integers(1, 20))
    def test_legendre_rule_matches_panel_loop(self, a, width, panels, order):
        # the whole-array rule against the panel-by-panel loop, bit for bit
        rule = quadrature.legendre_composite_rule.__wrapped__(a, a + width, panels, order)
        nodes, weights = fourier_oracle.legendre_composite_loop(a, a + width, panels, order)
        assert np.array_equal(rule.nodes, nodes) and np.array_equal(rule.weights, weights)

    @pytest.mark.parametrize("beta,x", [(0.5, 0.25), (2.0, -0.5)])
    def test_bracket_polynomial_matches_convolutions(self, beta, x):
        f_ord = [complex(c) for c in opcalc.c0_series(81)]
        a, b = fourier._evolution_tables(f_ord, beta, x, 81 + 16)
        reference = sum(np.convolve(a_j, b_j) for a_j, b_j in zip(a, b))
        got = fourier._bracket_polynomial(a, b)
        assert got.shape == reference.shape
        assert np.max(np.abs(got - reference)) <= 1e-15 * np.max(np.abs(reference))

    @pytest.mark.parametrize("m,beta", [(2, 0.0), (2, 0.5), (4, 0.0), (4, 0.5)])
    def test_degree_past_factorial_range_rejected(self, m, beta):
        # 171! does not fit a double; this used to be a bare OverflowError
        f171 = opcalc.c0_series(171)
        with pytest.raises(TruncationError, match="fit a double"):
            opcalc.integro_diff_evolve(PowerSeries(f171, "ordinary"), beta, m, 0.2, 0.25)
        with pytest.raises(TruncationError, match="fit a double"):
            opcalc.integro_matrix_oracle([float(c) for c in f171], beta, m, 0.2, 0.25, 171)

    @pytest.mark.parametrize("m,beta", [(2, 0.5), (4, 0.5)])
    def test_degree_170_still_runs(self, m, beta):
        f170 = opcalc.c0_series(170)
        got = opcalc.integro_diff_evolve(PowerSeries(f170, "ordinary"), beta, m, 0.2, 0.25)
        ref = opcalc.integro_matrix_oracle([float(c) for c in f170], beta, m, 0.2, 0.25, 170)
        assert abs(got - ref) <= 1e-14

    @pytest.mark.parametrize("tau", [0.4])
    def test_m4_cutoff_search_exhausted(self, tau):
        # the damped symbol is still above 1e-15 at |k| = 32 (beta = 1e-3); this
        # used to integrate out to 64 unchecked, about 1e6 off the oracle
        f161 = PowerSeries(opcalc.c0_series(161), "ordinary")
        with pytest.raises(TruncationError):
            opcalc.integro_diff_evolve(f161, 1e-3, 4, tau, 0.3)

    def test_m4_value_pinned(self):
        # recorded before the m = 2 route changed: the m >= 4 route must stay
        # bit for bit (a BLAS with another summation order may move the last digit)
        f81 = PowerSeries(opcalc.c0_series(81), "ordinary")
        assert repr(opcalc.integro_diff_evolve(f81, 0.5, 4, 0.2, 0.25)) == "(0.5599811890758907+0j)"

    @pytest.mark.parametrize("beta,value", [
        (0.0, "(0.6264908781691333+0j)"),
        (0.5, "(0.6189985263518432+0j)"),
        (1.0, "(0.6044628155410277+0j)"),
    ])
    def test_m2_value_pinned(self, beta, value):
        # recorded before the route took the series' complex view and its
        # shape-only tables from caches: the m = 2 route must stay bit for bit
        assert repr(opcalc.integro_diff_evolve(self.f, beta, 2, 0.2, 0.25)) == value

    def test_series_converted_once_per_object(self):
        conversions = []

        class Counted(Fraction):
            def __complex__(self):
                conversions.append(self)
                return complex(float(self))

        f = PowerSeries(tuple(Counted(c) for c in opcalc.c0_series(40)), "ordinary")
        for beta, tau, x in [(0.5, 0.0, 0.25), (0.5, 0.2, 0.25), (0.0, 0.4, 0.5), (1.0, 0.1, 0.0)]:
            got = opcalc.integro_diff_evolve(f, beta, 2, tau, x)
            assert got == opcalc.integro_diff_evolve(self.f, beta, 2, tau, x)
        assert len(conversions) == 41

    @pytest.mark.parametrize("m,degree", [(2, 40), (4, 81)])
    def test_alternating_series_keep_their_own_values(self, m, degree):
        # two series with different coefficients, taken in turn on one grid,
        # give exactly what freshly built series give: no view leaks across
        first = opcalc.c0_series(degree)
        second = tuple(c * Fraction(3, 2) if n < 5 else c for n, c in enumerate(first))
        f, g = PowerSeries(first, "ordinary"), PowerSeries(second, "ordinary")
        for beta in (0.0, 0.5):
            for x in (0.0, 0.5):
                for tau in (0.0, 0.1, 0.3):
                    for series, coeffs in ((f, first), (g, second)):
                        fresh = PowerSeries(coeffs, "ordinary")
                        assert opcalc.integro_diff_evolve(series, beta, m, tau, x) == \
                            opcalc.integro_diff_evolve(fresh, beta, m, tau, x)
        assert f.complex_coeffs != g.complex_coeffs

    def test_legendre_rule_cache_is_bounded(self):
        # the m >= 4 route's symbol asks for the interval [0, (40/tau)^{1/m}], one per distinct tau
        for tau in np.linspace(0.05, 0.3, 400):
            fourier._e_tilde_grid(4, float(tau), np.array([16.0, 20.0]))
        info = quadrature.legendre_composite_rule.cache_info()
        assert info.maxsize == quadrature.LEGENDRE_RULE_CACHE
        assert info.currsize <= quadrature.LEGENDRE_RULE_CACHE

    def test_m4_symbol_taken_on_nonnegative_k(self, monkeypatch):
        seen, e_tilde_grid = [], fourier._e_tilde_grid

        def recording_grid(m, tau, ks):
            seen.append(ks)
            return e_tilde_grid(m, tau, ks)

        monkeypatch.setattr(fourier, "_e_tilde_grid", recording_grid)
        opcalc.integro_diff_evolve(PowerSeries(opcalc.c0_series(81), "ordinary"), 0.5, 4, 0.2, 0.25)
        # three cutoff probes, then half of the 1536 nodes of [-16, 16]
        assert [len(ks) for ks in seen] == [2, 2, 2, 768]
        assert all(np.all(ks >= 0) for ks in seen)

    @pytest.mark.parametrize("K", [4.0, 8.0, 16.0, 32.0])
    def test_k_rule_is_symmetric(self, K):
        # the route takes e~_m at the nonnegative half of the nodes and mirrors it
        rule = quadrature.legendre_composite_rule(-K, K, max(64, int(8 * K)), 12)
        half = len(rule.nodes) // 2
        assert np.all(rule.nodes[half:] > 0)
        assert np.array_equal(rule.nodes[:half], -rule.nodes[half:][::-1])
        assert np.array_equal(rule.weights[:half], rule.weights[half:][::-1])


rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)


class TestUmbralTransform:
    def setup_method(self):
        self.scale = Fraction(1, 32)
        self.sym = opcalc.gaussian_symbol(float(self.scale))
        self.taylor = opcalc.gaussian_taylor(self.scale, 120)
        self.a = Sequence.of([1] * 80)

    def test_origin_gives_f0_a0(self):
        got = opcalc.umbral_operator_transform(self.sym, self.a, 0.0)
        assert got == pytest.approx(1.0, abs=1e-12)  # F(0) = 1, a_0 = 1

    @pytest.mark.parametrize("x", [-0.3, -0.25, -0.2, -0.1, 0.05, 0.15, 0.2, 0.25, 0.3])
    def test_matches_double_sum_oracle(self, x):
        got = opcalc.umbral_operator_transform(self.sym, self.a, x, rho=1.0)
        ref = opcalc.umbral_double_sum(self.taylor, self.a, x)
        assert abs(got - ref) < 1e-7

    def test_radius_guard(self):
        with pytest.raises(DivergenceError):
            opcalc.umbral_operator_transform(self.sym, self.a, 1.2, rho=1.0)

    @given(st.lists(rationals, min_size=1, max_size=30), st.lists(rationals, min_size=1, max_size=30),
           st.floats(-0.5, 0.5))
    @settings(max_examples=150, deadline=None)
    @example([Fraction(1, 7)] * 40, [Fraction(-2, 3)] * 25, 0.3)
    def test_double_sum_matches_plain_loops(self, taylor, terms, x):
        # Taylor tables shorter and longer than the sequence
        want = convolution_oracle.umbral_double_sum(taylor, terms, x)
        assert opcalc.umbral_double_sum(taylor, Sequence.of(terms), x) == want


class TestHeatEvolution:
    def test_gaussian_widening(self):
        g = opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2) / 2), 16.0, 1024)
        out = opcalc.heat_evolve_ft(g, 0.5)
        expected = np.exp(-g.xs() ** 2 / 4) / sqrt(2.0)
        assert np.max(np.abs(out.samples - expected)) < 1e-6

    def test_alpha_zero_identity(self):
        g = opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2)), 12.0, 512)
        out = opcalc.heat_evolve_ft(g, 0.0)
        assert np.max(np.abs(out.samples - g.samples)) < 1e-13

    def test_linearity(self):
        f = opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2) / 2), 16.0, 1024)
        g = opcalc.GridFunction.sample(lambda t: np.exp(-((t - 1.0) ** 2)), 16.0, 1024)
        both = opcalc.heat_evolve_ft(opcalc.GridFunction(f.samples + g.samples, 16.0), 0.3)
        separate = opcalc.heat_evolve_ft(f, 0.3).samples + opcalc.heat_evolve_ft(g, 0.3).samples
        assert np.max(np.abs(both.samples - separate)) < 1e-12

    def test_boundary_decay_enforced(self):
        g = opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2) / 2), 4.0, 128)
        with pytest.raises(DomainTooSmallError):
            opcalc.heat_evolve_ft(g, 0.1)

    @pytest.mark.parametrize("alpha", [8.0, 20.0])
    def test_kernel_reaching_the_edge_rejected(self, alpha):
        # samples decay at the edge, but the kernel would wrap round the periodic grid
        g = opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2) / 2), 16.0, 1024)
        with pytest.raises(DomainTooSmallError):
            opcalc.heat_evolve_ft(g, alpha)

    def test_long_time_inside_the_grid(self):
        g = opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2) / 2), 16.0, 1024)
        out = opcalc.heat_evolve_ft(g, 2.0)
        expected = np.exp(-g.xs() ** 2 / 10) / sqrt(5.0)
        assert np.max(np.abs(out.samples - expected)) < 1e-11

    def test_rejects_negative_alpha(self):
        g = opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2) / 2), 16.0, 256)
        with pytest.raises(InvalidParameterError):
            opcalc.heat_evolve_ft(g, -0.5)

    def test_grid_must_be_power_of_two(self):
        with pytest.raises(InvalidParameterError):
            opcalc.GridFunction(np.zeros(100), 8.0)


_NAN = float("nan")


@pytest.mark.parametrize("call,error", [
    pytest.param(lambda: opcalc.gaussian_fourier_integral(_NAN, np.ones_like), InvalidParameterError,
                 id="gaussian_fourier_integral"),
    pytest.param(lambda: opcalc.gaussian_fourier_rows(_NAN, lambda k, rows: [np.ones_like(k) for _ in rows], 1),
                 InvalidParameterError, id="gaussian_fourier_rows"),
    pytest.param(lambda: quadrature.node_reach(_NAN), InvalidParameterError, id="node_reach"),
    pytest.param(lambda: opcalc.gauss_weighted_integral(np.ones_like, _NAN), InvalidParameterError,
                 id="gauss_weighted_integral"),
    pytest.param(lambda: opcalc.gaussian_symbol(_NAN), InvalidParameterError, id="gaussian_symbol"),
    pytest.param(lambda: opcalc.cos_gaussian_symbol(_NAN), InvalidParameterError, id="cos_gaussian_symbol"),
    pytest.param(lambda: opcalc.heat_evolve_ft(
        opcalc.GridFunction.sample(lambda t: np.exp(-(t ** 2) / 2), 16.0, 256), _NAN), InvalidParameterError,
                 id="heat_evolve_ft"),
    pytest.param(lambda: opcalc.matrix_function_pauli(opcalc.gaussian_symbol(1.0), _NAN), InvalidParameterError,
                 id="matrix_function_pauli"),
    pytest.param(lambda: opcalc.tricomi_evolution(0.5, _NAN), InvalidParameterError, id="tricomi_evolution"),
    pytest.param(lambda: opcalc.tricomi_evolution_points([(0.5, 0.1), (0.5, _NAN)]), InvalidParameterError,
                 id="tricomi_evolution_points"),
    pytest.param(lambda: opcalc.integro_diff_evolve(PowerSeries(opcalc.c0_series(40), "ordinary"), 1.0, 2, 0.1, _NAN),
                 TruncationError, id="integro_diff_evolve"),
])
def test_nan_argument_fails_the_guard(call, error):
    # each guard is written `not value > 0` (or >=, <=), so NaN fails it and
    # raises the guard's own error instead of returning nan
    with pytest.raises(error):
        call()
