"""Appell families: exact polynomials, generating products, expansion oracles."""
from fractions import Fraction
from math import factorial

import convolution_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import appell, checks
from umbra.errors import DivergenceError, InvalidParameterError, TruncationError
from umbra.seqcore import Sequence


@pytest.fixture(scope="module")
def bernoulli():
    return appell.bernoulli_family()


@pytest.fixture(scope="module")
def identity():
    return appell.identity_family()


@pytest.fixture(scope="module")
def hermite_type():
    return appell.gauss_hermite_family()


class TestFamilies:
    @pytest.mark.parametrize("build", [appell.bernoulli_family, appell.identity_family, appell.gauss_hermite_family])
    def test_builtin_family_is_built_once(self, build):
        assert build() is build()

    def test_bernoulli_numbers(self):
        assert appell.bernoulli_numbers(4) == (1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30))

    @given(st.integers(0, 120))
    @settings(max_examples=30, deadline=None)
    def test_bernoulli_numbers_match_fraction_recurrence(self, order):
        assert appell.bernoulli_numbers(order) == convolution_oracle.bernoulli_numbers(order)

    def test_reciprocal_convolution_enforced(self):
        with pytest.raises(InvalidParameterError):
            appell.AppellFamily("broken", (Fraction(1), Fraction(1)), (Fraction(1), Fraction(1)))

    @given(st.fractions(min_value=Fraction(1, 30), max_value=Fraction(50), max_denominator=30),
           st.lists(st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30),
                    max_size=11),
           st.integers(0, 11), st.sampled_from([0, Fraction(1, 10 ** 15), Fraction(1, 1000)]), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_self_check_decides_as_the_plain_convolution(self, c0, rest, index, delta, as_float):
        # the rational route must accept and reject exactly what the 1e-12 test on the
        # plain Cauchy product of A and the (perturbed) reciprocal does; float data
        # enters as its exact values, so the product is theirs
        a = [c0] + rest
        inv = list(appell.series_reciprocal(a))
        inv[index % len(inv)] += delta
        if as_float:
            a, inv = [float(v) for v in a], [float(v) for v in inv]
        convs = convolution_oracle.series_product([Fraction(v) for v in a], [Fraction(v) for v in inv])
        bad = [n for n, v in enumerate(convs) if abs(complex(v) - (n == 0)) > 1e-12]
        if bad:
            with pytest.raises(InvalidParameterError, match=f"at order {bad[0]}$"):
                appell.AppellFamily("perturbed", tuple(a), tuple(inv))
        else:
            appell.AppellFamily("perturbed", tuple(a), tuple(inv))

    def test_zero_constant_rejected(self):
        with pytest.raises(InvalidParameterError):
            appell.AppellFamily("user-taylor", (Fraction(0), Fraction(1)))

    @given(st.floats(0.5, 2), st.lists(st.floats(-1e3, 1e3), max_size=11))
    @settings(max_examples=40, deadline=None)
    def test_float_taylor_data_enters_exact(self, c0, rest):
        a = [c0] + rest
        fam = appell.AppellFamily("floats", a)
        assert fam == appell.AppellFamily("floats", [Fraction(v) for v in a])
        assert all(type(c) is Fraction for c in fam.a_taylor + fam.a_inv_taylor)

    @pytest.mark.parametrize("a,inv", [
        ((1, 0.5j), ()), ((1, float("nan")), ()), ((1, float("inf")), ()), ((Fraction(1),), (1j,)),
    ], ids=["complex", "nan", "inf", "complex-reciprocal"])
    def test_non_rational_taylor_data_rejected(self, a, inv):
        with pytest.raises(InvalidParameterError, match="must be rational or finite floats"):
            appell.AppellFamily("bad", a, inv)

    @pytest.mark.parametrize("a,message", [
        ((1, 10 ** 400), "coefficient 1 of A"),
        # A = 1 + 10^200 t has 1/A = 1 - 10^200 t + 10^400 t^2 - ...
        ((1, 10 ** 200, 0), "coefficient 2 of 1/A"),
    ])
    def test_taylor_data_must_fit_a_float(self, a, message):
        with pytest.raises(InvalidParameterError, match=f"{message} must be small enough for a float"):
            appell.AppellFamily("big", a)

    def test_bernoulli_inverse_is_shifted_factorials(self, bernoulli):
        # 1/A = (e^t - 1)/t has coefficients 1/(m+1)!; the reciprocal recurrence must find them
        assert bernoulli.a_inv_taylor[:5] == tuple(Fraction(1, factorial(m + 1)) for m in range(5))

    def test_bernoulli_evaluator_crossover_consistent(self, bernoulli):
        for z in (0.2, 0.3001, 1.5, -0.24, 2j * 0.1):
            series_side = sum(float(c) * complex(z) ** m for m, c in enumerate(bernoulli.a_inv_taylor))
            assert bernoulli.inverse_at(z) == pytest.approx(series_side, rel=1e-12)


class TestAppellPoly:
    def test_identity_family_gives_monomials(self, identity):
        for sign in ("plus", "minus"):
            assert appell.appell_poly(identity, 3, sign) == (0, 0, 0, 1)

    def test_bernoulli_first_polys(self, bernoulli):
        assert appell.appell_poly(bernoulli, 1, "plus") == (Fraction(-1, 2), 1)
        assert appell.appell_poly(bernoulli, 2, "plus") == (Fraction(1, 6), -1, 1)

    def test_bernoulli_complementary_closed_form(self, bernoulli):
        # a_n^-(x) = ((x+1)^{n+1} - x^{n+1}) / (n+1); n = 1 gives x + 1/2
        assert appell.appell_poly(bernoulli, 1, "minus") == (Fraction(1, 2), 1)
        got = appell.appell_poly(bernoulli, 3, "minus")
        # ((x+1)^4 - x^4)/4 = x^3 + 3x^2/2 + x + 1/4
        assert got == (Fraction(1, 4), 1, Fraction(3, 2), 1)

    def test_order_cap(self, bernoulli):
        with pytest.raises(TruncationError):
            appell.appell_poly(bernoulli, bernoulli.order + 1)

    def test_reciprocity(self, bernoulli):
        # 1/A as Taylor data alone: its inverse, A again, comes from the series reciprocal
        rec = appell.AppellFamily("1/bernoulli", bernoulli.a_inv_taylor[:8])
        assert rec.a_inv_taylor == bernoulli.a_taylor[:8]
        for n in (0, 2, 5):
            assert appell.appell_poly(bernoulli, n, "plus") == appell.appell_poly(rec, n, "minus")
            assert appell.appell_poly(bernoulli, n, "minus") == appell.appell_poly(rec, n, "plus")

    def test_umbral_composition_cancels(self):
        # A(d/dx) a_n^-(x) = x^n on the Bernoulli family, n < 8: the Eq. 60 catalog row
        assert checks._chk_appell_composition().residual == 0


class TestGeneratingCheck:
    def test_t_zero(self, bernoulli):
        assert checks._generating_check(bernoulli, 5, [(0.0, 0.7)]) == [0]

    def test_bernoulli_product(self, bernoulli):
        for sign in ("plus", "minus"):
            assert max(checks._generating_check(bernoulli, 30, [(0.3, 0.5)], sign)) < 1e-10

    def test_identity_family_both_sides_exponential(self, identity):
        assert max(checks._generating_check(identity, 20, [(0.1, 0.3), (0.4, 0.3)])) < 1e-12


class TestExpansion:
    def test_identity_family_recovers_taylor(self, identity):
        g = appell.GaussianFunction(Fraction(1))
        res = appell.expansion_coefficients(identity, g, 6)
        expected = [1, 0, -1, 0, Fraction(1, 2), 0, Fraction(-1, 6)]
        for got, want in zip(res.coefficients, expected):
            assert complex(got) == pytest.approx(complex(float(want)), abs=1e-10)

    def test_real_input_keeps_tiny_imag_reported(self, identity):
        g = appell.GaussianFunction(Fraction(1))
        res = appell.expansion_coefficients(identity, g, 6)
        assert max(abs(complex(c).imag) for c in res.coefficients) < 1e-10

    def test_bernoulli_matches_operational_oracle(self, bernoulli):
        g = appell.GaussianFunction(Fraction(1))
        res = appell.expansion_coefficients(bernoulli, g, 10)
        oracle = appell.operational_coefficients(bernoulli, g, 10)
        for got, want in zip(res.coefficients, oracle):
            assert abs(complex(got) - float(want)) < 1e-8

    def test_hermite_type_matches_operational_oracle(self, hermite_type):
        # backward-heat divergence forces the Gaussian scale below 1/4 here
        g = appell.GaussianFunction(Fraction(1, 8))
        res = appell.expansion_coefficients(hermite_type, g, 10)
        oracle = appell.operational_coefficients(hermite_type, g, 10)
        for got, want in zip(res.coefficients, oracle):
            assert abs(complex(got) - float(want)) < 1e-8

    @pytest.mark.parametrize("family", ["bernoulli", "identity", "hermite_type"])
    @pytest.mark.parametrize("scale", [Fraction(1, 16), Fraction(5, 64), Fraction(1, 8), Fraction(3, 16)])
    def test_operational_oracle_matches_fraction_loop(self, request, family, scale):
        fam = request.getfixturevalue(family)
        g = appell.GaussianFunction(scale)
        for n in (0, 1, 10, 24):
            want = convolution_oracle.operational_coefficients(fam.a_inv_taylor, scale, n)
            assert list(appell.operational_coefficients(fam, g, n)) == want

    def test_coefficient_cap(self, bernoulli):
        with pytest.raises(TruncationError):
            appell.expansion_coefficients(bernoulli, appell.GaussianFunction(Fraction(1)), 30)

    @pytest.mark.parametrize("a", [(1,), (1, 0), (1, 0, 0), (2, 0, 0, 0)], ids=str)
    def test_short_taylor_data_keeps_c0(self, a):
        # A constant: 1/A is exact at every |k|, however few coefficients carry it
        fam = appell.AppellFamily("user-taylor", a)
        res = appell.expansion_coefficients(fam, appell.GaussianFunction(Fraction(1)), 2)
        assert complex(res.coefficients[0]) == pytest.approx(1 / a[0], abs=1e-12)

    def test_integrability_guard(self):
        coeffs = [Fraction(0)] * 25
        for l in range(13):
            coeffs[2 * l] = Fraction(1, factorial(l))
        exp_square = appell.AppellFamily("exp-square", tuple(coeffs), eval_inv=lambda z: np.exp(-z * z))
        with pytest.raises(DivergenceError):
            appell.expansion_coefficients(exp_square, appell.GaussianFunction(Fraction(1)), 4)

    @pytest.mark.parametrize("scale", [Fraction(0), Fraction(-1), Fraction(10 ** 308), Fraction(1, 10 ** 400)],
                             ids=["zero", "negative", "1e308", "1e-400"])
    def test_gaussian_scale_keeps_its_transform_in_float_range(self, scale):
        # 4 scale is the transform's width and 1/(4 scale) its Gaussian coefficient
        with pytest.raises(InvalidParameterError, match="gaussian scale must be"):
            appell.GaussianFunction(scale)

    def test_too_wide_a_gaussian_is_refused_before_any_evaluation(self, monkeypatch, hermite_type):
        # the nodes scale with f~'s width sqrt(4 s): at s = 1e50, k^12 is past the float
        # range at the widest node, although [A(ik)]^{-1} = e^{-k^2} kills the integrand
        calls = []
        monkeypatch.setattr(appell.AppellFamily, "inverse_at", lambda self, z: calls.append(z))
        with pytest.raises(DivergenceError, match=r"n=12 takes k\^12"):
            appell.expansion_coefficients(hermite_type, appell.GaussianFunction(Fraction(10 ** 50)), 24)
        assert calls == []

    @pytest.mark.parametrize("family", ["bernoulli", "identity", "hermite_type"])
    def test_inverse_evaluated_once_per_node(self, monkeypatch, request, family):
        # 25 orders share the three probe points and the 128- and 256-node sets;
        # the two sets are taken side by side as one array of 384 nodes
        fam = request.getfixturevalue(family)
        calls = []
        inverse_at = appell.AppellFamily.inverse_at

        def counting(self, z):
            calls.append(np.size(z))
            return inverse_at(self, z)

        monkeypatch.setattr(appell.AppellFamily, "inverse_at", counting)
        res = appell.expansion_coefficients(fam, appell.GaussianFunction(Fraction(1, 8)), 24)
        assert res.node_counts == (256,) * 25
        assert calls == [3, 384]

    @pytest.mark.parametrize("family", ["bernoulli", "identity", "hermite_type"])
    def test_coefficients_pinned(self, request, family):
        # real parts recorded before 1/A(ik) was shared across orders: the route must
        # stay bit for bit; the coefficients are real, so the imaginary parts are
        # rounding noise, held to 1e-15 of the leading coefficient
        fam = request.getfixturevalue(family)
        res = appell.expansion_coefficients(fam, appell.GaussianFunction(Fraction(1, 8)), 24)
        assert tuple(repr(c.real) for c in res.coefficients) == PINNED_REAL_PARTS[fam.name]
        assert max(abs(c.imag) for c in res.coefficients) <= 1e-15 * abs(res.coefficients[0])


PINNED_REAL_PARTS = {
    "bernoulli": (
        "0.9598504379197681", "-0.11750309741540454", "-0.11031211282307438",
        "0.014088638460898053", "0.006319964797155303", "-0.000844322182141442",
        "-0.00024058956898261657", "3.3721120979779205e-05", "6.843796430225793e-06",
        "-1.0097160357647942e-06", "-1.5509848100441622e-07", "2.4178248027107522e-08",
        "2.9154114257341766e-09", "-4.822847202035142e-10", "-4.6721739550639855e-11",
        "8.242625852803143e-12", "6.511203262285785e-13", "-1.232144421063459e-13",
        "-8.007818222897321e-15", "1.636539651915228e-15", "8.78804456691506e-17",
        "-1.9554679940340678e-17", "-8.67753338489009e-19", "2.1232156728948243e-19",
        "7.755265697117093e-21",
    ),
    "identity": (
        "0.9999999999999996", "0.0", "-0.12499999999999994", "0.0", "0.007812499999999995", "0.0",
        "-0.0003255208333333331", "0.0", "1.0172526041666656e-05", "-0.0",
        "-2.5431315104166635e-07", "0.0", "5.298190646701381e-09", "0.0", "-9.461054726252462e-11",
        "0.0", "1.4782898009769472e-12", "0.0", "-2.0531802791346482e-14", "0.0",
        "2.56647534891831e-16", "0.0", "-2.9164492601344425e-18", "0.0", "3.0379679793067105e-20",
    ),
    "gauss-hermite-type": (
        "0.8164965809277256", "0.0", "-0.06804138174397714", "0.0", "0.002835057572665714", "-0.0",
        "-7.875159924071428e-05", "0.0", "1.6406583175148803e-06", "0.0", "-2.7344305291914673e-08",
        "0.0", "3.797820179432592e-10", "-0.0", "-4.521214499324514e-12", "0.0",
        "4.709598436796369e-14", "0.0", "-4.36073929332997e-16", "0.0", "3.6339494111083075e-18",
        "0.0", "-2.752991978112354e-20", "0.0", "1.9117999848002454e-22",
    ),
}


class TestReconstruct:
    def test_zero_coefficients_give_zero(self, bernoulli):
        res = appell.ExpansionResult((0.0, 0.0, 0.0), (0, 0, 0), (True,) * 3)
        alphas = [complex(a) for a in res.coefficients]
        assert appell.appell_sums(bernoulli, [(alphas, 0.4), (alphas, -1.0)]) == [0, 0]

    def test_identity_family_partial_taylor(self, identity):
        g = appell.GaussianFunction(Fraction(1))
        res = appell.expansion_coefficients(identity, g, 12)
        (got,) = appell.appell_sums(identity, [([complex(a) for a in res.coefficients], 0.5)])
        partial = sum(float(convolution_oracle.gaussian_taylor(1, n)) * 0.5 ** n for n in range(13))
        assert got == pytest.approx(partial, abs=1e-9)

    def test_bernoulli_residual_decreases(self):
        # sup over 21 points of [-1, 1] of the Bernoulli expansion of e^{-x^2}, 16 then 20
        # coefficients: the Eq. 61 catalog row
        assert checks._chk_appell_reconstruction().passed


class TestUmbralBridge:
    def test_gauss_evolution_matches_closed_form(self):
        a = Sequence.of([1] * 40)
        xs = np.linspace(-0.8, 0.8, 10)
        assert checks._gauss_umbral_bridge_residual(a, Fraction(1, 4), xs) < 1e-10

    def test_bridge_on_varying_sequence(self):
        a = Sequence.of([Fraction(1, n + 1) for n in range(36)])
        xs = [0.3, -0.5, 0.7]
        assert checks._gauss_umbral_bridge_residual(a, Fraction(1, 2), xs) < 1e-10
