"""Truncated-series evaluation and the closed-form transform identities."""
import dataclasses
from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import checks
from umbra import seqcore as sq
from umbra.errors import DivergenceError, InvalidParameterError, TruncationError
from umbra.gftrans import (
    PowerSeries,
    hermite_form,
    k_binomial_form,
    laguerre_form,
    modular_form,
    sequence_series,
)
from umbra.seqcore import Sequence, TransformParams, rising_k_binomial
from umbra.specfun import hermite2

UNIT = TransformParams(1, 1)


def ones(n):
    return Sequence.of([1] * n)


def binomial(a, x, kind):
    # the binomial transform's closed form is the modular one at alpha = beta = 1
    return modular_form(UNIT, kind).bind(a)(x)


def k_binomial(a, k, kind):
    return k_binomial_form(k, kind).bind(a)


class TestSeriesEval:
    def test_geometric_value_and_tail(self):
        value = sequence_series(ones(21), "ordinary")(0.5)
        tail = checks._derivative_tail_ordinary(1.0, 1.0, 0, 0.5, 21)
        assert value == pytest.approx(2 - 2.0 ** -20, rel=1e-15)
        assert tail == pytest.approx(2.0 ** -20, rel=1e-12)
        assert abs(2.0 - value) <= tail * (1 + 1e-12)

    def test_exponential_reaches_e(self):
        value = sequence_series(ones(31), "exponential")(1.0)
        tail = checks._exponential_tail(1.0, 1.0, 1.0, 31)
        # the tail bound covers truncation only; allow summation rounding on top
        assert abs(value - np.e) <= tail + 1e-15
        assert tail < 1e-25

    def test_zero_growth_means_zero_tail(self):
        assert sequence_series(Sequence.of([3]), "ordinary")(0.25) == 3.0
        assert checks._derivative_tail_ordinary(0.0, 1.0, 0, 0.25, 1) == 0.0
        assert checks._exponential_tail(0.0, 1.0, 0.25, 1) == 0.0

    def test_radius_violation(self):
        # outside the declared radius no finite budget exists
        assert checks._derivative_tail_ordinary(1.0, 2.0, 0, 0.8, 2) == float("inf")

    def test_bad_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            PowerSeries((1.0,), "laurent")

    def test_complex_view_converted_once(self):
        f = PowerSeries((Fraction(1, 3), -2, Fraction(5, 7)), "ordinary")
        view = f.complex_coeffs
        assert view == (complex(Fraction(1, 3)), -2 + 0j, complex(Fraction(5, 7)))
        assert all(type(c) is complex for c in view)
        assert f.complex_coeffs is view

    def test_complex_view_is_read_only(self):
        f = PowerSeries((Fraction(1, 3), -2), "ordinary")
        view = f.complex_coeffs
        with pytest.raises(TypeError):
            view[0] = 0j
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.complex_coeffs = (0j, 0j)
        assert f.complex_coeffs is view and view == (complex(Fraction(1, 3)), -2 + 0j)

    def test_complex_view_leaves_equality_and_hash(self):
        f, g = PowerSeries((Fraction(1, 3), -2), "ordinary"), PowerSeries((Fraction(1, 3), -2), "ordinary")
        before = hash(f)
        f.complex_coeffs
        assert f == g and hash(f) == before == hash(g)
        assert f != PowerSeries((Fraction(1, 3), -3), "ordinary")
        assert {f: 1}[g] == 1

    @pytest.mark.parametrize("evaluate", [
        lambda kind: PowerSeries((1.0,), kind),
        lambda kind: sequence_series(ones(3), kind)(0.1),
        lambda kind: modular_form(UNIT, kind),
        lambda kind: laguerre_form(UNIT, kind),
        lambda kind: k_binomial_form(1, kind),
    ], ids=["PowerSeries", "sequence_series", "modular_gf", "laguerre_gf", "k_binomial_closed"])
    @pytest.mark.parametrize("kind", ["laurent", "ordinry", "ordinery"])
    def test_misspelt_kind_rejected(self, evaluate, kind):
        with pytest.raises(InvalidParameterError, match=f"unknown series kind '{kind}'"):
            evaluate(kind)


class TestSeriesDerivative:
    """The exact derivatives a bound k-binomial form takes of the input series, seen through
    the closed form: S2(r, k) picks which derivatives enter."""

    def test_zeroth_is_identity(self):
        # k = 0 keeps only r = 0: the underived series at u = -x/(1-x)
        a = Sequence.of([1, 2, 3])
        x = 0.3
        u = -x / (1 - x)
        assert k_binomial(a, 0, "ordinary")(x) == pytest.approx((1 + 2 * u + 3 * u * u) / (1 - x), rel=1e-15)

    def test_ordinary_shift(self):
        # k = 1 keeps only r = 1, and (1 + u + u^2 + u^3)' = 1 + 2u + 3u^2
        x = 0.3
        u = -x / (1 - x)
        want = -x / (1 - x) ** 2 * (1 + 2 * u + 3 * u * u)
        assert k_binomial(ones(4), 1, "ordinary")(x) == pytest.approx(want, rel=1e-15)

    def test_second_derivative_of_x_squared(self):
        # k = 2 keeps r = 1 and r = 2: (u^2)' = 2u, (u^2)'' = 2
        x = 0.3
        u = -x / (1 - x)
        want = -x / (1 - x) ** 2 * 2 * u + x * x / (1 - x) ** 3 * 2
        assert k_binomial(Sequence.of([0, 0, 1]), 2, "ordinary")(x) == pytest.approx(want, rel=1e-15)

    def test_exponential_kind_shifts(self):
        # g = 5 + 7y + 11y^2/2 has g' = 7 + 11y; k = 1 gives e^x (-x) g'(-x)
        x = 0.3
        want = np.exp(x) * -x * (7 - 11 * x)
        assert k_binomial(Sequence.of([5, 7, 11]), 1, "exponential")(x) == pytest.approx(want, rel=1e-15)

    def test_overdraw_raises(self):
        # k = 1 needs the first derivative, which a one-term prefix cannot supply
        for kind in ("ordinary", "exponential"):
            with pytest.raises(TruncationError):
                k_binomial(Sequence.of([1]), 1, kind)(0.1)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            k_binomial(ones(4), 1, "laurent")(0.1)


class TestBinomialClosedForms:
    def test_ones_map_to_constant_one(self):
        a = ones(65)
        for x in (0.3, -0.4, 0.2 + 0.1j):
            assert binomial(a, x, "ordinary") == pytest.approx(1.0, abs=1e-12)
            assert binomial(a, x, "exponential") == pytest.approx(1.0, abs=1e-12)

    def test_x_zero_gives_a0(self):
        a = Sequence.of([7, 1, 1])
        assert binomial(a, 0.0, "ordinary") == pytest.approx(7.0)
        assert binomial(a, 0.0, "exponential") == pytest.approx(7.0)

    def test_powers_of_two_example(self):
        a = Sequence.of([2 ** n for n in range(65)])
        got = binomial(a, 0.2, "ordinary")
        assert got == pytest.approx(1 / 1.2, rel=1e-12)  # series of (-1)^n at 0.2

    def test_linear_sequence_exponential(self):
        a = Sequence.of(list(range(65)))
        for x in (0.4, -0.7):
            assert binomial(a, x, "exponential") == pytest.approx(-x, abs=1e-12)

    def test_radius_enforced(self):
        with pytest.raises(DivergenceError):
            binomial(ones(10), 1.2, "ordinary")

    def test_function_level_involution(self):
        # x -> -x/(1-x) with its prefactor 1/(1-x) is an exact involution of the closed form
        a = Sequence.of([Fraction(1, n + 1) for n in range(65)])
        direct = sequence_series(a, "ordinary")
        for x in (0.3, -0.25, 0.2 + 0.2j):
            assert abs(binomial(a, -x / (1 - x), "ordinary") / (1 - x) - direct(x)) < 1e-12


class TestModularClosedForms:
    def test_unit_params_reduce_to_binomial(self):
        # at alpha = beta = 1 the ordinary argument bx/(ax-1) is the binomial -x/(1-x)
        a = Sequence.of([Fraction(1, n + 2) for n in range(40)])
        for x in (0.25, -0.3):
            u = -x / (1 - x)
            assert binomial(a, x, "ordinary") == pytest.approx(sequence_series(a, "ordinary")(u) / (1 - x),
                                                               rel=1e-14)
            assert binomial(a, x, "exponential") == pytest.approx(
                np.exp(x) * sequence_series(a, "exponential")(-x), rel=1e-14
            )

    def test_exponential_ones(self):
        got = modular_form(TransformParams(2, 1), "exponential").bind(ones(65))(0.3)
        assert got == pytest.approx(np.exp(0.3), rel=1e-12)

    def test_x_zero(self):
        a = Sequence.of([5, 1])
        assert modular_form(TransformParams(3, 2), "ordinary").bind(a)(0.0) == pytest.approx(5.0)

    def test_ordinary_radius(self):
        with pytest.raises(DivergenceError):
            modular_form(TransformParams(4, 1), "ordinary").bind(ones(10))(0.3)


class TestKBinomialClosedForms:
    def test_k0_matches_plain_forms(self):
        a = Sequence.of([Fraction(2, n + 3) for n in range(65)])
        for x in (0.2, -0.3):
            assert k_binomial(a, 0, "ordinary")(x) == pytest.approx(
                binomial(a, x, "ordinary"), rel=1e-13
            )
            assert k_binomial(a, 0, "exponential")(x) == pytest.approx(
                binomial(a, x, "exponential"), rel=1e-13
            )

    def test_ones_k1_exponential(self):
        got = k_binomial(ones(65), 1, "exponential")(0.4)
        assert got == pytest.approx(-0.4, abs=1e-12)

    def test_ones_k2_ordinary_vs_series(self):
        a = ones(65)
        x = 0.25
        got = k_binomial(a, 2, "ordinary")(x)
        direct = sequence_series(rising_k_binomial(a, 2), "ordinary")(x)
        assert got == pytest.approx(direct, abs=1e-10)

    def test_negative_k_rejected(self):
        with pytest.raises(InvalidParameterError):
            k_binomial(ones(4), -1, "ordinary")(0.1)


class TestHermiteClosedForms:
    def test_ones_give_hermite_generating_function(self):
        closed = hermite_form(TransformParams(1, Fraction(1, 2)), "standard").bind(ones(65))
        alpha, beta = 1.0, 0.5
        for x in (0.3, -0.4):
            got = closed(x)
            assert got == pytest.approx(np.exp(alpha * x + beta * x * x), rel=1e-12)
            series = sum(
                float(hermite2(n, Fraction(1), Fraction(1, 2))) * x ** n / factorial(n)
                for n in range(40)
            )
            assert got == pytest.approx(series, rel=1e-11)

    def test_complementary_beta_zero_is_scaled_series(self):
        a = Sequence.of([Fraction(1, n + 1) for n in range(50)])
        got = hermite_form(TransformParams(2, 0), "complementary").bind(a)(0.2)
        assert got == pytest.approx(sequence_series(a, "exponential")(0.4), rel=1e-13)

    def test_x_zero(self):
        assert hermite_form(UNIT, "standard").bind(Sequence.of([9, 1]))(0.0) == pytest.approx(9.0)

    def test_unknown_variant(self):
        with pytest.raises(InvalidParameterError):
            hermite_form(UNIT, "inverse")


class TestLaguerreClosedForms:
    def test_exponential_ones_is_bessel_product(self):
        scipy_special = pytest.importorskip("scipy.special")
        closed = laguerre_form(UNIT, "exponential").bind(ones(65))
        for x in (0.0, 0.2, 0.5):
            assert closed(x) == pytest.approx(np.exp(x) * scipy_special.j0(2 * np.sqrt(x)), abs=1e-12)

    def test_ordinary_ones_is_resolvent_exponential(self):
        closed = laguerre_form(UNIT, "ordinary").bind(ones(65))
        for x in (0.1, 0.3, 0.5):
            assert closed(x) == pytest.approx(np.exp(-x / (1 - x)) / (1 - x), rel=1e-12)

    def test_x_zero(self):
        assert laguerre_form(TransformParams(1, 2), "exponential").bind(Sequence.of([4, 1]))(0.0) == pytest.approx(4.0)

    def test_beta_radius(self):
        with pytest.raises(DivergenceError):
            laguerre_form(TransformParams(1, 2), "ordinary").bind(ones(10))(0.6)


signed_params = st.fractions(Fraction(-4), Fraction(4), max_denominator=8).filter(bool)


@given(st.lists(st.fractions(Fraction(-1), Fraction(1), max_denominator=1000), min_size=40, max_size=40),
       signed_params, signed_params, st.integers(0, 3), st.complex_numbers(max_magnitude=0.02))
@settings(max_examples=60, deadline=None)
def test_forms_match_the_exact_transform_at_signed_parameters(terms, alpha, beta, k, x):
    # each closed form against the direct series of the exact transform; small |x| keeps
    # both truncations far below the gate for any sign of alpha and beta
    a, p = Sequence.of(terms), TransformParams(alpha, beta)
    cases = [
        (modular_form(UNIT, "ordinary"), sq.binomial_transform(a)),
        (modular_form(UNIT, "exponential"), sq.binomial_transform(a)),
        (modular_form(p, "ordinary"), sq.modular_transform(a, p)),
        (modular_form(p, "exponential"), sq.modular_transform(a, p)),
        (k_binomial_form(k, "ordinary"), rising_k_binomial(a, k)),
        (k_binomial_form(k, "exponential"), rising_k_binomial(a, k)),
        (hermite_form(p, "standard"), sq.hermite_transform_seq(a, p)),
        (hermite_form(p, "complementary"), sq.hermite_complementary_seq(a, p)),
        (laguerre_form(p, "ordinary"), sq.laguerre_transform_seq(a, p)),
        (laguerre_form(p, "exponential"), sq.laguerre_transform_seq(a, p)),
    ]
    for form, transformed in cases:
        value = form.bind(a)(x)
        direct = sequence_series(transformed, form.kind)(x)
        assert abs(value - direct) <= 1e-12 * max(1.0, abs(value)), (form.kind, value, direct)
