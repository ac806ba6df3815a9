"""Exactness tests for the sequence transforms."""
import random
import sys
import threading
from fractions import Fraction
from math import comb, gcd

import convolution_oracle
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from transform_oracle import expected

from umbra.appell import GaussianFunction
from umbra.checks import DEFAULT_SEED, nonzero_rational, random_sequence
from umbra.errors import InvalidParameterError, SequenceFormatError
from umbra.opcalc.quadrature import gaussian_taylor
from umbra.seqcore import (
    Sequence,
    TRANSFORM_NAMES,
    Stage,
    TransformParams,
    _cleared,
    _egf_product,
    _integer_correlation,
    binomial_transform,
    hermite_complementary_seq,
    hermite_inverse_seq,
    hermite_transform_seq,
    laguerre_transform_seq,
    modular_inverse,
    modular_transform,
    rising_k_binomial,
    sequence_from_json,
    sequence_to_json,
)

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=100
)
sequences = st.lists(rationals, min_size=1, max_size=16).map(Sequence.of)


def seq(*terms):
    return Sequence.of(Fraction(t) for t in terms)


@st.composite
def structured_sequences(draw):
    """Lengths 1-40 with integer, one shared, or independent random denominators."""
    size = draw(st.integers(1, 40))
    nums = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=size, max_size=size))
    kind = draw(st.sampled_from(("int", "shared", "random")))
    if kind == "int":
        dens = [1] * size
    elif kind == "shared":
        dens = [draw(st.integers(2, 1000))] * size
    else:
        dens = draw(st.lists(st.integers(1, 1000), min_size=size, max_size=size))
    return Sequence.of(Fraction(n, d) for n, d in zip(nums, dens))


params = st.just(Fraction(0)) | st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=30
)


class TestBinomial:
    def test_all_ones_collapses(self):
        assert binomial_transform(seq(1, 1, 1, 1)).terms == seq(1, 0, 0, 0).terms

    def test_delta_spreads(self):
        assert binomial_transform(seq(1, 0, 0, 0)).terms == seq(1, 1, 1, 1).terms

    def test_linear_ramp(self):
        # direct summation of the defining sum: b_1 = 0 - 1, all later terms cancel
        assert binomial_transform(seq(0, 1, 2, 3)).terms == seq(0, -1, 0, 0).terms

    @given(sequences)
    @settings(max_examples=60)
    def test_involution(self, a):
        assert binomial_transform(binomial_transform(a)).terms == a.terms


class TestModular:
    def test_reduces_to_binomial_at_unit_params(self):
        a = seq(3, "1/2", -7, 11)
        p = TransformParams(1, 1)
        assert modular_transform(a, p).terms == binomial_transform(a).terms

    def test_alpha_two_all_ones(self):
        assert modular_transform(seq(1, 1, 1), TransformParams(2, 1)).terms == seq(1, 1, 1).terms

    def test_powers_of_two(self):
        assert modular_transform(seq(1, 2, 4), TransformParams(1, 1)).terms == seq(1, -1, 1).terms

    def test_inverse_direct_sum(self):
        got = modular_inverse(seq(1, 0, 0), TransformParams(1, 2))
        assert got.terms == seq(1, "1/2", "1/4").terms

    def test_inverse_rejects_zero_beta(self):
        with pytest.raises(InvalidParameterError):
            modular_inverse(seq(1, 2), TransformParams(1, 0))

    @given(sequences, rationals, rationals.filter(lambda b: b != 0))
    @settings(max_examples=60)
    def test_roundtrip(self, a, alpha, beta):
        p = TransformParams(alpha, beta)
        assert modular_inverse(modular_transform(a, p), p).terms == a.terms

    def test_roundtrip_on_wide_random_draws(self):
        # 200 draws of up to 32 terms, with numerators, denominators and parameters up to 10^6
        rng = random.Random(DEFAULT_SEED + 1)
        for _ in range(200):
            a = random_sequence(rng, max_len=32, bound=10 ** 6)
            p = TransformParams(nonzero_rational(rng, 10 ** 6), nonzero_rational(rng, 10 ** 6))
            assert modular_inverse(modular_transform(a, p), p).terms == a.terms

    @given(sequences, rationals)
    @settings(max_examples=30)
    def test_inverse_is_scaled_alpha_one_transform(self, b, alpha):
        # a_n = beta^{-n} * [B(alpha, 1) b]_n
        p = TransformParams(alpha, Fraction(3, 2))
        via_inverse = modular_inverse(b, p)
        via_scaling = modular_transform(b, TransformParams(alpha, 1))
        for n, (x, y) in enumerate(zip(via_inverse.terms, via_scaling.terms)):
            assert x == Fraction(3, 2) ** -n * y


class TestRisingKBinomial:
    @given(sequences)
    @settings(max_examples=30)
    def test_k_zero_is_binomial(self, a):
        assert rising_k_binomial(a, 0).terms == binomial_transform(a).terms

    def test_all_ones_k1(self):
        assert rising_k_binomial(seq(1, 1, 1, 1), 1).terms == seq(0, -1, 0, 0).terms

    def test_delta_at_one_k1(self):
        assert rising_k_binomial(seq(0, 1, 0, 0), 1).terms == seq(0, -1, -2, -3).terms


class TestHermite:
    def test_delta_gives_alpha_powers(self):
        p = TransformParams(3, 5)
        got = hermite_transform_seq(seq(1, 0, 0, 0, 0), p)
        assert got.terms == tuple(Fraction(3) ** n for n in range(5))

    def test_all_ones_gives_hermite_values(self):
        got = hermite_transform_seq(seq(1, 1, 1), TransformParams(1, 1))
        assert got.terms[2] == 3  # H_2(1,1) = 1 + 2

    def test_two_term_example(self):
        got = hermite_transform_seq(seq(1, 1, 0), TransformParams(2, 3))
        assert got.terms[2] == 10  # 4 + 2*3

    def test_complementary_all_ones(self):
        got = hermite_complementary_seq(seq(1, 1, 1), TransformParams(1, 1))
        assert got.terms[2] == 3

    def test_complementary_beta_zero_scales(self):
        a = seq(2, 3, 5, 7)
        got = hermite_complementary_seq(a, TransformParams(Fraction(1, 2), 0))
        assert got.terms == tuple(Fraction(1, 2) ** n * a[n] for n in range(4))

    def test_complementary_interleaved(self):
        got = hermite_complementary_seq(seq(1, 0, 1), TransformParams(1, 1))
        assert got.terms[2] == 3

    def test_transform_beta_zero_projects_onto_a0(self):
        a = seq(4, 9, 16)
        got = hermite_transform_seq(a, TransformParams(2, 0))
        assert got.terms == tuple(Fraction(2) ** n * 4 for n in range(3))

    def test_inverse_beta_zero(self):
        b = seq(3, 6, 12)
        got = hermite_inverse_seq(b, TransformParams(2, 0))
        assert got.terms == tuple(Fraction(2) ** -n * b[n] for n in range(3))

    def test_inverse_direct_sum(self):
        got = hermite_inverse_seq(seq(1, 0, 2), TransformParams(1, 1))
        assert got.terms[2] == 0  # 2 - 2*1

    def test_inverse_rejects_zero_alpha(self):
        with pytest.raises(InvalidParameterError):
            hermite_inverse_seq(seq(1, 2), TransformParams(0, 1))

    @given(sequences, rationals.filter(lambda a: a != 0), rationals)
    @settings(max_examples=60)
    def test_roundtrip_with_complementary(self, a, alpha, beta):
        p = TransformParams(alpha, beta)
        assert hermite_inverse_seq(hermite_complementary_seq(a, p), p).terms == a.terms


class TestLaguerre:
    def test_delta_gives_beta_powers(self):
        got = laguerre_transform_seq(seq(1, 0, 0, 0), TransformParams(7, 2))
        assert got.terms == tuple(Fraction(2) ** n for n in range(4))

    def test_all_ones_gives_classical_values(self):
        got = laguerre_transform_seq(seq(1, 1, 1), TransformParams(1, 1))
        assert got.terms[1] == 0
        assert got.terms[2] == Fraction(-1, 2)

    def test_alpha_zero_keeps_only_a0(self):
        got = laguerre_transform_seq(seq(5, 1, 1), TransformParams(0, 3))
        assert got.terms == tuple(Fraction(3) ** n * 5 for n in range(3))


class TestParams:
    def test_rejects_floats(self):
        with pytest.raises(InvalidParameterError):
            TransformParams(0.5, 1)

    def test_coerces_strings(self):
        assert TransformParams("3/4", 2) == TransformParams(Fraction(3, 4), Fraction(2))


@pytest.mark.parametrize("build", [
    lambda: Sequence.of([0.5]),
    lambda: TransformParams(0.5, 1),
    lambda: Sequence.of(["1/0"]),
    lambda: GaussianFunction(float("nan")),
    lambda: gaussian_taylor(float("nan"), 4),
    lambda: Stage("k-binomial", k=1.5).apply(seq(1, 2, 3)),
], ids=["float term", "float parameter", "zero denominator", "nan gaussian", "nan taylor", "fractional k"])
def test_bad_exact_input_raises_a_typed_error(build):
    with pytest.raises(InvalidParameterError):
        build()


class TestKernelOracle:
    @given(st.sampled_from(TRANSFORM_NAMES), structured_sequences(), params, params, st.integers(0, 3))
    @settings(max_examples=300, deadline=None)
    def test_every_transform_matches_its_double_sum(self, name, a, alpha, beta, k):
        # the inverses divide by beta^n and alpha^n
        assume(not (name == "modular-inverse" and beta == 0))
        assume(not (name == "hermite-inverse" and alpha == 0))
        got = Stage(name, alpha=alpha, beta=beta, k=k).apply(a)
        assert list(got.terms) == expected(name, a.terms, alpha, beta, k)


class TestCornerCases:
    """Parameter and length corners of the cleared-integer sides, against the double sums."""

    A = seq(3, "-1/2", "5/7", 0, "-11/13", 2, "1/997")

    @staticmethod
    def check(name, a, alpha=None, beta=None, k=None):
        got = Stage(name, alpha=alpha, beta=beta, k=k).apply(a).terms
        assert all(type(t) is Fraction for t in got)
        assert list(got) == expected(name, a.terms, alpha, beta, k)

    @pytest.mark.parametrize("name", TRANSFORM_NAMES)
    @pytest.mark.parametrize("term", [Fraction(0), Fraction(-7, 3)])
    def test_length_one(self, name, term):
        self.check(name, seq(term), Fraction(-5, 4), Fraction(2, 9), 2)

    @pytest.mark.parametrize("name", ["hermite", "hermite-complementary", "laguerre"])
    def test_alpha_zero(self, name):
        # the alpha-power side is 1, 0, 0, ...: 0^0 = 1 at j = 0
        self.check(name, self.A, Fraction(0), Fraction(-3, 5))

    @pytest.mark.parametrize("name", ["modular", "hermite", "laguerre"])
    def test_beta_zero(self, name):
        self.check(name, self.A, Fraction(7, 4), Fraction(0))

    @pytest.mark.parametrize("name", TRANSFORM_NAMES)
    @pytest.mark.parametrize("alpha,beta", [(Fraction(-997, 991), Fraction(-991, 997)),
                                            (Fraction(-3), Fraction(-997, 991)),
                                            (Fraction(-997, 991), Fraction(-2))])
    def test_negative_parameters_with_large_coprime_denominators(self, name, alpha, beta):
        self.check(name, self.A, alpha, beta, 3)

    def test_modular_inverse_rejects_zero_beta(self):
        with pytest.raises(InvalidParameterError):
            Stage("modular-inverse", alpha=Fraction(-997, 991), beta=Fraction(0)).apply(self.A)

    def test_hermite_inverse_rejects_zero_alpha(self):
        with pytest.raises(InvalidParameterError):
            Stage("hermite-inverse", alpha=Fraction(0), beta=Fraction(-997, 991)).apply(self.A)


@st.composite
def egf_factors(draw):
    """Two equal-length lists of ints and Fractions."""
    size = draw(st.integers(1, 24))
    entry = st.integers(-10 ** 6, 10 ** 6) | rationals
    return (draw(st.lists(entry, min_size=size, max_size=size)),
            draw(st.lists(entry, min_size=size, max_size=size)))


class TestEgfProduct:
    @given(egf_factors(), st.integers(1, 60))
    @settings(max_examples=100, deadline=None)
    def test_terms_are_reduced_fractions_of_the_double_sum(self, factors, c):
        # c only changes how the same sum is taken
        left, right = factors
        got = _egf_product(left, right, c).terms
        assert all(type(t) is Fraction and t.denominator > 0 and gcd(t.numerator, t.denominator) == 1
                   for t in got)
        assert list(got) == [sum(comb(n, j) * left[j] * right[n - j] for j in range(n + 1))
                             for n in range(len(left))]


@st.composite
def correlation_sides(draw):
    """phi and F with a run of zeros in each, a count and divisors: phi may be the
    longer side and the count may pass the end of F."""
    entry = st.integers(-10 ** 6, 10 ** 6) | rationals

    def side():
        values = draw(st.lists(entry, min_size=1, max_size=20))
        start = draw(st.integers(0, len(values)))
        stop = draw(st.integers(start, len(values)))
        return values[:start] + [0] * (stop - start) + values[stop:]

    phi, F = side(), side()
    count = draw(st.integers(0, len(F) + 4))
    divisors = draw(st.none() | st.lists(st.integers(1, 10 ** 4), min_size=count, max_size=count))
    return phi, F, count, divisors


class TestIntegerCorrelation:
    @given(correlation_sides())
    @settings(max_examples=150, deadline=None)
    def test_terms_are_reduced_fractions_of_the_double_sum(self, sides):
        phi, F, count, divisors = sides
        got = _integer_correlation(_cleared([1] * len(phi), phi), _cleared([1] * len(F), F), count, divisors)
        assert all(type(t) is Fraction and gcd(t.numerator, t.denominator) == 1 for t in got)
        assert list(got) == convolution_oracle.correlation(phi, F, count, divisors or [1] * count)


class TestCompose:
    @given(sequences)
    @settings(max_examples=30)
    def test_double_binomial_is_identity(self, a):
        assert Stage("binomial").apply(Stage("binomial").apply(a)).terms == a.terms

    def test_unknown_stage_rejected(self):
        with pytest.raises(InvalidParameterError):
            Stage("hankel").apply(seq(1))

    def test_stage_missing_param_rejected(self):
        with pytest.raises(InvalidParameterError):
            Stage("modular", alpha=Fraction(1)).apply(seq(1, 2))

    @given(sequences, rationals, rationals, rationals, rationals)
    @settings(max_examples=30)
    def test_derived_composite_closed_form_holds(self, a, alpha, beta, gamma, delta):
        # B(alpha,beta) after H(gamma,delta) equals one Hermite transform with
        # parameters (alpha - beta gamma, beta^2 delta), exactly
        sequential = modular_transform(hermite_transform_seq(a, TransformParams(gamma, delta)),
                                       TransformParams(alpha, beta))
        closed = hermite_transform_seq(a, TransformParams(alpha - beta * gamma, beta ** 2 * delta))
        assert sequential.terms == closed.terms


class TestExchangeFormat:
    def test_roundtrip(self):
        a = seq("1/3", -2, "7/5", 0)
        assert sequence_from_json(sequence_to_json(a)).terms == a.terms

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit cap")
    def test_concurrent_calls_restore_the_digit_cap(self):
        # each call lifts the process-wide cap and restores it; interleaved calls
        # must neither fail on a cap another call restored nor leave it lifted
        cap = sys.get_int_max_str_digits()
        big = Sequence.of([10 ** 5000 + n for n in range(4)])
        text = sequence_to_json(big)
        errors = []

        def work():
            try:
                for _ in range(20):
                    assert sequence_from_json(sequence_to_json(big)).terms == big.terms
                    assert sequence_to_json(sequence_from_json(text)) == text
            except Exception as exc:  # a worker's failure is reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert sys.get_int_max_str_digits() == cap

    def test_renders_integers_bare(self):
        assert sequence_to_json(seq(1, "1/2")) == '{"terms": ["1", "1/2"]}'

    def test_rejects_zero_denominator(self):
        with pytest.raises(SequenceFormatError):
            sequence_from_json('{"terms": ["1/0"]}')

    def test_rejects_bad_json_with_location(self):
        with pytest.raises(SequenceFormatError) as err:
            sequence_from_json('{"terms": [')
        assert err.value.line is not None

    def test_rejects_missing_terms(self):
        with pytest.raises(SequenceFormatError):
            sequence_from_json('{"values": ["1"]}')

    def test_rejects_float_terms(self):
        with pytest.raises(SequenceFormatError):
            sequence_from_json('{"terms": [1.5]}')

    def test_rejects_boolean_terms(self):
        with pytest.raises(SequenceFormatError):
            sequence_from_json('{"terms": [true, false, 3]}')
