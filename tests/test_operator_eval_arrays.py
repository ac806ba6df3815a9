"""The whole-array operator evaluations against their element-by-element forms
in `operator_eval_oracle`: values (signed zeros included), node counts,
convergence flags, warning counts and errors must be identical.  The
integro-differential route is held against its per-call form the same way."""
import warnings
from fractions import Fraction
from math import factorial, pi, sqrt

import numpy as np
import operator_eval_oracle as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from umbra import appell, opcalc, specfun
from umbra.errors import DivergenceError, InternalConsistencyError, TruncationError
from umbra.gftrans import PowerSeries
from umbra.opcalc import fourier
from umbra.opcalc.quadrature import QuadratureConvergenceWarning


def _user_taylor():
    # A = 1 / (1 + t^2/2): the reciprocal data is the polynomial 1 + t^2/2
    return appell.AppellFamily(
        "user-taylor", [Fraction((-1) ** (j // 2), 2 ** (j // 2)) if j % 2 == 0 else Fraction(0) for j in range(31)]
    )


FAMILIES = {
    "bernoulli": appell.bernoulli_family,
    "identity": appell.identity_family,
    "gauss-hermite-type": appell.gauss_hermite_family,
    "user-taylor": _user_taylor,
}


@pytest.fixture(scope="module")
def families():
    return {name: build() for name, build in FAMILIES.items()}


def _run(call):
    """(outcome, number of quadrature warnings); the outcome is the repr of the
    result or of the error, so signed zeros and messages count."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            outcome = repr(call())
        except (DivergenceError, TruncationError, InternalConsistencyError) as exc:
            outcome = f"{type(exc).__name__}: {exc}"
    return outcome, sum(issubclass(w.category, QuadratureConvergenceWarning) for w in caught)


def _expansion(fam, f, count):
    res = appell.expansion_coefficients(fam, f, count)
    return res.coefficients, res.node_counts, res.converged


@pytest.mark.parametrize("count", [1, 10, 24])
@pytest.mark.parametrize("scale", [Fraction(1, 16), Fraction(1, 8), Fraction(1), Fraction(8)])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_expansion_matches_per_order_integrals(families, family, scale, count):
    fam, f = families[family], appell.GaussianFunction(scale)
    assert _run(lambda: _expansion(fam, f, count)) == _run(lambda: ref.expansion_coefficients(fam, f, count))


def _error_families():
    exp_square = tuple(Fraction(1, factorial(j // 2)) if j % 2 == 0 else Fraction(0) for j in range(25))
    return [
        # 1/A(ik) = e^{k^2} outgrows every Gaussian: the probes reject order 0
        appell.AppellFamily("exp-square", exp_square, eval_inv=lambda z: np.exp(-z * z)),
        # 1/A = 1/(1 - t^2) has no converged Taylor data at |k| = 10
        appell.AppellFamily("user-taylor", [Fraction(1), Fraction(0), Fraction(-1)]),
        # 1/A(ik) = e^{3k/2}: against the widest Gaussian the probes reject order 2
        appell.AppellFamily("tilted", (Fraction(1),), eval_inv=lambda z: np.exp(-1.5j * z)),
    ]


@pytest.mark.parametrize("fam", _error_families(), ids=lambda fam: fam.name)
@pytest.mark.parametrize("scale", [Fraction(1, 8), Fraction(8)])
def test_expansion_errors_match(fam, scale):
    f = appell.GaussianFunction(scale)
    assert _run(lambda: _expansion(fam, f, 24)) == _run(lambda: ref.expansion_coefficients(fam, f, 24))


def test_coefficient_cap_error_matches(families):
    f = appell.GaussianFunction(Fraction(1))
    got = _run(lambda: _expansion(families["bernoulli"], f, 25))
    assert got == _run(lambda: ref.expansion_coefficients(families["bernoulli"], f, 25))
    assert got[0].startswith("TruncationError")


def test_expansion_reports_unconverged_orders(families):
    # the widest Gaussian leaves gauss-hermite-type's even orders from 6 on unconfirmed at the cap
    for family, unconverged in (("gauss-hermite-type", list(range(6, 25, 2))), ("identity", [9, 19, 23])):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = appell.expansion_coefficients(families[family], appell.GaussianFunction(8), 24)
        assert [n for n, ok in enumerate(res.converged) if not ok] == unconverged
        assert all(res.node_counts[n] == 1024 for n in unconverged)
        assert len(caught) == len(unconverged)


@pytest.mark.parametrize("integrand", [
    lambda u: np.exp(-(u ** 2)),
    lambda u: np.cos(3 * u) + 1j * u ** 3,
    lambda u: 2.5,
    lambda u: np.exp(-((u * 3000.0) ** 2) % 7.0),  # never converges
], ids=["gaussian", "complex", "constant", "spike"])
def test_adaptive_hermite_matches_its_own_loop(integrand):
    assert _run(lambda: opcalc.adaptive_hermite(integrand)) == _run(lambda: ref.adaptive_hermite(integrand))


def _counting_rows():
    """(g, calls): g gives the rows `active` at the nodes k, rows 1 and 3 a spike
    that never converges and the others a Gaussian; calls records (node count,
    active rows) of each call."""
    spike = lambda u: np.exp(-((u * 3000.0) ** 2) % 7.0)  # noqa: E731
    calls = []

    def g(k, active):
        calls.append((len(k), active.tolist()))
        return np.array([spike(k) if r in (1, 3) else np.exp(-k * k) for r in active])

    return g, calls


def test_first_two_rules_share_one_integrand_call():
    # a converging stack stops at 256 nodes after one call on the 128 + 256 nodes
    g, calls = _counting_rows()
    assert [res.node_count for res in opcalc.gaussian_fourier_rows(2.0, g, 1)] == [256]
    assert calls == [(384, [0])]


def test_later_rules_take_the_rows_still_doubling():
    g, calls = _counting_rows()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = opcalc.gaussian_fourier_rows(2.0, g, 5)
    assert [res.node_count for res in results] == [256, 1024, 256, 1024, 256]
    assert [str(w.message).split(" (")[-1] for w in caught] == ["integrand 1 of 5)", "integrand 3 of 5)"]
    assert calls == [(384, [0, 1, 2, 3, 4]), (512, [1, 3]), (1024, [1, 3])]


def test_empty_stack_never_calls_the_integrand():
    g, calls = _counting_rows()
    assert opcalc.gaussian_fourier_rows(2.0, g, 0) == ()
    assert calls == []


def test_rows_warn_once_per_unconverged_row():
    spike = lambda u: np.exp(-((u * 3000.0) ** 2) % 7.0)  # noqa: E731
    rows = lambda k, active: np.array([spike(k) if r % 2 else np.exp(-k * k) for r in active])  # noqa: E731
    got = _run(lambda: opcalc.gaussian_fourier_rows(2.0, rows, 5))
    single = _run(lambda: tuple(opcalc.gaussian_fourier_integral(2.0, spike if r % 2 else lambda k: np.exp(-k * k))
                                for r in range(5)))
    assert got == single
    assert got[1] == 2


@pytest.mark.parametrize("family", list(FAMILIES))
def test_shorter_expansion_is_a_prefix(families, family):
    # the Eq. 61 row takes its count-16 sums from the first 17 coefficients of its count-20 expansion
    f = appell.GaussianFunction(Fraction(1))
    short = _run(lambda: _expansion(families[family], f, 16))
    assert short == _run(lambda: tuple(part[:17] for part in _expansion(families[family], f, 20)))


def _pauli_two_integrals(symbol, omega):
    """matrix_function_pauli with one doubling loop per part: (matrix as lists, node counts)."""
    parts = [opcalc.gaussian_fourier_integral(symbol.gauss_coeff, lambda k, f=f: symbol.envelope(k) * f(omega * k))
             for f in (np.cos, np.sin)]
    cos_part, sin_part = (res.value / sqrt(2.0 * pi) for res in parts)
    return [[cos_part, -sin_part], [sin_part, cos_part]], [res.node_count for res in parts]


PAULI_SYMBOLS = {
    "gaussian 1": lambda: opcalc.gaussian_symbol(1.0),
    "gaussian 16": lambda: opcalc.gaussian_symbol(16.0),
    "cos-gaussian 1": lambda: opcalc.cos_gaussian_symbol(1.0),
    "cos-gaussian 4": lambda: opcalc.cos_gaussian_symbol(4.0),
}


# the cos part needs 512 or 1024 nodes at the widest phases, the sin part 256
@pytest.mark.parametrize("omega", [0.0, 0.7, 2.0, 5.0, 20.0])
@pytest.mark.parametrize("symbol", list(PAULI_SYMBOLS))
def test_pauli_rows_match_two_integrals(symbol, omega, monkeypatch):
    # the cos and sin parts share one gaussian_fourier_rows call: values and node counts as before
    sym, counts, rows = PAULI_SYMBOLS[symbol](), [], fourier.gaussian_fourier_rows

    def recording(*args):
        results = rows(*args)
        counts.extend(res.node_count for res in results)
        return results

    monkeypatch.setattr(fourier, "gaussian_fourier_rows", recording)
    got = _run(lambda: (opcalc.matrix_function_pauli(sym, omega).tolist(), counts))
    assert got == _run(lambda: _pauli_two_integrals(sym, omega))


@pytest.mark.parametrize("beta", [0.0, 0.02, 0.5, 2.0])
@pytest.mark.parametrize("m, degree", [(2, 40), (4, 81)])
def test_integro_oracle_matches_per_element_scaling(m, degree, beta):
    f_ord = [float(c) for c in opcalc.c0_series(degree)]
    for x in (0.0, 0.2, 0.5):
        for tau in (0.0, 0.1, 0.5):
            got = _run(lambda: opcalc.integro_matrix_oracle(f_ord, beta, m, tau, x, degree))
            assert got == _run(lambda: ref.integro_matrix_oracle(f_ord, beta, m, tau, x, degree))


_unit = st.floats(-1.0, 1.0, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.builds(complex, _unit, _unit), max_size=171), st.sampled_from([2, 4, 6, 8]),
       st.floats(0.0, 5.0), st.floats(-1.0, 1.0), st.integers(-5, 5))
# signed zeros: -0 in a sum meets underflowed terms, once after the terms run out
@example([complex(-0.0, 1e-300), complex(-1e-300, 1), -1 + 1j, -2 + 0j, complex(1e-300, 0.5), -2 + 0j],
         4, 1e-200, -0.0, 0)
@example([complex(-0.0, -0.0), complex(-1, 1e-300), complex(0.5, 1e-300), complex(-0.0, 1), 1 - 1j, -1 + 1j,
          1 - 1j, 0.5 + 0j], 8, 1e-200, -0.0, 2)
def test_integro_oracle_beta_zero_pass_matches_order_loop(coeffs, m, tau, x, past_end):
    # the beta = 0 sum in one pass against the loop that adds one order at a time,
    # with the degree cap on both sides of the series' end
    cap = min(max(len(coeffs) - 1 + past_end, 0), specfun.FACTORIAL_DEGREE_MAX)
    got = _run(lambda: opcalc.integro_matrix_oracle(coeffs, 0.0, m, tau, x, cap))
    assert got == _run(lambda: ref.integro_matrix_oracle(coeffs, 0.0, m, tau, x, cap))


@pytest.mark.parametrize("degree, reason", [(121, "cancels"), (161, "not converged")])
def test_integro_oracle_errors_match(degree, reason):
    # m = 4 just below the switch to the eigensystem: the Taylor sum gives up
    f_ord = [float(c) for c in opcalc.c0_series(degree)]
    got = _run(lambda: opcalc.integro_matrix_oracle(f_ord, 0.039, 4, 0.5, 0.5, degree))
    assert got == _run(lambda: ref.integro_matrix_oracle(f_ord, 0.039, 4, 0.5, 0.5, degree))
    assert got[0].startswith("TruncationError") and reason in got[0]


def test_integro_oracle_short_and_rational_input():
    # fewer coefficients than the basis, and exact input converted as complex() does
    f = [Fraction(1), Fraction(-1, 3), Fraction(2, 7)]
    for beta in (0.0, 0.02, 1.0):
        got = opcalc.integro_matrix_oracle(f, beta, 2, 0.3, 0.4, 12)
        assert repr(got) == repr(ref.integro_matrix_oracle(f, beta, 2, 0.3, 0.4, 12))


def test_integro_oracle_takes_the_complex_view():
    # the CLI and the catalog pass the series' complex view where floats were passed
    f = PowerSeries(opcalc.c0_series(40), "ordinary")
    floats = [float(c) for c in f.coeffs]
    for beta in (0.0, 0.02, 0.5, 1.0):
        for x, tau in ((0.0, 0.0), (0.125, 0.25), (0.5, 0.5)):
            got = opcalc.integro_matrix_oracle(f.complex_coeffs, beta, 2, tau, x, 40)
            assert repr(got) == repr(opcalc.integro_matrix_oracle(floats, beta, 2, tau, x, 40))


@pytest.mark.parametrize("beta", [0.0, 0.25, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("m, degree", [(2, 40), (2, 81), (4, 81), (6, 97)])
def test_integro_route_matches_per_call_form(m, degree, beta):
    f = PowerSeries(opcalc.c0_series(degree), "ordinary")
    grid = [(x, tau) for x in (0.0, 0.3, -0.5) for tau in (0.0, 1e-9, 0.2, 0.5)] if m == 2 else \
        [(0.0, 0.0), (0.5, 0.1), (0.25, 0.3)]
    for x, tau in grid:
        got = opcalc.integro_diff_evolve(f, beta, m, tau, x)
        assert repr(got) == repr(ref.integro_diff_evolve(f.coeffs, beta, m, tau, x))


series_coefficients = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=30), min_size=1, max_size=30
)


@settings(max_examples=40, deadline=None)
@given(
    coeffs=series_coefficients,
    beta=st.sampled_from([0.0, 0.5, 2.0]),
    x=st.floats(-0.5, 0.5),
    tau=st.floats(0.0, 0.5),
)
def test_integro_m2_matches_per_call_form_on_random_series(coeffs, beta, x, tau):
    got = opcalc.integro_diff_evolve(PowerSeries(coeffs, "ordinary"), beta, 2, tau, x)
    assert repr(got) == repr(ref.integro_diff_evolve(coeffs, beta, 2, tau, x))


@settings(max_examples=10, deadline=None)
@given(
    head=st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=30), min_size=1, max_size=8),
    beta=st.sampled_from([0.0, 0.5, 1.0]),
    x=st.floats(-0.5, 0.5),
    tau=st.floats(0.1, 0.3),
)
def test_integro_m4_matches_per_call_form_on_random_series(head, beta, x, tau):
    # the beta > 0 rule needs coefficients through degree 81; the tail carries C_0's
    coeffs = list(head) + list(opcalc.c0_series(81)[len(head):])
    got = opcalc.integro_diff_evolve(PowerSeries(coeffs, "ordinary"), beta, 4, tau, x)
    assert repr(got) == repr(ref.integro_diff_evolve(coeffs, beta, 4, tau, x))


@pytest.mark.parametrize("n", [0, 1, 3])
@pytest.mark.parametrize("x", [
    np.array([0.0]),
    np.array([0.0, 2.5, -30.0, 400.0, 1e3j, 2 + 3j, -900.0]),
    np.linspace(-50.0, 50.0, 41),
    np.array([[0.5, -7.5j], [12.0, 0.0]]),
    0.0, 0.3, 1e-9, -7.5j, 400.0,
], ids=["zero", "mixed", "real-line", "2d", "scalar-zero", "scalar", "scalar-tiny", "scalar-imaginary",
        "scalar-large"])
def test_tricomi_matches_per_step_reductions(n, x):
    got, want = specfun.tricomi_c(n, x), ref.tricomi_c(n, x)
    assert type(got) is type(want)
    assert repr(np.asarray(got).tolist()) == repr(np.asarray(want).tolist())


@pytest.mark.parametrize("x", [np.array([0.0, np.nan, 400.0]), float("nan"), complex(1.0, float("nan"))])
def test_tricomi_nan_still_raises(x):
    for fn in (specfun.tricomi_c, ref.tricomi_c):
        with pytest.raises(InternalConsistencyError):
            fn(0, x)
