"""The identity-check registry: statuses, errata rows, overrides."""
import json
import warnings
from fractions import Fraction

import convolution_oracle
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from umbra import checks
from umbra import gftrans as gf
from umbra import seqcore as sq
from umbra.cli import main
from umbra.errors import InvalidParameterError
from umbra.seqcore import Sequence

rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=40)


def test_suite_names_include_all():
    names = checks.suite_names()
    assert "all" in names and "involution" in names and "disentangle" in names


def test_unknown_suite_rejected():
    with pytest.raises(InvalidParameterError):
        checks.resolve_suites("hankel")


@pytest.mark.parametrize("order", [0, checks.MAX_ORDER + 1])
def test_order_outside_the_verified_range_raises(order):
    # the bound holds for every caller, not only for `check --order`
    for run in (checks.resolve_suites, checks.run_selected):
        with pytest.raises(InvalidParameterError, match="between 1 and"):
            run("gftrans", order=order)


@pytest.mark.parametrize("transform", [sq.hermite_transform_seq, sq.laguerre_transform_seq])
@pytest.mark.parametrize("kind", ["ordinary", "exponential"])
def test_direct_side_converted_once_is_bit_identical(transform, kind):
    # the master cases evaluate the transformed sequence's series from terms converted once;
    # the evaluators convert each exact term on every call
    transformed = transform(checks.MASTER_SEQUENCES[4].build(64), sq.TransformParams(Fraction(3, 4), Fraction(-1, 2)))
    direct = gf.sequence_series(transformed, kind)
    points = checks.sample_points(0.45)
    assert len(points) == 20
    for x in points:
        assert direct(x) == gf._EVALUATORS[kind](transformed.terms, x)


def test_every_check_appears_once_in_all():
    rows = checks.resolve_suites("all")
    names = [(suite, check.name) for suite, check in rows]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("suite", ["involution", "modular", "hermite", "disentangle", "weyl-borel"])
def test_suites_pass_with_flagged_errata_only(suite):
    results = checks.run_selected(suite)
    statuses = {r.status for _, r in results}
    assert statuses <= {"pass", "flagged-errata"}


def test_catalog_runs_without_warnings():
    # the default run raises no warning of any kind: none is recorded, none swallowed
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = checks.run_selected("all")
    assert [str(w.message) for w in caught] == []
    statuses = [r.status for _, r in results]
    assert (statuses.count("pass"), statuses.count("flagged-errata")) == (53, 10)


@pytest.mark.parametrize("offset", [0.0, 1e-9])
def test_tricomi_spot_row_sees_a_small_route_error(monkeypatch, offset):
    # the row compares with the series solution, not a 7-digit constant, so a
    # route error far below the constant's rounding (1.7e-8) fails it
    route = checks.oc.tricomi_evolution
    monkeypatch.setattr(checks.oc, "tricomi_evolution", lambda x, tau: route(x, tau) + offset)
    (row,) = [chk for _, chk in checks.resolve_suites("tricomi") if chk.name == "evolution spot value F(1,1)"]
    assert checks.run_check(row).status == ("fail" if offset else "pass")


def _only_row(suite: str, name: str) -> checks.Check:
    (row,) = [chk for _, chk in checks.resolve_suites(suite) if chk.name == name]
    return row


def _assert_fails_with_nan(row: checks.Check) -> None:
    result = checks.run_check(row)
    assert result.status == "fail" and np.isnan(result.residual), result


def test_eq55_grid_row_fails_on_one_nan_point(monkeypatch):
    # the sweep's maximum must not drop a NaN at (x, tau) = (1/2, 1/2)
    route = checks.oc.tricomi_evolution
    monkeypatch.setattr(checks.oc, "tricomi_evolution",
                        lambda x, tau: float("nan") if (x, tau) == (0.5, 0.5) else route(x, tau))
    _assert_fails_with_nan(_only_row("tricomi", "evolution quadrature vs series"))


def test_master_row_fails_on_one_nan_sample_point(monkeypatch):
    # the Eq. 9 closed form is NaN at one sample point of the first test sequence
    case = checks.master_cases()[0]
    point = checks.sample_points(case.radius(checks.MASTER_SEQUENCES[0]))[3]
    bind = gf.Form.bind

    def nan_at_one_point(form, a):
        closed = bind(form, a)
        return lambda x: complex("nan") if x == point else closed(x)

    monkeypatch.setattr(gf.Form, "bind", nan_at_one_point)
    _assert_fails_with_nan(_only_row("gftrans", case.label))


def test_pauli_row_fails_on_one_nan_oracle_value(monkeypatch):
    spectral = checks.oc.pauli_spectral
    monkeypatch.setattr(checks.oc, "pauli_spectral",
                        lambda func, omega: spectral(func, omega) * (np.nan if omega == 0.7 else 1.0))
    _assert_fails_with_nan(_only_row("pauli", "matrix function vs spectral oracle"))


def test_disentangle_reports_two_errata_rows(recwarn):
    results = checks.run_selected("disentangle")
    errata = [r for _, r in results if r.status == "flagged-errata"]
    assert len(errata) == 2
    assert {r.equation for r in errata} == {"Eq. 72", "Eq. 75"}
    assert all(r.residual > 0 for r in errata)


def test_errata_rows_never_fail_suite():
    results = checks.run_selected("hermite")
    assert all(r.status in ("pass", "flagged-errata") for _, r in results)
    assert any(r.status == "flagged-errata" for _, r in results)


def _errata_rows() -> dict:
    return {check.equation: check for _, check in checks.resolve_suites("all") if check.errata}


@pytest.mark.parametrize("equation,residual", [
    ("Eq. 32", 254.0),
    ("Eq. 72", 2042880.0),
    ("Eq. 75", 0.07390544488553108),
    ("footnote 6", 1.0),
])
def test_printed_variant_residuals(equation, residual):
    # each errata row builds the printed variant itself and measures its discrepancy, bit for bit
    assert _errata_rows()[equation].run().residual == residual


def test_every_errata_row_is_above_the_floor():
    rows = _errata_rows()
    assert len(rows) == 10
    assert all(row.run().residual >= checks.ERRATA_FLOOR for row in rows.values())


def test_errata_row_with_derived_constants_is_stale(monkeypatch, capsys):
    # with the derived phase 1/3 and unit shift the Eq. 75 row agrees with the Taylor
    # oracle to rounding: it no longer documents a misprint, and that fails the run
    monkeypatch.setattr(checks, "_EQ75_PRINTED_PHASE", 1.0 / 3.0)
    monkeypatch.setattr(checks, "_EQ75_PRINTED_SHIFT", 1.0)
    result = checks.run_check(_errata_rows()["Eq. 75"])
    assert result.status == "stale-errata"
    assert result.residual < 1e-15
    assert main(["check", "--suite", "disentangle"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert [c["status"] for c in doc["checks"]] == ["pass", "pass", "flagged-errata", "stale-errata"]


def test_errata_row_with_nan_residual_is_stale():
    row = checks.Check("nan discrepancy", "Eq. 0", 0.0, lambda: checks.Outcome(float("nan")), errata=True)
    assert checks.run_check(row).status == "stale-errata"


def test_tolerance_override_applies_to_inexact_checks():
    # an absurdly large override turns every non-exact check green
    results = checks.run_selected("heat", tolerance_override=10.0)
    assert all(r.tolerance == 10.0 for _, r in results)


def test_master_case_runner_reports_worst_point():
    case = checks.master_cases()[0]
    outcome = checks.run_master_case(case, order=48)
    assert outcome.residual < 1e-10
    assert "worst" in outcome.detail


@pytest.mark.parametrize("order", [4, 16])
def test_master_budgets_are_rigorous(order):
    # 100 more input terms move the closed form by at most closed_tail, and the direct
    # series of |transformed majorant|, 100 terms longer, stays below direct_total;
    # the majorant with alternating signs is transformed too, since a signed
    # transform cancels on M rho^n and reaches only part of the total
    cases = [(case, checks.MASTER_SEQUENCES) for case in checks.master_cases()]
    cases += [(case, checks.K_BINOMIAL_SEQUENCES) for k in range(4) for case in checks._k_binomial_cases(k)]
    assert len(cases) == 16
    for case, sequences in cases:
        for ts in sequences:
            r = case.radius(ts)
            short, long = case.form.bind(ts.build(order)), case.form.bind(ts.build(order + 100))
            for x in checks.sample_points(r):
                value = long(x)
                slack = checks._FLOAT_SLACK * (abs(value) + 1)
                assert abs(value - short(x)) <= case.closed_tail(ts, abs(x), order) + slack, (case.label, ts.label, x)
            majorant = ts.majorant(order + 100)
            alternated = Sequence.of((-1) ** n * t for n, t in enumerate(majorant.terms))
            reached = max(
                checks._partial_weighted((case.transform_majorant or case.transform)(b), r, case.kind)
                for b in (majorant, alternated)
            )
            assert reached <= case.direct_total(ts, r) * (1 + 1e-12), (case.label, ts.label)


def test_partial_weighted_sums_absolute_terms():
    # the kept part of the direct-side majorant is sign-free: 1 + |-1| / 2
    assert checks._partial_weighted(Sequence.of([1, -1]), 0.5, "ordinary") == 1.5


def test_seed_changes_random_draws_not_status():
    a = checks.run_selected("involution", seed=1)
    b = checks.run_selected("involution", seed=2)
    assert [r.status for _, r in a] == [r.status for _, r in b]


def _raising_check(errata=False):
    def run():
        raise ZeroDivisionError("deliberate")

    return checks.Check("deliberately raising", "Eq. 0", 1e-10, run, errata=errata)


@pytest.mark.parametrize("errata", [False, True])
def test_raising_check_becomes_error_row(errata):
    result = checks.run_check(_raising_check(errata))
    assert result.status == "error"
    assert result.detail == "ZeroDivisionError: deliberate"


def test_error_row_fails_the_run_and_keeps_the_report(monkeypatch, capsys):
    build_suites = checks.build_suites

    def with_raising_row(*args, **kwargs):
        suites = build_suites(*args, **kwargs)
        suites["heat"] = [_raising_check()] + suites["heat"]
        return suites

    monkeypatch.setattr(checks, "build_suites", with_raising_row)
    assert main(["check", "--suite", "heat"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert [c["status"] for c in doc["checks"]] == ["error", "pass", "pass"]


@given(st.lists(rationals, min_size=1, max_size=40), st.integers(0, 3))
@settings(max_examples=100, deadline=None)
def test_k_binomial_majorant_matches_double_sum(terms, k):
    want = convolution_oracle.abs_k_transform(terms, k)
    for case in checks._k_binomial_cases(k):
        assert list(case.transform_majorant(Sequence.of(terms)).terms) == want


@given(rationals, rationals, st.integers(0, 60))
@settings(max_examples=100, deadline=None)
def test_shifted_gaussian_taylor_matches_double_sum(scale, shift, order):
    want = convolution_oracle.shifted_gaussian_taylor(scale, shift, order)
    assert checks._shifted_gaussian_taylor(scale, shift, order) == want


def test_eq89_rows_keep_their_residuals():
    # the two non-even Eq. 89 rows share one oracle; both residuals are pinned bit for bit
    rows = {c.name: c for _, c in checks.resolve_suites("umbral")}
    assert repr(rows["umbral transform, non-even symbol"].run().residual) == "4.440892098500626e-16"
    assert repr(rows["printed denominator sign"].run().residual) == "0.02700923106491615"


def test_j0_trapezoid_matches_scipy():
    # the Eq. 36 row's oracle on the arguments 2 sqrt(x), x in [0, 1/2], that it sees
    for z in np.linspace(0.0, np.sqrt(2.0), 101):
        assert abs(checks._bessel_j0(z) - scipy.special.j0(z)) <= 4.5e-16


#: (suite, name, status, repr(residual), detail) at the default seed and order of every
#: row that evaluates the truncation tails or states an identity in checks itself
_PINNED_ROWS = [
    ("involution", "function-level involution of the closed form", "pass", "4.441434166503682e-16", ""),
    ("kbinomial", "rising 0-binomial, ordinary closed form", "pass", "2.2591401799415137e-16",
     "worst: geometric-2 at x=0.173-0.1j"),
    ("kbinomial", "rising 0-binomial, exponential closed form", "pass", "3.664190261084146e-16",
     "worst: geometric-2 at x=-0.2+0.346j"),
    ("kbinomial", "rising 1-binomial, ordinary closed form", "pass", "1.7554167342883506e-16",
     "worst: geometric-2 at x=-0.173+0.1j"),
    ("kbinomial", "rising 1-binomial, exponential closed form", "pass", "3.510833468576701e-16",
     "worst: geometric-2 at x=-0.2+0.346j"),
    ("kbinomial", "rising 2-binomial, ordinary closed form", "pass", "3.3306690738754696e-16",
     "worst: linear at x=-0.286+3.5e-17j"),
    ("kbinomial", "rising 2-binomial, exponential closed form", "pass", "3.2529802841962337e-16",
     "worst: geometric-2 at x=-0.2+0.346j"),
    ("kbinomial", "rising 3-binomial, ordinary closed form", "pass", "7.355227538141662e-15",
     "worst: ones at x=0.333+0j"),
    ("kbinomial", "rising 3-binomial, exponential closed form", "pass", "4.590651162634715e-16",
     "worst: geometric-2 at x=-0.346-0.2j"),
    ("gftrans", "binomial transform, ordinary closed form", "pass", "2.237726045655905e-16",
     "worst: geometric-2 at x=-3.18e-17-0.173j"),
    ("gftrans", "binomial transform, exponential closed form", "pass", "6.000001325187846e-16",
     "worst: harmonic at x=0.208-0.0861j"),
    ("gftrans", "modular transform, ordinary closed form", "pass", "3.229497895144947e-16",
     "worst: alternating-half at x=0.39-0.225j"),
    ("gftrans", "modular transform, exponential closed form", "pass", "5.883292200762792e-16",
     "worst: harmonic at x=0.0861-0.208j"),
    ("gftrans", "hermite transform (standard), closed form", "pass", "6.929550416236011e-16",
     "worst: geometric-2 at x=0.39-0.225j"),
    ("gftrans", "hermite transform (complementary), closed form", "pass", "5.898524686200832e-16",
     "worst: alternating-half at x=-0.208-0.0861j"),
    ("gftrans", "laguerre transform, ordinary closed form", "pass", "5.421578130536614e-16",
     "worst: geometric-2 at x=-0.225-0.39j"),
    ("gftrans", "laguerre transform, exponential closed form", "pass", "6.146464501791508e-16",
     "worst: alternating-half at x=0.0861-0.208j"),
    ("hermite", "hermite addition theorem", "pass", "0.0", "addition theorem, exact over random rationals"),
    ("hermite", "derived composite closed form", "pass", "0.0", "B(a,b) after H(g,d) = H(a-bg, b^2 d), exact"),
    ("disentangle", "weyl decoupling rule", "pass", "0.0", "order-8 expansion on monomials up to degree 8"),
    ("disentangle", "cubic disentanglement, derived constant", "pass", "0.0",
     "order-8 expansion with the derived commutator constant"),
    ("weyl-borel", "laguerre-derivative commutator", "pass", "0.0", "[LD, D^{-1}] = 1 on f(0) = 0 polynomials, exact"),
    ("weyl-borel", "right-inverse defect off f(0)=0", "flagged-errata", "1.0",
     "f = 1 + x: constant defect -1 demonstrates the f(0)=0 restriction"),
    ("appell", "generating product, both signs", "pass", "4.440892098500626e-16", "Bernoulli family, both signs, N = 30"),
    ("appell", "umbral composition", "pass", "0.0", "A(d) [1/A(d)] x^n = x^n, exact"),
    ("appell", "reconstruction residual decreases", "pass", "6.253537280431765e-05",
     "sup-residual decreases: 8.23e-05 -> 6.25e-05"),
    ("umbral", "umbral gaussian evolution bridge", "pass", "1.3322676295501878e-15",
     "umbral Gaussian evolution vs closed form"),
]


@pytest.mark.parametrize("suite,name,status,residual,detail", _PINNED_ROWS,
                         ids=[row[1] for row in _PINNED_ROWS])
def test_identity_rows_keep_their_results_bit_for_bit(suite, name, status, residual, detail):
    (row,) = [check for s, check in checks.resolve_suites(suite) if s == suite and check.name == name]
    result = checks.run_check(row)
    assert (result.status, repr(result.residual), result.detail) == (status, residual, detail)
