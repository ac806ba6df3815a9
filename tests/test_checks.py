"""The identity-check registry: statuses, errata rows, exact rows."""
import json
from fractions import Fraction

import convolution_oracle
import numpy as np
import pytest
from catalog_table import read_table
from hypothesis import assume, example, given, settings
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
    # given the exact terms, the evaluators convert each one where it meets a complex number
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
    route = checks.oc.tricomi_evolution_points
    monkeypatch.setattr(checks.oc, "tricomi_evolution_points", lambda points: [
        float("nan") if point == (0.5, 0.5) else value for point, value in zip(points, route(points))])
    _assert_fails_with_nan(_only_row("tricomi", "evolution quadrature vs series"))


def test_master_row_fails_on_one_nan_sample_point(monkeypatch):
    # the Eq. 9 closed form is NaN at one sample point of the first test sequence
    case = checks.master_cases()[0]
    point = checks.sample_points(case.radius(case.sequences[0]))[3]
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


def test_eq64_row_errors_on_a_short_oracle(monkeypatch):
    # route and oracle are paired strictly: an oracle two coefficients short is an
    # error row, not a comparison of the first nine orders
    operational = checks.ap.operational_coefficients
    monkeypatch.setattr(checks.ap, "operational_coefficients", lambda *args: operational(*args)[:-2])
    result = checks.run_check(_only_row("appell", "expansion coefficients vs operational oracle"))
    assert result.status == "error" and "zip()" in result.detail, result


def _errata_rows() -> dict:
    return {check.equation: check for _, check in checks.resolve_suites("all") if check.errata}


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


def _bumped(result):
    """A library result that breaks its identity: the first term moved by one."""
    if isinstance(result, Sequence):
        return Sequence.of([result.terms[0] + 1, *result.terms[1:]])
    return (result[0] + 1, *result[1:])


@pytest.mark.parametrize("module, function, row", [
    (checks.sq, "binomial_transform", "binomial involution on random rationals"),
    (checks.oc, "borel_transform", "borel transform of C_0"),
    (checks.oc, "exp_laguerre_derivative", "laguerre-derivative exponential, dual routes"),  # tolerance 1e-10
    (checks.ap, "appell_poly", "bernoulli quadratic polynomial"),
], ids=["Eq. 5b", "Eq. 85 Borel", "Eq. 85 dual routes", "Eq. 60"])
def test_exact_row_fails_when_its_identity_breaks(monkeypatch, module, function, row):
    # an exact row's failure return carries residual 1.0, above its tolerance, so that alone fails the row
    [check] = [check for _, check in checks.resolve_suites("all") if check.name == row]
    original = getattr(module, function)
    monkeypatch.setattr(module, function, lambda *args: _bumped(original(*args)))
    result = checks.run_check(check)
    assert (result.status, result.residual) == ("fail", 1.0)


def test_master_case_runner_reports_worst_point():
    case = checks.master_cases()[0]
    outcome = checks.run_master_case(case, order=48)
    assert outcome.residual < 1e-10
    assert "worst" in outcome.detail


#: the longest side the budgets are compared with: from order 266 on, the Hermite
#: case's transformed majorant overflows a float
_LONG_ORDER_CAP = 265


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 15), st.integers(1, checks.MAX_ORDER))
@example(0, 4)
@example(15, 16)
@example(7, checks.MAX_ORDER)
def test_master_budgets_are_rigorous(index, order):
    # up to 100 more input terms move the closed form by at most closed_tail, and the direct
    # series of |transformed majorant|, as long, stays below direct_total;
    # the majorant with alternating signs is transformed too, since a signed
    # transform cancels on M rho^n and reaches only part of the total
    cases = checks.master_cases() + [case for k in range(4) for case in checks._k_binomial_cases(k)]
    assert len(cases) == 16
    case = cases[index]
    # a form's r-th derivative needs more than r terms
    assume(max(t.r for t in case.form.terms) <= order)
    long_order = min(order + 100, _LONG_ORDER_CAP)
    for ts in case.sequences:
        r = case.radius(ts)
        short, long = case.form.bind(ts.build(order)), case.form.bind(ts.build(long_order))
        for x in checks.sample_points(r):
            value = long(x)
            slack = checks._FLOAT_SLACK * (abs(value) + 1)
            assert abs(value - short(x)) <= case.closed_tail(ts, abs(x), order) + slack, (case.label, ts.label, x)
        majorant = ts.majorant(long_order)
        alternated = Sequence.of((-1) ** n * t for n, t in enumerate(majorant.terms))
        reached = max(
            checks._partial_weighted((case.transform_majorant or case.transform)(b).terms, r, case.form.kind)
            for b in (majorant, alternated)
        )
        assert reached <= case.direct_total(ts, r) * (1 + 1e-12), (case.label, ts.label)


def test_partial_weighted_sums_absolute_terms():
    # the kept part of the direct-side majorant is sign-free: 1 + |-1| / 2
    assert checks._partial_weighted(Sequence.of([1, -1]).terms, 0.5, "ordinary") == 1.5


def test_seed_changes_random_draws_not_status():
    a = checks.run_selected("involution", seed=1)
    b = checks.run_selected("involution", seed=2)
    assert [r.status for _, r in a] == [r.status for _, r in b]


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_catalog_statuses_hold_at_any_seed(seed):
    # the contract is not fitted to its default seed: every row keeps the status of the
    # committed table (53 pass and 10 flagged-errata, no error row) at a drawn seed
    assert [(r.name, r.status) for _, r in checks.run_selected("all", seed=seed)] == \
        [(row["name"], row["status"]) for row in read_table()]


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


def test_shifted_gaussian_taylor_edges():
    # order 0 is the constant 1, order 1 adds a = 2 scale shift; at shift 0 the odd
    # coefficients vanish and the even ones are (-scale)^r / r!
    assert checks._shifted_gaussian_taylor(Fraction(1, 32), Fraction(1, 2), 0) == (1,)
    assert checks._shifted_gaussian_taylor(Fraction(1, 32), Fraction(1, 2), 1) == (1, Fraction(1, 32))
    got = checks._shifted_gaussian_taylor(Fraction(2, 3), 0, 6)
    assert got == (1, 0, Fraction(-2, 3), 0, Fraction(2, 9), 0, Fraction(-4, 81))
    assert all(type(t) is Fraction for t in got)


#: the rows that share exact work with the other row of their pair in one run
_PAIRED_ROWS = [
    ("gftrans", "binomial transform, ordinary closed form", "binomial transform, exponential closed form"),
    ("gftrans", "laguerre transform, ordinary closed form", "laguerre transform, exponential closed form"),
] + [
    ("kbinomial", f"rising {k}-binomial, ordinary closed form", f"rising {k}-binomial, exponential closed form")
    for k in range(4)
] + [("umbral", "umbral transform, non-even symbol", "printed denominator sign")]


def _result_key(result: checks.CheckResult) -> tuple:
    return result.status, repr(result.residual), result.detail


@pytest.mark.parametrize("suite, first, second", [
    (suite, *names) for suite, a, b in _PAIRED_ROWS for names in ((a, b), (b, a))
], ids=lambda value: value)
def test_shared_work_is_invisible_in_a_row(catalog_run, suite, first, second):
    # the pair run from a fresh resolve_suites, either row first, gives each row's
    # result of the full run: alone (first) and after its partner filled the table (second)
    expected = {(s, r.name): _result_key(r) for s, r in catalog_run[0]}
    rows = {check.name: check for _, check in checks.resolve_suites(suite)}
    for name in (first, second):
        assert _result_key(checks.run_check(rows[name])) == expected[suite, name], name


def test_a_run_takes_each_shared_transform_once(monkeypatch):
    calls = {}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] = calls.get(name, 0) + 1
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("binomial_transform", "laguerre_transform_seq", "rising_k_binomial"):
        counted(checks.sq, name)
    counted(checks, "_eq89_case")
    names = {name for _, *pair in _PAIRED_ROWS for name in pair}
    # per run: 5 sequences and 4 distinct majorants for the binomial and the Laguerre
    # pair, 3 sequences for each k (its majorants take the sign-free transform), one Eq. 89 case
    once = {"binomial_transform": 9, "laguerre_transform_seq": 9, "rising_k_binomial": 12, "_eq89_case": 1}
    for runs in (1, 2):  # a second build_suites starts from an empty table
        for _, check in checks.resolve_suites("all"):
            if check.name in names:
                assert not checks.run_check(check).failed, check.name
        assert calls == {name: runs * count for name, count in once.items()}


def test_j0_trapezoid_matches_scipy():
    scipy_special = pytest.importorskip("scipy.special")
    # the Eq. 36 row's oracle on the arguments 2 sqrt(x), x in [0, 1/2], that it sees
    for z in np.linspace(0.0, np.sqrt(2.0), 101):
        assert abs(checks._bessel_j0(z) - scipy_special.j0(z)) <= 4.5e-16

