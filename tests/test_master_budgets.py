"""The budget side of the generating-function master rows: the ordinary
derivative tail against its exact rational value, and each budget value taken
once per majorant and |x|."""
import dataclasses
import sys
from fractions import Fraction
from math import comb, factorial, perm

import pytest

from umbra import checks


def _exact_tail(r: int, first_omitted: int, s: float) -> Fraction:
    """sum_{n >= fo} (n+r)!/n! s^n at the exact value of s: Leibniz on d^r/ds^r [s^{fo+r}/(1-s)]."""
    s, top = Fraction(s), first_omitted + r
    return sum(comb(r, i) * perm(top, i) * s ** (top - i) * factorial(r - i) / (1 - s) ** (r - i + 1)
               for i in range(r + 1))


#: s in [0.01, 0.9]; near 0.06 the tails at fo = 257 cross the bottom of the normal range
_S = (0.01, 0.055, 0.06, 0.062, 0.1, 0.2, 0.25, 1 / 3, 0.5, 0.7, 0.9)


@pytest.mark.parametrize("r", [1, 2, 3])
@pytest.mark.parametrize("first_omitted", [1, 2, 10, 65, 257])
def test_derivative_tail_matches_the_exact_rational_tail(r, first_omitted):
    for s in _S:
        exact = _exact_tail(r, first_omitted, s)
        # the Leibniz sum is the total r!/(1-s)^{r+1} less the kept terms, exactly
        kept = sum(perm(n + r, r) * Fraction(s) ** n for n in range(first_omitted))
        assert exact == factorial(r) / (1 - Fraction(s)) ** (r + 1) - kept
        got = checks._derivative_tail_ordinary(1.0, 1.0, r, s, first_omitted)
        if exact < sys.float_info.min:
            # below the double range a tail may underflow, never rise above it
            assert got <= sys.float_info.min, (s, got, float(exact))
        else:
            assert abs(Fraction(got) - exact) <= 1e-13 * exact, (s, got, float(exact))


def test_derivative_tail_carries_the_majorant():
    # M rho^r times the tail at s = rho |u|
    assert checks._derivative_tail_ordinary(3.0, 2.0, 2, 0.1, 65) == pytest.approx(
        3.0 * 4.0 * float(_exact_tail(2, 65, 0.2)), rel=1e-14, abs=0.0)
    assert checks._derivative_tail_ordinary(1.0, 2.0, 1, 0.5, 4) == float("inf")


def _logged(log: list, function):
    def wrapped(*args):
        log.append(args)
        return function(*args)

    return wrapped


_MASTER_CASES = checks.master_cases() + [case for k in range(4) for case in checks._k_binomial_cases(k)]


@pytest.mark.parametrize("case", _MASTER_CASES, ids=[case.label for case in _MASTER_CASES])
def test_budget_values_are_taken_once(monkeypatch, case):
    sequences = case.sequences
    majorants = {(ts.growth_M, ts.growth_rho) for ts in sequences}
    transforms, majorant_transforms, totals, tails = [], [], [], []
    case = dataclasses.replace(
        case,
        transform=_logged(transforms, case.transform),
        transform_majorant=case.transform_majorant and _logged(majorant_transforms, case.transform_majorant),
    )
    monkeypatch.setattr(checks.MasterCase, "direct_total", _logged(totals, checks.MasterCase.direct_total))
    monkeypatch.setattr(checks.MasterCase, "closed_tail", _logged(tails, checks.MasterCase.closed_tail))
    outcome = checks.run_master_case(case)
    assert outcome.passed is None and outcome.residual < checks.MASTER_RELATIVE
    # each distinct majorant is transformed and totalled once; each sequence is transformed once
    if case.transform_majorant is None:
        assert len(transforms) == len(sequences) + len(majorants)
    else:
        assert len(transforms) == len(sequences) and len(majorant_transforms) == len(majorants)
    assert sorted((ts.growth_M, ts.growth_rho) for _, ts, _ in totals) == sorted(majorants)
    # the closed tail at most once per (majorant, |x|): no repeats, and no more than the points' |x|
    keys = [(ts.growth_M, ts.growth_rho, xa) for _, ts, xa, _ in tails]
    assert len(keys) == len(set(keys))
    for ts in sequences:
        distinct = {abs(x) for x in checks.sample_points(case.radius(ts))}
        assert sum(key[:2] == (ts.growth_M, ts.growth_rho) for key in keys) <= len(distinct)
