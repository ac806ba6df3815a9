"""Acceptance criteria: each exit criterion as a statement about catalog rows.

The catalog (`umbra.checks`) owns every identity's route, oracle, inputs and
tolerance.  A criterion names the rows of one suite it is about and holds
them to its own bounds: each row in `bounds` must pass with its residual at
most its bound, each row in `flagged` must stay flagged-errata, and where a
runtime bound is given the rows in `bounds` must run within it together.
The rows come from the session's one catalog run (the `catalog_run` fixture
of `conftest.py`).  Each test prints one PASS/FAIL line (run with -s to see
them live).
"""
from dataclasses import dataclass

import pytest


@dataclass(frozen=True)
class Criterion:
    label: str
    suite: str
    bounds: dict  # row name -> the largest residual the passing row may have
    flagged: tuple = ()  # row names whose printed constant must still disagree
    runtime: float | None = None  # seconds the rows in `bounds` may take together


KINDS = ("ordinary", "exponential")
CRITERIA = {
    1: Criterion("binomial involution exact on random rational sequences", "involution",
                 {"binomial involution on random rationals": 0.0}, runtime=1.0),
    2: Criterion("modular roundtrip exact on random draws", "modular",
                 {"modular transform roundtrip": 0.0}, runtime=1.0),
    3: Criterion("k-binomial closed forms within tail budgets", "kbinomial",
                 dict.fromkeys([f"rising {k}-binomial, {kind} closed form" for k in range(4) for kind in KINDS],
                               1e-10)),
    4: Criterion("closed generating forms of the 8 transform kinds within tail budgets", "gftrans",
                 dict.fromkeys([*(f"{name} transform, {kind} closed form"
                                  for name in ("binomial", "modular", "laguerre") for kind in KINDS),
                                "hermite transform (standard), closed form",
                                "hermite transform (complementary), closed form"], 1e-10)),
    5: Criterion("laguerre specials vs independent Bessel and resolvent oracles", "gftrans",
                 {"laguerre special: e^x J_0(2 sqrt x)": 1e-10, "laguerre special: resolvent exponential": 1e-10}),
    6: Criterion("hermite integral representations, exact over n and y", "hermite-integral",
                 {"shift transform vs two-variable Hermite": 0.0, "monomial integral representation": 0.0},
                 runtime=10.0),
    7: Criterion("tricomi evolution vs series on its grid and at F(1,1)", "tricomi",
                 {"evolution quadrature vs series": 1e-8, "evolution spot value F(1,1)": 1e-8}),
    8: Criterion("disentanglement residuals exactly zero; printed constants flagged", "disentangle",
                 {"weyl decoupling rule": 0.0, "cubic disentanglement, derived constant": 0.0},
                 flagged=("printed commutator constant", "printed ordered-form constants")),
    9: Criterion("pauli matrix functions vs spectral oracle", "pauli",
                 {"matrix function vs spectral oracle": 1e-8, "gaussian of the involutive argument": 1e-8}),
    10: Criterion("weyl algebra, borel transform, dual-route evolution", "weyl-borel",
                  {"laguerre-derivative commutator": 0.0, "borel transform of C_0": 0.0,
                   "laguerre-derivative exponential, dual routes": 1e-10}),
    11: Criterion("integro-differential evolution vs matrix-exponential oracle", "integro-diff",
                  {"integro-differential evolution vs matrix oracle": 1e-6}, runtime=60.0),
    12: Criterion("appell coefficients vs operational oracle; bernoulli a_2 exact", "appell",
                  {"expansion coefficients vs operational oracle": 1e-8, "bernoulli quadratic polynomial": 0.0}),
    13: Criterion("umbral transform vs double-sum oracle; gaussian-evolution bridge", "umbral",
                  {"umbral operator transform vs double sum": 1e-7, "umbral gaussian evolution bridge": 1e-10}),
    14: Criterion("heat evolution matches gaussian widening on-grid", "heat",
                  {"gaussian variance widening": 1e-6}),
}


def shortfalls(criterion: Criterion, results: dict) -> list[str]:
    """Where the catalog's rows miss the criterion; none when they meet it."""
    missing = []
    for name in (*criterion.bounds, *criterion.flagged):
        want = "flagged-errata" if name in criterion.flagged else "pass"
        row = results.get((criterion.suite, name))
        if row is None:
            missing.append(f"no {criterion.suite} row {name!r}")
        elif row.status != want:
            missing.append(f"{name!r} is {row.status}, not {want}")
        elif name in criterion.bounds and not row.residual <= criterion.bounds[name]:
            missing.append(f"{name!r} residual {row.residual:.2e} above {criterion.bounds[name]:.0e}")
    return missing


@pytest.fixture(scope="module")
def results(catalog_run) -> dict:
    """The run's `CheckResult`s by (suite, name)."""
    return {(suite, result.name): result for suite, result in catalog_run[0]}


@pytest.mark.parametrize("number", CRITERIA, ids=lambda number: f"{number:02d}")
def test_criterion(number, results):
    criterion = CRITERIA[number]
    missing = shortfalls(criterion, results)
    rows = [results[criterion.suite, name] for name in criterion.bounds if (criterion.suite, name) in results]
    elapsed = sum(row.runtime for row in rows)
    if criterion.runtime is not None and not elapsed < criterion.runtime:
        missing.append(f"{elapsed:.2f}s, not under {criterion.runtime:g}s")
    worst = max((row.residual for row in rows), default=float("nan"))
    status = "FAIL" if missing else "PASS"
    print(f"ACCEPTANCE {number:2d} [{status}] {criterion.label} (worst {worst:.2e}, {elapsed:.2f}s)")
    assert not missing, f"criterion {number}: {criterion.label}: {'; '.join(missing)}"
