"""Every catalog row's expected result, from the committed table `catalog.jsonl`,
against one catalog run at the default seed and order: status, residual bit
for bit, tolerance and detail.  Imports no scipy, so it runs on the numpy-only
runtime.  After a deliberate change, `python tests/regenerate_catalog_table.py`
rewrites the table and prints what moved."""
import warnings

import pytest
from catalog_table import read_table, row_of

from umbra import checks

EXPECTED = read_table()


@pytest.fixture(scope="module")
def catalog_run() -> tuple[list, list]:
    """(the table rows of one catalog run, in catalog order; the messages of its warnings)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = [row_of(suite, result) for suite, result in checks.run_selected("all")]
    return rows, [str(w.message) for w in caught]


def _keys(rows: list) -> list:
    return [(row["suite"], row["name"]) for row in rows]


def test_catalog_runs_without_warnings(catalog_run):
    # the default run raises no warning of any kind: none is recorded, none swallowed
    assert catalog_run[1] == []


def test_table_lists_every_row_in_catalog_order(catalog_run):
    assert _keys(catalog_run[0]) == _keys(EXPECTED)


@pytest.mark.parametrize("expected", EXPECTED, ids=lambda row: f"{row['suite']}: {row['name']}")
def test_row_keeps_its_result(catalog_run, expected):
    key = (expected["suite"], expected["name"])
    assert [row for row in catalog_run[0] if (row["suite"], row["name"]) == key] == [expected]
