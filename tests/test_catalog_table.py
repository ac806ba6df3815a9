"""Every catalog row's expected result, from the committed table `catalog.jsonl`,
against the session's one catalog run at the default seed and order (the
`catalog_run` fixture of `conftest.py`): status, residual bit for bit,
tolerance and detail.  Imports no scipy, so it runs on the numpy-only
runtime.  After a deliberate change, `python tests/regenerate_catalog_table.py`
rewrites the table and prints what moved."""
import pytest
from catalog_table import read_table, row_of

EXPECTED = read_table()


@pytest.fixture(scope="module")
def table_rows(catalog_run) -> list:
    """The table rows of the catalog run, in catalog order."""
    return [row_of(suite, result) for suite, result in catalog_run[0]]


def _keys(rows: list) -> list:
    return [(row["suite"], row["name"]) for row in rows]


def test_catalog_runs_without_warnings(catalog_run):
    # the default run raises no warning of any kind: none is recorded, none swallowed
    assert catalog_run[1] == []


def test_table_lists_every_row_in_catalog_order(table_rows):
    assert _keys(table_rows) == _keys(EXPECTED)


@pytest.mark.parametrize("expected", EXPECTED, ids=lambda row: f"{row['suite']}: {row['name']}")
def test_row_keeps_its_result(table_rows, expected):
    key = (expected["suite"], expected["name"])
    assert [row for row in table_rows if (row["suite"], row["name"]) == key] == [expected]
