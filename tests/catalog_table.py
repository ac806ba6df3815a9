"""The catalog's expected results as committed data.

`catalog.jsonl` holds one JSON object per catalog row, in catalog order, at
the default seed and order: suite, name, equation, status, residual and
tolerance (each as the `repr` of its float, so a last-bit change shows) and
detail.  `test_catalog_table.py` holds a fresh catalog run against it row by
row; `regenerate_golden.py` rewrites it, with the files of tests/golden/, and
prints every row that moved.
"""
import json
from pathlib import Path

TABLE = Path(__file__).with_name("catalog.jsonl")


def row_of(suite: str, result) -> dict:
    """The table row of one `checks.CheckResult` in `suite`."""
    return {"suite": suite, "name": result.name, "equation": result.equation, "status": result.status,
            "residual": repr(result.residual), "tolerance": repr(result.tolerance), "detail": result.detail}


def read_table() -> list[dict]:
    return [json.loads(line) for line in TABLE.read_text(encoding="utf-8").splitlines()]


def write_table(rows: list[dict]) -> None:
    TABLE.write_text("".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8")


def status_counts(rows: list[dict]) -> dict:
    """Rows per status, in order of first appearance, as `check --output` reports them."""
    counts = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    return counts
