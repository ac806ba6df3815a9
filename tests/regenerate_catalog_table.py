"""Rewrite tests/catalog.jsonl from a catalog run at the default seed and order,
and print each row that moved: its status old -> new, its residual old -> new
and their ratio, and any other field that changed.

    python tests/regenerate_catalog_table.py

It takes no options.  The umbra sources beside this script are imported ahead
of any installed copy.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from catalog_table import TABLE, read_table, row_of, write_table  # noqa: E402

from umbra import checks  # noqa: E402


def _ratio(old: str, new: str) -> str:
    old, new = float(old), float(new)
    return f"{new / old:.3g}" if old else ("1" if new == old else "inf")


def _moves(old: dict, new: dict) -> str:
    parts = [f"status {old['status']} -> {new['status']}",
             f"residual {old['residual']} -> {new['residual']} (ratio {_ratio(old['residual'], new['residual'])})"]
    parts += [f"{key} {old[key]!r} -> {new[key]!r}" for key in ("equation", "tolerance", "detail")
              if old[key] != new[key]]
    return ", ".join(parts)


def main() -> int:
    old = {(row["suite"], row["name"]): row for row in read_table()} if TABLE.exists() else {}
    new = [row_of(suite, result) for suite, result in checks.run_selected("all")]
    for row in new:
        key = (row["suite"], row["name"])
        before = old.pop(key, None)
        if before is None:
            print(f"added {key[0]}: {key[1]}: status {row['status']}, residual {row['residual']}")
        elif before != row:
            print(f"moved {key[0]}: {key[1]}: {_moves(before, row)}")
    for suite, name in old:
        print(f"removed {suite}: {name}")
    write_table(new)
    print(f"{len(new)} rows written to {TABLE.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
