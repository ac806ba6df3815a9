"""Rewrite the committed expected results and print what moved.

    python tests/regenerate_golden.py

First tests/catalog.jsonl, from a catalog run at the default seed and order:
each row that moved, with its status old -> new, its residual old -> new and
their ratio, and any other field that changed.  Then every file of
tests/golden/, from its command line in `test_golden.GOLDEN_RUNS`: each file
that moved, with how many of its lines changed.

It takes no options.  The umbra sources beside this script are imported ahead
of any installed copy.
"""
import contextlib
import io
import sys
from difflib import SequenceMatcher
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from catalog_table import TABLE, read_table, row_of, write_table  # noqa: E402
from test_golden import GOLDEN, GOLDEN_RUNS  # noqa: E402

from umbra import checks, cli  # noqa: E402


def _ratio(old: str, new: str) -> str:
    old, new = float(old), float(new)
    return f"{new / old:.3g}" if old else ("1" if new == old else "inf")


def _moves(old: dict, new: dict) -> str:
    parts = [f"status {old['status']} -> {new['status']}",
             f"residual {old['residual']} -> {new['residual']} (ratio {_ratio(old['residual'], new['residual'])})"]
    parts += [f"{key} {old[key]!r} -> {new[key]!r}" for key in ("equation", "tolerance", "detail")
              if old[key] != new[key]]
    return ", ".join(parts)


def regenerate_table() -> None:
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


def _changed_lines(old: list, new: list) -> int:
    """Lines of the longer side outside the longest common line blocks."""
    same = sum(block.size for block in SequenceMatcher(None, old, new, autojunk=False).get_matching_blocks())
    return max(len(old), len(new)) - same


def regenerate_golden() -> None:
    for name, argv in GOLDEN_RUNS.items():
        path = GOLDEN / name
        old = path.read_bytes().splitlines() if path.exists() else None
        # the run's warnings and status line are not what moved
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli.main([*argv, "--output", str(path)])
        if code:
            sys.exit(f"{name}: {' '.join(argv)} exited {code}\n{err.getvalue()}")
        new = path.read_bytes().splitlines()
        if old is None:
            print(f"added {name}: {len(new)} lines")
        elif old != new:
            print(f"moved {name}: {_changed_lines(old, new)} of {len(old)} lines changed")
    print(f"{len(GOLDEN_RUNS)} files written to {GOLDEN.name}/")


if __name__ == "__main__":
    regenerate_table()
    regenerate_golden()
