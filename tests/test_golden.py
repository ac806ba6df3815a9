"""Committed `--output` files against a fresh in-process run, byte for byte.

tests/golden/ holds the files; GOLDEN_RUNS names the command line that writes
each.  A numpy release can move the last bit of a printed value with no change
here (BLAS summation order, SIMD): then rewrite the files with

    PYTHONPATH=src python3 tests/test_golden.py

and say so in CHANGES.md, as for tests/catalog.jsonl.
"""
import sys
from pathlib import Path

import pytest

from umbra.cli import main

GOLDEN = Path(__file__).parent / "golden"

#: file name -> the command line that writes it; Eq. 86 on its default grid, at
#: the m = 2 moment route and the m = 4 moment-law and Legendre routes
GOLDEN_RUNS = {
    f"integro-diff-m{m}-beta{beta}.csv": ["evolve", "--equation", "integro-diff", "--m", m, "--beta", beta]
    for m in ("2", "4") for beta in ("0", "0.5")
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_its_golden_file(name, tmp_path):
    out = tmp_path / name
    assert main([*GOLDEN_RUNS[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_every_golden_file_has_a_run():
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(GOLDEN_RUNS)


if __name__ == "__main__":
    for name, argv in GOLDEN_RUNS.items():
        if main([*argv, "--output", str(GOLDEN / name)]):
            sys.exit(f"{name}: {' '.join(argv)} failed")
