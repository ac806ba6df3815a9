"""Every held `--output` file against the committed bytes.

tests/golden/ holds the files, GOLDEN_RUNS names the command line that writes
each, and tests/golden/inputs/ holds the input files those command lines read.
Each run writes its file in-process and in a fresh interpreter, and both must
be the golden bytes; so the two, and the numpy-only install that runs this
module too, write alike.  A numpy release can move the last bit of a printed
value with no change here (BLAS summation order, SIMD): then

    python tests/regenerate_golden.py

rewrites these files and tests/catalog.jsonl and prints what moved; say so in
CHANGES.md.
"""
import contextlib
import re
from pathlib import Path

import pytest
from catalog_table import read_table, status_counts
from fresh_run import fresh_umbra

from umbra.cli import main
from umbra.opcalc.quadrature import QuadratureConvergenceWarning
from umbra.seqcore import TRANSFORM_NAMES

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
THREE_TERMS = str(INPUTS / "three-terms.json")
TAYLOR_1_OVER_1_MINUS_T2 = str(INPUTS / "taylor-1-over-1-minus-t2.json")

#: file name -> the command line that writes it
GOLDEN_RUNS = {
    "check-all.json": ["check", "--suite", "all"],
    "check-all.csv": ["check", "--suite", "all", "--format", "csv"],
    "evolve-heat.csv": ["evolve", "--equation", "heat"],
    "evolve-tricomi.csv": ["evolve", "--equation", "tricomi"],
    # Eq. 86 on its default grid: the m = 2 moment route, the m = 4 moment-law and Legendre routes
    **{f"integro-diff-m{m}-beta{beta}.csv": ["evolve", "--equation", "integro-diff", "--m", m, "--beta", beta]
       for m, beta in (("2", "0"), ("2", "0.5"), ("2", "1"), ("4", "0"), ("4", "0.5"))},
    "expand-gauss-hermite-type-scale1_8.csv":
        ["expand", "--family", "gauss-hermite-type", "--scale", "1/8", "--count", "24"],
    # orders that reach the 1024-node cap unconverged, each with its warning
    "expand-gauss-hermite-type-scale8.csv":
        ["expand", "--family", "gauss-hermite-type", "--scale", "8", "--count", "24"],
    # a Taylor-only family whose reciprocal 1 - t^2 is exact
    "expand-user-taylor.csv": ["expand", "--family", "user-taylor-file", "--taylor-file", TAYLOR_1_OVER_1_MINUS_T2,
                               "--count", "6", "--scale", "1/8"],
    **{f"transform-{name}.json": ["transform", THREE_TERMS, "--name", name, "--alpha", "1/2", "--beta", "3", "--k", "2"]
       for name in TRANSFORM_NAMES},
}


#: the one run that warns; every other runs under the suite's filters, where any warning fails it
WARNING_RUNS = {"expand-gauss-hermite-type-scale8.csv"}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_output_matches_its_golden_file(name, tmp_path, capsys):
    argv, golden = GOLDEN_RUNS[name], (GOLDEN / name).read_bytes()
    with pytest.warns(QuadratureConvergenceWarning) if name in WARNING_RUNS else contextlib.nullcontext([]) as caught:
        assert main([*argv, "--output", str(tmp_path / "main.out")]) == 0
    assert (tmp_path / "main.out").read_bytes() == golden
    done = fresh_umbra([*argv, "--output", "umbra.out"], tmp_path)
    assert done.returncode == 0
    assert (tmp_path / "umbra.out").read_bytes() == golden
    assert re.findall(r"Warning: (.*)", done.stderr) == [str(w.message) for w in caught]
    if argv[0] == "check":
        # a report file's one stderr line is its status count, that of the committed catalog table
        rows = read_table()
        assert done.stderr == capsys.readouterr().err == f"{len(rows)} checks: {status_counts(rows)}\n"


def test_every_golden_file_has_a_run():
    assert sorted(path.name for path in GOLDEN.iterdir() if path.is_file()) == sorted(GOLDEN_RUNS)
