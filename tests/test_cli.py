"""Command-line interface: exit codes, formats, determinism."""
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest
from catalog_table import read_table, status_counts
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from transform_oracle import expected

import umbra
from umbra import checks, cli, errors
from umbra.checks import MAX_ORDER, suite_names
from umbra.cli import main
from umbra.opcalc.quadrature import QuadratureConvergenceWarning
from umbra.seqcore import TRANSFORM_NAMES, Stage, _any_digits, sequence_from_json


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestTransform:
    def test_binomial_roundtrip_format(self, tmp_path, capsys):
        src = write(tmp_path, "a.json", '{"terms": ["1", "1", "1"]}')
        assert main(["transform", src, "--name", "binomial"]) == 0
        assert json.loads(capsys.readouterr().out) == {"terms": ["1", "0", "0"]}

    def test_modular_with_params(self, tmp_path, capsys):
        src = write(tmp_path, "a.json", '{"terms": ["1", "2", "4"]}')
        assert main(["transform", src, "--name", "modular", "--alpha", "1", "--beta", "1"]) == 0
        assert json.loads(capsys.readouterr().out) == {"terms": ["1", "-1", "1"]}

    def test_exact_rational_passthrough(self, tmp_path, capsys):
        src = write(tmp_path, "a.json", '{"terms": ["1/3", "-2/7"]}')
        assert main(["transform", src, "--name", "binomial"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["terms"] == ["1/3", "13/21"]

    @pytest.mark.parametrize("name", TRANSFORM_NAMES)
    def test_matches_double_sum(self, name, tmp_path, capsys):
        terms = ["3", "-1/2", "7/5", "0", "11/3", "-2", "5/8"]
        src = write(tmp_path, "a.json", json.dumps({"terms": terms}))
        assert main(["transform", src, "--name", name, "--alpha=-2/3", "--beta=5/7", "--k", "2"]) == 0
        want = expected(name, terms, Fraction(-2, 3), Fraction(5, 7), 2)
        assert json.loads(capsys.readouterr().out)["terms"] == [str(w) for w in want]

    @pytest.mark.parametrize("terms,argv,stage", [
        (["1"] * 256, ["--name", "hermite", "--alpha", str(10 ** 20), "--beta", "1"],
         Stage("hermite", Fraction(10 ** 20), Fraction(1))),
        (["1", "-1/2", "3/7"], ["--name", "k-binomial", "--k", "100000"], Stage("k-binomial", k=100000)),
    ], ids=["hermite", "k-binomial"])
    def test_terms_past_the_int_string_cap_roundtrip(self, terms, argv, stage, tmp_path):
        # terms of 5,000 to 30,000 digits, past the interpreter's 4,300-digit cap on
        # int <-> str conversion: written, read back exactly, and read again as input
        src = write(tmp_path, "a.json", json.dumps({"terms": terms}))
        out, back = tmp_path / "b.json", tmp_path / "c.json"
        assert main(["transform", src, *argv, "--output", str(out)]) == 0
        want = stage.apply(sequence_from_json(Path(src).read_text())).terms
        assert max(t.numerator.bit_length() for t in want) > 4400 * 3.32  # more than 4,400 digits
        assert sequence_from_json(out.read_text()).terms == want
        # the binomial transform is an involution: twice gives the file back byte for byte
        assert main(["transform", str(out), "--name", "binomial", "--output", str(back)]) == 0
        assert main(["transform", str(back), "--name", "binomial", "--output", str(back)]) == 0
        assert back.read_text() == out.read_text()

    def test_boolean_terms_exit_2(self, tmp_path):
        src = write(tmp_path, "a.json", '{"terms": [true, false, 3]}')
        assert main(["transform", src, "--name", "binomial"]) == 2

    def test_malformed_rational_exits_2(self, tmp_path, capsys):
        src = write(tmp_path, "a.json", '{"terms": ["1/0"]}')
        assert main(["transform", src, "--name", "binomial"]) == 2

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["transform", str(tmp_path / "nope.json"), "--name", "binomial"]) == 2

    def test_missing_param_exits_3(self, tmp_path):
        src = write(tmp_path, "a.json", '{"terms": ["1"]}')
        assert main(["transform", src, "--name", "modular", "--alpha", "1"]) == 3

    def test_zero_beta_inverse_exits_3(self, tmp_path):
        src = write(tmp_path, "a.json", '{"terms": ["1", "2"]}')
        assert main(["transform", src, "--name", "modular-inverse", "--alpha", "1", "--beta", "0"]) == 3

    @pytest.mark.parametrize("flag", [["--seed", "3"], ["--format", "csv"], ["--order", "8"]], ids=" ".join)
    def test_check_only_flags_exit_2(self, flag, tmp_path):
        # --format, --seed and --order belong to check
        src = write(tmp_path, "a.json", '{"terms": ["1"]}')
        with pytest.raises(SystemExit) as exc:
            main(["transform", src, "--name", "binomial", *flag])
        assert exc.value.code == 2

    def test_output_file(self, tmp_path):
        src = write(tmp_path, "a.json", '{"terms": ["1", "0", "0"]}')
        dst = tmp_path / "out.json"
        assert main(["transform", src, "--name", "binomial", "--output", str(dst)]) == 0
        assert json.loads(dst.read_text()) == {"terms": ["1", "1", "1"]}


def _loaded_modules(script: str, tmp_path, roots: tuple) -> str:
    """Run script in a fresh interpreter (sys.argv[1] is a small sequence file) and
    return the sorted list of loaded modules under the given top-level names."""
    src = write(tmp_path, "a.json", '{"terms": ["1", "2/3", "-5"]}')
    probe = (
        "import sys\n" + script + "\n"
        f"print(sorted(m for m in sys.modules if m.split('.')[0] in {roots!r}))\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, src], env=_env(), capture_output=True,
                          text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1]


def _env() -> dict:
    """The environment with this umbra on the path and Python's default warning filters."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(umbra.__file__).parents[1]),
                                                      env.get("PYTHONPATH")]))
    return env


def _umbra(argv: list, tmp_path) -> subprocess.CompletedProcess:
    """The command line run in a fresh interpreter, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "umbra.cli", *argv], env=_env(), capture_output=True,
                          text=True, timeout=300, cwd=tmp_path)


class TestLayering:
    """The exact layer and the transform command run without numpy; nothing loads scipy."""

    @pytest.mark.parametrize("script", [
        "import umbra.seqcore",
        "import umbra.gftrans",
        "from umbra.cli import main\n"
        "assert main(['transform', sys.argv[1], '--name', 'laguerre', '--alpha', '1/2', '--beta', '3']) == 0",
    ])
    def test_float_stack_not_loaded(self, script, tmp_path):
        assert _loaded_modules(script, tmp_path, ("numpy", "scipy")) == "[]"

    @pytest.mark.parametrize("script,extra", [
        ("import umbra.seqcore", []),
        ("from umbra.cli import main\n"
         "assert main(['transform', sys.argv[1], '--name', 'laguerre', '--alpha', '1/2', '--beta', '3']) == 0",
         ["umbra.cli"]),
    ], ids=["import", "transform"])
    def test_exact_layer_loads_only_itself(self, script, extra, tmp_path):
        want = sorted(["umbra", "umbra.errors", "umbra.seqcore", *extra])
        assert _loaded_modules(script, tmp_path, ("umbra",)) == str(want)

    @pytest.mark.parametrize("script", [
        "import umbra.checks, umbra.opcalc",
        "from umbra.cli import main\nassert main(['check', '--suite', 'all']) == 0",
        "from umbra.cli import main\nassert main(['expand', '--family', 'bernoulli', '--count', '6']) == 0",
        "from umbra.cli import main\n"
        "assert main(['evolve', '--equation', 'integro-diff', '--x-count', '2', '--tau-count', '2']) == 0",
    ], ids=["import", "check", "expand", "evolve"])
    def test_scipy_not_loaded(self, script, tmp_path):
        assert _loaded_modules(script, tmp_path, ("scipy",)) == "[]"


class TestCheck:
    def test_suite_passes_with_json(self, capsys):
        assert main(["check", "--suite", "involution"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["passed"] is True
        assert all(c["status"] in ("pass", "flagged-errata") for c in doc["checks"])

    def test_csv_format_row_per_check(self, capsys):
        assert main(["check", "--suite", "heat", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("suite,equation,status")
        assert len(lines) == 3  # header + two heat checks

    def test_unknown_suite_exits_3(self, capsys):
        assert main(["check", "--suite", "bogus"]) == 3

    def test_tolerance_flag_exits_2(self, capsys):
        # each row's tolerance is the catalog's own: no flag can widen it
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "all", "--tolerance", "1e-3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err

    def test_every_row_runs_through_the_module_run_check(self, monkeypatch, capsys):
        # the catalog benchmark times each row by wrapping the module attribute checks.run_check
        calls = []
        run_check = checks.run_check
        monkeypatch.setattr(checks, "run_check", lambda check: calls.append(check.name) or run_check(check))
        assert main(["check", "--suite", "disentangle", "--seed", "7", "--order", "64", "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["checks"]
        assert calls == [check.name for _, check in checks.resolve_suites("disentangle")]
        assert [row["name"] for row in rows] == calls
        for row in rows:
            assert {"suite", "name", "equation", "status", "residual", "tolerance", "detail"} <= row.keys()

    def test_output_files_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["check", "--suite", "tricomi", "--output", str(out1)]) == 0
        assert main(["check", "--suite", "tricomi", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_errata_do_not_fail_exit_status(self, capsys):
        assert main(["check", "--suite", "disentangle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(c["status"] == "flagged-errata" for c in doc["checks"])

    @pytest.mark.parametrize("order", [100, 200, MAX_ORDER])
    @pytest.mark.parametrize("suite", ["gftrans", "kbinomial"])
    def test_tail_budgets_hold_at_high_order(self, suite, order, tmp_path):
        # s^n / n! used to overflow a float from order 100 on
        out = tmp_path / "r.json"
        assert main(["check", "--suite", suite, "--order", str(order), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["checks"] and all(c["status"] == "pass" for c in doc["checks"])
        if order == MAX_ORDER:
            # the highest order the CLI accepts, once more in a fresh interpreter: the same file
            done = _umbra(["check", "--suite", suite, "--order", str(order), "--output", "umbra.json"], tmp_path)
            assert done.returncode == 0 and (tmp_path / "umbra.json").read_bytes() == out.read_bytes()

    def test_error_rows_name_no_source_line(self, tmp_path):
        # order 1 is below the k = 2, 3 forms' derivative order: the detail is the error alone
        out = tmp_path / "r.json"
        assert main(["check", "--suite", "kbinomial", "--order", "1", "--output", str(out)]) == 1
        errors = [c for c in json.loads(out.read_text())["checks"] if c["status"] == "error"]
        assert len(errors) == 4
        assert all(c["detail"].startswith("TruncationError: ") and ".py:" not in c["detail"] for c in errors)


class TestExpand:
    def test_identity_family_taylor_pattern(self, capsys):
        assert main(["expand", "--family", "identity", "--count", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        coeff_rows = [l.split(",") for l in lines if l.startswith("coefficient")]
        assert len(coeff_rows) == 7  # --count is the highest order N: rows n = 0..N
        values = [float(row[2]) for row in coeff_rows]
        assert values[0] == pytest.approx(1.0, abs=1e-10)
        assert values[2] == pytest.approx(-1.0, abs=1e-10)
        assert values[4] == pytest.approx(0.5, abs=1e-10)

    def test_bernoulli_oracle_column_small(self, capsys):
        assert main(["expand", "--family", "bernoulli", "--count", "10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        diffs = [float(l.split(",")[5]) for l in lines if l.startswith("coefficient")]
        assert max(diffs) < 1e-8

    def test_inadmissible_family_exits_4(self, tmp_path, capsys):
        # A(t) = e^{t^2} has 1/A(ik) = e^{k^2}: integrand grows
        coeffs = ["0"] * 25
        import math

        for l in range(13):
            coeffs[2 * l] = f"1/{math.factorial(l)}"
        taylor = write(tmp_path, "t.json", json.dumps(coeffs))
        code = main([
            "expand", "--family", "user-taylor-file", "--taylor-file", taylor, "--count", "4",
        ])
        assert code == 4

    def test_count_cap_exits_4(self):
        assert main(["expand", "--family", "bernoulli", "--count", "30"]) == 4

    @pytest.mark.parametrize("scale", ["1/8", "1", "4"])
    def test_gauss_hermite_oracle_column_matches(self, scale, capsys):
        # the oracle is the Eq. 40 widening law, not the truncated e^{d^2} series
        assert main(["expand", "--family", "gauss-hermite-type", "--scale", scale, "--count", "12"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        diffs = [float(l.split(",")[5]) for l in lines if l.startswith("coefficient")]
        assert len(diffs) == 13 and max(diffs) <= 1e-14

    @pytest.mark.parametrize("doc", ["5", '"12"', "[]", "[true, 1]", '{"0": 1}'])
    def test_taylor_file_that_is_not_a_list_exits_2(self, doc, tmp_path, capsys):
        # a bare number is not iterable, and a string would be read digit by digit
        taylor = write(tmp_path, "t.json", doc)
        assert main(["expand", "--family", "user-taylor-file", "--taylor-file", taylor, "--count", "4"]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and "error: bad taylor file" in err

    def test_constant_taylor_data_of_two_coefficients_runs(self, tmp_path, capsys):
        # A = 1 as ["1", "0"]: the convergence probe compared 1/A with an empty
        # polynomial and exited 4, while ["1", "0", "0"] ran
        taylor = write(tmp_path, "t.json", '["1", "0"]')
        assert main(["expand", "--family", "user-taylor-file", "--taylor-file", taylor, "--count", "1"]) == 0
        assert "coefficient,0,1.000000000000e+00" in capsys.readouterr().out


class TestWarningsReachStderr:
    """The commands run under Python's default warning filters: nothing is swallowed."""

    def test_unconverged_orders_are_named_once_each(self, tmp_path, capsys):
        argv = ["expand", "--family", "gauss-hermite-type", "--scale", "8", "--count", "24"]
        done = _umbra(argv, tmp_path)
        with pytest.warns(QuadratureConvergenceWarning):
            assert main(argv) == 0
        assert done.returncode == 0 and done.stdout == capsys.readouterr().out
        named = re.findall(r"QuadratureConvergenceWarning: .* \(integrand (\d+) of 25\)$", done.stderr, re.M)
        assert named == [str(n) for n in range(6, 25, 2)]

    @pytest.mark.parametrize("argv", [
        ["check", "--suite", "all"],
        ["evolve", "--equation", "integro-diff", "--m", "4", "--beta", "0.5"],
    ], ids=" ".join)
    def test_converged_runs_print_no_warning(self, argv, tmp_path):
        done = _umbra(argv, tmp_path)
        assert done.returncode == 0 and done.stderr == ""

    @pytest.mark.parametrize("argv,code", [
        # the exact oracle's range check runs before the quadrature, whose integrand overflowed here
        (["expand", "--family", "identity", "--count", "5", "--scale", "1e200"], 4),
        # k^n past the float range at the widest quadrature nodes, although the widening-law
        # oracle is finite: the quadrature raised OverflowError after numpy's warnings
        *((["expand", "--family", "gauss-hermite-type", "--count", "24", "--scale", scale], 4)
          for scale in ("1e50", "1e100", "1e150", "1e200")),
        # lambda^400 past the float range in the matrix oracle's eigensystem
        (["evolve", "--equation", "integro-diff", "--m", "400", "--beta", "1",
          "--x-count", "2", "--tau-count", "2"], 0),
        # x^2 past the float range in the initial samples and the exact solution
        (["evolve", "--equation", "heat", "--extent", "1e300", "--alpha", "1e-300"], 0),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else str(v))
    def test_extreme_inputs_print_no_numpy_warning(self, argv, code, tmp_path):
        done = _umbra(argv, tmp_path)
        assert done.returncode == code
        assert "Warning" not in done.stderr
        if code:
            assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
        else:
            assert done.stderr == ""


#: stand for files that the test below writes from FILES
THREE_TERMS = "<three terms>"
TAYLOR_1_OVER_1_MINUS_T2 = "<taylor 1/(1 - t^2)>"
FILES = {THREE_TERMS: '{"terms": ["1", "-1/2", "3/7"]}',
         TAYLOR_1_OVER_1_MINUS_T2: '["1","0","1","0","1","0","1","0","1"]'}


@pytest.mark.parametrize("argv", [
    ["check", "--suite", "all"],
    ["check", "--suite", "all", "--format", "csv"],
    ["evolve", "--equation", "heat"],
    ["evolve", "--equation", "tricomi"],
    ["evolve", "--equation", "integro-diff", "--m", "4", "--beta", "0"],
    ["evolve", "--equation", "integro-diff", "--m", "4", "--beta", "0.5"],
    # the m = 2 moment route, at beta = 0 and beta = 1
    ["evolve", "--equation", "integro-diff", "--m", "2", "--beta", "0"],
    ["evolve", "--equation", "integro-diff", "--m", "2", "--beta", "1"],
    ["expand", "--family", "gauss-hermite-type", "--scale", "1/8", "--count", "24"],
    # orders that reach the 1024-node cap unconverged, each with its warning
    ["expand", "--family", "gauss-hermite-type", "--scale", "8", "--count", "24"],
    # a Taylor-only family whose reciprocal 1 - t^2 is exact
    ["expand", "--family", "user-taylor-file", "--taylor-file", TAYLOR_1_OVER_1_MINUS_T2,
     "--count", "6", "--scale", "1/8"],
    *(["transform", THREE_TERMS, "--name", name, "--alpha", "1/2", "--beta", "3", "--k", "2"]
      for name in TRANSFORM_NAMES),
], ids=" ".join)
def test_output_files_match_a_fresh_interpreter(argv, tmp_path, capsys):
    # --output is byte-stable: the command line as a user runs it writes the bytes of an in-process run
    paths = {name: write(tmp_path, f"in{i}.json", text) for i, (name, text) in enumerate(FILES.items())}
    argv = [paths.get(part, part) for part in argv]
    done = _umbra([*argv, "--output", "umbra.out"], tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([*argv, "--output", str(tmp_path / "main.out")])
    assert done.returncode == code == 0
    assert (tmp_path / "umbra.out").read_bytes() == (tmp_path / "main.out").read_bytes()
    assert re.findall(r"Warning: (.*)", done.stderr) == [str(w.message) for w in caught]
    if argv[0] == "check":
        # a report file's one stderr line is its status count, that of the committed catalog table
        rows = read_table()
        assert done.stderr == capsys.readouterr().err == f"{len(rows)} checks: {status_counts(rows)}\n"


class TestEvolve:
    def test_tricomi_spot_row(self, capsys):
        assert main(["evolve", "--equation", "tricomi", "--x-count", "2", "--tau-count", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        last = lines[-1].split(",")
        assert float(last[0]) == 1.0 and float(last[1]) == 1.0
        assert float(last[2]) == pytest.approx(0.5206029, abs=5e-7)
        assert float(last[3]) < 1e-8

    def test_heat_alpha_zero_identity(self, capsys):
        assert main(["evolve", "--equation", "heat", "--alpha", "0", "--points", "256", "--extent", "12"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith(("#", "x,"))]
        assert all(float(r.split(",")[3]) < 1e-12 for r in rows)

    def test_odd_m_exits_3(self):
        assert main(["evolve", "--equation", "integro-diff", "--m", "3"]) == 3

    def test_integro_rows_have_small_residuals(self, capsys):
        assert main([
            "evolve", "--equation", "integro-diff", "--beta", "1.0",
            "--x-count", "3", "--tau-count", "3",
        ]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith(("#", "x,"))]
        assert all(float(r.split(",")[3]) < 1e-6 for r in rows)

    def test_integro_m4_runs_with_its_defaults(self, capsys):
        # the degree-40 series of the m = 2 rows is too short for m = 4
        assert main(["evolve", "--equation", "integro-diff", "--m", "4"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "truncation=81" in lines[0]
        rows = [l for l in lines if l and not l.startswith(("#", "x,"))]
        assert len(rows) == 36 and all(float(r.split(",")[3]) < 1e-6 for r in rows)

    def test_integro_small_beta_oracle(self, capsys):
        # the oracle's eigensystem route returned up to 7.9e79 here
        assert main(["evolve", "--equation", "integro-diff", "--beta", "1e-6"]) == 0
        rows = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith(("#", "x,"))]
        assert len(rows) == 36 and all(float(r.split(",")[3]) < 1e-10 for r in rows)

    def test_integro_large_m_oracle_at_tau_zero(self, capsys):
        # lambda^400 overflows in the oracle's eigensystem; -0 * inf printed nan at tau = 0
        argv = ["evolve", "--equation", "integro-diff", "--m", "400", "--beta", "1", "--x-count", "2", "--tau-count", "2"]
        assert main(argv) == 0
        assert "nan" not in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["evolve", "--equation", "integro-diff", "--beta", "2.5"],
    ["evolve", "--equation", "integro-diff", "--beta", "1000"],
    ["evolve", "--equation", "integro-diff", "--beta", "1e300"],
    ["evolve", "--equation", "heat", "--alpha", "8"],
    ["evolve", "--equation", "heat", "--alpha", "20"],
    # exact oracle coefficients past the float range: float() raised OverflowError
    ["expand", "--family", "identity", "--count", "5", "--scale", "1e200"],
], ids=" ".join)
def test_range_guard_exits_4(argv, capsys):
    # these used to exit 0 with nan or wrapped-around values in the output
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "error:" in err
    assert "nan" not in out.lower()


def test_integro_beta_guard_names_the_oracle_cap(capsys):
    # the route computes beta = 3 correctly: the message names the matrix oracle's degree cap
    # as the reason for the bound, not a truncation of the route
    assert main(["evolve", "--equation", "integro-diff", "--beta", "3"]) == 4
    err = capsys.readouterr().err
    assert "oracle at degree cap 40" in err and "truncation-controlled" not in err


#: stands for a Taylor file written by the test that uses it
TAYLOR_400_DIGITS = "<taylor file>"


@pytest.mark.parametrize("argv", [
    ["evolve", "--equation", "heat", "--alpha", "nan"],
    ["evolve", "--equation", "heat", "--extent", "inf"],
    ["evolve", "--equation", "heat", "--points", "0"],
    ["evolve", "--equation", "integro-diff", "--x-count", "-1"],
    ["evolve", "--equation", "integro-diff", "--beta=-inf"],
    ["evolve", "--equation", "tricomi", "--tau-count", "0"],
    ["expand", "--family", "bernoulli", "--count", "-1"],
    # the Gaussian scale is exact, but these two commands also use it as a float
    ["expand", "--family", "bernoulli", "--count", "4", "--scale", "1e400"],
    ["evolve", "--equation", "heat", "--scale", "1e400"],
    # 4 scale or 1/(4 scale), the transform's width and coefficient, past the float range:
    # the widening-law oracle raised OverflowError, and a tiny scale printed zeros with exit 0
    ["expand", "--family", "gauss-hermite-type", "--count", "1", "--scale", "1e308"],
    ["expand", "--family", "identity", "--count", "3", "--scale", "1e-320"],
    # a Taylor file whose second coefficient has 400 digits: A is evaluated in doubles
    ["expand", "--family", "user-taylor-file", "--taylor-file", TAYLOR_400_DIGITS, "--count", "5"],
    ["check", "--order", "0"],
    ["check", "--order", str(MAX_ORDER + 1)],
], ids=" ".join)
def test_bad_numeric_flag_exits_3(argv, tmp_path, capsys):
    taylor = write(tmp_path, "t.json", json.dumps(["1", "1" * 400]))
    assert main([taylor if part == TAYLOR_400_DIGITS else part for part in argv]) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "must be" in err
    assert "nan" not in out.lower()


@pytest.mark.parametrize("argv", [
    # extent^2 overflowed in the kernel-reach test, and 2 extent / points is inf
    ["evolve", "--equation", "heat", "--extent", "1e308"],
    # 1 + 4 alpha scale is inf: the reference printed nan in every residual
    ["evolve", "--equation", "heat", "--scale", "1e308"],
], ids=" ".join)
def test_overflowing_heat_grid_exits_3(argv, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "overflows" in err
    assert out == ""


def test_heat_extent_past_the_kernel_square_runs(capsys):
    # extent^2 is past the float range but the spacing is finite: the kernel has decayed
    assert main(["evolve", "--equation", "heat", "--extent", "1e300", "--alpha", "1e-300"]) == 0
    assert "nan" not in capsys.readouterr().out


def test_exact_transform_parameters_take_any_size(tmp_path, capsys):
    src = write(tmp_path, "a.json", '{"terms": ["1", "2"]}')
    assert main(["transform", src, "--name", "modular", "--alpha", "1e400", "--beta", "1"]) == 0
    want = expected("modular", ["1", "2"], Fraction(10 ** 400), Fraction(1), None)
    assert json.loads(capsys.readouterr().out)["terms"] == [str(w) for w in want]


def test_transform_flag_past_the_int_string_cap(tmp_path, capsys):
    # a 5,000-digit --alpha is exact: it exited 3 and echoed itself to stderr
    src = write(tmp_path, "a.json", '{"terms": ["1", "2"]}')
    alpha = "1" * 5000
    assert main(["transform", src, "--name", "modular", "--alpha", alpha, "--beta", "1"]) == 0
    out, err = capsys.readouterr()
    with _any_digits():
        want = expected("modular", ["1", "2"], Fraction(alpha), Fraction(1), None)
    assert err == "" and sequence_from_json(out).terms == tuple(want)


#: stands for a file the test writes from its `doc` argument
DOC = "<document>"
LONG = "1" * 5000


@pytest.mark.parametrize("argv,doc,code", [
    (["transform", DOC, "--name", "modular", "--alpha", LONG + "/0", "--beta", "1"], '{"terms": ["1"]}', 3),
    (["transform", DOC, "--name", "binomial"], json.dumps({"terms": ["1", LONG + "x"]}), 2),
    (["expand", "--family", "user-taylor-file", "--taylor-file", DOC, "--count", "2"], json.dumps(["1", LONG + "/0"]), 2),
    (["expand", "--family", "bernoulli", "--count", "2", "--scale", LONG], None, 3),
    (["check", "--suite", LONG], None, 3),
], ids=["alpha", "sequence-term", "taylor-coefficient", "scale", "suite"])
def test_errors_quote_user_text_in_short(argv, doc, code, tmp_path, capsys):
    # each of these echoed all 5,000 characters to stderr
    path = write(tmp_path, "doc.json", doc or "")
    assert main([path if part == DOC else part for part in argv]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err) < 300 and "characters)" in err


#: the exit code README documents for each error type; a type missing here fails the test below
DOCUMENTED_EXIT_CODES = {
    errors.UmbraError: 1, errors.InternalConsistencyError: 1, errors.SequenceFormatError: 2,
    errors.InvalidParameterError: 3, errors.UnsupportedSymbolError: 3,
    errors.DivergenceError: 4, errors.TruncationError: 4, errors.DomainTooSmallError: 4,
}


@pytest.mark.parametrize("error", [errors.UmbraError, *errors.UmbraError.__subclasses__()],
                         ids=lambda error: error.__name__)
def test_error_type_exits_with_its_documented_code(error, monkeypatch, capsys):
    def raise_it(args):
        raise error("raised by the command")

    monkeypatch.setattr(cli, "cmd_evolve", raise_it)
    assert main(["evolve", "--equation", "heat"]) == DOCUMENTED_EXIT_CODES[error]
    assert capsys.readouterr() == ("", "error: raised by the command\n")


def test_taylor_coefficient_past_the_int_string_cap(tmp_path, capsys):
    # (10^4400 + 1) / 10^4400 is a float-sized rational of 4,401-digit terms: it exited 2
    den = 10 ** 4400
    with _any_digits():
        doc = json.dumps([f"{den + 1}/{den}"] + ["0"] * 7)
    taylor = write(tmp_path, "t.json", doc)
    assert main(["expand", "--family", "user-taylor-file", "--taylor-file", taylor, "--count", "5"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and "coefficient,0,1.000000000000e+00" in out


# values that have broken numeric parsing, factorial ranges and grid sizes before
FUZZ_VALUES = ("nan", "inf", "-inf", "1e308", "1e200", "171", "257", "", "0", "-1", "1/2")


def _flags(required: dict, optional: dict):
    """Argument vectors: every required flag and any subset of the optional ones."""
    return st.fixed_dictionaries(required, optional=optional).map(
        lambda flags: [part for flag, value in flags.items() for part in (flag, value)]
    )


def _values(*typical):
    return st.sampled_from(FUZZ_VALUES + typical)


# `check --suite all` takes seconds and every suite runs alone anyway; grid
# counts stay at most 3 and --points at most 1024 so that no example is slow
FUZZ_ARGV = st.one_of(
    _flags(
        {"--suite": st.sampled_from((*suite_names(), "", "bogus"))},
        {"--order": _values("1", "2", "16"), "--seed": _values("7"), "--format": st.sampled_from(("json", "csv"))},
    ).map(lambda argv: ["check", *argv]),
    _flags(
        {"--family": st.sampled_from(("bernoulli", "identity", "gauss-hermite-type")),
         "--count": _values("1", "3", "24")},
        {"--scale": _values("1/8", "1", "8")},
    ).map(lambda argv: ["expand", *argv]),
    _flags(
        {"--equation": st.sampled_from(("heat", "tricomi", "integro-diff")),
         "--x-count": st.sampled_from(("1", "2", "3", "0", "-1", "nan", "")),
         "--tau-count": st.sampled_from(("1", "2", "3", "0", "-1", "nan", ""))},
        {"--alpha": _values("0.5", "8"), "--beta": _values("0.5", "1", "2.5"), "--m": _values("2", "4", "400"),
         "--extent": _values("16", "2"), "--points": _values("64", "1024"), "--scale": _values("1/2", "4")},
    ).map(lambda argv: ["evolve", *argv]),
)


def _nan_columns(command: str, out: str) -> list:
    """Value and residual fields of an exit-0 output that print nan.  A check
    row's tolerance may print inf (the Eq. 61 row judges monotonicity, not its
    residual), so only the residual is read there."""
    if command == "check":
        rows = json.loads(out)["checks"] if out.startswith("{") else list(csv.DictReader(io.StringIO(out)))
        return [row for row in rows if "nan" in row["residual"].lower()]
    return [line for line in out.splitlines() if not line.startswith("#") and "nan" in line.lower()]


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argv=FUZZ_ARGV)
def test_cli_fuzz_exits_with_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in range(5), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert not _nan_columns(argv[0], out.getvalue()), argv
