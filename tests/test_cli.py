"""Command-line interface: exit codes, formats, determinism."""
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from transform_oracle import expected

import umbra
from umbra.cli import main
from umbra.seqcore import TRANSFORM_NAMES


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

    def test_output_file(self, tmp_path):
        src = write(tmp_path, "a.json", '{"terms": ["1", "0", "0"]}')
        dst = tmp_path / "out.json"
        assert main(["transform", src, "--name", "binomial", "--output", str(dst)]) == 0
        assert json.loads(dst.read_text()) == {"terms": ["1", "1", "1"]}


class TestLayering:
    """The exact layer and the transform command run without numpy or scipy."""

    @pytest.mark.parametrize("script", [
        "import umbra.seqcore",
        "from umbra.cli import main\n"
        "assert main(['transform', sys.argv[1], '--name', 'laguerre', '--alpha', '1/2', '--beta', '3']) == 0",
    ])
    def test_float_stack_not_loaded(self, script, tmp_path):
        src = write(tmp_path, "a.json", '{"terms": ["1", "2/3", "-5"]}')
        probe = (
            "import sys\n" + script + "\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('numpy', 'scipy')))\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path(umbra.__file__).parents[1]),
                                                          env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", probe, src], env=env, capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[-1] == "[]"


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

    def test_output_files_are_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["check", "--suite", "tricomi", "--output", str(out1)]) == 0
        assert main(["check", "--suite", "tricomi", "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_errata_do_not_fail_exit_status(self, capsys):
        assert main(["check", "--suite", "disentangle"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert any(c["status"] == "flagged-errata" for c in doc["checks"])

    @pytest.mark.parametrize("order", [100, 200])
    @pytest.mark.parametrize("suite", ["gftrans", "kbinomial"])
    def test_tail_budgets_hold_at_high_order(self, suite, order, tmp_path):
        # s^n / n! used to overflow a float from order 100 on
        out = tmp_path / "r.json"
        assert main(["check", "--suite", suite, "--order", str(order), "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["checks"] and all(c["status"] == "pass" for c in doc["checks"])


class TestExpand:
    def test_identity_family_taylor_pattern(self, capsys):
        assert main(["expand", "--family", "identity", "--count", "6"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        coeff_rows = [l.split(",") for l in lines if l.startswith("coefficient")]
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


@pytest.mark.parametrize("argv", [
    ["evolve", "--equation", "heat", "--alpha", "nan"],
    ["evolve", "--equation", "heat", "--extent", "inf"],
    ["evolve", "--equation", "heat", "--points", "0"],
    ["evolve", "--equation", "integro-diff", "--x-count", "-1"],
    ["evolve", "--equation", "integro-diff", "--beta=-inf"],
    ["evolve", "--equation", "tricomi", "--tau-count", "0"],
    ["expand", "--family", "bernoulli", "--count", "-1"],
    ["check", "--tolerance", "nan"],
    ["check", "--tolerance", "-0.5"],
    ["check", "--order", "0"],
], ids=" ".join)
def test_bad_numeric_flag_exits_3(argv, capsys):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert "Traceback" not in err and "must be" in err
    assert "nan" not in out.lower()
