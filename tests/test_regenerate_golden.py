"""What `regenerate_golden.py` prints: the golden files that moved, with how
many of their lines changed, and the catalog rows that moved, with each field
that changed.  The golden runs here write into a temporary directory, never
into tests/golden/."""
import regenerate_golden as regen
from test_golden import GOLDEN, GOLDEN_RUNS

#: two quick runs: a 29-line CSV and a one-line JSON file
RUNS = {name: GOLDEN_RUNS[name] for name in ("expand-user-taylor.csv", "transform-binomial.json")}


def test_changed_lines_counts_the_lines_outside_the_common_blocks():
    old = ["a", "b", "c", "d"]
    assert regen._changed_lines(old, list(old)) == 0
    assert regen._changed_lines(old, ["a", "B", "c", "d"]) == 1
    assert regen._changed_lines(old, ["a", "b", "x", "c", "d"]) == 1
    assert regen._changed_lines(old, ["a", "d"]) == 2
    assert regen._changed_lines(old, []) == 4


def test_regenerated_files_are_the_golden_bytes_and_an_unchanged_run_reports_no_move(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    monkeypatch.setattr(regen, "GOLDEN_RUNS", RUNS)
    regen.regenerate_golden()
    assert capsys.readouterr().out == (f"added expand-user-taylor.csv: 29 lines\n"
                                       f"added transform-binomial.json: 1 lines\n"
                                       f"2 files written to {tmp_path.name}/\n")
    for name in RUNS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()
    regen.regenerate_golden()
    assert capsys.readouterr().out == f"2 files written to {tmp_path.name}/\n"


def test_regeneration_names_each_moved_file_with_its_changed_lines(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(regen, "GOLDEN", tmp_path)
    monkeypatch.setattr(regen, "GOLDEN_RUNS", RUNS)
    for name in RUNS:
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    # one printed digit raised in one line of the CSV, as a last-bit move would show
    lines = (tmp_path / "expand-user-taylor.csv").read_text().splitlines(keepends=True)
    assert lines[1].count("6.661e-16") == 1
    lines[1] = lines[1].replace("6.661e-16", "6.662e-16")
    (tmp_path / "expand-user-taylor.csv").write_text("".join(lines))
    regen.regenerate_golden()
    assert capsys.readouterr().out == ("moved expand-user-taylor.csv: 1 of 29 lines changed\n"
                                       f"2 files written to {tmp_path.name}/\n")
    for name in RUNS:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes()


def test_a_moved_row_names_its_status_its_residual_ratio_and_each_other_changed_field():
    old = {"status": "pass", "residual": "2e-16", "equation": "(64)", "tolerance": "1e-12", "detail": "3 cases"}
    new = {**old, "status": "fail", "residual": "0.5", "detail": "4 cases"}
    assert regen._moves(old, new) == ("status pass -> fail, residual 2e-16 -> 0.5 (ratio 2.5e+15), "
                                      "detail '3 cases' -> '4 cases'")
    zero = {**old, "residual": "0.0"}
    assert regen._moves(old, zero) == "status pass -> pass, residual 2e-16 -> 0.0 (ratio 0)"
    assert regen._moves(zero, {**zero, "residual": "1e-17"}) == "status pass -> pass, residual 0.0 -> 1e-17 (ratio inf)"
    assert regen._moves(zero, zero) == "status pass -> pass, residual 0.0 -> 0.0 (ratio 1)"
