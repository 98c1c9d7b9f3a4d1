"""Malformed input is rejected with one line, and verify suites report
their durations on stderr."""

import os

import pytest

from singdet.cli import main
from singdet.diagrams import DiagramError, parse_pd

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "singdet", "corpus")
TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"


def test_parse_pd_rejects_a_short_crossing():
    with pytest.raises(DiagramError, match=r"X\(7,8,9\)"):
        parse_pd(TREFOIL_PD + " X(7,8,9)")
    with pytest.raises(DiagramError, match=r"X\[1,2,3,4,5\]"):
        parse_pd("X[1,2,3,4,5] " + TREFOIL_PD)


def one_line_error(capsys, *argv):
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("singdet: "), captured.err
    return lines[0]


def test_cli_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "missing.txt")
    assert missing in one_line_error(capsys, "invariants", missing)
    one_line_error(capsys, "obstruct", missing)


@pytest.mark.parametrize("text", ["2\n1 x\n3 4\n", "3\n1 2\n3 4\n", "2\n1 2\n3\n"])
def test_cli_bad_matrix_text(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    one_line_error(capsys, "invariants", str(path))


def test_cli_malformed_pd(tmp_path, capsys):
    path = tmp_path / "bad_pd.txt"
    path.write_text(f"name: bad\npd: {TREFOIL_PD} X(7,8,9)\n")
    assert "X(7,8,9)" in one_line_error(capsys, "invariants", str(path))


def test_cli_verify_prints_durations_on_stderr(capsys):
    assert main(["verify", "examples"]) == 0
    captured = capsys.readouterr()
    assert "VERIFY PASS" in captured.out
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("suite examples: ") and lines[0].endswith(" s")
    assert "suite examples:" not in captured.out


def test_cli_verify_names_a_missing_corpus_entry(tmp_path, capsys):
    (tmp_path / "only.txt").write_text("name: only\npd: O\n")
    assert "'example_d17'" in one_line_error(capsys, "verify", "examples", "--corpus", str(tmp_path))


def test_cli_verify_endtoend_refuses_a_folder_with_no_knot(tmp_path, capsys):
    (tmp_path / "only.txt").write_text("name: only\npd: O\n")
    assert "no knot" in one_line_error(capsys, "verify", "endtoend", "--corpus", str(tmp_path))


def test_cli_corpus_option_leaves_the_environment_unchanged(tmp_path, capsys):
    before = dict(os.environ)
    one_line_error(capsys, "verify", "examples", "--corpus", str(tmp_path))
    assert dict(os.environ) == before


def test_cli_rejects_a_repeated_pd_line(tmp_path, capsys):
    path = tmp_path / "two_pd.txt"
    path.write_text(f"name: two\npd: {TREFOIL_PD}\npd: X(1,1,2,2)\n")
    assert "'pd:'" in one_line_error(capsys, "invariants", str(path))


def test_cli_rejects_a_repeated_name_line(tmp_path, capsys):
    path = tmp_path / "two_names.txt"
    path.write_text(f"name: first\nname: second\npd: {TREFOIL_PD}\n")
    assert "'name:'" in one_line_error(capsys, "obstruct", str(path))


def test_cli_rejects_a_repeated_seifert_block(tmp_path, capsys):
    path = tmp_path / "two_seifert.txt"
    path.write_text("name: two\nseifert:\n1\n-1\nseifert:\n1\n1\n")
    line = one_line_error(capsys, "invariants", str(path))
    assert "'seifert:'" in line and "entries" not in line


def test_cli_rejects_an_entry_with_both_a_seifert_and_a_matrix_block(tmp_path, capsys):
    """One entry, two presentations: det 3 from the matrix beside an
    Alexander polynomial of 1 from the Seifert block would contradict."""
    path = tmp_path / "both.txt"
    path.write_text("name: both\nmatrix:\n2\n2 1\n1 2\nseifert:\n2\n0 1\n0 0\n")
    for command in ("invariants", "obstruct"):
        line = one_line_error(capsys, command, str(path))
        assert "'seifert:'" in line and "'matrix:'" in line


def test_cli_rejects_mismatched_pd_brackets(tmp_path, capsys):
    with pytest.raises(DiagramError, match=r"X\(1,4,2,5\]"):
        parse_pd("X(1,4,2,5] X(3,6,4,1) X(5,2,6,3)")
    path = tmp_path / "brackets.txt"
    path.write_text("name: bad\npd: X(1,4,2,5) X[3,6,4,1) X(5,2,6,3)\n")
    assert "X[3,6,4,1)" in one_line_error(capsys, "invariants", str(path))


def test_cli_rejects_an_empty_pd_line(tmp_path, capsys):
    path = tmp_path / "empty_pd.txt"
    path.write_text("name: empty\npd:\nseifert:\n1\n-1\n")
    assert "empty diagram" in one_line_error(capsys, "invariants", str(path))
