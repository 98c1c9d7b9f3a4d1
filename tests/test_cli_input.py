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
