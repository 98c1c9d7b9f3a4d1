"""Malformed, split or oversized input gives one `singdet: ...` line and exit
status 2, never a traceback; the parsers let only ValueError (DiagramError
is one) escape, which seeded fuzzing checks."""

import contextlib
import io
import os
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singdet.cli import main
from singdet.corpus import load_corpus, parse_entry
from singdet.diagrams import DiagramError, parse_pd
from singdet.exactlinalg import parse_matrix
from singdet.numtheory import prime_factors
from test_cli_input import CORPUS_DIR, TREFOIL_PD, one_line_error

FUZZ = settings(max_examples=60, derandomize=True, deadline=None, database=None)
# an explicit alphabet: Hypothesis needs no Unicode tables for it
noise = st.text("0123456789 -+xX(),:O\n\t", max_size=16)


@pytest.mark.parametrize("pd", ["O X(1,1,2,2)", TREFOIL_PD + " X(7,7,8,8)"])
def test_split_diagram_has_invariants_but_no_obstruction_report(tmp_path, capsys, pd):
    path = tmp_path / "split.txt"
    path.write_text(f"name: split\npd: {pd}\n")
    assert "no matrix data" in one_line_error(capsys, "obstruct", str(path))
    assert main(["invariants", str(path)]) == 0
    assert "components" in capsys.readouterr().out


def test_non_planar_pd_code_is_rejected(tmp_path, capsys):
    with pytest.raises(DiagramError, match="not planar"):
        parse_pd("X(1,2,1,2)")
    path = tmp_path / "torus.txt"
    path.write_text("pd: X(1,2,1,2)\n")
    for command in ("invariants", "obstruct"):
        assert "not planar" in one_line_error(capsys, command, str(path))


def test_two_corpus_files_naming_one_entry_are_rejected(tmp_path, capsys):
    for fn in os.listdir(CORPUS_DIR):
        with open(os.path.join(CORPUS_DIR, fn)) as fh:
            (tmp_path / fn).write_text(fh.read())
    assert len(load_corpus(str(tmp_path))) == 39
    (tmp_path / "3_1.txt").write_text((tmp_path / "3_1.txt").read_text().replace("name: 3_1", "name: 4_1"))
    with pytest.raises(ValueError, match="3_1.txt and 4_1.txt"):
        load_corpus(str(tmp_path))
    error = one_line_error(capsys, "verify", "examples", "--corpus", str(tmp_path))
    assert "3_1.txt" in error and "4_1.txt" in error and "'4_1'" in error


def test_prime_factors_is_exact_below_ten_to_the_twelve():
    assert prime_factors(999983 * 999979) == [999979, 999983]
    assert prime_factors(2 * 3**4 * 5 * 2000003) == [2, 3, 5, 2000003]


def test_a_determinant_too_large_to_factor_exits_2_quickly(tmp_path, capsys):
    # det = 4 * 2^87 - 1 = 2^89 - 1, a prime above the bound below which the
    # Miller-Rabin test proves primality
    path = tmp_path / "big.txt"
    path.write_text(f"2\n1 1\n0 {2**87}\n")
    for command in ("invariants", "obstruct"):
        start = time.perf_counter()
        assert str(2**89 - 1) in one_line_error(capsys, command, str(path))
        assert time.perf_counter() - start < 2.0


def test_a_determinant_past_trial_division_is_factored_by_rho(tmp_path, capsys):
    # det = -167 * 1012824277 * 4736874518213327143; trial division stops at 10^6
    path = tmp_path / "big.txt"
    path.write_text("name: big\nmatrix:\n2\n-2 1\n1 400601396013952889013683126018\n")
    assert main(["invariants", str(path)]) == 0
    report = dict(line.split(None, 1) for line in capsys.readouterr().out.splitlines())
    assert report["det"] == "801202792027905778027366252037"
    for p in (3, 5, 7, 11, 13):
        assert (report[f"d_{p}"], report[f"delta_{p}"]) == ("0", "-1")
    assert report["wall"] == "167 1 A; 1012824277 1 B; 4736874518213327143 1 B"
    assert main(["obstruct", str(path)]) == 0
    assert "lickorish" in capsys.readouterr().out


# ------------------------------------------------------------------ fuzzing

label = st.integers(-1, 8)
crossing = st.tuples(label, label, label, label).map(lambda t: "X(%d,%d,%d,%d)" % t)
junk = st.sampled_from(["O", "X(1,2)", "X[1,2,3,4]", "X(1,2,3,4", "Y", ",", "X()"])


@st.composite
def paired_pd(draw):
    """Codes in which every label appears twice, so that many parse."""
    n = draw(st.integers(1, 4))
    perm = draw(st.permutations([k for k in range(1, 2 * n + 1) for _ in (0, 1)]))
    tokens = ["X(%d,%d,%d,%d)" % tuple(perm[4 * i:4 * i + 4]) for i in range(n)]
    return " ".join(tokens + ["O"] * draw(st.integers(0, 1)))


pd_text = st.one_of(paired_pd(), st.lists(st.one_of(crossing, junk), max_size=5).map(" ".join))
matrix_text = st.tuples(st.integers(0, 3), st.lists(
    st.lists(st.integers(-3, 3), max_size=4).map(lambda r: " ".join(map(str, r))), max_size=4),
).map(lambda t: "\n".join([str(t[0])] + t[1]))
entry_text = st.lists(st.one_of(
    st.just("name: fuzz"), st.just("# comment"), pd_text.map("pd: {}".format),
    matrix_text.map("seifert:\n{}".format), matrix_text.map("matrix:\n{}".format),
    noise), min_size=1, max_size=3).map("\n".join)


@FUZZ
@given(pd_text)
def test_parse_pd_raises_only_diagram_errors(text):
    try:
        parse_pd(text)
    except DiagramError:
        pass


@FUZZ
@given(st.one_of(matrix_text, noise))
def test_parse_matrix_raises_only_value_errors(text):
    try:
        parse_matrix(text)
    except ValueError:
        pass


@FUZZ
@given(entry_text)
def test_parse_entry_raises_only_value_errors(text):
    try:
        parse_entry(text)
    except ValueError:
        pass


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(st.one_of(entry_text, matrix_text, pd_text.map("pd: {}".format)),
       st.sampled_from(["invariants", "obstruct"]))
def test_cli_on_fuzzed_files_exits_0_or_2_without_a_traceback(text, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "fuzz.txt")
        with open(path, "w") as fh:
            fh.write(text)
        argv = [command, path] + (["--budget", "4", "--q-budget", "4"] if command == "invariants" else [])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
    assert status in (0, 2)
    assert "Traceback" not in err.getvalue()
    if status == 2:
        assert err.getvalue().startswith("singdet: ") and len(err.getvalue().splitlines()) == 1
