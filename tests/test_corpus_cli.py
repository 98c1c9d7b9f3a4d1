import os
import shutil
import subprocess
import sys

import pytest

from singdet.corpus import CorpusEntry, corpus_knots, load_corpus, parse_entry


def test_corpus_loads_and_is_well_formed():
    entries = load_corpus()
    assert len(entries) >= 30
    for name, e in entries.items():
        assert e.name == name
        assert e.diagram is not None or e.seifert is not None or e.matrix is not None


def test_corpus_has_enough_small_knots():
    assert len(corpus_knots(9)) >= 20
    assert len(corpus_knots(8)) >= 12


def test_corpus_paper_entries_present():
    entries = load_corpus()
    for name in ("p777m", "p5_17_5", "example_d17", "m12n553", "hopf_plus",
                 "t2_4", "t2_4_rev", "unlink2"):
        assert name in entries
    for i in (1, 2, 3, 4):
        e = entries[f"cx195_{i}"]
        from singdet.exactlinalg import det_exact

        assert abs(det_exact(e.seifert.M.entries)) == 195


def test_parse_entry_roundtrip():
    text = "# comment\nname: demo\npd: X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\nseifert:\n2\n-1 1\n0 -1\n"
    e = parse_entry(text)
    assert e.name == "demo"
    assert e.diagram.n == 3
    assert e.seifert.M.entries == ((-2, 1), (1, -2))
    with pytest.raises(ValueError):
        parse_entry("name: empty\n")
    with pytest.raises(ValueError):
        parse_entry("garbage line\n")


def test_corpus_ignores_the_environment(tmp_path, monkeypatch):
    (tmp_path / "solo.txt").write_text("name: solo\npd: O\n")
    monkeypatch.setenv("SINGDET_CORPUS", str(tmp_path))
    bundled = load_corpus()
    assert "p5_17_5" in bundled and "solo" not in bundled
    assert list(load_corpus(str(tmp_path))) == ["solo"]


SRC = os.path.join(os.path.dirname(__file__), "..", "src")
CORPUS_DIR = os.path.join(SRC, "singdet", "corpus")


def run_cli(*args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "singdet.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )


def test_cli_invariants_text():
    proc = run_cli("invariants", os.path.join(CORPUS_DIR, "p5_17_5.txt"))
    assert proc.returncode == 0
    out = proc.stdout
    assert "det" in out and "195" in out
    assert "delta_5   " in out or "delta_5" in out
    assert "-sqrt5" in out


def test_cli_invariants_machine_stable():
    path = os.path.join(CORPUS_DIR, "3_1.txt")
    a = run_cli("invariants", path, "--format", "machine")
    b = run_cli("invariants", path, "--format", "machine")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    assert "delta_5=-1" in a.stdout
    assert "jones=-t^-4 + t^-3 + t^-1" in a.stdout


def test_cli_obstruct_example():
    proc = run_cli("obstruct", os.path.join(CORPUS_DIR, "example_d17.txt"),
                   "--primes", "17", "--format", "machine")
    assert proc.returncode == 0
    assert "improved_17=u >= 4" in proc.stdout
    assert "lickorish=admissible zeta: none" in proc.stdout


def test_cli_obstruct_pretzel_signed():
    proc = run_cli("obstruct", os.path.join(CORPUS_DIR, "p777m.txt"),
                   "--primes", "7", "--format", "machine")
    assert proc.returncode == 0
    # delta_7 = -1 at the bound u = 2 forces opposite-sign changes
    assert "wendt_7=u >= 2" in proc.stdout
    assert "(u+=1,u-=1)" in proc.stdout
    assert "(u+=2,u-=0)" not in proc.stdout


def test_cli_obstruct_unlink_vacuous():
    proc = run_cli("obstruct", os.path.join(CORPUS_DIR, "unlink2.txt"),
                   "--primes", "5", "--format", "machine")
    assert proc.returncode == 0
    assert "wendt_5=u >= 0" in proc.stdout


def test_cli_verify_suites_pass_and_are_stable():
    a = run_cli("verify", "examples", "--seed", "3")
    b = run_cli("verify", "examples", "--seed", "3")
    assert a.returncode == 0 and a.stdout == b.stdout
    assert "VERIFY PASS" in a.stdout

    # the Jacobi identity is checked by the tests alone (tests/oracles.py)
    proc = run_cli("verify", "jacobi", "--seed", "5")
    assert proc.returncode == 2 and proc.stdout == ""


def test_cli_rejects_bad_prime():
    proc = run_cli("invariants", os.path.join(CORPUS_DIR, "3_1.txt"), "--primes", "4")
    assert proc.returncode != 0
    assert "not an odd prime" in proc.stderr


def test_cli_bare_matrix_input(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("2\n-1 1\n0 -1\n")
    proc = run_cli("invariants", str(path), "--format", "machine")
    assert proc.returncode == 0
    assert "det=3" in proc.stdout
    assert "alexander=t^-1 - 1 + t^1" in proc.stdout


def test_cli_corpus_flag(tmp_path):
    (tmp_path / "only.txt").write_text("name: only\npd: O\n")
    proc = run_cli("verify", "examples", "--corpus", str(tmp_path))
    # examples suite needs the bundled corpus; with an override missing the
    # entries it must fail loudly rather than silently pass
    assert proc.returncode != 0
    assert "'example_d17'" in proc.stderr


def test_cli_corpus_entry_without_its_block(tmp_path):
    """An entry that lacks the block a suite reads is malformed input: one
    error line naming the entry and the block, exit status 2."""
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS_DIR, corpus)
    (corpus / "example_d17.txt").write_text(
        "name: example_d17\npd: X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)\n")
    proc = run_cli("verify", "examples", "--corpus", str(corpus))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == "singdet: corpus entry 'example_d17' has no matrix block\n"
