"""A negative matrix size, a repeated prime, a prime that is not an
integer or cannot be proven prime and a negative crossing budget are
rejected, not read as something else."""

import os

import pytest

from singdet.cli import main
from singdet.exactlinalg import parse_matrix

from test_cli_input import CORPUS_DIR

TREFOIL = os.path.join(CORPUS_DIR, "3_1.txt")


def test_parse_matrix_rejects_a_negative_size():
    with pytest.raises(ValueError, match="-1"):
        parse_matrix("-1\n5\n")
    assert parse_matrix("0\n") == []


@pytest.mark.parametrize("cmd", ["invariants", "obstruct"])
@pytest.mark.parametrize("block", ["seifert", "matrix"])
def test_cli_rejects_a_negative_matrix_size(tmp_path, capsys, cmd, block):
    path = tmp_path / "neg.txt"
    path.write_text(f"name: neg\n{block}:\n-1\n5\n")
    assert main([cmd, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("singdet: ") and "-1" in lines[0]


@pytest.mark.parametrize("cmd,primes", [("invariants", "3,3"), ("obstruct", "7,7"),
                                        ("invariants", "3,5,3")])
def test_cli_rejects_a_repeated_prime(capsys, cmd, primes):
    with pytest.raises(SystemExit) as exc:
        main([cmd, TREFOIL, "--primes", primes])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "listed twice" in captured.err


@pytest.mark.parametrize("flag,value,token", [("--primes", "3,,5", "''"), ("--primes", "3,x", "'x'")])
def test_cli_names_a_prime_that_is_not_an_integer(capsys, flag, value, token):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", TREFOIL, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if token in line]
    assert len(lines) == 1 and "is not an integer" in lines[0], captured.err
    assert "_odd_prime" not in lines[0] and "_primes_arg" not in lines[0]


@pytest.mark.parametrize("value,reason", [("9", "is not an odd prime"),
                                          ("618970019642690137449562111", "cannot prove")])
def test_cli_refuses_a_prime_it_cannot_prove_in_one_line(capsys, value, reason):
    # 2^89 - 1 is prime, but only past the bound where Miller-Rabin is a proof
    with pytest.raises(SystemExit) as exc:
        main(["invariants", TREFOIL, "--primes", value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if value in line]
    assert len(lines) == 1 and "argument --primes" in lines[0] and reason in lines[0], captured.err


@pytest.mark.parametrize("cmd", ["invariants", "obstruct"])
@pytest.mark.parametrize("flag,value", [("--prime", "7"), ("--form", "machine")])
def test_cli_rejects_a_removed_or_abbreviated_option(capsys, cmd, flag, value):
    with pytest.raises(SystemExit) as exc:
        main([cmd, TREFOIL, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments" in captured.err


@pytest.mark.parametrize("flag,value", [("--budget", "-3"), ("--q-budget", "-1"),
                                        ("--budget", "x"), ("--q-budget", "2.5")])
def test_cli_rejects_a_budget_that_is_not_a_count(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["invariants", TREFOIL, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = [line for line in captured.err.splitlines() if repr(value) in line]
    assert len(lines) == 1 and flag in lines[0] and "not an integer >= 0" in lines[0], captured.err


def test_cli_accepts_a_zero_budget(capsys):
    assert main(["invariants", TREFOIL, "--format", "machine", "--q-budget", "0", "--budget", "0"]) == 0
    keys = {line.split("=")[0] for line in capsys.readouterr().out.splitlines()}
    assert "jones" not in keys and "q_poly" not in keys and "det" in keys
