"""Primality and Legendre work is done once where once suffices: `is_prime`
takes one square root, `prime_factors` one per shrink of the cofactor, and
the F_p elimination one Legendre symbol per (matrix, p).  Primality is
still verified on every call."""

import contextlib
import io
import math

import pytest

import singdet.numtheory as numtheory
import singdet.seifert as seifert
from singdet.cli import main
from singdet.exactlinalg import IntegerSymmetricMatrix
from singdet.numtheory import is_prime, legendre, prime_factors

BIG_PRIME = 999999999959  # a prime below 10^12


@pytest.fixture
def isqrt_calls(monkeypatch):
    calls = []

    def counting(n):
        calls.append(n)
        return math.isqrt(n)

    monkeypatch.setattr(numtheory, "isqrt", counting)
    return calls


def test_is_prime_takes_one_square_root(isqrt_calls):
    assert is_prime(BIG_PRIME) and not is_prime(BIG_PRIME * 7)
    assert len(isqrt_calls) == 2


def test_prime_factors_takes_a_square_root_per_shrink(isqrt_calls):
    assert prime_factors(BIG_PRIME) == [BIG_PRIME]
    assert len(isqrt_calls) == 1
    isqrt_calls.clear()
    assert prime_factors(2 * 3 * 5 * 7 * 999983 * 1000003) == [2, 3, 5, 7, 999983, 1000003]
    assert len(isqrt_calls) == 4  # once at the start, once per factor found from 5 on


def test_elimination_takes_one_legendre_symbol_per_matrix_and_prime(monkeypatch):
    calls = []

    def counting(a, p):
        calls.append((a, p))
        return legendre(a, p)

    monkeypatch.setattr(seifert, "legendre", counting)
    M = IntegerSymmetricMatrix([[2, 1, 0, 0, 0], [1, 4, 1, 0, 0], [0, 1, 6, 1, 0],
                                [0, 0, 1, 8, 1], [0, 0, 0, 1, 10]])
    for p in (3, 5, 7, 11, 13):
        calls.clear()
        seifert._unit_block_class_mod_p(M, p)
        assert [q for _, q in calls] == [p]


def test_reports_on_a_prime_determinant_near_the_factoring_limit(tmp_path, isqrt_calls):
    path = tmp_path / "big.txt"
    path.write_text("2\n1 1\n0 249999999990\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["invariants", str(path), "--format", "machine"]) == 0
        assert main(["obstruct", str(path), "--format", "machine"]) == 0
    assert f"det={BIG_PRIME}" in out.getvalue()
    assert len(isqrt_calls) < 100  # two million when isqrt ran at every trial divisor
