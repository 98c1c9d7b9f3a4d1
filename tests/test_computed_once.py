"""Each per-matrix fact is computed once, and the shortcuts agree with the
routes they replace.

`d_p_of` reads d_p from the F_p elimination that `delta_p` runs; `mu_of`
and that elimination are memoized on the matrix object, so the memo lives
exactly as long as the matrix.  The Q skein frees its memo on return.
`alexander_poly` takes one determinant per matrix.
"""

import gc
import os
import random

import pytest

import singdet.evaluate as evaluate
import singdet.linkform as linkform
import singdet.seifert as seifert
from singdet.cli import main
from singdet.corpus import load_corpus
from singdet.diagrams import pretzel_pd, q_via_skein, seifert_matrix_from_diagram
from singdet.evaluate import alexander_poly
from singdet.exactlinalg import IntegerSymmetricMatrix, SeifertData, corank_mod_p, det_of
from singdet.linkform import delta_from_wall, wall_of
from singdet.reference import congruence, random_unimodular
from singdet.seifert import d_p_of, delta_p, mu_of

from test_cli_input import CORPUS_DIR
from test_diagram_facts import count_calls

PRIMES = (3, 5, 7, 11, 13)


def _seeded_even_symmetric(count=320, seed=2601):
    """Even symmetric matrices, n <= 8: plain, zero-diagonal, singular over Z,
    and M1 + p*M2 block sums (corank mod p at least n2), each scrambled by a
    unimodular congruence."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = k % 4
        n = rng.randrange(1, 7)
        A = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        rows = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
        if kind == 1:
            for i in range(n):
                rows[i][i] = 0
        M = IntegerSymmetricMatrix(rows)
        if kind == 2:
            M = M.block_sum(IntegerSymmetricMatrix([[0]]))
        elif kind == 3:
            m = rng.randrange(1, 3)
            B = [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(m)]
            p = rng.choice(PRIMES)
            M = M.block_sum(IntegerSymmetricMatrix(
                [[p * (B[i][j] + B[j][i]) for j in range(m)] for i in range(m)]))
        out.append(congruence(M, random_unimodular(M.n, rng)))
    return out


def test_d_p_of_equals_corank_mod_p_on_seeded_matrices():
    coranks = []
    for M in _seeded_even_symmetric():
        for p in PRIMES:
            d = corank_mod_p(M.entries, p)
            assert d_p_of(M, p) == d, (M.entries, p)
            coranks.append(d)
    assert len(coranks) >= 300 * len(PRIMES)
    assert coranks.count(0) and coranks.count(1) and max(coranks) >= 2


@pytest.mark.parametrize("twists", [(3, -3, 3), (-5, -3, 3)])
def test_d_p_of_equals_corank_mod_p_on_vogel_matrices(twists):
    M = seifert_matrix_from_diagram(pretzel_pd(*twists)).M
    for p in PRIMES:
        assert d_p_of(M, p) == corank_mod_p(M.entries, p), (twists, p)


@pytest.mark.parametrize("p", [2, 1, 9, -3])
def test_d_p_of_rejects_p_that_is_not_an_odd_prime(p):
    with pytest.raises(ValueError, match="not an odd prime"):
        d_p_of(IntegerSymmetricMatrix([[0, 7], [7, 0]]), p)


def _count_corank_calls(monkeypatch):
    calls = []

    def counting(rows, p):
        calls.append(p)
        return corank_mod_p(rows, p)

    monkeypatch.setattr(seifert, "corank_mod_p", counting)
    return calls


@pytest.mark.parametrize("command", ["invariants", "obstruct"])
def test_cli_computes_mu_once_per_matrix(monkeypatch, capsys, command):
    calls = _count_corank_calls(monkeypatch)
    path = os.path.join(CORPUS_DIR, "m12n553.txt")
    assert main([command, path]) == 0
    assert len(calls) == 1
    # a second run parses a new matrix object, which computes again
    assert main([command, path]) == 0
    assert len(calls) == 2


def test_the_jordan_kernel_runs_once_per_prime_of_det(monkeypatch):
    """The Wall route reads every delta_p off the one Wall decomposition of
    M, so the p-adic Jordan kernel runs once per prime of det, and never for
    a prime that does not divide it."""
    M = load_corpus()["example_d17"].matrix
    assert abs(det_of(M)) == 3 * 17**3
    counts = count_calls(monkeypatch, "padic_jordan", module=linkform)
    for p in (3, 5, 7, 11, 13, 17):
        delta_from_wall(M, p)
    wall_of(M)
    assert counts == {"padic_jordan": 2}


def test_alexander_poly_takes_one_determinant_per_matrix(monkeypatch):
    """The polynomial is read off det(A^t - 2^b A) alone: one `det_exact`
    call per matrix, whatever its size."""
    matrices = ([SeifertData([]), SeifertData([[3]])]
                + [e.seifert for _, e in sorted(load_corpus().items()) if e.seifert is not None]
                + [seifert_matrix_from_diagram(pretzel_pd(*t)) for t in ((3, -3, 3), (-5, -3, 3))])
    counts = count_calls(monkeypatch, "det_exact", module=evaluate)
    for A in matrices:
        alexander_poly(A)
    assert (len(matrices), max(A.n for A in matrices)) == (14, 42)
    assert counts == {"det_exact": 14}


def test_memo_lives_on_the_matrix_object(monkeypatch):
    calls = _count_corank_calls(monkeypatch)
    rows = [[-2, 0, -1, 0], [0, -6, 9, 3], [-1, 9, -8, -3], [0, 3, -3, 0]]
    M = IntegerSymmetricMatrix(rows)
    first = [mu_of(M)] + [(d_p_of(M, p), delta_p(M, p)) for p in PRIMES]
    again = [mu_of(M)] + [(d_p_of(M, p), delta_p(M, p)) for p in PRIMES]
    assert first == again and len(calls) == 1
    twin = IntegerSymmetricMatrix(rows)
    assert twin == M and mu_of(twin) == first[0]
    assert len(calls) == 2


def test_seifert_data_builds_its_symmetrization_once():
    S = SeifertData([[-1, 1], [0, -1]])
    assert S.M is S.M
    assert S.M.entries == ((-2, 1), (1, -2))
    assert S == SeifertData([[-1, 1], [0, -1]])


def test_q_skein_frees_its_memo_on_return():
    d = pretzel_pd(3, -3, 3)
    q_via_skein(d)
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        q_via_skein(d)
        after = len(gc.get_objects())
    finally:
        gc.enable()
    assert after <= before, after - before
