"""The per-prime layer reads det first.

At an odd prime p that does not divide det M, M is nondegenerate over F_p:
`_unit_block_class_mod_p` returns (0, (det M | p)) without eliminating.
Here that shortcut is checked against the elimination it skips, run on the
residual block R of the congruence core by hand, over seeded symmetric
matrices (0 to 8 rows, even and odd diagonals) and both Goeritz shades of
seeded braid closures at p = 3 to 17.  The elimination's nondegenerate
branch, which production no longer reaches, is pinned to (0, det R mod p),
and a CLI run counts the eliminations it makes.
"""

import contextlib
import io
import random

import singdet.seifert as seifert
from singdet.cli import main
from singdet.diagrams import braid_closure_pd, goeritz_from_diagram
from singdet.exactlinalg import (
    IntegerSymmetricMatrix,
    congruence_core,
    corank_mod_p,
    det_exact,
)
from singdet.numtheory import legendre
from singdet.reference import congruence, random_unimodular

PRIMES = (3, 5, 7, 11, 13, 17)


def seeded_symmetric(count=240, seed=1617):
    """Symmetric matrices of 0 to 8 rows, half with even diagonal, a third
    with a 1x1 block divisible by some p in PRIMES so that p | det, each
    scrambled by a unimodular congruence."""
    rng = random.Random(seed)
    for k in range(count):
        n = rng.randrange(0, 8)
        A = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        rows = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
        if k % 2:
            for i in range(n):
                rows[i][i] = rng.randrange(-5, 6)
        M = IntegerSymmetricMatrix(rows)
        if k % 3 == 0:
            p = rng.choice(PRIMES)
            M = M.block_sum(IntegerSymmetricMatrix([[p * rng.choice((1, 2, -1))]]))
        yield congruence(M, random_unimodular(M.n, rng)) if M.n else M


def seeded_goeritz(count=8, seed=29):
    rng = random.Random(seed)
    for _ in range(count):
        strands = rng.randint(3, 5)
        word = [k * rng.choice((1, -1)) for k in range(1, strands)]
        word += [rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(rng.randint(8, 30))]
        rng.shuffle(word)
        d = braid_closure_pd(word, strands)
        for shade in (0, 1):
            yield goeritz_from_diagram(d, shade)


def test_det_first_agrees_with_the_elimination_it_skips():
    skipped = run = 0
    for M in [*seeded_symmetric(), *seeded_goeritz()]:
        core = congruence_core(M)
        det_r = det_exact(core.R)
        for p in PRIMES:
            d, unit_det = seifert._eliminate_mod_p(core.R, p)
            slow = (d, legendre(core.det_B * unit_det, p))
            fast = seifert._unit_block_class_mod_p(M, p)
            if core.det % p:
                skipped += 1
                assert fast == slow == (0, legendre(det_exact(M.entries), p)), (M.entries, p)
                assert (d, unit_det) == (0, det_r % p), (core.R, p)
            else:
                run += 1
                assert fast == slow, (M.entries, p)
                assert d == corank_mod_p(M.entries, p) >= 1, (M.entries, p)
    assert skipped >= 1000 and run >= 100


def run_cli(tmp_path, text):
    path = tmp_path / "a.txt"
    path.write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["invariants", str(path), "--format", "machine"]) == 0
        assert main(["obstruct", str(path), "--format", "machine"]) == 0


def test_cli_eliminates_only_at_primes_dividing_det(monkeypatch, tmp_path):
    calls = []
    real = seifert._eliminate_mod_p

    def counting(R, p):
        calls.append(p)
        return real(R, p)

    monkeypatch.setattr(seifert, "_eliminate_mod_p", counting)
    # A = [[1, 1], [0, 5]]: M = [[2, 1], [1, 10]], det 19, coprime to
    # 3*5*7*11*13; only the Lickorish check looks at 19 itself
    run_cli(tmp_path, "2\n1 1\n0 5\n")
    assert calls == [19]
    # A = [[0, 1], [0, 1]]: M = [[0, 1], [1, 2]], det -1: nothing to eliminate
    calls.clear()
    run_cli(tmp_path, "2\n0 1\n0 1\n")
    assert calls == []
    # the trefoil, det 3
    calls.clear()
    run_cli(tmp_path, "2\n-1 1\n0 -1\n")
    assert calls and set(calls) == {3}
