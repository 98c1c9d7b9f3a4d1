"""`rank_mod_p` and `padic_jordan` pop their pivots in place; the swapping
kernels they replaced (`tests/oracles.py`) are the reference.

On seeded draws at p = 2, 3, 5, 7 and 13 the ranks are equal, and so are
the Wall decompositions and the exponent multisets that the Jordan kernels
give.  The raw (e, u) list may differ, since the two kernels take their
pivots in different orders; the test pins how often.
"""

import random
from collections import Counter

from singdet.exactlinalg import IntegerSymmetricMatrix, det_exact, padic_jordan, rank_mod_p
from singdet.linkform import WallDecomposition
from singdet.numtheory import legendre, ord_int
from singdet.reference import congruence, random_unimodular

from oracles import padic_jordan_swapping, rank_mod_p_swapping

PRIMES = (2, 3, 5, 7, 13)
ODD_PRIMES = PRIMES[1:]


def _symmetric(rng, n, spread, zero_diagonal=False):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + zero_diagonal, n):
            a[i][j] = a[j][i] = rng.randint(-spread, spread)
    return a


def _unit_mod_p_block(rng, p):
    """A symmetric block of size 1 or 2 whose det is prime to p."""
    while True:
        b = _symmetric(rng, rng.choice((1, 2)), 9)
        if det_exact(b) % p:
            return b


def _scaled(rng, p):
    """k*I, or a block sum of p^k-scaled blocks (unit mod p or hyperbolic,
    the latter with a zero diagonal), with alpha = ord_p(det) at most 4;
    half of them hidden by a random unimodular congruence."""
    if rng.random() < 0.3:
        n = rng.randint(1, 4)
        k = rng.choice((1, 2, 4, -1, -2)) * p ** rng.randint(0, 4 // n)
        return [[k if i == j else 0 for j in range(n)] for i in range(n)]
    D, alpha = IntegerSymmetricMatrix([]), 0
    for _ in range(rng.randint(1, 4)):
        e = rng.randint(0, 2)
        b = [[0, 1], [1, 0]] if rng.random() < 0.3 else _unit_mod_p_block(rng, p)
        if alpha + e * len(b) > 4 or D.n + len(b) > 8:
            continue
        alpha += e * len(b)
        D = D.block_sum(IntegerSymmetricMatrix([[p**e * x for x in row] for row in b]))
    if not D.n:
        D = IntegerSymmetricMatrix([[p]])
    if rng.random() < 0.5:
        D = congruence(D, random_unimodular(D.n, rng, steps=2 * D.n + 2))
    return D.entries


def _rectangular(rng):
    n, m = rng.randint(1, 8), rng.randint(1, 8)
    r = rng.randint(0, min(n, m))
    B = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
    C = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(r)]
    return [[sum(B[i][t] * C[t][j] for t in range(r)) for j in range(m)] for i in range(n)]


def seeded_draws():
    """(kind, rows): 2 150 draws in all."""
    rng = random.Random(50)
    for _ in range(800):
        yield "dense", _symmetric(rng, rng.randint(1, 8), 9)
    for _ in range(150):
        for p in ODD_PRIMES:
            yield "scaled", _scaled(rng, p)
    for _ in range(500):
        yield "zero diagonal", _symmetric(rng, rng.randint(2, 8), 9, zero_diagonal=True)
    for rows in ([], [[]], [[], [], []], [[0] * 5 for _ in range(3)]):
        yield "rank only", rows
    for _ in range(246):
        yield "rank only", _rectangular(rng)


def _wall(p, pivots):
    return WallDecomposition((p, e, "A" if legendre(u, p) == 1 else "B") for e, u in pivots)


def test_the_in_place_kernels_equal_the_swapping_ones():
    draws = Counter()
    ranks = Counter()
    pairs = Counter()  # (draw, p) pairs with alpha >= 1, by kind
    reordered = classes_differ = 0
    for kind, rows in seeded_draws():
        draws[kind] += 1
        for p in PRIMES:
            r = rank_mod_p(rows, p)
            assert r == rank_mod_p_swapping(rows, p), (rows, p)
            ranks[r == min(len(rows), len(rows[0]) if rows else 0)] += 1
        if kind == "rank only":
            continue
        det = det_exact(rows)
        if det == 0:
            continue
        for p in ODD_PRIMES:
            alpha = ord_int(det, p)
            new, old = padic_jordan(rows, p, alpha), padic_jordan_swapping(rows, p, alpha)
            assert _wall(p, new) == _wall(p, old), (rows, p)
            assert sorted(e for e, _ in new) == sorted(e for e, _ in old), (rows, p)
            if alpha:
                pairs[kind] += 1
                reordered += new != old
                classes_differ += sorted((e, legendre(u, p)) for e, u in new) \
                    != sorted((e, legendre(u, p)) for e, u in old)
    assert sum(draws.values()) >= 2000
    assert draws == {"dense": 800, "scaled": 600, "zero diagonal": 500, "rank only": 250}
    assert ranks == {True: 6772, False: 3978}  # full rank or not
    assert pairs == {"dense": 616, "scaled": 734, "zero diagonal": 420}
    # 35 of the 1 770 raw lists change order; on 10 of those the pivots'
    # Legendre classes differ too, and only A+A = B+B makes the forms equal
    assert (reordered, classes_differ) == (35, 10)
