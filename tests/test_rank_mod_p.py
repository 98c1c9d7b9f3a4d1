"""`rank_mod_p` by forward elimination equals the Gauss-Jordan rank it
replaced, on seeded square and rectangular inputs."""

import random

import pytest

from singdet.exactlinalg import rank_mod_p


def _gauss_jordan_rank(rows, p):
    """The former route: normalize each pivot row and clear its column
    above and below."""
    n = len(rows)
    if n == 0:
        return 0
    m = len(rows[0])
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(m):
        piv = next((i for i in range(rank, n) if a[i][col] % p != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][col] % p != 0:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def _seeded_inputs(p, seed):
    """Zero, full-rank and rank-deficient matrices, square and rectangular."""
    rng = random.Random(seed)
    out = [[], [[0] * 3 for _ in range(4)], [[p, 2 * p], [0, -p]]]
    for k in range(120):
        n, m = rng.randrange(1, 9), rng.randrange(1, 9)
        if k % 3 == 0:
            m = n
        r = rng.randrange(0, min(n, m) + 1)
        if k % 4 == 0:  # random entries: usually of full rank
            rows = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        else:  # a product through r dimensions, rank at most r, plus p-multiples
            B = [[rng.randrange(-4, 5) for _ in range(r)] for _ in range(n)]
            C = [[rng.randrange(-4, 5) for _ in range(m)] for _ in range(r)]
            rows = [[sum(B[i][t] * C[t][j] for t in range(r)) + p * rng.randrange(-2, 3)
                     for j in range(m)] for i in range(n)]
        out.append(rows)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_rank_mod_p_equals_the_gauss_jordan_rank(p):
    ranks = []
    for rows in _seeded_inputs(p, 100 + p):
        want = _gauss_jordan_rank(rows, p)
        assert rank_mod_p(rows, p) == want, (rows, p)
        ranks.append((want, len(rows), len(rows[0]) if rows else 0))
    assert any(r == 0 for r, _, _ in ranks)
    assert any(r == min(n, m) > 0 for r, n, m in ranks)
    assert any(0 < r < min(n, m) for r, n, m in ranks)
    assert any(n != m for _, n, m in ranks)
