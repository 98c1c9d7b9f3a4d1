"""The Z[zeta24] arithmetic runs on the Laurent kernel, and the two
symmetric eliminations share one pivot step; the routines they replaced
(`tests/oracles.py`) are the reference.

`Cyclo24`'s product, power and conjugate and
`LaurentPolynomial.eval_root_of_unity` are compared with the nested
loop, square-and-multiply and the two sums of their own, on seeded draws
with coordinates up to 10^6 in size, powers 0 to 12 and all five
evaluation points.  `_symmetric_bareiss` and `seifert._eliminate_mod_p`
are compared with their own-step versions on seeded symmetric matrices of
size at most 12 whose zero diagonals force one shear or more, over Z and
at p = 3, 5, 7 and 13; singular ones among them.  The test counts the
shears through the pivot step and pins how often they happen, how often a
sheared entry mod p reaches p or more, and how many draws are singular;
at every step, the popped row must equal the popped column.
"""

import random
from collections import Counter

from oracles import (
    cyclo24_conj,
    cyclo24_mul,
    cyclo24_pow,
    eliminate_mod_p_own_step,
    eval_root_of_unity,
    symmetric_bareiss_own_step,
)
from singdet import exactlinalg, seifert
from singdet.rings import HALFPOWER, Cyclo24, LaurentPolynomial

PRIMES = (3, 5, 7, 13)
CYCLO_DRAWS = 780
KERNEL_DRAWS = 1500


def _cyclo(rng):
    """Eight coordinates, each zero now and then, up to 10^6 in size."""
    return Cyclo24([0 if rng.random() < 0.2 else rng.randint(-10**6, 10**6) for _ in range(8)])


def test_cyclo24_arithmetic_equals_its_own_loops():
    rng = random.Random(51)
    powers = Counter()
    for n in range(CYCLO_DRAWS):
        x, y = _cyclo(rng), _cyclo(rng)
        assert x * y == cyclo24_mul(x, y), (x, y)
        assert x * -7 == cyclo24_mul(x, -7) and 3 * x == cyclo24_mul(x, 3), x
        assert x.conj() == cyclo24_conj(x), x
        k = n % 13
        assert x ** k == cyclo24_pow(x, k), (x, k)
        powers[k] += 1
        poly = LaurentPolynomial({rng.randint(-30, 30): rng.randint(-10**6, 10**6)
                                  for _ in range(rng.randint(0, 12))})
        for point, e in HALFPOWER.items():
            assert poly.eval_root_of_unity(e) == eval_root_of_unity(poly, e), (poly, point)
    assert powers == {k: 60 for k in range(13)}
    for x in (Cyclo24.zero(), Cyclo24.one(), Cyclo24.sqrt2(), Cyclo24.i_sqrt3()):
        for k in range(13):
            assert x ** k == cyclo24_pow(x, k), (x, k)


def _zero_diagonal(rng, n, spread):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a[i][j] = a[j][i] = rng.randint(-spread, spread)
    return a


def _kernel_draws():
    """(kind, rows), all of size 1 to 12 with a zero diagonal: hyperbolic
    planes, one shear each, sparse and dense blocks, entries that are
    multiples of the primes, and singular ones with a row repeated."""
    rng = random.Random(51)
    for t in range(KERNEL_DRAWS):
        n = rng.randint(1, 12)
        kind = ("hyperbolic", "sparse", "dense", "multiples", "singular")[t % 5]
        if kind == "hyperbolic":  # a hidden orthogonal sum of [[0, x], [x, 0]]
            a = [[0] * n for _ in range(n)]
            order = rng.sample(range(n), n)
            for i, j in zip(order[::2], order[1::2]):
                a[i][j] = a[j][i] = rng.randint(-30, 30)
        elif kind == "sparse":
            a = _zero_diagonal(rng, n, 1)
            for i in range(n):
                for j in range(n):
                    if rng.random() < 0.3:
                        a[i][j] = a[j][i] = 0
        elif kind == "dense":
            a = _zero_diagonal(rng, n, 10**6)
        elif kind == "multiples":
            a = _zero_diagonal(rng, n, 4)
            for i in range(n):
                for j in range(i + 1, n):
                    a[i][j] = a[j][i] = a[i][j] * rng.choice(PRIMES)
        else:
            a = _zero_diagonal(rng, n, 12)
            if n > 2:
                k, l = rng.sample(range(n), 2)
                a[k][l] = a[l][k] = 0  # row k repeats row l
                for i in range(n):
                    if i not in (k, l):
                        a[k][i] = a[i][k] = a[l][i]
        yield kind, a


def test_the_shared_pivot_step_equals_the_eliminations_own(monkeypatch):
    shears = []  # the largest value that each shear of the current call returns
    steps = Counter()  # pivot steps by whether they shear
    pop_pivot = exactlinalg._pop_pivot

    def counting(a):
        sheared = any(map(any, a)) and not any(a[i][i] for i in range(len(a)))
        step = pop_pivot(a)
        if step is not None:
            top, piv, col = step
            # the shear adds column j to column i as well as row j to row i,
            # so the block stays symmetric: the congruence that makes each
            # pivot a leading principal minor
            assert top == col, (top, col)
            steps["shear" if sheared else "diagonal"] += 1
            if sheared:
                shears.append(max(piv, *top, *col))
        return step

    monkeypatch.setattr(exactlinalg, "_pop_pivot", counting)
    monkeypatch.setattr(seifert, "_pop_pivot", counting)
    draws, over_z, singular = Counter(), Counter(), Counter()
    mod_p = Counter()  # (draw, p) pairs: with a shear, with a sheared entry >= p
    for kind, a in _kernel_draws():
        draws[kind] += 1
        shears.clear()
        got = exactlinalg._symmetric_bareiss([row[:] for row in a])
        assert got == symmetric_bareiss_own_step([row[:] for row in a]), a
        over_z[min(len(shears), 3)] += 1
        singular[kind] += got[1] == 0
        for p in PRIMES:
            shears.clear()
            assert seifert._eliminate_mod_p(a, p) == eliminate_mod_p_own_step(a, p), (a, p)
            mod_p["shear"] += bool(shears)
            mod_p["entry >= p"] += any(x >= p for x in shears)
    assert draws == dict.fromkeys(("hyperbolic", "sparse", "dense", "multiples", "singular"), 300)
    # draws by the number of shears over Z (3 for three or more); a draw
    # with none is all zero, as every draw of size 1 is
    assert over_z == {0: 156, 1: 1004, 2: 131, 3: 209}
    assert singular == {"hyperbolic": 163, "sparse": 216, "dense": 27, "multiples": 26, "singular": 269}
    # of the 6 000 (draw, p) pairs, those with a shear mod p, and those where
    # an entry of the sheared row or column is p or more before reduction
    assert mod_p == {"shear": 5260, "entry >= p": 4332}
    # every step of the 7 500 runs had its popped row checked
    assert steps == {"shear": 10174, "diagonal": 31805}

