"""The unimodular split and the sparse kernels that read it.

`det_of`, `signature` and the F_p elimination behind `delta_p` and
`d_p_of` read one congruence M = B + R, B unimodular, split off M on
unit pivots; a dense loop finishes R.  `det_exact` is one Bareiss
elimination of the whole matrix, and `det_of` is compared with it on the
seeded symmetric family, on Vogel matrices and on both Goeritz shades of
the corpus diagrams; `det_exact` itself is compared on the non-symmetric
seeded family with `_fraction_det`, Gaussian elimination over the
rationals.  The dense sign and F_p routines that the kernels replaced live
on here as oracles (`_dense_sign`, `_dense_unit_block_class_mod_p`), and
each kernel is compared with its oracle on the same inputs.  On the
seeded symmetric family, mu and the Wall summands read from R are also
compared with the same kernels run on the whole of M.  The split runs on
every symmetric input, sparse or dense; the family keeps both kinds, by
the rule `_is_sparse`, so that both are covered.
"""

import functools
import random
from fractions import Fraction

import pytest

import singdet.diagrams as diagrams
from singdet.corpus import load_corpus
from singdet.diagrams import LinkDiagram, goeritz_from_diagram, seifert_matrix_from_diagram
from singdet.exactlinalg import (
    IntegerSymmetricMatrix,
    SeifertData,
    _split_unimodular_blocks,
    corank_mod_p,
    det_exact,
    det_of,
    padic_jordan,
)
from singdet.linkform import WallDecomposition, wall_of
from singdet.numtheory import legendre, ord_int, prime_factors
from singdet.reference import congruence, random_unimodular
from singdet.seifert import _unit_block_class_mod_p, mu_of, signature

from test_diagram_facts import count_calls

PRIMES = (3, 5, 7, 11, 13, 999_999_999_959)


def _is_sparse(rows) -> bool:
    """Most entries are zero."""
    return 2 * sum([row.count(0) for row in rows]) > len(rows) ** 2


def _fraction_det(rows) -> int:
    """det by Gaussian elimination over the rationals: no step is shared
    with the fraction-free Bareiss loop of `det_exact`."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        i = next((i for i in range(k, n) if a[i][k]), None)
        if i is None:
            return 0
        if i != k:
            a[k], a[i] = a[i], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            for j in range(k + 1, n):
                a[i][j] -= f * a[k][j]
    assert det.denominator == 1
    return int(det)


def _dense_sign(rows) -> int:
    """sign(M) by the fraction-free symmetric elimination over the whole
    matrix, the signature route before the unimodular split."""
    a = [list(row) for row in rows]
    sig, prev = 0, 1
    while a:
        m = len(a)
        i = next((i for i in range(m) if a[i][i]), None)
        if i is None:
            ij = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
            if ij is None:
                break
            i, j = ij
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
        top = a.pop(i)
        piv = top.pop(i)
        sig += 1 if (piv > 0) == (prev > 0) else -1
        col = [row.pop(i) for row in a]
        a = [[(piv * x - c * y) // prev for x, y in zip(row, top)] for row, c in zip(a, col)]
        prev = piv
    return sig


def _dense_unit_block_class_mod_p(rows, p: int) -> tuple[int, int]:
    """(d_p, Legendre class of the unit block) by the dense symmetric
    elimination mod p that updated whole rows and columns."""
    n = len(rows)
    w = [[x % p for x in row] for row in rows]
    unit_det = 1
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if w[i][i] % p), None)
        if piv is None:
            off = next(
                ((i, j) for i in range(k, n) for j in range(i + 1, n) if w[i][j] % p),
                None,
            )
            if off is None:
                break
            i, j = off
            for t in range(n):
                w[i][t] = (w[i][t] + w[j][t]) % p
            for t in range(n):
                w[t][i] = (w[t][i] + w[t][j]) % p
            piv = i
        if piv != k:
            for t in range(n):
                w[k][t], w[piv][t] = w[piv][t], w[k][t]
            for t in range(n):
                w[t][k], w[t][piv] = w[t][piv], w[t][k]
        a = w[k][k]
        unit_det = unit_det * a % p
        inv = pow(a, -1, p)
        for i in range(k + 1, n):
            c = (-w[i][k] * inv) % p
            if c:
                for t in range(n):
                    w[i][t] = (w[i][t] + c * w[k][t]) % p
                for t in range(n):
                    w[t][i] = (w[t][i] + c * w[t][k]) % p
        k += 1
    r = pow(unit_det, (p - 1) // 2, p)  # Euler's criterion: p is known prime
    return n - k, 1 if r == 1 else -1


def _front_end_sign(rows) -> int:
    sig, rest = _split_unimodular_blocks(rows)
    return sig + _dense_sign(rest)


# Entry pools: with units, without any +-1 entry (only the dense remainder
# runs), and large entries.
POOLS = ((-1, 1, 2, -2, 3), (-4, -3, -2, 2, 3, 4), (-1, 1, 7, -9, 12, 100))


def _seeded_square(rng, symmetric: bool):
    n = rng.randint(1, 12)
    density = rng.choice((0.1, 0.25, 0.5, 1.0))
    pool = rng.choice(POOLS)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if symmetric else 0, n):
            if rng.random() < density:
                a[i][j] = rng.choice(pool)
            if symmetric:
                a[j][i] = a[i][j]
    diagonal = rng.choice(("as drawn", "zero", "odd", "even"))
    for i in range(n):
        if diagonal == "zero":
            a[i][i] = 0
        elif diagonal == "odd":
            a[i][i] = rng.choice((-3, -1, 1, 3))
        elif diagonal == "even":
            a[i][i] = rng.choice((-2, 0, 2, 4))
    if n > 1 and rng.random() < 0.25:  # singular: a repeated row (and column)
        i, j = rng.sample(range(n), 2)
        a[i] = list(a[j])
        if symmetric:
            for row in a:
                row[i] = row[j]
    return a


# Unimodular pairs the split can take: definite (D = a_ii a_jj - 1 = +1)
# and indefinite (D = -1, even diagonal).
DEFINITE = (((2, 1), (1, 1)), ((-1, -1), (-1, -2)))
INDEFINITE = (((0, 1), (1, 0)), ((0, -1), (-1, 2)), ((2, 1), (1, 0)))


def _hidden_pairs(rng, even: bool):
    """T (P_1 + ... + P_k + C) T^t for unimodular pairs P, a sparse block C
    and a short `random_unimodular` T, which hides the pairs; with even
    set, only indefinite pairs and an even diagonal."""
    c = rng.randint(1, 5)
    C = [[0] * c for _ in range(c)]
    for i in range(c):
        C[i][i] = rng.choice((-4, -2, 0, 2, 4) if even else (-3, -2, 0, 2, 3))
        for j in range(i + 1, c):
            if rng.random() < 0.4:
                C[i][j] = C[j][i] = rng.choice((-3, -2, 2, 3))
    M = IntegerSymmetricMatrix(C)
    for _ in range(rng.randint(1, 3)):
        M = IntegerSymmetricMatrix(rng.choice(INDEFINITE if even else INDEFINITE + DEFINITE)).block_sum(M)
    return congruence(M, random_unimodular(M.n, rng, steps=rng.randint(1, 4))).entries


@functools.lru_cache(maxsize=None)
def _family(symmetric: bool, count: int = 600, seed: int = 1957):
    rng = random.Random(f"{seed}:{symmetric}")
    family = [_seeded_square(rng, symmetric) for _ in range(count)]
    if symmetric:
        family += [_hidden_pairs(rng, even) for even in (True, False) for _ in range(count // 8)]
    return family


def test_the_seeded_families_cover_the_cases():
    for symmetric in (False, True):
        family = _family(symmetric)
        assert len(family) >= 500
        assert sum(det_exact(a) == 0 for a in family) >= 100
        assert sum(_is_sparse(a) for a in family) >= 150
        assert sum(not _is_sparse(a) for a in family) >= 150
        assert sum(all(x not in (1, -1) for row in a for x in row) for a in family) >= 100
        assert sum(all(a[i][i] == 0 for i in range(len(a))) for a in family) >= 100
        assert sum(all(a[i][i] % 2 for i in range(len(a))) for a in family) >= 100
    assert sum(any(a[i][j] != a[j][i] for i in range(len(a)) for j in range(i))
               for a in _family(False)) >= 400
    # the hidden pairs mostly stay sparse, and the split takes them
    hidden = _family(True)[600:]
    assert sum(_is_sparse(a) and len(_split_unimodular_blocks(a)[1]) < len(a) for a in hidden) >= 120
    assert sum(all(a[i][i] % 2 == 0 for i in range(len(a))) for a in hidden) >= 75
    assert sum(det_exact(a) % 2 for a in _family(True)) >= 120


def test_det_exact_equals_the_dense_oracle_on_seeded_matrices():
    """The symmetric family is compared with `det_of` below."""
    for a in _family(False):
        assert det_exact(a) == _fraction_det(a), a


def test_signature_equals_the_dense_oracle_on_seeded_matrices():
    for a in _family(True):
        M = IntegerSymmetricMatrix(a)
        want = _dense_sign(a)
        assert signature(M) == want, a
        assert _front_end_sign(a) == want, a
        # mu and the Wall summands read R; the same kernels on all of M agree
        if M.has_even_diagonal():
            assert mu_of(M) == corank_mod_p(M.entries, 2) + 1, a
        det = det_exact(a)
        if det % 2 and abs(det) <= 10**12:  # prime_factors factors every such det
            full = [(p, e, "A" if legendre(u, p) == 1 else "B") for p in prime_factors(det)
                    for e, u in padic_jordan(M.entries, p, ord_int(det, p))]
            assert wall_of(M) == WallDecomposition(full), a


@pytest.mark.parametrize("p", PRIMES)
def test_the_f_p_elimination_equals_the_dense_oracle_on_seeded_matrices(p):
    rng = random.Random(p)
    # the kernel's Legendre symbol at the large prime costs a trial-division
    # primality check (about 20 ms), so that prime takes every 20th matrix
    for a in _family(True)[::20 if p > 1000 else 1]:
        # multiples of p make zero residues, so zero diagonals and coranks
        # mod p occur for the large prime as well
        b = [[x * (p if x % 5 == 0 else 1) for x in row] for row in a]
        if rng.random() < 0.5:  # a zero diagonal mod p: the shear runs
            for i in range(len(b)):
                b[i][i] = p * rng.randint(-1, 1)
        M = IntegerSymmetricMatrix(b)
        assert _unit_block_class_mod_p(M, p) == _dense_unit_block_class_mod_p(b, p), (p, b)


@functools.lru_cache(maxsize=None)
def _vogel_matrix(name):
    if name == "p777m":
        return seifert_matrix_from_diagram(load_corpus()[name].diagram).M
    return seifert_matrix_from_diagram(diagrams.pretzel_pd(*name)).M


def test_the_core_det_equals_det_exact_on_seeded_matrices():
    for a in _family(True):
        assert det_of(IntegerSymmetricMatrix(a)) == det_exact(a), a


@pytest.mark.parametrize("name,n", [((3, -3, 3), 26), ((-5, -3, 3), 42), ("p777m", 182)])
def test_the_kernels_equal_the_dense_oracles_on_vogel_matrices(name, n):
    M = _vogel_matrix(name)
    assert M.n == n and _is_sparse(M.entries)
    assert det_of(M) == det_exact(M.entries)
    assert signature(M) == _dense_sign(M.entries)
    for p in PRIMES:
        assert _unit_block_class_mod_p(M, p) == _dense_unit_block_class_mod_p(M.entries, p), p


def test_the_kernels_equal_the_dense_oracles_on_both_goeritz_shades():
    pairs = 0
    for name, e in sorted(load_corpus().items()):
        d = e.diagram
        if d is None or not d.n or not d.is_connected():
            continue
        for shade in (0, 1):
            R = goeritz_from_diagram(d, shade)
            rows = R.entries
            assert det_of(R) == det_exact(rows), (name, shade)
            assert signature(R) == _dense_sign(rows) - R.e, (name, shade)
            assert _front_end_sign(rows) == _dense_sign(rows), (name, shade)
            for p in PRIMES[:-1]:
                want = _dense_unit_block_class_mod_p(rows, p)
                assert _unit_block_class_mod_p(R, p) == want, (name, shade, p)
            pairs += 1
    assert pairs >= 60


@pytest.mark.parametrize("rows", [[[Fraction(1, 2)]], [[2.7, 0], [0, 1]], [[1, 0], [0, 0.5]]])
def test_non_integral_entries_are_rejected_not_truncated(rows):
    with pytest.raises(ValueError, match="not an integer"):
        det_exact(rows)
    symmetric = [[rows[min(i, j)][max(i, j)] for j in range(len(rows))] for i in range(len(rows))]
    with pytest.raises(ValueError, match="not an integer"):
        IntegerSymmetricMatrix(symmetric)
    with pytest.raises(ValueError, match="not an integer"):
        SeifertData(rows)


def test_integral_entries_of_other_types_are_accepted():
    assert det_exact([[Fraction(4, 2), 0], [0, 3.0]]) == 6
    assert IntegerSymmetricMatrix([[Fraction(6, 3), 1], [1, 2.0]]).entries == ((2, 1), (1, 2))


def test_p5_17_5_untangles_with_one_build_per_move_and_keeps_the_kernel_values(monkeypatch):
    d = diagrams.parse_pd(diagrams.pd_text(load_corpus()["p5_17_5"].diagram))
    counts = count_calls(monkeypatch, "_vogel_move", "_face_walk")
    builds = count_calls(monkeypatch, "__init__", module=LinkDiagram)
    M = seifert_matrix_from_diagram(d).M
    assert counts["_vogel_move"] >= 150
    assert builds["__init__"] <= counts["_vogel_move"]
    assert counts["_face_walk"] <= counts["_vogel_move"]
    # the kernels on the 314x314 Vogel matrix of P(5,17,5) keep the values of
    # the dense routines, which take about 3 s to compute them
    assert M.n == 314 and _is_sparse(M.entries)
    assert det_exact(M.entries) == 195
    assert signature(M) == 2
    for p, want in {3: (1, 1), 5: (1, -1), 7: (0, -1), 11: (0, -1), 13: (1, 1)}.items():
        assert _unit_block_class_mod_p(M, p) == want, p
