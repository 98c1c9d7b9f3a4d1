"""The p-adic Jordan kernel behind the Wall decomposition.

`exactlinalg.padic_jordan` is checked three ways: against the Fraction-based
reference route (`inverse_ord_normalize`, the route `wall_decompose` took
before the kernel), against a brute-force count of the linking form's
self-values over the whole cokernel, and against the p-exponents of the
Smith normal form.
"""

import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from singdet.diagrams import pretzel_pd, seifert_matrix_from_diagram
from singdet.exactlinalg import (
    IntegerSymmetricMatrix,
    det_exact,
    padic_jordan,
    smith_cokernel,
    smith_normal_form,
)
from singdet.linkform import LinkingFormPresentation, WallDecomposition, wall_decompose
from singdet.numtheory import legendre, ord_int, prime_factors
from singdet.reference import congruence, eval_form, mat_inverse_q, random_unimodular

from oracles import inverse_ord_normalize, legendre_fraction


def reference_wall(M):
    """The decomposition read off the Fraction-based normal form: conjugate
    so the inverse has sorted p-power diagonal, then take the residue class
    of p^k times each diagonal entry of the inverse with k >= 1."""
    summands = []
    for p in prime_factors(det_exact(M.entries)):
        W = congruence(M, inverse_ord_normalize(M, p))
        winv = mat_inverse_q(W.entries)
        for i in range(M.n):
            x = winv[i][i]
            assert x != 0
            k = ord_int(x.denominator, p) - ord_int(x.numerator, p)
            assert k >= 0
            if k:
                cls = legendre_fraction(p**k * x, p)
                summands.append((p, k, "A" if cls == 1 else "B"))
    return WallDecomposition(summands)


def random_odd_det(rng, spread, max_n=8, max_det=None):
    """Symmetric matrix with odd nonzero determinant: half the draws are
    even-diagonal A + A^t, half have arbitrary diagonal (any size)."""
    while True:
        n = rng.randrange(1, max_n + 1)
        A = [[rng.randrange(-spread, spread + 1) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            rows = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
        else:
            rows = [[A[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
        d = det_exact(rows)
        if d % 2 and (max_det is None or abs(d) <= max_det):
            return IntegerSymmetricMatrix(rows)


BLOCKS = (
    [[3]], [[-3]], [[9]], [[15]], [[-5]], [[25]], [[7]], [[21]], [[27]],
    [[0, 3], [3, 0]], [[0, 9], [9, 0]], [[0, 5], [5, 0]], [[6, 3], [3, 6]],
    [[1]], [[-1]], [[0, 1], [1, 0]],
)


def structured_odd_det(rng, max_n=8):
    """T D T^t for a block-diagonal D of prime-power pieces, several of them
    with a zero diagonal (the kernel's off-diagonal shear), and a random
    unimodular T, so that one prime carries several Jordan summands."""
    while True:
        D = IntegerSymmetricMatrix([])
        for _ in range(rng.randrange(2, 5)):
            D = D.block_sum(IntegerSymmetricMatrix(rng.choice(BLOCKS)))
        if 0 < D.n <= max_n:
            return congruence(D, random_unimodular(D.n, rng, steps=2 * D.n + 4))


def vogel_matrix(*twists):
    return seifert_matrix_from_diagram(pretzel_pd(*twists)).M


def test_padic_jordan_hyperbolic_needs_the_shear():
    # 3H has no diagonal entry of least valuation; the shear makes one
    assert padic_jordan([[0, 3], [3, 0]], 3, 2) == [(1, 2), (1, 1)]
    assert wall_decompose(LinkingFormPresentation(IntegerSymmetricMatrix([[0, 3], [3, 0]]))) \
        == WallDecomposition([(3, 1, "A"), (3, 1, "B")])
    assert padic_jordan([[2, 1], [1, 2]], 3, 1) == [(1, 2)]
    assert padic_jordan([], 5, 0) == []


def test_wall_agrees_with_reference_route_on_seeded_matrices():
    rng = random.Random(31)
    multi = 0
    for spread in (3, 9):
        for _ in range(100):
            M = random_odd_det(rng, spread)
            w = wall_decompose(LinkingFormPresentation(M))
            assert w == reference_wall(M), M.entries
            multi += len(w.summands) >= 2
    for _ in range(40):
        M = structured_odd_det(rng)
        w = wall_decompose(LinkingFormPresentation(M))
        assert w == reference_wall(M), M.entries
        multi += len(w.summands) >= 2
    assert multi >= 40  # the comparison covers multi-summand forms


@pytest.mark.parametrize("twists,n", [((3, -3, 3), 26), ((-5, -3, 3), 42)])
def test_wall_agrees_with_reference_route_on_vogel_matrices(twists, n):
    M = vogel_matrix(*twists)
    assert M.n == n
    w = wall_decompose(LinkingFormPresentation(M))
    assert w == reference_wall(M)
    assert w.group_order() == abs(det_exact(M.entries))


def self_value_counts(M):
    """How many x in coker(M) give each value lambda(x, x), by enumeration.

    With U M V = D (Smith form), x -> Ux identifies coker(M) with the sum of
    the Z/d_c, so the columns of U^{-1} at the factors d_c > 1 generate it.
    eval_form gives the form on those generators; bilinearity gives the rest.
    """
    D, U, _ = smith_normal_form(M.entries)
    uinv = mat_inverse_q(U)
    cols = [c for c in range(M.n) if D[c][c] > 1]
    gens = [[int(uinv[i][c]) for i in range(M.n)] for c in cols]
    pres = LinkingFormPresentation(M)
    gram = [[eval_form(pres, g, h) for h in gens] for g in gens]
    counts = Counter()
    for y in itertools.product(*(range(D[c][c]) for c in cols)):
        v = sum(y[i] * y[j] * gram[i][j] for i in range(len(y)) for j in range(len(y)))
        counts[v % 1] += 1
    return counts


def least_nonresidue(p):
    return next(a for a in range(2, p) if legendre(a, p) == -1)


def model_counts(w):
    """The same count for the diagonal model of a decomposition: 1/p^k on
    each A summand, n_p/p^k on each B summand (n_p the least non-residue)."""
    counts = Counter({Fraction(0): 1})
    for p, k, t in w.summands:
        a = 1 if t == "A" else least_nonresidue(p)
        q = p**k
        step = Counter()
        for v, c in counts.items():
            for x in range(q):
                step[(v + Fraction(a * x * x, q)) % 1] += c
        counts = step
    return counts


def test_wall_matches_brute_force_self_values():
    rng = random.Random(32)
    checked = multi = 0
    while checked < 120:
        if checked % 3 == 2:
            M = structured_odd_det(rng, max_n=6)
            if abs(det_exact(M.entries)) > 500:
                continue
        else:
            M = random_odd_det(rng, rng.choice((3, 9)), max_n=6, max_det=500)
        w = wall_decompose(LinkingFormPresentation(M))
        assert self_value_counts(M) == model_counts(w), M.entries
        checked += 1
        multi += any(sum(1 for q, _, _ in w.summands if q == p) >= 2 for p, _, _ in w.summands)
    assert multi >= 20


def test_padic_jordan_exponents_are_the_smith_exponents():
    rng = random.Random(33)
    for i in range(150):
        M = structured_odd_det(rng) if i % 2 else random_odd_det(rng, 9)
        det = det_exact(M.entries)
        ck = smith_cokernel(M.entries)
        for p in prime_factors(det):
            alpha = ord_int(det, p)
            pivots = padic_jordan(M.entries, p, alpha)
            assert sum(e for e, _ in pivots) == alpha
            assert sorted(e for e, _ in pivots) == [k for k in ck.exponents(p) if k > 0]
            assert all(0 < u < p for _, u in pivots)


def test_padic_jordan_rejects_a_wrong_valuation():
    rng = random.Random(34)
    for _ in range(30):
        M = structured_odd_det(rng)
        det = det_exact(M.entries)
        for p in prime_factors(det):
            alpha = ord_int(det, p)
            with pytest.raises(AssertionError):
                padic_jordan(M.entries, p, alpha + 1)
            if alpha:
                with pytest.raises(AssertionError):
                    padic_jordan(M.entries, p, alpha - 1)
    with pytest.raises(ValueError):
        padic_jordan([[3]], 2, 0)
    with pytest.raises(ValueError):
        padic_jordan([[3]], 9, 1)
