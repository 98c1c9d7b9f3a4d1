import random
from fractions import Fraction

import pytest

from singdet.exactlinalg import (
    IntegerSymmetricMatrix,
    det_exact,
)
from singdet.linkform import (
    LinkingFormPresentation,
    WallDecomposition,
    b_total,
    delta_from_wall,
    wall_decompose,
)
from singdet.reference import congruence, eval_form, mat_vec, random_unimodular
from singdet.seifert import delta_p

from oracles import isometric, r_pk, r_total


def rand_even_sym(rng, n, spread=3):
    A = [[rng.randrange(-spread, spread + 1) for _ in range(n)] for _ in range(n)]
    return IntegerSymmetricMatrix([[A[i][j] + A[j][i] for j in range(n)] for i in range(n)])


def rand_odd_det(rng, max_g=3):
    while True:
        M = rand_even_sym(rng, 2 * rng.randrange(1, max_g + 1))
        d = det_exact(M.entries)
        if d != 0 and d % 2 != 0:
            return M


def test_eval_form_goldens():
    p = LinkingFormPresentation(IntegerSymmetricMatrix([[3]]))
    assert eval_form(p, [1], [1]) == Fraction(1, 3)
    p2 = LinkingFormPresentation(IntegerSymmetricMatrix([[22, 17], [17, 22]]))
    v = eval_form(p2, [1, 0], [1, 0])
    assert v.denominator == 195  # a generator: gcd(a, 195) = 1


def test_eval_form_image_vanishes():
    rng = random.Random(20)
    for _ in range(60):
        M = rand_odd_det(rng, 2)
        pres = LinkingFormPresentation(M)
        n = M.n
        z = [rng.randrange(-3, 4) for _ in range(n)]
        mz = mat_vec([list(r) for r in M.entries], z)
        x = [rng.randrange(-3, 4) for _ in range(n)]
        assert eval_form(pres, mz, x) == 0
        # descends to the cokernel
        y = [rng.randrange(-3, 4) for _ in range(n)]
        assert eval_form(pres, [a + b for a, b in zip(x, mz)], y) == eval_form(pres, x, y)


def test_eval_form_bilinear_symmetric():
    rng = random.Random(21)
    M = rand_odd_det(rng, 2)
    pres = LinkingFormPresentation(M)
    n = M.n
    for _ in range(40):
        x = [rng.randrange(-4, 5) for _ in range(n)]
        y = [rng.randrange(-4, 5) for _ in range(n)]
        assert eval_form(pres, x, y) == eval_form(pres, y, x)
        x2 = [2 * a for a in x]
        assert eval_form(pres, x2, y) == (2 * eval_form(pres, x, y)) % 1


def test_eval_form_size_mismatch():
    pres = LinkingFormPresentation(IntegerSymmetricMatrix([[3]]))
    with pytest.raises(ValueError):
        eval_form(pres, [1, 2], [1])


def test_presentation_requires_nonsingular():
    with pytest.raises(ValueError):
        LinkingFormPresentation(IntegerSymmetricMatrix([[0, 0], [0, 0]]))


def test_wall_single_summand():
    w = wall_decompose(LinkingFormPresentation(IntegerSymmetricMatrix([[3]])))
    assert w.summands == ((3, 1, "A"),)  # 3 * (1/3) = 1 is a residue
    assert w.group_order() == 3


def test_wall_rejects_even():
    with pytest.raises(ValueError):
        wall_decompose(LinkingFormPresentation(IntegerSymmetricMatrix([[2]])))


def test_wall_block_sum_is_union():
    rng = random.Random(22)
    for _ in range(25):
        M1 = rand_odd_det(rng, 1)
        M2 = rand_odd_det(rng, 1)
        w1 = wall_decompose(LinkingFormPresentation(M1))
        w2 = wall_decompose(LinkingFormPresentation(M2))
        w = wall_decompose(LinkingFormPresentation(M1.block_sum(M2)))
        assert isometric(w, w1.direct_sum(w2))


def test_wall_unimodular_invariance():
    rng = random.Random(23)
    for _ in range(40):
        M = rand_odd_det(rng, 2)
        T = random_unimodular(M.n, rng)
        w1 = wall_decompose(LinkingFormPresentation(M))
        w2 = wall_decompose(LinkingFormPresentation(congruence(M, T)))
        assert isometric(w1, w2)


def test_wall_order_matches_determinant():
    rng = random.Random(24)
    done = 0
    while done < 200:
        M = rand_even_sym(rng, 2 * rng.randrange(1, 4))
        d = det_exact(M.entries)
        if d == 0 or d % 2 == 0:
            continue
        done += 1
        w = wall_decompose(LinkingFormPresentation(M))
        assert w.group_order() == abs(d)


def test_wall_normalization_relation():
    # A+A and B+B are isometric; normal form keeps at most one B per (p, k)
    waa = WallDecomposition([(3, 1, "A"), (3, 1, "A")])
    wbb = WallDecomposition([(3, 1, "B"), (3, 1, "B")])
    assert isometric(waa, wbb)
    assert r_pk(waa, 3, 1) == r_pk(wbb, 3, 1) == 0
    assert not isometric(WallDecomposition([(3, 1, "A")]), WallDecomposition([(3, 1, "B")]))


def test_r_pk_values():
    w = WallDecomposition([(3, 1, "A"), (9 // 3, 2, "B")])
    assert r_pk(w, 3, 1) == 1
    assert r_pk(w, 3, 2) == 0
    assert r_pk(WallDecomposition([]), 3, 1) == 0
    assert r_total(w, 3) == 1
    assert b_total(w, 3) == 1


def test_r_pk_additive_over_block_sums():
    rng = random.Random(25)
    for _ in range(25):
        M1 = rand_odd_det(rng, 1)
        M2 = rand_odd_det(rng, 1)
        w1 = wall_decompose(LinkingFormPresentation(M1))
        w2 = wall_decompose(LinkingFormPresentation(M2))
        w = wall_decompose(LinkingFormPresentation(M1.block_sum(M2)))
        pks = {(p, k) for (p, k, _) in w1.summands + w2.summands}
        for p, k in pks:
            assert r_pk(w, p, k) == (r_pk(w1, p, k) + r_pk(w2, p, k)) % 2


def test_serialization():
    w = WallDecomposition([(5, 1, "B"), (3, 2, "A"), (3, 1, "A")])
    assert w.serialize() == "3 1 A\n3 2 A\n5 1 B"


def test_delta_from_wall_matches_definition():
    rng = random.Random(26)
    done = 0
    while done < 200:
        M = rand_even_sym(rng, 2 * rng.randrange(1, 4))
        d = det_exact(M.entries)
        if d == 0 or d % 2 == 0:
            continue
        done += 1
        for p in (3, 5, 7, 11, 13):
            assert delta_from_wall(M, p) == delta_p(M, p)
