import random
import sys
from fractions import Fraction

import pytest

from singdet.diagrams import pretzel_pd, seifert_matrix_from_diagram
from singdet.exactlinalg import (
    CokernelDecomposition,
    IntegerSymmetricMatrix,
    corank_mod_p,
    det_exact,
    identity,
    parse_matrix,
    smith_cokernel,
    smith_normal_form,
    transpose,
)
from singdet.numtheory import legendre, ord_int
from singdet.reference import (
    UnimodularTransform,
    adjugate,
    congruence,
    cyclic_generator,
    mat_inverse_q,
    mat_mul,
    mod_p_block_reduce,
    random_unimodular,
)

from oracles import (
    RationalSymmetricMatrix,
    _integer_normalize,
    det_q,
    format_matrix,
    inverse_ord_normalize,
    jacobi_minor_identity,
    load_symmetric_matrix,
    minor,
    ord_p,
    rational_normalize,
)

M12N553 = [[-2, 0, -1, 0], [0, -6, 9, 3], [-1, 9, -8, -3], [0, 3, -3, 0]]


def cofactor_det(rows):
    """Independent oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        sub = [[rows[i][k] for k in range(n) if k != j] for i in range(1, n)]
        total += (-1) ** j * rows[0][j] * cofactor_det(sub)
    return total


def rand_sym(rng, n, spread=4):
    A = [[rng.randrange(-spread, spread + 1) for _ in range(n)] for _ in range(n)]
    return [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]


def test_det_exact_golden():
    assert det_exact([[-2, 1], [1, -2]]) == 3
    assert det_exact([[0, 7], [7, 0]]) == -49
    assert det_exact([]) == 1
    assert abs(det_exact(M12N553)) == 81


def test_det_exact_vs_cofactor_oracle():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(1, 6)
        m = [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(n)]
        assert det_exact(m) == cofactor_det(m)


def test_smith_normal_form_transforms():
    rng = random.Random(6)
    for _ in range(100):
        n = rng.randrange(1, 6)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        d, u, v = smith_normal_form(m)
        assert det_exact(u) in (1, -1)
        assert det_exact(v) in (1, -1)
        assert mat_mul(mat_mul(u, m), v) == d
        diag = [d[i][i] for i in range(n)]
        for i in range(n - 1):
            if diag[i + 1] != 0:
                assert diag[i] != 0 and diag[i + 1] % diag[i] == 0
            assert all(d[i][j] == 0 for j in range(n) if j != i)


def test_smith_cokernel_goldens():
    ck = smith_cokernel(M12N553)
    assert ck.exponents(3) == (0, 1, 1, 2)
    assert ck.order_or_zero == 81
    assert ck.invariant_factors == (1, 3, 3, 9)
    assert not ck.is_cyclic()

    z = smith_cokernel([[0, 0], [0, 0]])
    assert z.free_rank == 2 and z.order_or_zero == 0

    for rows, factors in (([], ()), ([[1]], (1,))):  # trivial cokernels: no prime part
        t = smith_cokernel(rows)
        assert t.invariant_factors == factors and t.order_or_zero == 1
        assert t.prime_parts == {} and t.free_rank == 0 and t.is_cyclic()

    c = smith_cokernel([[22, 17], [17, 22]])
    assert c.order_or_zero == 195 and c.is_cyclic()
    assert c.d_p(3) == c.d_p(5) == c.d_p(13) == 1


def test_smith_cokernel_invariant_under_unimodular():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        t = random_unimodular(n, rng).entries
        tm = mat_mul([list(r) for r in t], m)
        assert smith_cokernel(m).invariant_factors == smith_cokernel(tm).invariant_factors


def test_cokernel_order_matches_determinant():
    rng = random.Random(8)
    for _ in range(100):
        n = rng.randrange(1, 6)
        m = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        ck = smith_cokernel(m)
        d = det_exact(m)
        if d == 0:
            assert ck.free_rank > 0 and ck.order_or_zero == 0
        else:
            assert ck.order_or_zero == abs(d)
            total = 1
            for p, ks in ck.prime_parts.items():
                total *= p ** sum(ks)
            assert total == abs(d)  # no coprime part is dropped


def test_cyclic_generator():
    rng = random.Random(9)
    found = 0
    while found < 40:
        n = rng.randrange(1, 5)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        ck = smith_cokernel(m)
        if not ck.is_cyclic() or ck.order_or_zero == 0:
            continue
        found += 1
        g = cyclic_generator(m)
        order = ck.order_or_zero
        if order == 1:
            continue
        # order of [g] in Z^n / M Z^n equals the full group order:
        # k*g in im(M) iff order | k
        inv = mat_inverse_q(m)
        coords = [sum(Fraction(inv[i][j]) * g[j] for j in range(n)) for i in range(n)]
        ks = [k for k in range(1, order + 1)
              if all((k * c).denominator == 1 for c in coords)]
        assert ks == [order]


def test_mod_p_block_reduce_postconditions():
    rng = random.Random(10)
    for _ in range(150):
        n = rng.randrange(1, 6)
        M = IntegerSymmetricMatrix(rand_sym(rng, n))
        p = rng.choice([3, 5, 7, 11, 13])
        T, N, d = mod_p_block_reduce(M, p)
        assert N.n + d == n
        assert d == corank_mod_p(M.entries, p)
        W = congruence(M, T)
        for i in range(n):
            for j in range(n):
                inside = i < N.n and j < N.n
                if inside:
                    assert W.entries[i][j] == N.entries[i][j]
                else:
                    assert W.entries[i][j] % p == 0
        if N.n:
            assert det_exact(N.entries) % p != 0


def test_mod_p_block_reduce_path_independent_class():
    # the Legendre class of det N must not depend on pivot choices
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 6)
        M = IntegerSymmetricMatrix(rand_sym(rng, n))
        p = rng.choice([3, 5, 7])
        _, N1, d1 = mod_p_block_reduce(M, p)
        _, N2, d2 = mod_p_block_reduce(M, p, rng=rng)
        assert d1 == d2
        assert legendre(det_exact(N1.entries), p) == legendre(det_exact(N2.entries), p)


def _check_lemma_contract(Nq, S, p, rho):
    out = mat_mul(mat_mul(S.entries, [list(r) for r in Nq.entries]), transpose(S.entries))
    m = len(out)
    vals = [[ord_p(x, p) for x in row] for row in out]
    for i in range(m):
        for j in range(i):
            assert vals[i][i] <= vals[j][j]
        for j in range(m):
            if i != j:
                assert vals[i][j] >= rho
                assert vals[i][j].is_infinite or vals[i][i] < vals[i][j]


def test_rational_normalize_examples():
    # diagonal input
    N = RationalSymmetricMatrix([[Fraction(1, 3), 0], [0, 9]])
    S = rational_normalize(N, 3, 0)
    _check_lemma_contract(N, S, 3, 0)
    # hyperbolic input needs the off-diagonal move
    N2 = RationalSymmetricMatrix([[0, 1], [1, 0]])
    S2 = rational_normalize(N2, 3, 0)
    _check_lemma_contract(N2, S2, 3, 0)
    # inverse of the 12n553 matrix
    N3 = RationalSymmetricMatrix(mat_inverse_q(M12N553))
    S3 = rational_normalize(N3, 3, 0)
    _check_lemma_contract(N3, S3, 3, 0)


def test_rational_normalize_random():
    rng = random.Random(12)
    for _ in range(100):
        m = rng.randrange(1, 5)
        raw = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(m)]
               for _ in range(m)]
        N = RationalSymmetricMatrix(
            [[raw[i][j] + raw[j][i] for j in range(m)] for i in range(m)]
        )
        p = rng.choice([3, 5, 7])
        rho = rng.randrange(-2, 3)
        S = rational_normalize(N, p, rho)
        _check_lemma_contract(N, S, p, rho)


def test_rational_normalize_singular():
    N = RationalSymmetricMatrix([[0, 0, 0], [0, 1, 2], [0, 2, 1]])
    S = rational_normalize(N, 5, 0)
    _check_lemma_contract(N, S, 5, 0)


def test_inverse_ord_normalize_12n553():
    M = IntegerSymmetricMatrix(M12N553)
    T = inverse_ord_normalize(M, 3)
    W = congruence(M, T)
    ks = smith_cokernel(M.entries).exponents(3)
    inv = mat_inverse_q(W.entries)
    for i in range(4):
        assert int(ord_p(inv[i][i], 3)) == -ks[i]
        for j in range(4):
            if i != j:
                assert ord_p(inv[i][j], 3) >= 0
                # integer-matrix side conditions
                assert W.entries[i][j] == 0 or int(ord_p(W.entries[i][j], 3)) >= ks[i] + ks[j]
        assert W.entries[i][i] == 0 or int(ord_p(W.entries[i][i], 3)) >= ks[i]


def test_inverse_ord_normalize_identity_when_coprime():
    M = IntegerSymmetricMatrix([[2, 1], [1, 2]])  # det 3, coprime to 5
    T = inverse_ord_normalize(M, 5)
    inv = mat_inverse_q(congruence(M, T).entries)
    for i in range(2):
        assert int(ord_p(inv[i][i], 5)) == 0


def test_inverse_ord_normalize_random():
    rng = random.Random(13)
    done = 0
    while done < 150:
        n = rng.randrange(1, 6)
        M = IntegerSymmetricMatrix(rand_sym(rng, n, 3))
        if det_exact(M.entries) == 0:
            continue
        done += 1
        p = rng.choice([3, 5, 7, 11, 13])
        T = inverse_ord_normalize(M, p)
        W = congruence(M, T)
        ks = smith_cokernel(M.entries).exponents(p)
        inv = mat_inverse_q(W.entries)
        for i in range(n):
            assert int(ord_p(inv[i][i], p)) == -ks[i]
            for j in range(n):
                if i != j:
                    assert ord_p(inv[i][j], p) >= 0


def test_inverse_ord_normalize_runs_no_fraction_code():
    rng = random.Random(15)
    cases = [IntegerSymmetricMatrix(M12N553)]
    while len(cases) < 40:
        M = IntegerSymmetricMatrix(rand_sym(rng, rng.randrange(1, 7), 3))
        if det_exact(M.entries) != 0:
            cases.append(M)
    frames = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            frames.append(frame.f_code.co_name)

    sys.setprofile(hook)
    try:
        for M in cases:
            for p in (3, 5, 7):
                inverse_ord_normalize(M, p)
    finally:
        sys.setprofile(None)
    assert frames == []


def test_adjugate_and_inverse_on_seeded_matrices():
    rng = random.Random(16)
    done = 0
    while done < 150:
        n = rng.randrange(0, 7)
        m = [[rng.randrange(-5, 6) for _ in range(n)] for _ in range(n)]
        if det_exact(m) == 0:
            continue
        done += 1
        D, d = adjugate(m)
        assert abs(d) == abs(det_exact(m))
        assert mat_mul(m, D) == [[d if i == j else 0 for j in range(n)] for i in range(n)]
        assert mat_mul(m, mat_inverse_q(m)) == identity(n)
    done = 0
    while done < 150:
        n = rng.randrange(1, 6)
        raw = [[Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(n)] for _ in range(n)]
        N = RationalSymmetricMatrix([[raw[i][j] + raw[j][i] for j in range(n)] for i in range(n)])
        if det_q(N.entries) == 0:
            continue
        done += 1
        assert mat_mul(N.entries, mat_inverse_q(N.entries)) == identity(n)
        assert det_q(N.entries) * det_q(mat_inverse_q(N.entries)) == 1


def test_adjugate_and_inverse_reject_singular_input():
    for rows in ([[0]], [[1, 2], [2, 4]], [[0, 0, 0], [0, 1, 2], [0, 2, 1]]):
        with pytest.raises(ZeroDivisionError):
            adjugate(rows)
        with pytest.raises(ZeroDivisionError):
            mat_inverse_q([[Fraction(x, 3) for x in row] for row in rows])


def test_unimodular_inverse_round_trips():
    rng = random.Random(17)
    for _ in range(100):
        n = rng.randrange(1, 7)
        T = random_unimodular(n, rng, steps=3 * n)
        assert mat_mul(T.entries, T.inverse().entries) == identity(n)
        assert T.inverse().inverse() == T


def test_jacobi_trivial_cases():
    M = RationalSymmetricMatrix([[2, 1], [1, 3]])
    lhs, rhs = jacobi_minor_identity(M, (0, 1), (0, 1))
    assert lhs == rhs == det_q(M.entries)
    lhs, rhs = jacobi_minor_identity(M, (), ())
    assert lhs == rhs == 1


def test_jacobi_random():
    rng = random.Random(14)
    done = 0
    while done < 300:
        n = rng.randrange(1, 6)
        m = rand_sym(rng, n)
        if det_exact(m) == 0:
            continue
        done += 1
        k = rng.randrange(0, n + 1)
        I = tuple(sorted(rng.sample(range(n), k)))
        J = tuple(sorted(rng.sample(range(n), k)))
        lhs, rhs = jacobi_minor_identity(RationalSymmetricMatrix(m), I, J)
        assert lhs == rhs
        # lhs is genuinely the minor determinant
        assert lhs == det_q(minor(m, I, J))


def test_unimodular_transform_validation():
    with pytest.raises(ValueError):
        UnimodularTransform([[2, 0], [0, 1]])
    t = UnimodularTransform([[1, 5], [0, -1]])
    assert t.inverse().entries == ((1, 5), (0, -1))


def test_symmetric_validation():
    with pytest.raises(ValueError):
        IntegerSymmetricMatrix([[0, 1], [2, 0]])
    with pytest.raises(ValueError):
        IntegerSymmetricMatrix([[0, 1, 2], [1, 0, 3]])


def test_matrix_text_roundtrip():
    m = [[0, 7], [7, 0]]
    text = format_matrix(m)
    assert text == "2\n0 7\n7 0\n"
    assert parse_matrix(text) == m
    assert load_symmetric_matrix(text).entries == ((0, 7), (7, 0))
    with pytest.raises(ValueError):
        parse_matrix("2\n1 2 3\n")
    with pytest.raises(ValueError):
        load_symmetric_matrix("2\n0 1\n2 0\n")


def test_normal_form_pass_carries_the_inverse_transform():
    """S^{-1} comes out of the pass by the inverse column moves: S S^{-1} = I
    on seeded nonsingular adjugates and on the n = 42 Vogel matrix of
    P(-5,-3,3), and `inverse_ord_normalize` returns (S^{-1})^t."""
    rng = random.Random(16)
    cases = [(seifert_matrix_from_diagram(pretzel_pd(-5, -3, 3)).M, 3)]
    while len(cases) < 60:
        M = IntegerSymmetricMatrix(rand_sym(rng, rng.randrange(1, 8), 4))
        if det_exact(M.entries):
            cases.append((M, rng.choice([3, 5, 7, 11, 13])))
    for M, p in cases:
        D, d = adjugate(M.entries)
        S, S_inv = _integer_normalize(D, p, ord_int(d, p))
        assert mat_mul(S, S_inv) == identity(M.n)
        assert inverse_ord_normalize(M, p).entries == tuple(map(tuple, transpose(S_inv)))
    # a singular matrix has its kernel split off, and no inverse is carried
    S, S_inv = _integer_normalize([[0, 0, 0], [0, 1, 2], [0, 2, 1]], 5, 0)
    assert S_inv is None and abs(det_exact(S)) == 1
