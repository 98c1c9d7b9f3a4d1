import random
from fractions import Fraction

import pytest

from singdet.exactlinalg import (
    IntegerSymmetricMatrix,
    det_exact,
    smith_cokernel,
)
from singdet.evaluate import q_at_golden_link
from singdet.obstruct import (
    SignedUnknottingConstraint,
    improved_bound,
    lickorish_check,
    signed_obstruction,
    stoimenow_check,
    wendt_bound,
)
from singdet.reference import congruence, random_unimodular, stabilize
from singdet.rings import Cyclo24, Root5
from singdet.seifert import d_p_of, delta_p, mu_of

from oracles import crossing_change_pair, lickorish_direct, q_value_bound, traczyk_value
from test_seifert import EX29, P5175, P777

TREFOIL_R = IntegerSymmetricMatrix([[-2, 1], [1, -2]])
TREFOIL_L = IntegerSymmetricMatrix([[2, 1], [1, 2]])


def test_wendt_bound_goldens():
    assert wendt_bound(P777, 7) == 2
    assert wendt_bound(EX29, 17) == 3
    for c in (1, 2, 3):
        Z = IntegerSymmetricMatrix([[0] * (c - 1) for _ in range(c - 1)])
        assert wendt_bound(Z, 5) == 0


def test_signed_obstruction_rules():
    con = signed_obstruction(P777, 7)  # p = 7 mod 8: delta = (-1)^(u+)
    assert con.parity_rule == "delta_eq_parity_u_plus"
    assert con.base_bound == 2 and con.delta == -1
    # delta = -1 forces u+ odd at the bound: changes of opposite signs
    assert con.consistent(1, 1)
    assert not con.consistent(2, 0) and not con.consistent(0, 2)
    assert not con.consistent(1, 2)  # not at the bound

    con17 = signed_obstruction(EX29, 17)  # p = 1 mod 8: delta must be +1
    assert con17.parity_rule == "delta_must_be_plus"
    assert all(not con17.consistent(u, 3 - u) for u in range(4))

    Z = IntegerSymmetricMatrix([])
    conz = signed_obstruction(Z, 5)
    assert conz.consistent(0, 0)


def test_improved_bound():
    assert improved_bound(EX29, 17) == 4
    assert improved_bound(P777, 7) == 2  # p = 3 mod 4 needs sign info
    # p = 5 mod 8 case: delta must equal (-1)^bound at the bound
    assert improved_bound(P5175, 13) == improved_bound(P5175, 13)
    w13 = wendt_bound(P5175, 13)
    d13 = delta_p(P5175, 13)
    want = w13 + 1 if d13 != (-1) ** (w13 % 2) else w13
    assert improved_bound(P5175, 13) == want
    # vacuous case: det coprime to p
    M = IntegerSymmetricMatrix([[-2, 1], [1, -2]])
    assert improved_bound(M, 7) <= 1


def test_lickorish_p5175_no_generator():
    rep = lickorish_check(P5175)
    assert rep.admissible_zeta == ()
    assert not lickorish_direct(P5175, 1)
    assert not lickorish_direct(P5175, -1)
    assert "admissible zeta: none" in rep.text()


def test_lickorish_trefoils():
    # trefoils have unknotting number one; exactly one sign is admissible,
    # and it matches the direct generator search
    for M in (TREFOIL_R, TREFOIL_L):
        rep = lickorish_check(M)
        assert len(rep.admissible_zeta) == 1
        z = rep.admissible_zeta[0]
        assert lickorish_direct(M, z)
        assert not lickorish_direct(M, -z)
    # the two chiralities admit opposite signs
    assert lickorish_check(TREFOIL_R).admissible_zeta != lickorish_check(TREFOIL_L).admissible_zeta


def test_lickorish_rejects_links():
    with pytest.raises(ValueError):
        lickorish_check(IntegerSymmetricMatrix([[-2]]))


def test_lickorish_d_p_2_fails_both():
    rep = lickorish_check(IntegerSymmetricMatrix([[6, 3], [3, 6]]))  # d_3 = 2
    assert rep.admissible_zeta == ()


def test_prop36_equivalence_cyclic_dets_to_2000():
    # acceptance criterion 7 core: condition (i) == condition (ii)
    rng = random.Random(50)
    done = 0
    seen_exist = 0
    while done < 120:
        g = rng.choice([1, 2])
        A = [[rng.randrange(-4, 5) for _ in range(2 * g)] for _ in range(2 * g)]
        M = IntegerSymmetricMatrix(
            [[A[i][j] + A[j][i] for j in range(2 * g)] for i in range(2 * g)]
        )
        det = det_exact(M.entries)
        if det == 0 or det % 2 == 0 or abs(det) > 2000 or mu_of(M) != 1:
            continue
        if not smith_cokernel(M.entries).is_cyclic():
            continue
        done += 1
        rep = lickorish_check(M)
        for zeta in (1, -1):
            direct = lickorish_direct(M, zeta)
            assert direct == (zeta in rep.admissible_zeta), (M.entries, zeta)
            seen_exist += direct
    assert seen_exist > 0  # the equivalence was exercised in both directions


def test_stoimenow_counterexample():
    rep = stoimenow_check(P5175, lickorish_check(P5175))
    assert rep.q_value == Root5(0, -1)
    assert not rep.generator_exists
    assert rep.conjecture_value == Root5(0, 1)
    assert not rep.agrees
    assert "counterexample" in rep.text()


def test_stoimenow_agreement_exists():
    # search 2x2 even symmetric matrices with 5 | det for an agreement case
    rng = random.Random(51)
    found = False
    for a in range(-6, 7):
        for b in range(-6, 7):
            for c in range(-6, 7):
                M = IntegerSymmetricMatrix([[2 * a, b], [b, 2 * c]])
                det = det_exact(M.entries)
                if det == 0 or det % 2 == 0 or det % 5 != 0:
                    continue
                if not smith_cokernel(M.entries).is_cyclic():
                    continue
                rep = stoimenow_check(M, lickorish_check(M))
                if rep.agrees:
                    found = True
                    break
            if found:
                break
        if found:
            break
    assert found


def test_stoimenow_preconditions():
    with pytest.raises(ValueError):
        M = IntegerSymmetricMatrix([[6, 3], [3, 6]])  # det 27, no 5
        stoimenow_check(M, lickorish_check(M))
    with pytest.raises(ValueError):
        # non-cyclic: (Z/5)^2
        M = IntegerSymmetricMatrix([[0, 5], [5, 0]])
        stoimenow_check(M, lickorish_check(M))


def run_synthetic_sequences(rng, trials):
    """Machine check of the signed rules on crossing-change matrix families.

    Each sequence walks random pairs (P + (a-1), P + (a+1)) with a = +-1 mod
    p (the normal form of a crossing change whose F_p-rank drops): the
    delta_p ratio of every pair is verified on the actual matrices, and the
    accumulated ratio over the recorded (u+, u-) must reproduce the four
    mod-8 rules exactly (p=1: +1; p=3: (-1)^(u-); p=5: (-1)^u;
    p=7: (-1)^(u+)).
    """
    from singdet.numtheory import legendre

    for trial in range(trials):
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23])
        c = rng.randrange(1, 4)
        M = IntegerSymmetricMatrix([[0] * (c - 1) for _ in range(c - 1)])
        u_plus = u_minus = 0
        accumulated = 1
        for step in range(rng.randrange(1, 6)):
            positive = rng.random() < 0.5
            a = (1 if positive else -1) + 2 * p * rng.randrange(0, 3)
            plus, minus = crossing_change_pair(M, a, 1)
            ratio = delta_p(plus, p) * delta_p(minus, p)
            if positive:
                # the changed link is the (a-1) side; its partner drops d_p
                assert a % p == 1
                assert ratio == legendre(-2, p)
                assert d_p_of(plus, p) == d_p_of(minus, p) + 1
                u_plus += 1
            else:
                assert a % p == p - 1
                assert ratio == legendre(2, p)
                assert d_p_of(minus, p) == d_p_of(plus, p) + 1
                u_minus += 1
            accumulated *= ratio
            M = plus if positive else minus
            if rng.random() < 0.4:
                M = stabilize(M)
            if rng.random() < 0.6:
                M = congruence(M, random_unimodular(M.n, rng))
        u = u_plus + u_minus
        r = p % 8
        if r == 1:
            rule = 1
        elif r == 3:
            rule = (-1) ** (u_minus % 2)
        elif r == 5:
            rule = (-1) ** (u % 2)
        else:
            rule = (-1) ** (u_plus % 2)
        assert accumulated == rule, (p, u_plus, u_minus, accumulated)
    return True


def test_theorem_synthetic_sequences():
    rng = random.Random(52)
    assert run_synthetic_sequences(rng, 200)


def test_traczyk_value():
    # unlink with u- = 0: i^(c-1) (i sqrt3)^(c-1)
    for c in (1, 2, 3):
        Z = IntegerSymmetricMatrix([[0] * (c - 1) for _ in range(c - 1)])
        v = traczyk_value(Z, 0)
        assert v == Cyclo24.i_pow(c - 1) * Cyclo24.i_sqrt3() ** (c - 1)
    # right trefoil: u = 1 with one positive change; predicted value must
    # match the actual V(zeta6) = +i*sqrt3
    assert traczyk_value(TREFOIL_R, 0) == Cyclo24.i_sqrt3()
    # left trefoil unknots by one negative change
    assert traczyk_value(TREFOIL_L, 1) == -Cyclo24.i_sqrt3()


def test_q_value_bound():
    # Q = (-1)^(a+c) sqrt5^a implies u > a - c + 1; for a knot the matching
    # sign at a = 1 is +sqrt5 (e.g. the (2,5) torus knot, whose u is 2),
    # while -sqrt5 (e.g. the figure eight, u = 1) gives no information
    assert q_value_bound(Root5(0, 1), 1) == 2
    assert q_value_bound(Root5(0, -1), 1) is None
    assert q_value_bound(Root5(5, 0), 1) is None  # a=2,c=1 needs sign -1
    assert q_value_bound(Root5(-5, 0), 1) == 3
    assert q_value_bound(Root5(3, 0), 1) is None
    # unlink values: Q = sqrt5^(c-1): the bound is vacuous when it applies
    for c in (2, 3):
        Z = IntegerSymmetricMatrix([[0] * (c - 1) for _ in range(c - 1)])
        v = q_at_golden_link(Z)
        got = q_value_bound(v, c)
        assert got is None or got <= 0
