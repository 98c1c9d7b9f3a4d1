import cmath
import random
from math import comb

import pytest

from singdet.evaluate import (
    alexander_poly,
    jones_at_zeta6_knot,
    jones_zeta6_closed_form,
    q_at_golden_link,
)
from singdet.exactlinalg import IntegerSymmetricMatrix, SeifertData, det_exact
from singdet.reference import q_at_golden, q_golden_closed_form
from singdet.rings import HALFPOWER, Cyclo24, LaurentPolynomial, Root5
from singdet.seifert import mu_of, signature

from oracles import (
    JonesSpecialValues,
    alexander_at_minus1,
    classical_invariants,
    jones_special_values,
    jones_zeta6_via_delta3,
)


def approx_equal(z1, z2, tol=1e-9):
    return abs(z1 - z2) < tol


def test_cyclo24_is_exact_shadow_of_complex_arithmetic():
    # spec invariant: ring arithmetic matches a complex float shadow to 1e-9
    rng = random.Random(40)
    for _ in range(200):
        a = Cyclo24(tuple(rng.randrange(-5, 6) for _ in range(8)))
        b = Cyclo24(tuple(rng.randrange(-5, 6) for _ in range(8)))
        assert approx_equal((a * b).to_complex(), a.to_complex() * b.to_complex())
        assert approx_equal((a + b).to_complex(), a.to_complex() + b.to_complex())
        assert approx_equal((a - b).to_complex(), a.to_complex() - b.to_complex())
        assert approx_equal(a.conj().to_complex(), a.to_complex().conjugate())


def test_cyclo24_constants():
    assert approx_equal(Cyclo24.i().to_complex(), 1j)
    assert approx_equal(Cyclo24.sqrt3().to_complex(), 3**0.5)
    assert approx_equal(Cyclo24.sqrt2().to_complex(), 2**0.5)
    assert approx_equal(Cyclo24.i_sqrt3().to_complex(), 1j * 3**0.5)
    for k in range(-30, 30):
        assert approx_equal(Cyclo24.zeta_pow(k).to_complex(),
                            cmath.exp(1j * cmath.pi * k / 12))


def test_cyclo24_printing():
    assert str(Cyclo24.from_int(0)) == "0"
    assert str(Cyclo24.from_int(9)) == "9"
    assert str(Cyclo24.i() * -2) == "-2*i"
    assert str(Cyclo24.sqrt2()) == "sqrt2"
    assert str(-Cyclo24.sqrt2()) == "-sqrt2"
    assert str(Cyclo24.i_sqrt3()) == "i*sqrt3"
    assert str(Cyclo24.i_sqrt3() ** 2) == "-3"
    assert str(Cyclo24.i_sqrt3() ** 3) == "-3*i*sqrt3"


def test_root5_arithmetic_and_printing():
    assert Root5.sqrt5_pow(0) == Root5(1, 0)
    assert Root5.sqrt5_pow(2) == Root5(5, 0)
    assert Root5.sqrt5_pow(3) == Root5(0, 5)
    assert str(Root5(0, -1)) == "-sqrt5"
    assert str(Root5(-5, 0)) == "-5"
    assert str(Root5(1, 2)) == "1+2*sqrt5"
    x, y = Root5(2, 3), Root5(-1, 4)
    assert approx_equal((x * y).to_float(), x.to_float() * y.to_float())


def test_laurent_polynomial_basics():
    p = LaurentPolynomial({1: 1, -1: 1})  # t^(1/2) + t^(-1/2)
    assert (p * p).coeffs == ((-2, 1), (0, 2), (2, 1))
    assert str(LaurentPolynomial({5: -1, 1: -1})) == "-t^(1/2) - t^(5/2)"
    assert str(LaurentPolynomial({-8: -1, -6: 1, -2: 1})) == "-t^-4 + t^-3 + t^-1"
    assert LaurentPolynomial({0: 1}) == LaurentPolynomial.one()
    assert LaurentPolynomial({2: 0}).is_zero()


def test_laurent_evaluation_against_complex():
    rng = random.Random(41)
    for name, m in HALFPOWER.items():
        half = cmath.exp(1j * cmath.pi * m / 12)
        for _ in range(20):
            poly = LaurentPolynomial({rng.randrange(-8, 9): rng.randrange(-4, 5)
                                      for _ in range(5)})
            want = sum(c * half**e2 for e2, c in poly.coeffs)
            assert approx_equal(poly.eval_root_of_unity(m).to_complex(), want)


def test_golden_reciprocal_evaluation():
    z = (5**0.5 - 1) / 2
    rng = random.Random(42)
    for _ in range(40):
        poly = LaurentPolynomial({2 * rng.randrange(-5, 6): rng.randrange(-4, 5)
                                  for _ in range(4)})
        want = sum(c * z ** (e2 // 2) for e2, c in poly.coeffs)
        # 2(a + b*phi) always lies in Z[sqrt5]
        assert approx_equal((poly * 2).eval_golden_reciprocal().to_float(), 2 * want)
    with pytest.raises(ValueError):
        LaurentPolynomial({1: 1}).eval_golden_reciprocal()
    phi = LaurentPolynomial({-2: 1})  # z^-1
    with pytest.raises(ValueError):
        phi.eval_golden_reciprocal()
    assert (phi * 2).eval_golden_reciprocal() == Root5(1, 1)


def test_jones_at_zeta6_unknot():
    assert jones_at_zeta6_knot(1, 0, 0) == Cyclo24.one()


def test_jones_at_zeta6_rejects_even():
    with pytest.raises(ValueError):
        jones_at_zeta6_knot(2, 0, 0)


TREFOIL_RIGHT = IntegerSymmetricMatrix([[-2, 1], [1, -2]])
TREFOIL_LEFT = IntegerSymmetricMatrix([[2, 1], [1, 2]])


def test_zeta6_closed_form_trefoils():
    # right trefoil: +i*sqrt3, left trefoil: -i*sqrt3 (bracket-verified)
    assert str(jones_zeta6_closed_form(TREFOIL_RIGHT)) == "i*sqrt3"
    assert str(jones_zeta6_closed_form(TREFOIL_LEFT)) == "-i*sqrt3"


def test_theorem_route_equals_lipson_route():
    rng = random.Random(43)
    done = 0
    while done < 300:
        g = rng.choice([1, 2, 3])
        A = [[rng.randrange(-3, 4) for _ in range(2 * g)] for _ in range(2 * g)]
        M = IntegerSymmetricMatrix(
            [[A[i][j] + A[j][i] for j in range(2 * g)] for i in range(2 * g)]
        )
        d = det_exact(M.entries)
        if d == 0 or d % 2 == 0 or mu_of(M) != 1:
            continue
        done += 1
        assert jones_zeta6_closed_form(M).coords == jones_zeta6_via_delta3(M).coords
        assert q_golden_closed_form(M) == q_at_golden_link(M)


def test_q_at_golden_goldens():
    assert str(q_golden_closed_form(IntegerSymmetricMatrix([[22, 17], [17, 22]]))) == "-sqrt5"
    # det coprime to 5 gives (det|5) with no sqrt5 factor: (7|5) = (2|5) = -1
    assert q_at_golden(7, 0, 0) == Root5(-1, 0)


def test_q_at_golden_link_zero_matrix():
    for c in range(1, 5):
        Z = IntegerSymmetricMatrix([[0] * (c - 1) for _ in range(c - 1)])
        assert q_at_golden_link(Z) == Root5.sqrt5_pow(c - 1)


def test_jones_special_values_hopf():
    for a, vm1, vz6, sig in ((-1, "-2*i", "-i", -1), (1, "2*i", "i", 1)):
        sd = SeifertData([[a]])
        b = classical_invariants(sd, [3])
        vals = jones_special_values(b, b.delta_p[3], proper_arf=1)
        assert str(vals.at_minus1) == vm1
        assert str(vals.at_zeta6) == vz6
        assert str(vals.at_1) == "-2"
        assert str(vals.at_zeta3) == "-1"
        assert b.sigma == sig


def test_jones_special_values_unknot():
    sd = SeifertData([])
    b = classical_invariants(sd, [3])
    vals = jones_special_values(b, b.delta_p[3], proper_arf=b.arf_sign)
    assert vals.at_1 == vals.at_minus1 == vals.at_zeta3 == vals.at_i == vals.at_zeta6 == Cyclo24.one()


def test_jones_special_values_requires_arf_for_knots():
    sd = SeifertData([[-1, 1], [0, -1]])
    b = classical_invariants(sd, [3])
    with pytest.raises(ValueError):
        jones_special_values(b, b.delta_p[3], proper_arf=None)


def test_improper_link_value_at_i_is_zero():
    sd = SeifertData([[-1]])
    b = classical_invariants(sd, [3])
    vals = jones_special_values(b, b.delta_p[3], proper_arf=None)
    assert vals.at_i.is_zero()


def test_v_minus1_norm_squared_is_det_squared():
    rng = random.Random(44)
    for _ in range(100):
        n = rng.randrange(0, 5)
        A = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        sd = SeifertData(A)
        b = classical_invariants(sd, [3])
        vals = jones_special_values(b, b.delta_p[3], proper_arf=None if b.c > 1 else b.arf_sign)
        assert vals.at_minus1.norm_sq() == Cyclo24.from_int(b.det * b.det)


def test_alexander_goldens():
    assert alexander_poly(SeifertData([])) == LaurentPolynomial.one()
    # positive Hopf link
    assert alexander_poly(SeifertData([[-1]])) == LaurentPolynomial({1: 1, -1: -1})
    # right trefoil, Conway normalized: t - 1 + 1/t
    tre = alexander_poly(SeifertData([[-1, 1], [0, -1]]))
    assert tre == LaurentPolynomial({2: 1, 0: -1, -2: 1})
    # figure eight: -t + 3 - 1/t
    fig8 = alexander_poly(SeifertData([[1, 1], [0, -1]]))
    assert fig8 == LaurentPolynomial({2: -1, 0: 3, -2: -1})


def test_alexander_coefficients_near_the_digit_bound():
    """For A = k*I, det(A^t - yA) = k^n (1 - y)^n: the coefficients alternate
    in sign, and the middle one, |k|^n C(n, n/2), comes within a factor
    about sqrt(n) of the Hadamard bound (2|k|)^n that sets the digit width."""
    for k in (0, 1, -1, 2, -3, 40, -1000):
        for n in range(13):
            A = SeifertData([[k * (i == j) for j in range(n)] for i in range(n)])
            want = LaurentPolynomial({2 * j - n: k**n * comb(n, j) * (-1) ** j for j in range(n + 1)})
            assert alexander_poly(A) == want, (k, n)
    for a in (1, -1, 7, -40):
        assert alexander_poly(SeifertData([[a]])) == LaurentPolynomial({-1: a, 1: -a})


def geometric_seifert(rng, g):
    """Random A with A - A^t the standard symplectic form (realizable by a
    genus-g knot surface, so Conway normalization applies on the nose)."""
    n = 2 * g
    J = [[0] * n for _ in range(n)]
    for b in range(g):
        J[2 * b][2 * b + 1] = 1
        J[2 * b + 1][2 * b] = -1
    A = [[0] * n for _ in range(n)]
    for i in range(n):
        A[i][i] = rng.randrange(-3, 4)
        for j in range(i + 1, n):
            u = rng.randrange(-3, 4)
            A[i][j] = u
            A[j][i] = u - J[i][j]
    return SeifertData(A)


def test_alexander_conway_normalization_at_1():
    # knots have Delta(1) = 1 on the nose
    rng = random.Random(45)
    for _ in range(100):
        sd = geometric_seifert(rng, rng.choice([1, 2]))
        assert mu_of(sd.M) == 1
        val = alexander_poly(sd).eval_root_of_unity(HALFPOWER["1"])
        assert val == Cyclo24.one()


def test_alexander_at_minus1_identity():
    # Delta(-1) = i^(-sigma) det(L), on 500 random Seifert matrices
    rng = random.Random(46)
    for _ in range(500):
        n = rng.randrange(0, 6)
        A = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        sd = SeifertData(A)
        M = sd.M
        sig = signature(M)
        det = abs(det_exact(M.entries))
        lhs = alexander_at_minus1(sd)
        assert lhs == Cyclo24.i_pow(-sig) * det
        # and V(-1) = (-1)^(c-1) Delta(-1) against the special-value bundle
        b = classical_invariants(sd, [3])
        vals = jones_special_values(b, b.delta_p[3], proper_arf=None if b.c > 1 else b.arf_sign)
        assert vals.at_minus1 == lhs * ((-1) ** ((b.c - 1) % 2))
