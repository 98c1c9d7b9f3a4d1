"""Acceptance criteria, one test per criterion (criterion 1 is split into
its separate golden values).  Each test prints a PASS line with its runtime;
stated runtime budgets are asserted.

Criterion 1 includes delta_7(P(7,-7,7)).  The source's worked example
states +1; the definition gives -1.  M = [[0,7],[7,0]] is 0 mod 7, so the
unit block is empty (class +1), d_7 = 2, n = 2, mu = 1, the parity exponent
d + (n + mu - 1)/2 is 3 and delta_7 = (-1|7)^3 = -1.  The Wall route, the
Seifert matrix of the corpus PD, and the bracket oracle on the same shape
at p = 3 agree, so the corrected test pins -1 and records the erratum.
"""

import random
import time

import pytest

from singdet.corpus import corpus_knots, load_corpus
from singdet.diagrams import jones_via_bracket, q_via_skein, seifert_matrix_from_diagram
from singdet.evaluate import (
    jones_zeta6_closed_form,
    q_at_golden_link,
)
from singdet.exactlinalg import (
    IntegerSymmetricMatrix,
    SeifertData,
    det_exact,
    smith_cokernel,
)
from singdet.linkform import delta_from_wall
from singdet.numtheory import legendre
from singdet.obstruct import improved_bound, lickorish_check, stoimenow_check
from singdet.reference import (
    congruence,
    delta_p_reduced,
    mat_inverse_q,
    q_golden_closed_form,
    random_unimodular,
    stabilize,
)
from singdet.rings import HALFPOWER, Cyclo24, Root5
from singdet.seifert import (
    d_p_of,
    delta_p,
    mu_of,
    signature,
)

from oracles import (
    RationalSymmetricMatrix,
    alexander_at_minus1,
    inverse_ord_normalize,
    jacobi_minor_identity,
    ord_p,
)
from test_seifert import EX29, P5175, P777

M553 = IntegerSymmetricMatrix([[-2, 0, -1, 0], [0, -6, 9, 3], [-1, 9, -8, -3], [0, 3, -3, 0]])


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, *a):
        dt = time.monotonic() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status}  {self.name}  ({dt:.2f}s / budget {self.seconds}s)")
        assert dt < self.seconds, f"{self.name} exceeded its runtime budget"
        return False


# ----------------------------------------------------------- criterion 1

def test_criterion1_pretzel777_d7():
    with Budget("criterion 1: d_7(P(7,-7,7)) = 2", 1):
        assert d_p_of(P777, 7) == 2


@pytest.mark.paper_erratum
def test_criterion1_pretzel777_delta7_as_stated():
    """Criterion-1 golden delta_7(P(7,-7,7)), corrected from the stated +1.

    Erratum: the source's worked example states +1, but its definition
    gives -1.  The unit block of [[0,7],[7,0]] mod 7 is empty (class +1)
    and the parity exponent is d + (n + mu - 1)/2 = 2 + 1 = 3, so
    delta_7 = (-1|7)^3.  For this shape the value depends on p only
    through (-1|p): -1 at p = 3 and 7 (3 mod 4, where p = 3 is pinned by
    the bracket oracle in the companion test), +1 only for p = 1 mod 4.
    """
    with Budget("criterion 1: delta_7(P(7,-7,7)) = -1 (stated +1 is an erratum)", 1):
        assert delta_p(P777, 7) == -1
        assert delta_p(P777, 7) == legendre(-1, 7) ** 3
        assert delta_from_wall(P777, 7) == -1


def test_criterion1_pretzel777_delta7_consistent_value():
    """The value of test_criterion1_pretzel777_delta7_as_stated checked
    end-to-end from the pretzel diagram itself, and the same matrix shape
    at p = 3 checked against the bracket oracle."""
    with Budget("criterion 1: delta_7(P(7,-7,7)) consistent value -1", 30):
        assert delta_p(P777, 7) == -1
        assert delta_from_wall(P777, 7) == -1
        d = load_corpus()["p777m"].diagram
        M_diag = seifert_matrix_from_diagram(d).M
        assert delta_p(M_diag, 7) == -1
        # the same matrix shape at p = 3 is pinned by the bracket oracle
        d333 = load_corpus()["p3m33"].diagram
        M3 = seifert_matrix_from_diagram(d333).M
        v = jones_via_bracket(d333).eval_root_of_unity(HALFPOWER["zeta6"])
        assert v == Cyclo24.i_sqrt3() ** 2 * delta_p(M3, 3)
        assert delta_p(M3, 3) == -1


def test_criterion1_example29():
    with Budget("criterion 1: d_17 = 3, delta_17 = -1, bound u >= 4", 1):
        assert d_p_of(EX29, 17) == 3
        assert delta_p(EX29, 17) == -1
        assert improved_bound(EX29, 17) == 4


def test_criterion1_12n553():
    with Budget("criterion 1: 12n553 cokernel and ord_3 normal form", 1):
        ck = smith_cokernel(M553.entries)
        assert ck.exponents(3) == (0, 1, 1, 2)
        assert ck.order_or_zero == 81  # q = 1
        T = inverse_ord_normalize(M553, 3)
        W = congruence(M553, T)
        inv = mat_inverse_q(W.entries)
        for i in range(4):
            assert int(ord_p(inv[i][i], 3)) == -ck.exponents(3)[i]
            for j in range(4):
                if i != j:
                    assert ord_p(inv[i][j], 3) >= 0


def test_criterion1_p5175():
    with Budget("criterion 1: P(5,17,5) goldens", 1):
        assert det_exact(P5175.entries) == 195
        assert delta_p(P5175, 5) == -1
        assert delta_p(P5175, 13) == 1
        assert q_at_golden_link(P5175) == Root5(0, -1)
        assert lickorish_check(P5175).admissible_zeta == ()
        rep = stoimenow_check(P5175, lickorish_check(P5175))
        assert not rep.agrees and not rep.generator_exists


def test_criterion1_hopf_and_t24():
    with Budget("criterion 1: Hopf values and T(2,4) split", 1):
        c = load_corpus()
        vp = jones_via_bracket(c["hopf_plus"].diagram)
        vm = jones_via_bracket(c["hopf_minus"].diagram)
        assert str(vp.eval_root_of_unity(HALFPOWER["-1"])) == "-2*i"
        assert str(vm.eval_root_of_unity(HALFPOWER["-1"])) == "2*i"
        assert str(vp.eval_root_of_unity(HALFPOWER["zeta6"])) == "-i"
        assert str(vm.eval_root_of_unity(HALFPOWER["zeta6"])) == "i"
        vt = jones_via_bracket(c["t2_4"].diagram).eval_root_of_unity(HALFPOWER["i"])
        vs = jones_via_bracket(c["t2_4_rev"].diagram).eval_root_of_unity(HALFPOWER["i"])
        assert {str(vt), str(vs)} == {"sqrt2", "-sqrt2"}


# ----------------------------------------------------------- criterion 2

def test_criterion2_prop35_equivalence():
    with Budget("criterion 2: definition == Wall closed form, 500 x {3,5,7,11,13}", 60):
        rng = random.Random(2024)
        done = 0
        while done < 500:
            g = rng.randrange(1, 4)
            A = [[rng.randrange(-3, 4) for _ in range(2 * g)] for _ in range(2 * g)]
            M = IntegerSymmetricMatrix(
                [[A[i][j] + A[j][i] for j in range(2 * g)] for i in range(2 * g)]
            )
            d = det_exact(M.entries)
            if d == 0 or d % 2 == 0:
                continue
            done += 1
            for p in (3, 5, 7, 11, 13):
                assert delta_p(M, p) == delta_from_wall(M, p), (M.entries, p)


# ----------------------------------------------------------- criterion 3

def test_criterion3_zeta6_end_to_end():
    with Budget("criterion 3: bracket zeta_6 == closed form, all bundled knots <= 9", 300):
        knots = corpus_knots(9)
        assert len(knots) >= 20
        for name, e in sorted(knots.items()):
            d = e.diagram
            M = seifert_matrix_from_diagram(d).M
            lhs = jones_via_bracket(d).eval_root_of_unity(HALFPOWER["zeta6"])
            rhs = jones_zeta6_closed_form(M)
            assert lhs.coords == rhs.coords, name


# ----------------------------------------------------------- criterion 4

def test_criterion4_golden_end_to_end():
    with Budget("criterion 4: Q at golden == closed forms, all bundled knots <= 8", 600):
        knots = corpus_knots(8)
        assert len(knots) >= 10
        for name, e in sorted(knots.items()):
            d = e.diagram
            M = seifert_matrix_from_diagram(d).M
            lhs = q_via_skein(d).eval_golden_reciprocal()
            assert lhs == q_golden_closed_form(M), name
            assert lhs == q_at_golden_link(M), name


# ----------------------------------------------------------- criterion 5

def test_criterion5_invariance_suites():
    with Budget("criterion 5: invariance + Jacobi + alexander identities", 120):
        rng = random.Random(2025)

        def rand_even(g):
            A = [[rng.randrange(-3, 4) for _ in range(2 * g)] for _ in range(2 * g)]
            return IntegerSymmetricMatrix(
                [[A[i][j] + A[j][i] for j in range(2 * g)] for i in range(2 * g)]
            )

        M = rand_even(rng.randrange(1, 3))
        for trial in range(1000):
            if trial % 40 == 0:
                M = rand_even(rng.randrange(1, 3))
            p = rng.choice((3, 5, 7, 11, 13))
            base = delta_p(M, p)
            T = random_unimodular(M.n, rng)
            assert delta_p(congruence(M, T), p) == base
            assert delta_p(stabilize(M), p) == base
            if trial % 5 == 0:  # integer-lifted randomized reduction path
                assert delta_p_reduced(M, p, rng) == base

        count = 0
        while count < 1000:
            n = rng.randrange(2, 6)
            A = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
            Msym = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
            if det_exact(Msym) == 0:
                continue
            count += 1
            k = rng.randrange(0, n + 1)
            I = tuple(sorted(rng.sample(range(n), k)))
            J = tuple(sorted(rng.sample(range(n), k)))
            lhs, rhs = jacobi_minor_identity(RationalSymmetricMatrix(Msym), I, J)
            assert lhs == rhs

        for _ in range(500):
            n = rng.randrange(0, 6)
            A = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
            sd = SeifertData(A)
            det = abs(det_exact(sd.M.entries))
            assert alexander_at_minus1(sd) == Cyclo24.i_pow(-signature(sd.M)) * det


# ----------------------------------------------------------- criterion 6

def test_criterion6_synthetic_sequences():
    from test_obstruct import run_synthetic_sequences

    with Budget("criterion 6: 200 synthetic crossing-change sequences", 30):
        rng = random.Random(2026)
        assert run_synthetic_sequences(rng, 200)


# ----------------------------------------------------------- criterion 7

def test_criterion7_prop36_machine_equivalence():
    from oracles import lickorish_direct

    with Budget("criterion 7: generator search == sign pattern, det <= 2000", 120):
        rng = random.Random(2027)
        done = 0
        while done < 150:
            g = rng.randrange(1, 3)
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
                assert lickorish_direct(M, zeta) == (zeta in rep.admissible_zeta), (
                    M.entries,
                    zeta,
                )
