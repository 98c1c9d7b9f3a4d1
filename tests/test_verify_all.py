"""`singdet verify all` at seed 0, run in process, so that every verify
suite runs inside the test suite and its report stays byte-identical."""

from singdet.cli import main

VERIFY_ALL_SEED_0 = """\
== suite endtoend (seed 0)
PASS  bracket at zeta6 == closed form on all bundled knots <= 9 crossings
PASS  Q at golden == closed form on all bundled knots <= 12 crossings
== suite examples (seed 0)
PASS  d_7(P(7,-7,7)) == 2
PASS  delta_7(P(7,-7,7)) == -1 (erratum: stated +1)
PASS  d_17 == 3
PASS  delta_17 == -1
PASS  improved bound u >= 4
PASS  12n553 cokernel exponents (0,1,1,2)
PASS  det(P(5,17,5)) == 195
PASS  delta_5 == -1
PASS  delta_13 == +1
PASS  Q(golden) == -sqrt5
PASS  no admissible Lickorish generator
PASS  Stoimenow counterexample
PASS  V_hopf_plus(-1) == -2*i
PASS  V_hopf_plus(zeta6) == -i
PASS  V_hopf_minus(-1) == 2*i
PASS  V_hopf_minus(zeta6) == i
PASS  V_T(2,4)(i) and reversed split +-sqrt2
== suite invariance (seed 0)
PASS  delta_p invariance: 1000 congruences/stabilizations/reductions
== suite prop35 (seed 0)
PASS  definition == Wall closed form on 500 matrices x 5 primes
VERIFY PASS
"""


def test_verify_all_prints_the_seed_0_report(capsys):
    assert main(["verify", "all"]) == 0
    assert capsys.readouterr().out == VERIFY_ALL_SEED_0
