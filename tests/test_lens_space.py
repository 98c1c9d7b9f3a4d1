"""The theorem against a presentation of the double branched cover that
never saw the diagram.

The double branched cover of the 2-bridge knot K(p/q) is the lens space
L(p, q), whose linking form the linear plumbing of p/q presents
(`lens_plumbing`); a Goeritz matrix of any diagram presents it too
(Gordon-Litherland, Invent. Math. 47 (1978)).  So on `rational_pd(p, q)`
the diagram's Goeritz form is isometric to the plumbing's, and the
bracket's V(zeta6) and the skein's Q(1/phi) equal the closed forms on the
plumbing: only the theorem, that both values depend on the linking form
alone, explains the second and third checks.

Each check is also run against the negated plumbing, which presents
L(p, -q), the cover of the mirror image.  The Wall class and V(zeta6)
tell the two apart on many of the draws; Q(1/phi) never does, since the
Q polynomial of a mirror image is the same.
"""

import random
from math import gcd

from singdet.diagrams import goeritz_from_diagram, jones_via_bracket, q_via_skein
from singdet.exactlinalg import IntegerSymmetricMatrix, det_of
from singdet.evaluate import jones_at_zeta6_knot
from singdet.linkform import b_total, delta_from_wall, wall_of
from singdet.rings import HALFPOWER, Root5
from singdet.seifert import d_p_of

from oracles import lens_plumbing, rational_pd


def lens_family():
    """300 pairs (p, q), odd p < 200 and q coprime to it, each with the
    diagram of K(p/q) and the plumbing of L(p, q) and its negation."""
    rng = random.Random(7)
    pairs = []
    while len(pairs) < 300:
        p = rng.randrange(3, 200, 2)
        q = rng.randrange(1, p)
        if gcd(p, q) == 1:
            pairs.append((p, q))
    family = []
    for p, q in pairs:
        P = lens_plumbing(p, q)
        minus_P = IntegerSymmetricMatrix([[-x for x in row] for row in P.entries])
        family.append((p, rational_pd(p, q), P, minus_P))
    return family


FAMILY = lens_family()


def test_rational_pd_builds_the_smallest_two_bridge_knots():
    # 3_1, 4_1 and 5_2: 3/1 = [3], 5/2 = [2, 2] and 7/3 = [2, 3] -> [2, 2, 1]
    for (p, q), n in (((3, 1), 3), ((5, 2), 4), ((7, 3), 5)):
        d = rational_pd(p, q)
        assert (d.n, d.component_count, abs(det_of(goeritz_from_diagram(d)))) == (n, 1, p)
    assert lens_plumbing(5, 2).entries == ((3, -1), (-1, 2))


def test_the_goeritz_form_is_the_lens_plumbing_form():
    same = negated = 0
    for p, d, P, minus_P in FAMILY:
        G = goeritz_from_diagram(d)
        assert abs(det_of(G)) == det_of(P) == p
        same += wall_of(G) == wall_of(P)
        negated += wall_of(G) == wall_of(minus_P)
    assert (same, negated) == (300, 104)


def test_the_bracket_at_zeta6_is_the_closed_form_of_the_lens_plumbing():
    checked = same = negated = 0
    for p, d, P, minus_P in FAMILY:
        if d.n > 40:
            continue
        v = jones_via_bracket(d, budget=d.n).eval_root_of_unity(HALFPOWER["zeta6"])
        checked += 1
        same += v == jones_at_zeta6_knot(p, d_p_of(P, 3), b_total(wall_of(P), 3))
        negated += v == jones_at_zeta6_knot(p, d_p_of(minus_P, 3), b_total(wall_of(minus_P), 3))
    assert (checked, same, negated) == (283, 283, 214)


def test_the_skein_at_golden_is_the_closed_form_of_the_lens_plumbing():
    checked = same = negated = 0
    for p, d, P, minus_P in FAMILY:
        if d.n > 14:
            continue
        value = q_via_skein(d, budget=d.n).eval_golden_reciprocal()
        checked += 1
        same += value == Root5.sqrt5_pow(d_p_of(P, 5)) * delta_from_wall(P, 5)
        negated += value == Root5.sqrt5_pow(d_p_of(minus_P, 5)) * delta_from_wall(minus_P, 5)
    assert (checked, same, negated) == (169, 169, 169)
