"""The theorem against the Seifert-fibred double branched cover of a
Montesinos knot.

The double branched cover of the Montesinos knot of the rational tangles
beta_1/alpha_1, ..., beta_k/alpha_k is the Seifert-fibred space
M(0; beta_1/alpha_1, ...), whose linking form the star plumbing presents
(`star_plumbing`: Montesinos 1973; Neumann, Trans. AMS 268 (1981)); a
Goeritz matrix of any diagram presents it too (Gordon-Litherland, Invent.
Math. 47 (1978)).  So on `montesinos_pd` the diagram's Goeritz form is
isometric to the star's, and the bracket's V(zeta6) and the skein's
Q(1/phi) equal the closed forms on the star: only the theorem, that both
values depend on the linking form alone, explains the second and third
checks.  The plumbing is read off the fractions by arithmetic alone and
shares no code with the diagram.

Two seeded families of knots with three tangles and odd det are checked:
pretzels P(a1, a2, a3), whose star has centre 0 and legs of one vertex of
weight a_i, and knots whose tangles have odd alpha <= 7 and at least one
beta != +-1, whose legs are longer chains.  Each check also runs against
the negated star, which presents the cover of the mirror image: the Wall
class and V(zeta6) tell the two apart on many draws, Q(1/phi) never does.
"""

import random
from fractions import Fraction
from math import gcd

import pytest

from singdet.diagrams import goeritz_from_diagram, jones_via_bracket, pretzel_pd, q_via_skein
from singdet.exactlinalg import IntegerSymmetricMatrix, det_of
from singdet.evaluate import jones_at_zeta6_knot
from singdet.linkform import b_total, delta_from_wall, wall_of
from singdet.rings import HALFPOWER, Root5
from singdet.seifert import d_p_of

from oracles import montesinos_pd, star_plumbing


def _odd_det_knots(draw, count):
    """count (fractions, diagram, star, negated star) of odd det, from the
    fractions that draw() returns or None to skip."""
    family = []
    while len(family) < count:
        fractions = draw()
        if fractions is None:
            continue
        P = star_plumbing(0, fractions)
        if det_of(P) % 2:
            minus_P = IntegerSymmetricMatrix([[-x for x in row] for row in P.entries])
            family.append((fractions, montesinos_pd(fractions), P, minus_P))
    return family


def pretzel_family():
    """300 pretzel knots P(a1, a2, a3), a_i in +-{1..7}, of odd det."""
    rng = random.Random(7)
    return _odd_det_knots(lambda: [Fraction(1, rng.choice((-1, 1)) * rng.randint(1, 7)) for _ in range(3)], 300)


def montesinos_family():
    """200 knots of three tangles beta/alpha, alpha in {1, 3, 5, 7} and
    beta in +-{1..7} coprime to it, at least one beta != +-1, of odd det."""
    rng = random.Random(7)

    def draw():
        fractions = []
        for _ in range(3):
            alpha = rng.choice((1, 3, 5, 7))
            fractions.append(Fraction(rng.choice([b for b in range(-7, 8) if b and gcd(b, alpha) == 1]), alpha))
        return None if all(abs(f.numerator) == 1 for f in fractions) else fractions

    return _odd_det_knots(draw, 200)


FAMILIES = {"pretzel": pretzel_family(), "montesinos": montesinos_family()}


def test_montesinos_pd_of_unit_numerators_is_the_pretzel():
    rng = random.Random(3)
    for _ in range(100):
        a = [rng.choice((-1, 1)) * rng.randint(1, 7) for _ in range(rng.randint(2, 4))]
        assert montesinos_pd([Fraction(1, x) for x in a]).crossings == pretzel_pd(*a).crossings, a
    # the star of a pretzel: centre 0, one vertex of weight a_i per leg
    assert star_plumbing(0, [Fraction(1, 3), Fraction(1, -5), Fraction(1, 7)]).entries == (
        (0, 1, 1, 1), (1, 3, 0, 0), (1, 0, -5, 0), (1, 0, 0, 7))
    # 3/5 = 1 - 1/(3 - 1/2) and -3/2 = -1 - 1/2
    assert star_plumbing(1, [Fraction(5, 3), Fraction(-2, 3)]).entries == (
        (1, 1, 0, 0, 1, 0), (1, 1, -1, 0, 0, 0), (0, -1, 3, -1, 0, 0), (0, 0, -1, 2, 0, 0),
        (1, 0, 0, 0, -1, -1), (0, 0, 0, 0, -1, 2))


@pytest.mark.parametrize("name,expected", [("pretzel", (300, 20, 0, 0)), ("montesinos", (200, 20, 505, 271))])
def test_the_families_are_knots_with_the_star_determinant(name, expected):
    family = FAMILIES[name]
    for _, d, P, _ in family:
        assert d.component_count == 1
        assert abs(det_of(goeritz_from_diagram(d))) == abs(det_of(P))
    tangles = [f for fractions, _, _, _ in family for f in fractions]
    # knots, their most crossings, tangles with beta != +-1, and those with |beta| > alpha
    assert (len(family), max(d.n for _, d, _, _ in family), sum(abs(f.numerator) != 1 for f in tangles),
            sum(abs(f) > 1 for f in tangles)) == expected


@pytest.mark.parametrize("name,expected", [("pretzel", (300, 123)), ("montesinos", (200, 65))])
def test_the_goeritz_form_is_the_star_plumbing_form(name, expected):
    same = negated = 0
    for _, d, P, minus_P in FAMILIES[name]:
        W = wall_of(goeritz_from_diagram(d))
        same += W == wall_of(P)
        negated += W == wall_of(minus_P)
    assert (same, negated) == expected


@pytest.mark.parametrize("name,expected", [("pretzel", (300, 300, 230)), ("montesinos", (200, 200, 145))])
def test_the_bracket_at_zeta6_is_the_closed_form_of_the_star(name, expected):
    checked = same = negated = 0
    for _, d, P, minus_P in FAMILIES[name]:
        v = jones_via_bracket(d, budget=d.n).eval_root_of_unity(HALFPOWER["zeta6"])
        det = abs(det_of(P))
        checked += 1
        same += v == jones_at_zeta6_knot(det, d_p_of(P, 3), b_total(wall_of(P), 3))
        negated += v == jones_at_zeta6_knot(det, d_p_of(minus_P, 3), b_total(wall_of(minus_P), 3))
    assert (checked, same, negated) == expected


@pytest.mark.parametrize("name,expected", [("pretzel", (239, 239, 239)), ("montesinos", (120, 120, 120))])
def test_the_skein_at_golden_is_the_closed_form_of_the_star(name, expected):
    checked = same = negated = 0
    for _, d, P, minus_P in FAMILIES[name]:
        if d.n > 14:
            continue
        value = q_via_skein(d, budget=d.n).eval_golden_reciprocal()
        checked += 1
        same += value == Root5.sqrt5_pow(d_p_of(P, 5)) * delta_from_wall(P, 5)
        negated += value == Root5.sqrt5_pow(d_p_of(minus_P, 5)) * delta_from_wall(minus_P, 5)
    assert (checked, same, negated) == expected
