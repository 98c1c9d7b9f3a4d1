"""The unknotting bounds on knots with unknotting number at most one by
construction.

Random first and second Reidemeister moves on a one-crossing unknot give an
unknot diagram U; switching one crossing of U gives a knot K with u(K) <= 1,
and switching that crossing back, of sign eps in K, unknots it.  So on every
K the signature bound |sigma| <= 2 holds, d_p <= 1 at every prime p | det,
and `lickorish_check` must admit zeta = eps.  That it excludes -eps on most
of them shows the family can tell the two signs apart.
"""

import random

from singdet.diagrams import DiagramError, LinkDiagram, r1_kink, r2_slide, seifert_matrix_from_diagram
from singdet.exactlinalg import det_of
from singdet.numtheory import prime_factors
from singdet.obstruct import lickorish_check
from singdet.seifert import d_p_of, signature

MAX_CROSSINGS = 14


def switch_crossing(d, ci):
    """d with crossing ci switched, its tuple rotated as `mirror` does."""
    a, b, c, e = d.crossings[ci]
    switched = (b, c, e, a) if d.sign(ci) == -1 else (e, a, b, c)
    return LinkDiagram(d.crossings[:ci] + (switched,) + d.crossings[ci + 1:], d.free_loops)


def scrambled_unknot(rng):
    """A one-crossing unknot after 2-6 seeded R1 and R2 moves, with at most
    MAX_CROSSINGS crossings."""
    d = LinkDiagram((rng.choice(((1, 1, 2, 2), (2, 1, 1, 2))),))
    for _ in range(rng.randint(2, 6)):
        if d.n + 2 <= MAX_CROSSINGS and rng.random() < 0.6:
            arcs = d.arcs
            rng.shuffle(arcs)
            for a, b in ((a, b) for a in arcs for b in arcs if a != b):
                try:
                    d = r2_slide(d, a, b)
                    break
                except DiagramError:
                    continue
        elif d.n < MAX_CROSSINGS:
            d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
    return d


def test_knots_one_switch_from_the_unknot_pass_every_bound():
    rng = random.Random(1801)
    nontrivial = minus_eps_admitted = 0
    for _ in range(300):
        unknot = scrambled_unknot(rng)
        assert 3 <= unknot.n <= MAX_CROSSINGS and unknot.component_count == 1
        ci = rng.randrange(unknot.n)
        knot = switch_crossing(unknot, ci)
        eps = knot.sign(ci)
        assert eps == -unknot.sign(ci)
        M = seifert_matrix_from_diagram(knot).M
        label = (knot.crossings, ci)
        assert abs(signature(M)) <= 2, label
        det = abs(det_of(M))
        if det == 1:
            continue
        nontrivial += 1
        for p in prime_factors(det):
            assert d_p_of(M, p) <= 1, (label, p)
        admissible = lickorish_check(M).admissible_zeta
        assert eps in admissible, label
        minus_eps_admitted += -eps in admissible
    assert nontrivial >= 60
    assert minus_eps_admitted < nontrivial // 2, (minus_eps_admitted, nontrivial)
