"""The tangle-contraction Kauffman bracket against two independent oracles.

`kauffman_bracket` contracts the diagram one crossing at a time over planar
matchings of the open arc ends.  Up to 14 crossings it is checked against
the 2^n state sum it replaced, kept here as the oracle: on the corpus,
seeded braid closures and pretzels, Reidemeister-scrambled diagrams (whose
kinks put both ends of an arc on one crossing), mirrors, split diagrams and
diagrams with free loops.  Beyond the state sum's reach, the Jones
polynomial of a torus knot has a closed form, and V(zeta6) is fixed by the
linking form of the double branched cover (`jones_zeta6_closed_form`).
Torus knots also pin the matrix side: the signature and det through both
surface routes, V(zeta6) read off the Vogel matrix, Q(1/phi) against the Q
skein, and the unknotting bounds that `obstruct` prints.
"""

import random
from math import ceil, comb, gcd

import pytest

from singdet import diagrams
from singdet.corpus import load_corpus
from singdet.diagrams import (
    DiagramError,
    LinkDiagram,
    braid_closure_pd,
    goeritz_from_diagram,
    jones_via_bracket,
    kauffman_bracket,
    mirror,
    pretzel_pd,
    q_via_skein,
    r1_kink,
    r2_slide,
    seifert_matrix_from_diagram,
)
from singdet.evaluate import jones_zeta6_closed_form, q_at_golden_link
from singdet.exactlinalg import det_of
from singdet.obstruct import improved_bound
from singdet.rings import HALFPOWER, LaurentPolynomial
from singdet.seifert import signature
from test_q_reduce import seeded_braid_word


def _delta_powers(nmax):
    out = [{0: 1}]
    for _ in range(nmax):
        cur = {}
        for e1, c1 in out[-1].items():
            for e2, c2 in {2: -1, -2: -1}.items():
                cur[e1 + e2] = cur.get(e1 + e2, 0) + c1 * c2
        out.append(cur)
    return out


def state_sum_bracket(diagram):
    """The bracket as a sum over all 2^n smoothings: union-find on the 4n
    crossing ends counts each state's loops."""
    n = diagram.n
    if n == 0:
        return dict(_delta_powers(diagram.free_loops)[diagram.free_loops - 1])
    arc_pairs = [(e, f) for e, f in enumerate(diagram._darts) if e < f]
    deltas = _delta_powers(2 * n + diagram.free_loops + 2)
    total = {}
    for state in range(1 << n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                return 1
            return 0

        merges = sum(union(a, b) for a, b in arc_pairs)
        exp = 0
        for ci in range(n):
            base = 4 * ci
            if (state >> ci) & 1:  # A-smoothing
                exp += 1
                merges += union(base + 0, base + 1) + union(base + 2, base + 3)
            else:
                exp -= 1
                merges += union(base + 0, base + 3) + union(base + 1, base + 2)
        # the glue graph on 4n ends is 2-regular: every component is a circle
        loops = 4 * n - merges + diagram.free_loops
        for e, c in deltas[loops - 1].items():
            total[e + exp] = total.get(e + exp, 0) + c
    return {e: c for e, c in total.items() if c}


def assert_brackets_agree(d, label):
    assert kauffman_bracket(d) == state_sum_bracket(d), label


def disjoint_union(d1, d2, free_loops=0):
    shift = max(d1.arcs, default=0)
    moved = tuple(tuple(lab + shift for lab in t) for t in d2.crossings)
    return LinkDiagram(d1.crossings + moved, d1.free_loops + d2.free_loops + free_loops)


def test_corpus_diagrams_and_their_mirrors_match_the_state_sum():
    corpus = {name: e.diagram for name, e in sorted(load_corpus().items())
              if e.diagram is not None and e.diagram.n <= 14}
    # every diagram but p777m and p5_17_5 (21, 27 crossings), which the
    # zeta6 test below covers
    assert len(corpus) == sum(1 for e in load_corpus().values() if e.diagram is not None) - 2
    for name, d in corpus.items():
        assert_brackets_agree(d, name)
        if d.n:
            assert_brackets_agree(mirror(d), f"mirror of {name}")


def test_seeded_braid_closures_match_the_state_sum():
    rng = random.Random(1201)
    for _ in range(24):
        strands = rng.randint(2, 5)
        length = rng.randint(strands - 1, 14 if rng.random() < 0.1 else 10)
        word = seeded_braid_word(rng, strands, length)
        assert_brackets_agree(braid_closure_pd(word, strands), (word, strands))


def test_seeded_pretzels_match_the_state_sum():
    rng = random.Random(1202)
    kinds = set()
    for _ in range(20):
        while True:
            twists = [rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
            if sum(abs(a) for a in twists) <= 12:
                break
        d = pretzel_pd(*twists)
        kinds.add(d.component_count > 1)
        kinds.add(("even", any(a % 2 == 0 for a in twists)))
        assert_brackets_agree(d, twists)
    assert kinds >= {True, False, ("even", True)}  # links and even twists drawn


def test_reidemeister_scrambled_diagrams_match_the_state_sum():
    rng = random.Random(1203)
    corpus = load_corpus()
    kinked = 0
    for name in ("3_1", "4_1", "5_2", "hopf_plus", "t2_4", "granny"):
        d = corpus[name].diagram
        for _ in range(4):
            if rng.random() < 0.5 or d.n > 10:
                d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
            else:
                arcs = d.arcs
                rng.shuffle(arcs)
                for a, b in ((a, b) for a in arcs for b in arcs if a != b):
                    try:
                        d = r2_slide(d, a, b)
                        break
                    except DiagramError:
                        continue
            kinked += any(len(set(t)) < 4 for t in d.crossings)
            assert_brackets_agree(d, name)
    assert kinked  # an arc with both ends on one crossing was contracted


def test_split_diagrams_and_free_loops_match_the_state_sum():
    corpus = load_corpus()
    trefoil, hopf, fig8 = (corpus[k].diagram for k in ("3_1", "hopf_minus", "4_1"))
    cases = [
        disjoint_union(trefoil, hopf),
        disjoint_union(fig8, mirror(trefoil), free_loops=1),
        disjoint_union(disjoint_union(hopf, hopf), trefoil),
        LinkDiagram(trefoil.crossings, 2),
        LinkDiagram(r1_kink(hopf, 1, True).crossings, 3),
        LinkDiagram((), 1),
        LinkDiagram((), 2),
        LinkDiagram((), 3),
    ]
    for d in cases:
        assert_brackets_agree(d, (d.crossings, d.free_loops))
        if d.n:
            assert_brackets_agree(mirror(d), ("mirror", d.crossings, d.free_loops))
    with pytest.raises(DiagramError, match="empty diagram"):
        kauffman_bracket(LinkDiagram((), 0))


def test_contraction_keeps_one_canonical_key_per_planar_matching(monkeypatch):
    """Each step's states are keyed by sorted tuples of ordered label pairs,
    all on the same open arcs, the labels with one end placed, so there are
    at most Catalan(k) of them on a frontier of 2k arcs."""
    place = diagrams._place_crossing
    widest = []
    open_arcs = set()

    def checked(states, labels):
        out = place(states, labels)
        for lab in labels:  # a kink's label toggles twice
            open_arcs.symmetric_difference_update((lab,))
        frontiers = {tuple(sorted(e for pair in key for e in pair)) for key in out}
        assert len(frontiers) == 1
        assert set(next(iter(frontiers))) == open_arcs
        k = len(next(iter(frontiers))) // 2
        for key in out:
            assert all(a < b for a, b in key) and list(key) == sorted(key), key
        assert len(out) <= comb(2 * k, k) // (k + 1)
        widest.append(k)
        return out

    monkeypatch.setattr(diagrams, "_place_crossing", checked)
    rng = random.Random(1204)
    for d in (braid_closure_pd(seeded_braid_word(rng, 4, 24), 4),
              braid_closure_pd(seeded_braid_word(rng, 5, 30), 5),
              pretzel_pd(5, -3, 7),
              r1_kink(load_corpus()["8_10"].diagram, 3, False)):
        open_arcs.clear()
        kauffman_bracket(d)
    assert max(widest) >= 3


def torus_knot_jones(p, q):
    """V(T(p,q)) = t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2),
    keyed by exponents of t^(1/2)."""
    num = [0] * (p + q + 1)
    for e, c in ((0, 1), (p + 1, -1), (q + 1, -1), (p + q, 1)):
        num[e] += c
    quo = [0] * (p + q - 1)  # num / (1 - t^2), from the lowest term up
    for k in range(p + q - 1):
        quo[k] = num[k] + (quo[k - 2] if k >= 2 else 0)
    assert all(num[k] + quo[k - 2] == 0 for k in (p + q - 1, p + q))  # exact
    shift = (p - 1) * (q - 1) // 2
    return LaurentPolynomial({2 * (k + shift): c for k, c in enumerate(quo) if c})


@pytest.mark.parametrize("p,qs", [(2, range(3, 52, 2)),
                                  (3, [q for q in range(2, 41) if gcd(3, q) == 1]),
                                  (4, range(5, 27, 2)),
                                  (5, [q for q in range(6, 21) if q % 5])])
def test_positive_torus_knots_match_the_closed_form(p, qs):
    for q in qs:
        d = braid_closure_pd(list(range(1, p)) * q, p)
        assert d.n == (p - 1) * q
        assert jones_via_bracket(d, budget=d.n) == torus_knot_jones(p, q), (p, q)


TORUS_KNOTS = [(p, q) for p in range(2, 6) for q in range(p + 1, 61)
               if gcd(p, q) == 1 and (p - 1) * q <= 60]


def test_torus_knot_matrix_facts_match_the_ground_truth():
    """On the positive torus knots T(p,q), p = 2..5, of at most 60 crossings:
    the signature of the Vogel matrix and of both Goeritz shades is
    Brieskorn's count -(N1 - N2), N1 the pairs (i, j), 0 < i < p,
    0 < j < q, with 1/2 < i/p + j/q < 3/2 and N2 the rest; both shades
    have the Vogel matrix's |det|; V(zeta6) from the linking form is the
    closed form's; and no lower bound that `obstruct` prints exceeds
    u(T(p,q)) = (p-1)(q-1)/2 (Kronheimer-Mrowka, Topology 32 (1993))."""
    assert len(TORUS_KNOTS) == 63
    for p, q in TORUS_KNOTS:
        d = braid_closure_pd(list(range(1, p)) * q, p)
        M = seifert_matrix_from_diagram(d).M
        sigma = signature(M)
        n1 = sum(1 for i in range(1, p) for j in range(1, q) if p * q < 2 * (i * q + j * p) < 3 * p * q)
        assert sigma == -(n1 - ((p - 1) * (q - 1) - n1)), (p, q)
        assert det_of(M) % 2 == 1  # a knot
        for shade in (0, 1):
            S = goeritz_from_diagram(d, shade)
            assert signature(S) == sigma, (p, q, shade)
            assert abs(det_of(S)) == abs(det_of(M)), (p, q, shade)
        assert jones_zeta6_closed_form(M) == torus_knot_jones(p, q).eval_root_of_unity(HALFPOWER["zeta6"]), (p, q)
        bounds = [improved_bound(M, r) for r in (3, 5, 7, 11, 13)] + [ceil(abs(sigma) / 2)]
        assert max(bounds) <= (p - 1) * (q - 1) // 2, (p, q, bounds)


@pytest.mark.parametrize("p,qs", [(2, range(3, 16, 2)), (3, (4, 5, 7, 8))])
def test_torus_knot_q_skein_at_the_golden_reciprocal_matches_the_delta_5_route(p, qs):
    for q in qs:
        d = braid_closure_pd(list(range(1, p)) * q, p)
        M = seifert_matrix_from_diagram(d).M
        assert q_via_skein(d, budget=d.n).eval_golden_reciprocal() == q_at_golden_link(M), (p, q)


def test_torus_closed_form_on_the_trefoil():
    assert torus_knot_jones(2, 3) == LaurentPolynomial({2: 1, 6: 1, 8: -1})  # t + t^3 - t^4


def test_zeta6_beyond_sixteen_crossings_on_the_corpus_pretzels():
    corpus = load_corpus()
    for name in ("p777m", "p5_17_5"):
        d = corpus[name].diagram
        assert d.n > 16
        lhs = jones_via_bracket(d, budget=d.n).eval_root_of_unity(HALFPOWER["zeta6"])
        assert lhs == jones_zeta6_closed_form(corpus[name].seifert.M), name


def test_zeta6_on_seeded_large_odd_twist_pretzels():
    rng = random.Random(1205)
    sizes = []
    for _ in range(6):
        while True:
            twists = [rng.choice((1, -1)) * rng.randrange(3, 26, 2) for _ in range(3)]
            if 30 <= sum(abs(a) for a in twists) <= 63:
                break
        d = pretzel_pd(*twists)
        assert d.component_count == 1
        lhs = jones_via_bracket(d, budget=d.n).eval_root_of_unity(HALFPOWER["zeta6"])
        assert lhs == jones_zeta6_closed_form(goeritz_from_diagram(d, 0)), twists
        sizes.append(d.n)
    assert max(sizes) > 45
