"""The Reidemeister-reduced Q skein against the unreduced recursion.

`q_via_skein` removes kinks and second Reidemeister bigons at every skein
node before it looks the node up or branches on it.  The recursion without
that reduction is kept here as the oracle: on seeded diagrams (corpus,
braid closures before and after random R1/R2 moves, pretzels) both give the
same polynomial.  The reduction itself is pinned on kinks, R2 pairs and
clasps, and the closed form of Q(1/phi) from the linking form is checked on
every corpus knot, up to 27 crossings, and on seeded pretzel knots of 13-25
crossings.
"""

import random

from singdet.corpus import corpus_knots, load_corpus
from singdet.diagrams import (
    _Z,
    _darts,
    _q_canonical_key,
    _q_unknot_power,
    _reidemeister_reduce,
    _shadow_components,
    braid_closure_pd,
    face_orbits,
    goeritz_from_diagram,
    parse_pd,
    pretzel_pd,
    q_via_skein,
    r1_kink,
    r2_slide,
    seifert_matrix_from_diagram,
)
from singdet.reference import q_golden_closed_form
from singdet.rings import LaurentPolynomial

# The label union-find that built skein children before they were spliced on
# the dart partner list.  The oracles here and in test_q_twist.py,
# test_darts.py and test_shadow_walk.py join strands by it, so they share no
# joining code with the package.


def _union_labels(joins):
    """(find, closed): union-find over the label pairs `joins`, and how many
    joins met two labels already in one class, each of which closes a loop."""
    parent: dict[int, int] = {}

    def find(x):
        while x in parent:
            parent[x] = parent.get(parent[x], parent[x])  # path halving
            x = parent[x]
        return x

    closed = 0
    for a, b in joins:
        ra, rb = find(a), find(b)
        if ra == rb:
            closed += 1
        else:
            parent[ra] = rb
    return find, closed


def _join_labels(crossings: list[tuple], removed, joins, free: int):
    """Delete the crossings at indices `removed` and join the label pairs
    `joins`, the strand ends the deleted crossings connected.

    Arcs fused this way are merged by union-find on labels; a join whose two
    labels already lie in one class closes a free loop (this covers kinks,
    where a label appears twice in a removed tuple).
    """
    find, closed = _union_labels(joins)
    out = [tuple(find(lab) for lab in t) for k, t in enumerate(crossings) if k not in removed]
    return out, free + closed


def _smoothing_joins(t: tuple, mode: int):
    """The label pairs a smoothing of crossing t joins: slots (0,1),(2,3) for
    mode 0, else (0,3),(1,2).  Mode s % 2 keeps the corner between slots s
    and s+1 whole."""
    a, b, c, d = t
    return ((a, b), (c, d)) if mode == 0 else ((a, d), (b, c))


def _smooth_unoriented(crossings: list[tuple], free: int, ci: int, mode: int):
    """Remove crossing ci, joining ends (0,1),(2,3) for mode 0 else (0,3),(1,2)."""
    return _join_labels(crossings, (ci,), _smoothing_joins(crossings[ci], mode), free)


def unreduced_q(crossings, free, memo):
    """Q by the skein recursion with no Reidemeister reduction.  Memo keys
    are canonical (relabelled crossings and free loops), so one memo may
    serve several diagrams."""
    if not crossings:
        key = ("unlink", free)
        if key not in memo:
            memo[key] = _q_unknot_power(free - 1) if free else LaurentPolynomial.one()
        return memo[key]
    comps = _shadow_components(crossings, _darts(crossings))
    key = _q_canonical_key(crossings, free, comps)
    hit = memo.get(key)
    if hit is not None:
        return hit
    first = {}
    for comp in comps:
        for c, s in comp:
            first.setdefault(c, s)
    ci = next((c for c, s in first.items() if s in (0, 2)), None)
    if ci is None:
        val = _q_unknot_power(len(comps) + free - 1)
    else:
        switched = list(crossings)
        a, b, c, cc = switched[ci]
        switched[ci] = (b, c, cc, a)
        s0, f0 = _smooth_unoriented(crossings, free, ci, 0)
        s1, f1 = _smooth_unoriented(crossings, free, ci, 1)
        val = _Z * (unreduced_q(s0, f0, memo) + unreduced_q(s1, f1, memo)) \
            - unreduced_q(switched, free, memo)
    memo[key] = val
    return val


def seeded_braid_word(rng, strands, length):
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        if {abs(k) for k in word} == set(range(1, strands)):
            return word


def random_moves(d, rng, max_crossings):
    """d after one or more random kinks and R2 slides, at most max_crossings."""
    while d.n < max_crossings:
        if rng.random() < 0.5 or d.n + 2 > max_crossings:
            d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
        else:
            face = rng.choice([f for f in face_orbits(d.crossings) if len(f) >= 2])
            a, b = rng.sample(sorted({d.crossings[ci][s] for ci, s in face}), 2)
            d = r2_slide(d, a, b)
        if rng.random() < 0.5:
            break
    return d


def seeded_diagrams():
    for name, e in sorted(load_corpus().items()):
        if e.diagram is not None and e.diagram.n <= 9:
            yield name, e.diagram
    rng = random.Random(1301)
    for _ in range(60):
        strands = rng.randint(2, 4)
        word = seeded_braid_word(rng, strands, rng.randint(strands - 1, 6))
        d = braid_closure_pd(word, strands)
        yield word, d
        yield (word, "moved"), random_moves(d, rng, 8)
    for _ in range(16):
        while True:
            twists = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
            if sum(abs(a) for a in twists) <= 9:
                break
        yield twists, pretzel_pd(*twists)


def test_reduced_skein_equals_the_unreduced_recursion_on_seeded_diagrams():
    memo = {}
    checked = reduced = 0
    for label, d in seeded_diagrams():
        assert q_via_skein(d) == unreduced_q(list(d.crossings), d.free_loops, memo), label
        checked += 1
        reduced += len(_reidemeister_reduce(list(d.crossings), d.free_loops, d._darts)[0]) < d.n
    assert checked >= 150
    assert reduced >= 60  # every moved braid has a kink or an R2 pair at the top node


def reduce_diagram(d):
    return _reidemeister_reduce(list(d.crossings), d.free_loops, d._darts)[:2]


def test_a_kink_and_an_r2_pair_are_removed():
    corpus = load_corpus()
    for name in ("3_1", "4_1", "5_2"):
        d = corpus[name].diagram
        for arc in d.arcs:
            for positive in (True, False):
                crossings, free = reduce_diagram(r1_kink(d, arc, positive))
                assert (len(crossings), free) == (d.n, 0), (name, arc, positive)
        slid = 0
        for face in face_orbits(d.crossings):
            a, b = (d.crossings[ci][s] for ci, s in face[:2])
            slid_d = r2_slide(d, a, b)
            crossings, free = reduce_diagram(slid_d)
            assert slid_d.n == d.n + 2 and (len(crossings), free) == (d.n, 0), (name, a, b)
            slid += 1
        assert slid >= d.n + 2


def test_clasps_are_kept():
    corpus = load_corpus()
    for name in ("hopf_plus", "hopf_minus", "3_1", "4_1"):
        d = corpus[name].diagram
        crossings, free = reduce_diagram(d)
        assert (crossings, free) == (list(d.crossings), 0), name
        assert any(len(f) == 2 for f in face_orbits(d.crossings)), name


def test_a_figure_eight_curve_reduces_to_one_loop():
    assert _reidemeister_reduce([(1, 1, 2, 2)], 0, _darts([(1, 1, 2, 2)]))[:2] == ([], 1)
    assert q_via_skein(parse_pd("X[1,1,2,2]")) == LaurentPolynomial.one()


def test_two_circles_joined_by_an_r2_pair_reduce_to_two_loops():
    d = parse_pd("X(1,4,2,3) X(2,4,1,3)")  # circle 3-4 over circle 1-2 twice
    assert d.component_count == 2
    assert reduce_diagram(d) == ([], 2)
    assert q_via_skein(d) == LaurentPolynomial({-2: 2, 0: -1})  # 2 z^-1 - 1


def test_q_golden_closed_form_on_every_corpus_knot():
    sizes = []
    for name, e in sorted(corpus_knots().items()):
        d = e.diagram
        M = e.seifert.M if e.seifert is not None else seifert_matrix_from_diagram(d).M
        assert q_via_skein(d, budget=d.n).eval_golden_reciprocal() == q_golden_closed_form(M), name
        sizes.append(d.n)
    assert max(sizes) == 27  # p5_17_5; p777m has 21


def test_q_golden_closed_form_on_seeded_pretzel_knots():
    rng = random.Random(1302)
    sizes = []
    for _ in range(5):
        while True:
            twists = [rng.choice((1, -1)) * rng.randrange(3, 12, 2) for _ in range(3)]
            if 13 <= sum(abs(a) for a in twists) <= 25:
                break
        d = pretzel_pd(*twists)
        assert d.component_count == 1
        lhs = q_via_skein(d, budget=d.n).eval_golden_reciprocal()
        assert lhs == q_golden_closed_form(goeritz_from_diagram(d, 0)), twists
        sizes.append(d.n)
    assert max(sizes) > 18
