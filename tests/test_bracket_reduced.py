"""The Kauffman bracket contracts the R1/R2-reduced diagram.

`kauffman_bracket` removes kinks and second Reidemeister pairs with the
move loop of the Q skein, contracts the crossings left, and multiplies by
(-A^3)^k, with k the writhe less the sum of the survivors' signs in the
input's orientation.  The contraction of the whole diagram, as it ran
before the reduction, is kept here as the oracle: on seeded braid
closures of 2 to 5 strands (knots, links, closures that reduce to no
crossing, and links with a component over at every crossing left), on
R1/R2-scrambled corpus diagrams, their mirrors, and split diagrams with
free loops.  The work is pinned by counting placed crossings, and
`eval_root_of_unity` is checked against the per-term sum it replaced.
"""

import random

from singdet import diagrams
from singdet.corpus import load_corpus
from singdet.diagrams import (
    DiagramError,
    LinkDiagram,
    _reidemeister_reduce,
    braid_closure_pd,
    face_orbits,
    jones_via_bracket,
    kauffman_bracket,
    mirror,
    r1_kink,
    r2_slide,
    reverse_component,
)
from singdet.rings import Cyclo24, LaurentPolynomial
from test_bracket_contraction import disjoint_union
from test_diagram_facts import count_calls
from test_q_reduce import seeded_braid_word

DELTA = {2: -1, -2: -1}


def times(p, q, shift=0):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2 + shift] = out.get(e1 + e2 + shift, 0) + c1 * c2
    return out


def delta_power(k):
    out = {0: 1}
    for _ in range(k):
        out = times(out, DELTA)
    return out


def place(states, labels):
    """One step of the contraction: union-find over the touched pairs and
    the smoothing's two joins, as the contraction ran before the reduction."""
    once_here = {lab for lab in labels if labels.count(lab) == 1}
    nxt = {}
    for key, poly in states.items():
        touched = [p for p in key if p[0] in labels or p[1] in labels]
        kept = [p for p in key if p not in touched]
        once = once_here.symmetric_difference(lab for p in touched for lab in p)
        for joins, x in ((((0, 1), (2, 3)), 1), (((0, 3), (1, 2)), -1)):
            parent, loops = {}, 0
            for a, b in touched + [(labels[s], labels[t]) for s, t in joins]:
                while a in parent:
                    a = parent[a]
                while b in parent:
                    b = parent[b]
                if a == b:
                    loops += 1
                else:
                    parent[a] = b
            ends = {}
            for lab in once:
                root = lab
                while root in parent:
                    root = parent[root]
                ends.setdefault(root, []).append(lab)
            new_key = tuple(sorted(kept + [tuple(sorted(p)) for p in ends.values()]))
            acc = nxt.setdefault(new_key, {})
            for e, c in times(poly, delta_power(loops), x).items():
                acc[e] = acc.get(e, 0) + c
    return {k: {e: c for e, c in p.items() if c} for k, p in nxt.items() if any(p.values())}


def unreduced_bracket(d):
    """The bracket by contracting every crossing of d, in the order of most
    arcs into the placed ones, with no Reidemeister move."""
    if d.n == 0:
        return delta_power(d.free_loops - 1)
    score, left, states = [0] * d.n, set(range(d.n)), {(): {0: 1}}
    while left:
        ci = min(left, key=lambda c: (-score[c], c))
        left.remove(ci)
        states = place(states, d.crossings[ci])
        for s in range(4):
            other = d._darts[4 * ci + s] >> 2
            if other in left:
                score[other] += 1
    total = times(states[()], delta_power(d.free_loops))
    quotient = {}  # total / delta, from the lowest term up
    for e in range(min(total), max(total) - 3):
        c = total.pop(e, 0)
        if c:
            quotient[e + 2] = -c
            total[e + 4] = total.get(e + 4, 0) - c
    assert not any(total.values())
    return quotient


def normalized(bracket, writhe):
    """(-A)^(-3 writhe) times the bracket, at A = t^(-1/4), keyed by
    exponents of t^(1/2)."""
    out = {}
    for e, c in bracket.items():
        ee = e - 3 * writhe
        assert ee % 2 == 0
        out[-ee // 2] = out.get(-ee // 2, 0) + c * (-1) ** (writhe % 2)
    return LaurentPolynomial(out)


def assert_matches_oracle(d, label, bracket_too=True):
    expected = unreduced_bracket(d)
    assert jones_via_bracket(d, budget=d.n) == normalized(expected, d.writhe), label
    if bracket_too:
        assert kauffman_bracket(d) == expected, label


def over_only_components(d, crossings):
    """Components of d that pass over at every crossing of `crossings` that
    they meet.  `crossings` is a reduction of d, whose labels are labels of
    d, each on its component of d."""
    comp_of = {lab: k for k, comp in enumerate(d.components) for lab in comp}
    under = {comp_of[t[0]] for t in crossings}
    return {comp_of[t[1]] for t in crossings} - under


def over_strand_closure(rng):
    """A closure with a component over at every crossing left by the
    reduction, and under at a kink the reduction removes, so that the code
    orients it.  The words have the last strand pass over at each of its
    crossings and end where it began, and are drawn until one keeps such a
    crossing."""
    while True:
        strands = rng.randint(3, 5)
        pos, word = strands - 1, []
        for _ in range(rng.randint(5, 9)):
            k = rng.randint(1, strands - 1)
            if k - 1 <= pos <= k:  # sigma_k moves the right strand left over the left one
                word.append(k if pos == k else -k)
                pos = 2 * k - 1 - pos
            else:
                word.append(rng.choice((1, -1)) * k)
        if pos != strands - 1 or {abs(k) for k in word} != set(range(1, strands)):
            continue
        d = braid_closure_pd(word, strands)
        crossings = _reidemeister_reduce(d.crossings, d.free_loops, d._darts)[0]
        over_only = over_only_components(d, crossings)
        if crossings and over_only:
            return r1_kink(d, d.components[min(over_only)][0], rng.random() < 0.5)


def seeded_closures(rng, count, over_strand):
    for _ in range(count):
        strands = rng.randint(2, 5)
        yield braid_closure_pd(seeded_braid_word(rng, strands, rng.randint(strands - 1, 7)), strands)
    for _ in range(over_strand):
        yield over_strand_closure(rng)


def test_seeded_closures_match_the_unreduced_contraction():
    rng = random.Random(2301)
    seen = {"closures": 0, "links": 0, "reduced": 0, "to nothing": 0, "over only": 0,
            "reoriented differs": 0}
    for d in seeded_closures(rng, 2000, 30):
        crossings, _, kept, _ = _reidemeister_reduce(d.crossings, d.free_loops, d._darts)
        cases = [d]
        over_only = over_only_components(d, crossings)
        if over_only:
            # a component over at every crossing left, in both directions:
            # built anew, the reduced code would orient it from its least
            # over end, and its crossings would read other signs in one
            # (their sum stays 0, its linking number with the rest)
            cases.append(reverse_component(d, min(over_only)))
            seen["over only"] += 1
            rebuilt = LinkDiagram(tuple(crossings)).signs
            for case in cases:
                seen["reoriented differs"] += rebuilt != tuple(case.sign(ci) for ci in kept)
        for case in cases:
            assert_matches_oracle(case, case.crossings, bracket_too=False)
        seen["closures"] += 1
        seen["links"] += d.component_count > 1
        seen["reduced"] += len(crossings) < d.n
        seen["to nothing"] += not crossings
    assert seen["closures"] >= 2000
    assert seen["links"] >= 500 and seen["reduced"] >= 1000 and seen["to nothing"] >= 300
    assert seen["over only"] >= 30 and seen["reoriented differs"] >= 15, seen


def scrambled(d, rng, moves):
    """d after random kinks and R2 slides across faces."""
    for _ in range(moves):
        if rng.random() < 0.5:
            d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
        else:
            face = rng.choice([f for f in face_orbits(d.crossings) if len(f) >= 2])
            a, b = rng.sample(sorted({d.crossings[ci][s] for ci, s in face}), 2)
            try:
                d = r2_slide(d, a, b)
            except DiagramError:
                continue
    return d


def test_scrambled_corpus_diagrams_mirrors_and_split_diagrams_match():
    rng = random.Random(2302)
    corpus = load_corpus()
    checked = 0
    for name in ("3_1", "4_1", "5_2", "6_3", "hopf_plus", "hopf_minus", "t2_4", "t2_4_rev", "granny"):
        base = corpus[name].diagram
        for _ in range(3):
            d = scrambled(base, rng, rng.randint(1, 4))
            for case in (d, mirror(d), disjoint_union(d, base, free_loops=1),
                         LinkDiagram(d.crossings, 2)):
                assert_matches_oracle(case, name)
                checked += 1
    assert checked >= 100
    assert_matches_oracle(LinkDiagram((), 3), "three circles")


def placed_crossings(monkeypatch, d):
    counts = count_calls(monkeypatch, "_place_crossing")
    kauffman_bracket(d)
    monkeypatch.undo()
    return counts["_place_crossing"]


def test_the_contraction_places_only_the_crossings_left(monkeypatch):
    trefoil = load_corpus()["3_1"].diagram
    kinked = trefoil
    for arc, positive in ((1, True), (2, False), (3, True)):
        kinked = r1_kink(kinked, arc, positive)
    assert kinked.n == 6
    assert placed_crossings(monkeypatch, kinked) == 3
    assert kauffman_bracket(kinked) == unreduced_bracket(kinked)
    for k in (1, 3, 6):
        unlink = braid_closure_pd([1, -1] * k, 2)
        assert placed_crossings(monkeypatch, unlink) == 0
        assert kauffman_bracket(unlink) == {2: -1, -2: -1}  # two circles
    rng = random.Random(2303)
    for _ in range(40):
        strands = rng.randint(2, 4)
        d = braid_closure_pd(seeded_braid_word(rng, strands, rng.randint(strands - 1, 9)), strands)
        left = len(_reidemeister_reduce(d.crossings, d.free_loops, d._darts)[0])
        assert placed_crossings(monkeypatch, d) == left


def per_term_value(poly, h):
    """The value as a sum of one Cyclo24 per term, as it was computed before
    the coordinates were summed."""
    out = Cyclo24.zero()
    for e2, c in poly.coeffs:
        out = out + Cyclo24.zeta_pow(h * e2) * c
    return out


def test_eval_root_of_unity_equals_the_per_term_sum():
    rng = random.Random(2304)
    polys = [LaurentPolynomial({}), LaurentPolynomial({0: 1}), LaurentPolynomial({-3: 2, 5: -7})]
    for _ in range(60):
        terms = {rng.randint(-40, 40): rng.randint(-10 ** 6, 10 ** 6) for _ in range(rng.randint(1, 12))}
        polys.append(LaurentPolynomial(terms))
    assert sum(any(e % 2 for e, _ in p.coeffs) for p in polys) >= 50  # odd doubled exponents
    for p in polys:
        for h in range(24):
            assert p.eval_root_of_unity(h) == per_term_value(p, h), (p, h)
