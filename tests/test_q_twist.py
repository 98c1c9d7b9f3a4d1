"""The twist-region Q skein against the face-walk skein it replaced.

`q_via_skein` finds kinks and second Reidemeister pairs by checking
crossings, and expands a whole twist region per node by a three-term
recurrence.  The skein it replaced, which walked every face once per move
and branched on one crossing per node, is kept here as the oracle
(`old_q`): both must give the same polynomial on every family below,
including those whose twist regions close up (T(2, k)), split diagrams and
diagrams with no twist region at all.  On large pretzels, where the old
skein does not finish, Q(1/phi) is checked against the closed form from the
Goeritz matrix's linking form.
"""

import random

from singdet import diagrams
from singdet.corpus import load_corpus
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
    pd_text,
    pretzel_pd,
    q_via_skein,
)
from singdet.evaluate import q_at_golden_link
from singdet.rings import LaurentPolynomial
from test_diagram_facts import count_calls
from test_q_reduce import _join_labels, _smooth_unoriented, random_moves, seeded_braid_word, unreduced_q


def old_reducing_move(crossings):
    """The first kink or R2 pair met in one face walk, as (removed, joins)."""
    for face in face_orbits(crossings):
        if len(face) == 1:
            ci, s = face[0]
            t = crossings[ci]
            return (ci,), ((t[(s + 2) % 4], t[(s + 3) % 4]),)
        if len(face) == 2:
            (c1, s1), (c2, s2) = face
            if c1 != c2 and (s1 + 1) % 2 == s2 % 2:
                t1, t2 = crossings[c1], crossings[c2]
                return (c1, c2), ((t1[(s1 + 3) % 4], t2[(s2 + 2) % 4]),
                                  (t1[(s1 + 2) % 4], t2[(s2 + 3) % 4]))
    return None


def old_reduce(crossings, free):
    while crossings:
        move = old_reducing_move(crossings)
        if move is None:
            break
        crossings, free = _join_labels(crossings, *move, free)
    return crossings, free


def old_q(crossings, free, memo):
    """Q by the face-walk reduction and one template crossing per node.
    Memo keys are canonical, so one memo may serve several diagrams."""
    crossings, free = old_reduce(crossings, free)
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
        val = _Z * (old_q(s0, f0, memo) + old_q(s1, f1, memo)) - old_q(switched, free, memo)
    memo[key] = val
    return val


def has_bigon_or_kink(crossings):
    return any(len(f) == 1 or (len(f) == 2 and f[0][0] != f[1][0]) for f in face_orbits(crossings))


def run_word(rng, strands, length):
    """A braid word of runs sigma_i^(+-k), k <= 6, using every generator."""
    while True:
        word = []
        while len(word) < length:
            word += [rng.choice((1, -1)) * rng.randint(1, strands - 1)] * rng.randint(1, 6)
        word = word[:length]
        if {abs(k) for k in word} == set(range(1, strands)):
            return word


def twist_free_closure(rng, max_crossings):
    """A braid closure whose diagram has no kink and no bigon."""
    while True:
        strands = rng.randint(3, 4)
        d = braid_closure_pd(seeded_braid_word(rng, strands, rng.randint(6, max_crossings)), strands)
        if not has_bigon_or_kink(d.crossings):
            return d


def families(rng):
    """(family, label, diagram) with at most 12 crossings."""
    for k in range(1, 10):
        for sign in (1, -1):
            yield "torus", ("T(2,k)", sign * k), braid_closure_pd([sign] * k, 2)
    for _ in range(110):
        while True:
            twists = [rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(rng.randint(2, 5))]
            if sum(abs(a) for a in twists) <= 12:
                break
        yield "pretzel", twists, pretzel_pd(*twists)
    for _ in range(110):
        strands = rng.randint(2, 4)
        word = run_word(rng, strands, rng.randint(strands, 12))
        yield "runs", word, braid_closure_pd(word, strands)
    for _ in range(40):
        d = braid_closure_pd(run_word(rng, 3, rng.randint(3, 8)), 3)
        loops = rng.randint(1, 2)
        yield "split", loops, parse_pd(pd_text(d) + " O" * loops)
    yield "split", "two loops", parse_pd("O O")
    for _ in range(100):
        if rng.random() < 0.5:
            strands = rng.randint(2, 4)
            d = braid_closure_pd(seeded_braid_word(rng, strands, rng.randint(strands - 1, 8)), strands)
        else:
            d = pretzel_pd(*(rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(3)))
        yield "moved", d.crossings, random_moves(d, rng, 12)
    for _ in range(30):
        yield "twist-free", None, twist_free_closure(rng, 10)


def test_the_twist_skein_equals_the_face_walk_skein_on_seeded_families():
    rng = random.Random(2201)
    memo, small = {}, {}
    counts = {}
    for family, label, d in families(rng):
        assert d.n <= 12, (family, label)
        want = old_q(list(d.crossings), d.free_loops, memo)
        assert q_via_skein(d) == want, (family, label)
        if d.n <= 8 and family != "moved":  # test_q_reduce.py checks moved ones
            assert unreduced_q(list(d.crossings), d.free_loops, small) == want, (family, label)
        counts[family] = counts.get(family, 0) + 1
    assert sum(counts.values()) >= 400
    assert counts == {"torus": 18, "pretzel": 110, "runs": 110, "split": 41, "moved": 100,
                      "twist-free": 30}


def test_the_reduction_leaves_no_kink_and_no_second_reidemeister_bigon():
    rng = random.Random(2202)
    moved = clasps = 0
    for _ in range(520):
        strands = rng.randint(2, 4)
        d = braid_closure_pd(seeded_braid_word(rng, strands, rng.randint(strands - 1, 7)), strands)
        d = random_moves(d, rng, 14)
        crossings, free, _, _ = _reidemeister_reduce(list(d.crossings), d.free_loops, d._darts)
        assert free >= d.free_loops and len(crossings) <= d.n
        for face in face_orbits(crossings):
            assert len(face) != 1, (d.crossings, face)
            if len(face) == 2 and face[0][0] != face[1][0]:
                (_, s1), (_, s2) = face
                assert (s1 + 1) % 2 != s2 % 2, (d.crossings, face)  # a clasp
                clasps += 1
        moved += 1
    assert moved >= 500 and clasps >= 500


def skein_counts(monkeypatch, d):
    """Calls of `_face_walk`, which every face walk goes through, and
    `_q_affine` (one per skein node) made by q_via_skein(d)."""
    counts = count_calls(monkeypatch, "_face_walk", "_q_affine")
    q_via_skein(d, budget=d.n)
    monkeypatch.undo()
    return counts


def test_large_pretzels_take_few_nodes_and_no_face_walk(monkeypatch):
    d = pretzel_pd(3, -5, 7, -9, 11)
    assert d.n == 35
    counts = skein_counts(monkeypatch, d)
    assert counts["_face_walk"] == 0
    assert counts["_q_affine"] <= 200
    counts = skein_counts(monkeypatch, load_corpus()["p5_17_5"].diagram)
    assert counts["_face_walk"] == 0
    assert counts["_q_affine"] <= 100


def test_q_at_golden_equals_the_linking_form_on_large_pretzels():
    rng = random.Random(2203)
    shapes = [(21, -17, 25), (41, -33, 51), (3, -5, 7, -9, 11)]
    while len(shapes) < 24:
        twists = tuple(rng.choice((1, -1)) * rng.randint(1, 45) for _ in range(rng.randint(3, 5)))
        if 30 <= sum(abs(a) for a in twists) <= 130:
            shapes.append(twists)
    for twists in shapes:
        d = pretzel_pd(*twists)
        assert d.is_connected, twists
        want = q_at_golden_link(goeritz_from_diagram(d, 0))
        assert q_via_skein(d, budget=d.n).eval_golden_reciprocal() == want, twists
    assert max(pretzel_pd(*t).n for t in shapes) >= 125


# The fixed braid words of the `braids` benchmark and four pretzels, with
# the skein nodes each takes.
WORK_INPUTS = [
    (braid_closure_pd, ([3, -1, -1, 1, 2, -1, -3, -2], 4), 4),
    (braid_closure_pd, ([1, 2, -1, -1, -1, 2, 2, 2, 2], 3), 10),
    (braid_closure_pd, ([2, -2, -2, 2, 1, -2, -1, -2, 2, 2], 3), 1),
    (braid_closure_pd, ([2, -1, -1, -1, 1, -2, -2, -2, -2, 1, 2], 3), 19),
    (braid_closure_pd, ([-2, -2, -2, -2, -2, 1, -2, 1, -1, 2, 2, 2], 3), 4),
    (pretzel_pd, (3, 3, 3), 28),
    (pretzel_pd, (-3, 3, 3), 22),
    (pretzel_pd, (5, -3, 3), 22),
    (pretzel_pd, (-5, -3, 3), 25),
]


def test_a_skein_or_bracket_call_builds_no_dart_map(monkeypatch):
    """Each skein child is spliced out of its parent's partner list and the
    root out of the diagram's, so a `q_via_skein` call builds no `_darts`
    however many nodes it makes, and neither does a `kauffman_bracket`
    call."""
    for build, args, nodes in WORK_INPUTS:
        d = build(*args)
        counts = count_calls(monkeypatch, "_darts", "_q_affine")
        q_via_skein(d)
        assert counts == {"_darts": 0, "_q_affine": nodes}, args
        counts = count_calls(monkeypatch, "_darts")
        diagrams.kauffman_bracket(d)
        assert counts == {"_darts": 0}, args
        monkeypatch.undo()
    assert sum(nodes for _, _, nodes in WORK_INPUTS) == 135


def test_a_long_twist_region_costs_no_recursion_depth():
    """T(2, 505) is one twist region of 505 crossings; its recurrence runs
    in a loop, so the skein gives Q(1/phi) where a recursion would exceed
    the interpreter's depth limit."""
    d = braid_closure_pd([1] * 505, 2)
    shade = next(g for g in (goeritz_from_diagram(d, s) for s in (0, 1)) if g.n == 1)
    want = q_at_golden_link(shade)
    assert str(want) == "sqrt5"
    assert q_via_skein(d, budget=505).eval_golden_reciprocal() == want
