"""The flat dart map of a crossing list and the code that reads it.

`_darts` is the one arc map of an unoriented crossing list: dart 4 ci + s
is the end at slot s of crossing ci, and partner[e] the other end of its
arc.  It must be a fixed-point-free involution that pairs equal labels.
`_contraction_order` reads it in place of a label -> crossings map,
`_piece_count` counts pieces by union-find on crossing indices in place of
one fake crossing sent through `_join_labels`, and `_reidemeister_reduce`
rewires it in place of its own label -> ends map and a union-find per
move; those replaced versions are kept here as oracles.  It also splices
skein children out of a copy of the list, in place of the label union-find
that `_smooth_unoriented` (now in test_q_reduce.py) runs for them.  The
diagrams are the corpus, seeded pretzels, 2-5-strand braid closures, their
disjoint unions (split codes) and the skein children made of them.
"""

import random

from singdet.corpus import load_corpus
from singdet.diagrams import (
    _contraction_order,
    _darts,
    _piece_count,
    _reidemeister_reduce,
    _smoothing,
    _twist_region,
    braid_closure_pd,
    face_orbits,
    pretzel_pd,
)
from test_arc_map import _arc_ends
from test_q_reduce import _join_labels, _smooth_unoriented, _smoothing_joins, _union_labels, seeded_braid_word


def at_map_contraction_order(crossings):
    """The contraction order read off a label -> crossings map."""
    at = {}
    for ci, t in enumerate(crossings):
        for lab in t:
            at.setdefault(lab, []).append(ci)
    score = [0] * len(crossings)
    left = set(range(len(crossings)))
    order = []
    while left:
        ci = min(left, key=lambda c: (-score[c], c))
        left.remove(ci)
        order.append(ci)
        for lab in crossings[ci]:
            a, b = at[lab]
            other = b if a == ci else a
            if other in left:
                score[other] += 1
    return order


def fake_crossing_piece_count(n, groups):
    """Pieces counted by joining labels 0..n-1 of one fake crossing."""
    joins = ((ci, group[0][0]) for group in groups for ci, _ in group[1:])
    roots, _ = _join_labels([tuple(range(n))], (), joins, 0)
    return len(set(roots[0]))


def union_find_reduce(crossings, free, order=iter):
    """(crossings, free, kept) from the move loop that kept its own label ->
    ends map and merged the labels each move joined by union-find.  After a
    move it put the crossings on each joined label's arc back on the stack,
    taking the labels in `order` of their set."""
    cross = [list(t) for t in crossings]
    occ = _arc_ends(crossings)[0]
    alive = [True] * len(cross)
    todo = list(range(len(cross)))[::-1]
    while todo:
        ci = todo.pop()
        if not alive[ci]:
            continue
        t = cross[ci]
        for s in range(4):
            s1 = (s + 1) % 4
            if t[s] == t[s1]:
                removed, joins = (ci,), ((t[(s + 2) % 4], t[(s + 3) % 4]),)
                break
            e, f = occ[t[s1]]
            c2, s2 = f if e == (ci, s1) else e
            if (s1 - s2) % 2 == 0 and c2 != ci and cross[c2][(s2 + 1) % 4] == t[s]:
                t2 = cross[c2]
                removed = (ci, c2)
                joins = ((t[(s + 3) % 4], t2[(s2 + 2) % 4]), (t[(s + 2) % 4], t2[(s2 + 3) % 4]))
                break
        else:
            continue
        for c in removed:
            alive[c] = False
            for s, lab in enumerate(cross[c]):
                occ[lab].remove((c, s))
        find, closed = _union_labels(joins)
        free += closed
        for lab in order({lab for join in joins for lab in join}):
            root = find(lab)
            if lab != root:
                ends = occ.pop(lab)
                for c, s in ends:
                    cross[c][s] = root
                occ[root] += ends
            todo.extend(c for c, _ in occ[root])
    kept = [ci for ci in range(len(cross)) if alive[ci]]
    return [tuple(cross[ci]) for ci in kept], free, kept


def relabelled(crossings, other):
    """Whether two crossing lists differ only by a renaming of the labels."""
    rename = {}
    pairs = [(a, b) for t, u in zip(crossings, other) for a, b in zip(t, u)]
    return (len(crossings) == len(other) and all(rename.setdefault(a, b) == b for a, b in pairs)
            and len(set(rename.values())) == len(rename))


def disjoint_union(c1, c2):
    shift = max((lab for t in c1 for lab in t), default=0) + 1
    return list(c1) + [tuple(lab + shift for lab in t) for t in c2]


def base_lists():
    """([(crossings, sampled)], pretzels): the base crossing lists, each with
    up to three of its crossings drawn, and the seeded pretzels among them."""
    rng = random.Random(2511)
    bases = [e.diagram.crossings for e in load_corpus().values() if e.diagram is not None and e.diagram.n]
    pretzels = []
    for _ in range(15):
        twists = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(rng.randint(2, 4))]
        pretzels.append(pretzel_pd(*twists).crossings)
    bases += pretzels
    for _ in range(30):
        strands = rng.randint(2, 5)
        word = seeded_braid_word(rng, strands, rng.randint(strands - 1, 9))
        bases.append(braid_closure_pd(word, strands).crossings)
    for _ in range(10):
        bases.append(disjoint_union(rng.choice(bases), rng.choice(bases)))
    return [(list(c), rng.sample(range(len(c)), min(3, len(c)))) for c in bases], pretzels


def crossing_lists():
    for crossings, sampled in base_lists()[0]:
        yield crossings
        for ci in sampled:
            for mode in (0, 1):
                yield _smooth_unoriented(crossings, 0, ci, mode)[0]


def spliced_children():
    """(crossings, cut, child, free): the dart pairs a skein child splices
    out of a crossing list, and the (crossings, free loops) the label
    union-find made of the same cut.  The cuts are the drawn crossings of
    `base_lists` smoothed both ways, and the T_1, T_0 and E cuts of each
    seeded pretzel's twist region, joined in the order the skein takes."""
    bases, pretzels = base_lists()
    for crossings, sampled in bases:
        for ci in sampled:
            for mode in (0, 1):
                yield crossings, _smoothing(ci, mode), *_smooth_unoriented(crossings, 0, ci, mode)
    for crossings in map(list, pretzels):
        region = _twist_region(_darts(crossings))
        if region is None:
            continue
        for removed in (region[1:], region):
            yield (crossings, [j for ci, s in removed for j in _smoothing(ci, 1 - s % 2)],
                   *_join_labels(crossings, [ci for ci, _ in removed],
                                 [j for ci, s in removed for j in _smoothing_joins(crossings[ci], 1 - s % 2)], 0))
        ci, s = region[0]
        yield crossings, _smoothing(ci, s % 2), *_smooth_unoriented(crossings, 0, ci, s % 2)


def test_darts_pair_the_two_ends_of_every_label():
    checked = 0
    for crossings in crossing_lists():
        partner = _darts(crossings)
        labels = [lab for t in crossings for lab in t]
        assert len(partner) == len(labels)
        for e, f in enumerate(partner):
            assert f != e and partner[f] == e, crossings
            assert labels[f] == labels[e], crossings
        checked += 1
    assert checked > 300


def test_contraction_order_equals_the_label_map_version():
    for crossings in crossing_lists():
        assert _contraction_order(_darts(crossings)) == at_map_contraction_order(crossings), crossings


def test_piece_count_equals_the_fake_crossing_count():
    split = 0
    for crossings in crossing_lists():
        n = len(crossings)
        pieces = _piece_count(_darts(crossings))
        for groups in (list(_arc_ends(crossings)[0].values()), face_orbits(crossings)):
            assert pieces == fake_crossing_piece_count(n, groups), crossings
        split += pieces > 1
    assert split >= 10


# A move that closes a loop, two moves that chain along one strand, a
# two-crossing R2 unlink and a clasp (the positive Hopf link) that stays.
MOVE_CODES = [
    [(1, 1, 2, 2)],
    [(1, 2, 2, 1)],
    [(1, 2, 2, 3), (3, 4, 4, 1)],
    [(1, 4, 2, 3), (2, 4, 1, 3)],
    [(1, 3, 4, 2), (3, 1, 2, 4)],
]


def test_the_move_loop_on_darts_equals_the_union_find_loop():
    """The reduce hands on the `_darts` of the crossings left, and leaves
    the union-find loop's free loops and, up to a renaming, its crossings.
    Its survivors are the loop's for one order of re-checking the joined
    arcs: where overlapping moves compete, that order picks the move.  A
    skein child spliced out of its parent's darts leaves, with the cut
    crossings' indices skipped, what the loop leaves of the child that the
    label union-find made, and the same labels as the reduce of that child;
    the parent's partner list is not changed."""
    orders = (iter, sorted, lambda labels: sorted(labels, reverse=True))
    checked = reduced = spliced = 0
    cases = [(c, (), c, 0) for c in list(crossing_lists()) + MOVE_CODES] + list(spliced_children())
    for crossings, cut, child, child_free in cases:
        partner = _darts(crossings)
        got_crossings, got_free, kept, got_partner = _reidemeister_reduce(crossings, 0, partner, cut)
        assert partner == _darts(crossings) and got_partner == _darts(got_crossings), crossings
        left = [ci for ci in range(len(crossings)) if ci not in {x >> 2 for x, _y in cut}]
        runs = [union_find_reduce(child, child_free, order) for order in orders]
        same = [run for run in runs if [left[k] for k in run[2]] == kept]
        assert same, (crossings, cut, kept, [run[2] for run in runs])
        want, free, _ = same[0]
        assert got_free == free and relabelled(got_crossings, want), (crossings, cut)
        if cut:
            child_left = _reidemeister_reduce(child, child_free, _darts(child))[:2]
            assert (got_crossings, got_free) == child_left, (crossings, cut)
            spliced += 1
        checked += 1
        reduced += len(kept) < len(left)
    assert checked > 300 and reduced > 200 and spliced > 500
    assert [_reidemeister_reduce(c, 0, _darts(c))[:2] for c in MOVE_CODES] == [
        ([], 1), ([], 1), ([], 1), ([], 2), (MOVE_CODES[-1], 0)]
