"""The Q skein's shadow walk takes one walk per component.

The walk from the other end of a component's first arc is the first walk
reversed, so the direction with the smaller arc sequence can be read off
one walk.  A copy of the two-walk method checks it on the corpus, on seeded
pretzels and braid closures, and on the diagrams one skein step makes of
them (switches and both smoothings, which make kinks and merged labels).
"""

import random

from singdet.corpus import load_corpus
from singdet.diagrams import (
    _darts,
    _q_canonical_key,
    _shadow_components,
    braid_closure_pd,
    pretzel_pd,
)
from test_arc_map import _arc_ends
from test_q_reduce import _smooth_unoriented


def walk_from(crossings, entry):
    """Events (crossing, entry slot) and arcs of the walk straight through
    every crossing that enters at the end `entry`."""
    partner = _arc_ends(crossings)[1]
    events, e = [], entry
    while True:
        events.append(e)
        e = partner((e[0], (e[1] + 2) % 4))
        if e == entry:
            return events, [crossings[ci][s] for ci, s in events]


def two_walk_components(crossings):
    """The two-walk method: walk from both ends, keep the smaller arc list."""
    occ = _arc_ends(crossings)[0]
    comps, seen = [], set()
    for start in sorted(occ):
        if start in seen:
            continue
        e1, e2 = occ[start]
        ev1, arcs1 = walk_from(crossings, e1)
        ev2, arcs2 = walk_from(crossings, e2)
        events, arcs = (ev1, arcs1) if arcs1 <= arcs2 else (ev2, arcs2)
        seen.update(arcs)
        comps.append(events)
    return comps


def skein_shapes():
    rng = random.Random(2603)
    bases = [e.diagram.crossings for e in load_corpus().values() if e.diagram is not None and e.diagram.n]
    bases += [pretzel_pd(*[rng.choice((-1, 1)) * rng.randrange(1, 4) for _ in range(3)]).crossings
              for _ in range(20)]
    bases += [braid_closure_pd([rng.choice((-1, 1)) * rng.randrange(1, 3) for _ in range(6)] + [1, 2], 3).crossings
              for _ in range(20)]
    for crossings in bases:
        yield list(crossings), 0
        for ci, (a, b, c, d) in enumerate(crossings[:4]):
            yield [t if k != ci else (b, c, d, a) for k, t in enumerate(crossings)], 0
            for mode in (0, 1):
                yield _smooth_unoriented(list(crossings), 0, ci, mode)


def test_one_walk_gives_the_two_walk_components_and_memo_key():
    checked = 0
    for crossings, free in skein_shapes():
        if not crossings:
            continue
        comps = _shadow_components(crossings, _darts(crossings))
        assert comps == two_walk_components(crossings), crossings
        assert _q_canonical_key(crossings, free, comps) == \
            _q_canonical_key(crossings, free, two_walk_components(crossings))
        checked += 1
    assert checked > 500
