"""A diagram is oriented by one straight walk per strand.

`LinkDiagram._orient` walks from each incoming under end (slot 0) not yet
walked, in order, and then from the least over end of each component that
never passes under.  The constraint propagation it replaced is kept below as
the oracle: every code must give the same orientation of every end, or the
same error.  Inputs: the corpus diagrams, seeded pretzel and braid closure
tuples with random quarter and half turns, random codes of paired labels,
and diagrams, pure braid closures among them, in which some components are
put over at every crossing with another component, so that they never pass
under.
"""

import random

from singdet.corpus import load_corpus
from singdet.diagrams import DiagramError, LinkDiagram, braid_closure_pd, pretzel_pd
from test_arc_map import _arc_ends


def propagated(crossings):
    """End -> incoming, by constraint propagation: slot 0 is incoming, slot 2
    outgoing, the two ends of an arc and the two over ends of a crossing
    are opposite, and a component that never passes under enters at its
    least over end."""
    partner = _arc_ends(crossings)[1]
    is_in = {}
    pending = []
    for ci in range(len(crossings)):
        pending.append(((ci, 0), True))
        pending.append(((ci, 2), False))
    unassigned = {(ci, s) for ci in range(len(crossings)) for s in (1, 3)}
    while pending or unassigned:
        if not pending:
            e0 = min(unassigned)
            unassigned.discard(e0)
            pending.append((e0, True))
        e, val = pending.pop()
        if e in is_in:
            if is_in[e] != val:
                raise DiagramError("inconsistent strand orientations")
            continue
        is_in[e] = val
        unassigned.discard(e)
        pending.append((partner(e), not val))
        ci, s = e
        if s in (1, 3):
            pending.append(((ci, 4 - s), not val))
    return is_in


def turned(crossings, rng, turns):
    """Each tuple rotated by a quarter turn count drawn from `turns`."""
    out = []
    for t in crossings:
        k = rng.choice(turns)
        out.append(t[k:] + t[:k])
    return out


def over_everywhere(d, rng):
    """d's tuples with a random set of components switched to over at every
    crossing with a component outside the set, rotated as `mirror` rotates
    them so that slot 0 is again incoming."""
    chosen = {arc for comp in d.components if rng.random() < 0.5 for arc in comp}
    out = []
    for ci, t in enumerate(d.crossings):
        if t[0] in chosen and t[1] not in chosen:
            k = 1 if d.sign(ci) == -1 else 3
            t = t[k:] + t[:k]
        out.append(t)
    return out


def codes(rng):
    corpus = [e.diagram for _, e in sorted(load_corpus().items()) if e.diagram is not None and e.diagram.n]
    for d in corpus:
        yield list(d.crossings)
        yield turned(d.crossings, rng, (0, 1, 2, 3))
        yield over_everywhere(d, rng)
    for _ in range(300):
        twists = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        d = pretzel_pd(*twists)
        yield turned(d.crossings, rng, (0, 1, 2, 3))
        yield turned(d.crossings, rng, (0, 0, 0, 2))
        yield over_everywhere(d, rng)
    for _ in range(300):
        strands = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * k for k in range(1, strands)]
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 10))]
        rng.shuffle(word)
        d = braid_closure_pd(word, strands)
        yield turned(d.crossings, rng, (0, 1, 2, 3))
        yield turned(d.crossings, rng, (0, 0, 0, 2))
        yield over_everywhere(d, rng)
    for _ in range(150):  # pure braids: each component is one strand that never meets itself
        strands = rng.randint(2, 5)
        squared = list(range(1, strands))
        squared += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 4))]
        rng.shuffle(squared)
        yield over_everywhere(braid_closure_pd([k for k in squared for _ in (0, 1)], strands), rng)
    for _ in range(500):
        n = rng.randint(1, 7)
        labels = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(labels)
        yield [tuple(labels[4 * i:4 * i + 4]) for i in range(n)]


def outcome(orient, crossings):
    try:
        return orient(crossings)
    except DiagramError as exc:
        return str(exc)


def always_over(d):
    """Whether some component of d never passes under."""
    occ = _arc_ends(d.crossings)[0]
    return any(all(s % 2 for lab in comp for _, s in occ[lab]) for comp in d.components)


def test_strand_walks_orient_as_the_propagation_oracle():
    rng = random.Random(2101)
    valid = inconsistent = with_always_over = 0
    for crossings in codes(rng):
        crossings = tuple(crossings)
        got = outcome(lambda c: {divmod(e, 4): into for e, into in enumerate(LinkDiagram(c)._is_in)}, crossings)
        assert got == outcome(propagated, crossings), crossings
        if isinstance(got, str):
            inconsistent += 1
        else:
            valid += 1
            with_always_over += always_over(LinkDiagram(crossings))
    assert valid + inconsistent >= 2000
    assert valid >= 600 and inconsistent >= 600 and with_always_over >= 200, \
        (valid, inconsistent, with_always_over)
