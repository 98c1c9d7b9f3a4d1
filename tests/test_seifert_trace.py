"""Seifert circles and components come from one strand walker, and the
braided Seifert matrix is read by annulus offsets.

`seifert_structure` reads the `_strands` walks from the arcs' heads that
turn along the oriented smoothing at each crossing, and
`LinkDiagram.components` the ones that go straight through.
`_seifert_matrix_braided` finds a loop's neighbours as r + 1 and the next
annulus's range of loops.  The code they replaced is kept below as the
oracle: the circle tracing with its per-end `out_slot` map, the component
tracing, and the matrix assembly that scans every loop for each loop's
neighbours.  Every Seifert structure and every braided matrix that
`seifert_matrix_from_diagram` makes must equal the oracle's, as must the
components of each diagram it traces.  Inputs: seeded braid closures of 2
to 6 strands and up to 40 letters (all but one braided as drawn), every
connected corpus diagram (untangled first where needed), seeded pretzels,
and seeded grid diagrams, links and knots of up to 54 crossings.
"""

import random

from singdet import diagrams
from singdet.corpus import load_corpus
from singdet.diagrams import braid_closure_pd, pretzel_pd, seifert_matrix_from_diagram
from test_grid_diagrams import grid_diagrams, grid_knots


def old_structure(d):
    """(circles, circle_of_arc, corner_order, edges) traced with a per-end
    map from each incoming end to the slot its smoothing strand leaves by."""
    signs = d.signs
    out_slot = {}
    for ci in range(d.n):
        if signs[ci] == 1:
            out_slot[(ci, 0)] = 1
            out_slot[(ci, 3)] = 2
        else:
            out_slot[(ci, 0)] = 3
            out_slot[(ci, 1)] = 2
    heads = d._heads
    circles, corner, circle_of = [], [], {}
    for lab in sorted(heads):
        if lab in circle_of:
            continue
        arcs, corners = [], []
        cur = lab
        while cur not in circle_of:
            circle_of[cur] = len(circles)
            arcs.append(cur)
            ci, s = heads[cur]
            corners.append(ci)
            cur = d.crossings[ci][out_slot[(ci, s)]]
        circles.append(arcs)
        corner.append(corners)
    edges = []
    for ci in range(d.n):
        u = circle_of[d.crossings[ci][0]]
        v = circle_of[d.crossings[ci][out_slot[(ci, 0)]]]
        w = circle_of[d.crossings[ci][3 if signs[ci] == 1 else 1]]
        assert u == v and u != w
        edges.append((u, w))
    return circles, circle_of, corner, edges


def old_components(d):
    heads = d._heads
    comps, seen = [], set()
    for lab in sorted(heads):
        if lab in seen:
            continue
        comp = []
        cur = lab
        while cur not in seen:
            seen.add(cur)
            comp.append(cur)
            ci, s = heads[cur]
            cur = d.crossings[ci][(s + 2) % 4]
        comps.append(tuple(comp))
    return tuple(comps)


def old_matrix(d, data):
    """The braided Seifert matrix, each loop's neighbours found by scanning
    every loop."""
    chain, annuli, pos = data
    loops = [(ai, k) for ai, bands in enumerate(annuli) for k in range(len(bands) - 1)]
    nb = len(loops)
    V = [[0] * nb for _ in range(nb)]
    eps = d.signs

    def strictly_inside(circle, x, start, end):
        order = pos[circle]
        px, ps, pe = order[x], order[start], order[end]
        m = len(order)
        if ps == pe:
            return False
        return 0 < (px - ps) % m < (pe - ps) % m

    def ccw_pattern(circle, a1, b1, a2, b2):
        order = pos[circle]
        m = len(order)
        pa, qa = order[a1], order[a2]
        rb, sb = order[b1], order[b2]
        return ((rb - pa) % m) < ((qa - pa) % m) < ((sb - pa) % m)

    for r, (ai, k) in enumerate(loops):
        bands = annuli[ai]
        bk, bk1 = bands[k], bands[k + 1]
        V[r][r] = -(eps[bk] + eps[bk1]) // 2
        for t, (aj, l) in enumerate(loops):
            if aj == ai and l == k + 1:
                V[r][t] = (eps[bk1] + 1) // 2
                V[t][r] = (eps[bk1] - 1) // 2
        for t, (aj, l) in enumerate(loops):
            if aj != ai + 1:
                continue
            shared = chain[ai + 1]
            y1, y2 = annuli[aj][l], annuli[aj][l + 1]
            inter_1 = strictly_inside(shared, y1, bk, bk1)
            inter_2 = strictly_inside(shared, y2, bk, bk1)
            cc = 0
            if inter_1 != inter_2:
                cc = 1 if ccw_pattern(shared, y1, bk1, y2, bk) else -1
            c2 = strictly_inside(shared, bk1, y1, y2) - strictly_inside(shared, bk, y1, y2)
            assert (cc + c2) % 2 == 0 and (-cc + c2) % 2 == 0
            V[r][t] = (cc + c2) // 2
            V[t][r] = (-cc + c2) // 2
    return tuple(map(tuple, V))


def checked_untangling(d, monkeypatch, seen):
    """seifert_matrix_from_diagram(d), each Seifert structure, braided matrix
    and set of components checked against the oracles."""
    structure, braided = diagrams.seifert_structure, diagrams._seifert_matrix_braided

    def checked_structure(work):
        struct = structure(work)
        assert (struct.circles, struct.circle_of_arc, struct.corner_order, struct.edges) == old_structure(work)
        assert work.components == old_components(work)
        seen["structures"] += 1
        return struct

    def checked_matrix(work, data):
        out = braided(work, data)
        assert out.A == old_matrix(work, data)
        seen["matrices"] += 1
        seen["loops"] = max(seen["loops"], out.n)
        return out

    with monkeypatch.context() as m:
        m.setattr(diagrams, "seifert_structure", checked_structure)
        m.setattr(diagrams, "_seifert_matrix_braided", checked_matrix)
        return seifert_matrix_from_diagram(d)


def new_seen():
    return {"structures": 0, "matrices": 0, "loops": 0}


def test_braid_closures_trace_and_assemble_as_the_oracles(monkeypatch):
    rng = random.Random(2102)
    seen = new_seen()
    for _ in range(320):
        strands = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * k for k in range(1, strands)]
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 40 - len(word)))]
        rng.shuffle(word)
        checked_untangling(braid_closure_pd(word, strands), monkeypatch, seen)
    assert seen["matrices"] == 320 and seen["structures"] <= 330  # nearly all braided as drawn
    assert seen["loops"] >= 30


def test_corpus_and_pretzels_trace_and_assemble_as_the_oracles(monkeypatch):
    rng = random.Random(2103)
    seen = new_seen()
    diagrams_in = [e.diagram for _, e in sorted(load_corpus().items())
                   if e.diagram is not None and e.diagram.n and e.diagram.is_connected()]
    for _ in range(20):
        diagrams_in.append(pretzel_pd(*[rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(rng.randint(2, 4))]))
    for d in diagrams_in:
        checked_untangling(d, monkeypatch, seen)
    assert seen["matrices"] == len(diagrams_in)
    assert seen["structures"] >= 400  # one per untangling step, plus one per diagram


def test_grid_diagrams_trace_and_assemble_as_the_oracles(monkeypatch):
    """Grid diagrams are neither braid closures nor pretzels: their Seifert
    circles need Vogel moves that no twist region lines up."""
    seen = new_seen()
    diagrams_in = grid_diagrams(80, 40, (6, 14)) + grid_knots(6, 40, (16, 22), (20, 60))
    for d in diagrams_in:
        checked_untangling(d, monkeypatch, seen)
    assert seen["matrices"] == len(diagrams_in) == 86
    assert sum(d.component_count > 1 for d in diagrams_in) >= 50 and max(d.n for d in diagrams_in) >= 50
    assert seen["structures"] >= 600  # one per untangling step, plus one per diagram
