"""Vogel untangling on derived diagrams against full rebuilds.

Each untangling move derives its diagram from the previous one
(`r2_slide` patches copies of the partner list and the orientation at the
two split arcs and the two new crossings) and picks its move from the previous diagram's
face walk (`_vogel_move`).  Here every move is checked against the slow
path: the returned diagram against a validating `LinkDiagram` build of its
crossings, and the chosen arcs against the move search below, the oracle,
which reads every arc's two flanking faces from the quadrant map of the
face-map checkerboard route (`_face_of_quadrant`, `_arc_face_incidences`,
kept in `test_checkerboard.py`).  Inputs: every connected corpus diagram,
seeded pretzels and Reidemeister-scrambled diagrams.

`r2_slide` reads the move's chirality off the face its two arcs share.
The search it replaced is kept below as `oracle_slide`: four candidates in
turn, each walked in full and kept when it passes the Euler count.  On
every ordered arc pair of seeded pretzels, braid closures, grid diagrams
and split diagrams, scrambled by kinks and slides, the two must give the
same diagram and faces, or both refuse.
"""

import random

from singdet import diagrams
from singdet.corpus import load_corpus
from singdet.diagrams import (
    DiagramError,
    LinkDiagram,
    braid_closure_pd,
    euler_ok,
    face_orbits,
    make_crossing,
    parse_pd,
    pd_text,
    pretzel_pd,
    r1_kink,
    r2_slide,
    seifert_matrix_from_diagram,
    seifert_structure,
)
from test_checkerboard import _arc_face_incidences, _face_of_quadrant
from test_diagram_facts import count_calls
from test_grid_diagrams import grid_diagrams


def oracle_move(d):
    """The arcs of the first untangling move, found from each arc's two
    flanking faces: faces in walk order, a face's arcs by label with the
    face along the arc's orientation first."""
    circle_of = seifert_structure(d).circle_of_arc
    inc = _arc_face_incidences(d, _face_of_quadrant(d))
    by_face = {}
    for lab in sorted(inc):
        for face, sense in inc[lab]:
            by_face.setdefault(face, []).append((lab, sense, circle_of[lab]))
    for face in sorted(by_face):
        items = by_face[face]
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                l1, s1, c1 = items[i]
                l2, s2, c2 = items[j]
                if c1 != c2 and s1 == s2 and l1 != l2:
                    return l1, l2
    return None


def assert_equals_rebuild(cand, label):
    built = LinkDiagram(cand.crossings, cand.free_loops)
    assert cand._darts == built._darts, label
    assert cand._is_in == built._is_in, label
    assert cand.signs == built.signs, label
    assert cand.components == built.components, label


def untangle_checked(d, label, monkeypatch):
    """seifert_matrix_from_diagram(d) with every move checked; the number of
    moves."""
    moves = []

    def checked_slide(work, arc_over, arc_under):
        assert (arc_over, arc_under) == oracle_move(work), (label, len(moves))
        cand = r2_slide(work, arc_over, arc_under)
        assert_equals_rebuild(cand, (label, len(moves)))
        moves.append((arc_over, arc_under))
        return cand

    with monkeypatch.context() as m:
        m.setattr(diagrams, "r2_slide", checked_slide)
        seifert_matrix_from_diagram(d)
    return len(moves)


def scrambled(d, rng, moves):
    """d after random kinks and R2 slides, each derived slide checked
    against its rebuild."""
    for _ in range(moves):
        if rng.random() < 0.4:
            d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
            continue
        face = rng.choice([f for f in face_orbits(d.crossings) if len(f) >= 2])
        a, b = rng.sample(sorted({d.crossings[ci][(s + 1) % 4] for ci, s in face}), 2)
        d = r2_slide(d, a, b)
        assert_equals_rebuild(d, "scramble")
    return d


def test_corpus_moves_equal_rebuilds_and_the_oracle_search(monkeypatch):
    moved = 0
    for name, e in sorted(load_corpus().items()):
        d = e.diagram
        if d is not None and d.is_connected():
            moved += untangle_checked(parse_pd(pd_text(d)), name, monkeypatch) > 0
    assert moved >= 8  # the other corpus diagrams are braided as drawn


def test_seeded_pretzel_moves_equal_rebuilds_and_the_oracle_search(monkeypatch):
    rng = random.Random(1501)
    total = 0
    for _ in range(40):
        twists = [rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(rng.randint(2, 4))]
        total += untangle_checked(pretzel_pd(*twists), twists, monkeypatch)
    assert total >= 300


def test_scrambled_diagram_moves_equal_rebuilds_and_the_oracle_search(monkeypatch):
    rng = random.Random(1502)
    corpus = load_corpus()
    total = 0
    for name in ("3_1", "4_1", "5_2", "6_3", "hopf_plus", "t2_4", "granny"):
        for _ in range(3):
            d = scrambled(corpus[name].diagram, rng, 5)
            total += untangle_checked(d, name, monkeypatch)
    assert total >= 40


def test_slides_off_a_common_face_are_derived_or_refused():
    d = load_corpus()["5_2"].diagram
    derived = refused = 0
    for a in d.arcs:
        for b in d.arcs:
            if a == b:
                continue
            try:
                slid = r2_slide(d, a, b)
            except DiagramError:
                refused += 1
                continue
            assert_equals_rebuild(slid, (a, b))
            derived += 1
    assert derived and refused


def test_p5_17_5_orients_twice_and_reads_no_arc_face_incidences(monkeypatch):
    text = pd_text(load_corpus()["p5_17_5"].diagram)
    counts = count_calls(monkeypatch, "_orient", module=LinkDiagram)
    assert seifert_matrix_from_diagram(parse_pd(text)).A is not None
    # once at parse and once for the validated build of the braided diagram
    assert counts == {"_orient": 2}


# ------------------------------------------------------------ the R2 rule

def oracle_slide(d, arc_over, arc_under):
    """r2_slide by search: the candidates (border 0, flip +1), (0, -1),
    (1, +1), (1, -1) in turn, each built through the validating
    constructor, and the first that passes the Euler count of a full face
    walk."""
    if arc_over == arc_under:
        raise DiagramError("need two distinct arcs")
    heads = d._heads
    if arc_over not in heads or arc_under not in heads:
        raise DiagramError("arcs do not cobound a face")
    fresh = max(heads) + 1
    a1, a2, a3 = arc_over, fresh, fresh + 1
    b1, b2, b3 = arc_under, fresh + 2, fresh + 3
    base = list(d.crossings)
    for old, new in ((a1, a3), (b1, b3)):
        ci, s = heads[old]
        base[ci] = base[ci][:s] + (new,) + base[ci][s + 1:]
    for u1_in, u1_out, u2_in, u2_out in ((b2, b3, b1, b2), (b1, b2, b2, b3)):
        for flip in (1, -1):
            crossings = tuple(base) + (make_crossing(u1_in, u1_out, a1, a2, flip),
                                       make_crossing(u2_in, u2_out, a2, a3, -flip))
            if euler_ok(crossings):
                return LinkDiagram(crossings, d.free_loops)
    raise DiagramError("arcs do not cobound a face")


def slide_outcome(slide, d, a, b):
    try:
        out = slide(d, a, b)
    except DiagramError as exc:
        return str(exc)
    return out.crossings, out._darts, out._is_in, out._faces


def rule_inputs(rng):
    """Seeded pretzels, 3- and 4-strand braid closures, grid diagrams and
    two split diagrams, each after a few kinks and oracle slides."""
    for _ in range(9):
        yield pretzel_pd(*[rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(2, 4))])
    for _ in range(9):
        strands = rng.randint(3, 4)
        word = [rng.choice((1, -1)) * k for k in range(1, strands)]
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 6))]
        rng.shuffle(word)
        yield braid_closure_pd(word, strands)
    yield from grid_diagrams(9, 41, (5, 8))
    yield parse_pd("X(2,1,1,2) X(3,3,4,4)")
    yield parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) X(7,7,8,8)")


def test_r2_slide_equals_the_four_candidate_search():
    rng = random.Random(4101)
    pairs = refused = across = 0
    for d in rule_inputs(rng):
        for _ in range(rng.randint(1, 3)):
            if rng.random() < 0.4:
                d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
                continue
            face = rng.choice([f for f in face_orbits(d.crossings) if len(f) >= 2])
            d = oracle_slide(d, *rng.sample(sorted({d.crossings[ci][(s + 1) % 4] for ci, s in face}), 2))
        d = parse_pd(pd_text(d))  # no faces kept from the scramble
        for a in d.arcs:
            for b in d.arcs:
                if a == b:
                    continue
                want = slide_outcome(oracle_slide, d, a, b)
                if isinstance(want, tuple):
                    want = want[:3] + (face_orbits(want[0]),)
                    across += not d.is_connected() and LinkDiagram(want[0]).is_connected()
                else:
                    refused += 1
                assert slide_outcome(r2_slide, d, a, b) == want, (d.crossings, a, b)
                pairs += 1
    assert pairs >= 8500 and refused >= 5000 and pairs - refused >= 3000 and across >= 80
