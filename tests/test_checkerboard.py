"""Checkerboard colors read on the dart map, against the face-map oracle.

`checkerboard_colors` colors crossings: quadrants 0 and 2 of a crossing
take its color and 1 and 3 the other, and one search over the crossings'
`_darts` partner list sets those colors from the least crossing of each
piece.  The route it replaced colored faces: it mapped each quadrant to
its face, paired the two faces along every arc from the arc's orientation,
and searched the face graph from face 0.  That route is kept below
verbatim, with the Goeritz builder that read it, as the oracle; the Vogel
move search of `test_vogel_derived.py` reads its quadrant and arc maps too.

A split diagram, which the face route could not color, is colored piece
by piece, and the Goeritz route still refuses it.  A Goeritz matrix is
checked for symmetry once, when it is built, and not again when it is
wrapped with its component count and correction.
"""

import random

import pytest

import test_presentation
from singdet import diagrams, exactlinalg
from singdet.corpus import load_corpus
from singdet.diagrams import DiagramError, End, LinkDiagram, face_orbits, parse_pd, pd_text, pretzel_pd, r1_kink
from singdet.exactlinalg import IntegerSymmetricMatrix, SpanningSurfaceData
from test_arc_map import _arc_ends, corpus_diagrams

TWO_TREFOILS = ("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3) "
                "X(11,14,12,15) X(13,16,14,11) X(15,12,16,13)")


# -- the face-map route, verbatim ---------------------------------------------

def _face_of_quadrant(d: LinkDiagram) -> dict[End, int]:
    """Quadrant (crossing, slot) -> index of its face in `face_orbits`."""
    return {e: fi for fi, orbit in enumerate(d._faces) for e in orbit}


def _arc_face_incidences(d: LinkDiagram, face_of_quadrant: dict[End, int]):
    """For each arc: the two flanking faces with traversal senses.

    The face walking the arc along its link orientation is the orbit of the
    dart one slot clockwise of the arc's tail; the opposite side is the
    orbit one slot clockwise of its head.
    """
    incidences: dict[int, list[tuple[int, int]]] = {}
    for lab, ends in _arc_ends(d.crossings)[0].items():
        head = d._heads[lab]
        tail = ends[1] if ends[0] == head else ends[0]
        with_face = face_of_quadrant[(tail[0], (tail[1] - 1) % 4)]
        against_face = face_of_quadrant[(head[0], (head[1] - 1) % 4)]
        incidences[lab] = [(with_face, 1), (against_face, -1)]
    return incidences


def checkerboard_colors(d: LinkDiagram) -> dict[End, int]:
    """2-color the faces; returns quadrant -> color (0/1).

    Faces adjacent across an arc get different colors; at every crossing the
    four quadrant colors alternate.
    """
    fq = _face_of_quadrant(d)
    adj: dict[int, set[int]] = {}
    for (f1, _), (f2, _) in _arc_face_incidences(d, fq).values():
        adj.setdefault(f1, set()).add(f2)
        adj.setdefault(f2, set()).add(f1)
    color = {0: 0}
    stack = [0]
    while stack:
        f = stack.pop()
        for g in adj.get(f, ()):
            if g not in color:
                color[g] = 1 - color[f]
                stack.append(g)
            elif color[g] == color[f]:
                raise DiagramError("diagram is not checkerboard colorable")
    out = {e: color.get(fq[e], 0) for e in fq}
    for ci in range(d.n):
        cs = [out[(ci, s)] for s in range(4)]
        if cs[0] != cs[2] or cs[1] != cs[3] or cs[0] == cs[1]:
            raise AssertionError("quadrant colors do not alternate")
    return out


def goeritz_from_diagram(d: LinkDiagram, shade: int = 1) -> SpanningSurfaceData:
    """Goeritz matrix of the checkerboard surface of the given shade, as a
    presentation that drops in wherever a symmetrized Seifert matrix does.

    The matrix is indexed by the shaded faces minus one dropped face; the
    crossing sign eta is +1 when the shaded quadrant pair is the one split
    off by rotating the under strand onto the over strand counterclockwise
    (slots (0,2) of the PD tuple), -1 for the other pair.  The convention is
    pinned by agreement with the Seifert route (delta_p, signature, Wall
    summands and the CLI output), which the tests check for both shades.
    mu is the link's component count (the surface of a connected diagram is
    connected, as its Tait graph is).  The Gordon-Litherland correction e
    is the sum of eta over the crossings whose eta equals their sign, so
    that the signature is sign(R) - e.
    """
    if not d.is_connected():
        raise DiagramError("diagram must be connected")
    if d.n == 0:
        raise DiagramError("need at least one crossing for a Goeritz matrix")
    colors = checkerboard_colors(d)
    fq = _face_of_quadrant(d)
    shaded = sorted({fq[q] for q in fq if colors[q] == shade})
    findex = {f: i for i, f in enumerate(shaded)}
    m = len(shaded)
    full = [[0] * m for _ in range(m)]
    e = 0
    for ci in range(d.n):
        if colors[(ci, 0)] == shade:
            quads = ((ci, 0), (ci, 2))
            eta = 1
        else:
            quads = ((ci, 1), (ci, 3))
            eta = -1
        if eta == d.sign(ci):
            e += eta
        i, j = findex[fq[quads[0]]], findex[fq[quads[1]]]
        if i != j:
            full[i][j] -= eta
            full[j][i] -= eta
            full[i][i] += eta
            full[j][j] += eta
        # a crossing joining a shaded face to itself contributes nothing
    # drop the first shaded face's row and column
    R = IntegerSymmetricMatrix([row[1:] for row in full[1:]])
    return SpanningSurfaceData(R, d.component_count, e)


# -- the tests -----------------------------------------------------------------

def split_union(a: LinkDiagram, b: LinkDiagram) -> LinkDiagram:
    """a and b side by side: b's crossings after a's, its labels shifted."""
    shift = max(a.arcs) + 1 - min(b.arcs)
    return parse_pd(pd_text(a) + " " + pd_text(LinkDiagram(
        tuple(tuple(lab + shift for lab in t) for t in b.crossings))))


def assert_checkerboard(d, colors, label):
    """Every quadrant is colored, every face in one color, and the colors
    alternate round every crossing."""
    assert colors.keys() == {(ci, s) for ci in range(d.n) for s in range(4)}, label
    for face in face_orbits(d.crossings):
        assert len({colors[q] for q in face}) == 1, (label, face)
    for ci in range(d.n):
        c = [colors[(ci, s)] for s in range(4)]
        assert c[0] == c[2] != c[1] == c[3], (label, ci, c)


def test_split_diagrams_color_piece_by_piece_and_goeritz_refuses_them():
    corpus = corpus_diagrams()
    trefoil, eight = corpus["3_1"], corpus["4_1"]
    cases = {
        "two trefoils": (parse_pd(TWO_TREFOILS), (trefoil, trefoil)),
        "trefoil + figure-eight": (split_union(trefoil, eight), (trefoil, eight)),
        "figure-eight + trefoil": (split_union(eight, trefoil), (eight, trefoil)),
    }
    for label, (d, (a, b)) in cases.items():
        assert d._pieces == 2, label
        colors = diagrams.checkerboard_colors(d)
        assert_checkerboard(d, colors, label)
        # each piece as colored alone, its least crossing with color 0
        alone = {**diagrams.checkerboard_colors(a),
                 **{(ci + a.n, s): c for (ci, s), c in diagrams.checkerboard_colors(b).items()}}
        assert colors == alone, label
        for shade in (0, 1):
            with pytest.raises(DiagramError, match="connected"):
                diagrams.goeritz_from_diagram(d, shade)
    for name, d in corpus.items():
        assert_checkerboard(d, diagrams.checkerboard_colors(d), name)


def kink_scrambled(rng, count=3):
    """count copies of each connected corpus diagram with crossings, each
    after 1-4 random kinks."""
    for name, d in corpus_diagrams().items():
        for k in range(count if d.is_connected() else 0):
            kinked = d
            for _ in range(rng.randint(1, 4)):
                kinked = r1_kink(kinked, rng.choice(kinked.arcs), rng.random() < 0.5)
            yield f"{name} kinked {k}", kinked


def test_colors_and_goeritz_matrices_equal_the_face_map_oracle():
    """On `test_presentation.diagrams()` (every connected corpus diagram
    with crossings, seeded pretzels and braid closures) and on kinked
    copies of the corpus diagrams: the same quadrant colors, and for both
    shades the same (entries, mu, e)."""
    cases = list(test_presentation.diagrams().items()) + list(kink_scrambled(random.Random(2801)))
    assert len(cases) >= 150
    for label, d in cases:
        colors = diagrams.checkerboard_colors(d)
        assert colors == checkerboard_colors(d), label
        assert_checkerboard(d, colors, label)
        for shade in (0, 1):
            got, want = diagrams.goeritz_from_diagram(d, shade), goeritz_from_diagram(d, shade)
            assert (got.entries, got.mu, got.e) == (want.entries, want.mu, want.e), (label, shade)


def test_the_coloring_reads_the_dart_map_alone(monkeypatch):
    """A diagram with its partner list but without its orientation, whose
    faces cannot be walked, still colors."""
    d = load_corpus()["p5_17_5"].diagram
    want = checkerboard_colors(d)
    bare = object.__new__(LinkDiagram)
    bare.__dict__.update(crossings=d.crossings, free_loops=0, _darts=d._darts)
    monkeypatch.setattr(diagrams, "_face_walk", None)
    assert diagrams.checkerboard_colors(bare) == want


def colors_or_error(coloring, d):
    try:
        return coloring(d)
    except DiagramError as exc:
        return str(exc)


def test_non_planar_codes_color_or_fail_as_the_oracle_does():
    """Seeded connected 2- and 3-crossing codes that no planar diagram has:
    where the faces cannot be colored both routes raise, elsewhere they give
    the same colors."""
    rng = random.Random(2802)
    outcomes = []
    while len(outcomes) < 300:
        n = rng.choice((2, 3))
        labels = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(labels)
        try:
            d = LinkDiagram(tuple(tuple(labels[4 * ci:4 * ci + 4]) for ci in range(n)))
        except DiagramError:
            continue  # the strands cannot be oriented
        if d._pieces != 1 or d._planar:
            continue
        got = colors_or_error(diagrams.checkerboard_colors, d)
        assert got == colors_or_error(checkerboard_colors, d), d.crossings
        outcomes.append(isinstance(got, str))
    assert 50 <= sum(outcomes) < len(outcomes)


def test_a_goeritz_matrix_is_checked_for_symmetry_once(monkeypatch):
    calls = []
    check = exactlinalg._check_symmetric

    def counted(rows):
        calls.append(len(rows))
        return check(rows)

    monkeypatch.setattr(exactlinalg, "_check_symmetric", counted)
    for d in (load_corpus()["5_2"].diagram, pretzel_pd(41, -33, 51)):
        for shade in (0, 1):
            calls.clear()
            S = diagrams.goeritz_from_diagram(d, shade)
            assert calls == [S.n], (d.n, shade)
