"""Each diagram fact has one owner.

- A diagram counts its connected pieces once (`LinkDiagram._pieces`): one
  `obstruct` on a PD-only pretzel or a braid closure makes one
  `_piece_count` call, and the face walks are the ones the work needs
  (one at parse, plus one for the first untangling move).
- `parse_pd` checks planarity with a face walk that it does not keep.
- `normalize_pd` orients each component with one straight-through shadow
  walk; the constraint propagation it replaced is kept below as the oracle.
  It builds one arc map and renames the darts of the tuples it rotates.
- `r2_slide` across two pieces of a split diagram joins them, so a derived
  diagram counts its own pieces.
- Vogel untangling traces the Seifert circles once per move, plus once.
- Each untangling move patches its faces once (`_slid_faces`), and
  `r2_slide` builds no arc map and walks no face.
- Every face walk goes through `_face_orbit`, and an untangling move walks
  only its own faces: the two on each side of its arcs and the faces
  through its new crossings.
"""

import contextlib
import io
import random
import sys

import pytest

from singdet import diagrams
from singdet.cli import main
from singdet.corpus import load_corpus
from singdet.diagrams import (
    DiagramError,
    LinkDiagram,
    braid_closure_pd,
    euler_ok,
    face_orbits,
    jones_via_bracket,
    normalize_pd,
    parse_pd,
    pd_text,
    pretzel_pd,
    q_via_skein,
    r2_slide,
    seifert_matrix_from_diagram,
)
from test_arc_map import _arc_ends
from test_cli_input import TREFOIL_PD


def count_calls(monkeypatch, *names, module=diagrams):
    """Calls of each function `module.name` (a method, when module is a
    class) made from now until the patches are undone, by name."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        fn = getattr(module, name)

        def wrapper(*args, _name=name, _fn=fn):
            counts[_name] += 1
            return _fn(*args)

        monkeypatch.setattr(module, name, wrapper)
    return counts


def obstruct_counts(monkeypatch, tmp_path, pd):
    path = tmp_path / "input.txt"
    path.write_text(f"pd: {pd}\n")
    counts = count_calls(monkeypatch, "_piece_count", "_face_walk")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["obstruct", str(path)]) == 0
    return counts


def test_obstruct_counts_the_pieces_of_a_pd_only_pretzel_once(monkeypatch, tmp_path):
    counts = obstruct_counts(monkeypatch, tmp_path, pd_text(load_corpus()["p3_3_3"].diagram))
    assert counts["_piece_count"] == 1
    assert counts["_face_walk"] <= 2  # at parse, and for the first untangling move


def test_obstruct_counts_the_pieces_of_a_braid_closure_once(monkeypatch, tmp_path):
    d = braid_closure_pd([1, -2, 3, 1, 2, -3, 1, 2, 2, -1, 3, -2], 4)
    assert d.n == 12
    counts = obstruct_counts(monkeypatch, tmp_path, pd_text(d))
    assert counts == {"_piece_count": 1, "_face_walk": 1}  # braided: no untangling move


@pytest.mark.parametrize("name,moves", [("p5_17_5", 156), ("t3_4", 0)])
def test_untangling_traces_the_seifert_circles_once_per_move_plus_once(monkeypatch, name, moves):
    d = parse_pd(pd_text(load_corpus()[name].diagram))
    counts = count_calls(monkeypatch, "seifert_structure", "_vogel_move")
    seifert_matrix_from_diagram(d)
    assert counts == {"seifert_structure": moves + 1, "_vogel_move": moves}


def test_each_untangling_move_patches_its_faces_once_and_walks_none(monkeypatch):
    d = parse_pd(pd_text(load_corpus()["p5_17_5"].diagram))
    counts = count_calls(monkeypatch, "_slid_faces", "_vogel_move", "_darts", "_face_walk")
    walked = []
    slide = diagrams.r2_slide

    def watched(*args):
        before = counts["_darts"], counts["_face_walk"]
        out = slide(*args)
        walked.append((counts["_darts"], counts["_face_walk"]) != before)
        return out

    monkeypatch.setattr(diagrams, "r2_slide", watched)
    seifert_matrix_from_diagram(d)
    assert counts["_vogel_move"] == counts["_slid_faces"] == len(walked) == 156
    assert not any(walked)


@pytest.mark.parametrize("name,moves", [("p3_3_3", 12), ("p777m", 90), ("p5_17_5", 156)])
def test_an_untangling_move_walks_only_its_own_faces(monkeypatch, name, moves):
    """One walk of the input's n + 2 faces, then per move 4 flanking orbits
    (two faces beside each of its two arcs) and 5 orbits through its new
    darts; no other face walk."""
    d = parse_pd(pd_text(load_corpus()[name].diagram))
    orbit, callers = diagrams._face_orbit, {}

    def counted(partner, start):
        caller = sys._getframe(1).f_code.co_name
        callers[caller] = callers.get(caller, 0) + 1
        return orbit(partner, start)

    monkeypatch.setattr(diagrams, "_face_orbit", counted)
    counts = count_calls(monkeypatch, "_vogel_move")
    seifert_matrix_from_diagram(d)
    assert counts["_vogel_move"] == moves
    assert callers == {"_face_walk": d.n + 2, "_faces_flanking": 4 * moves, "_slid_faces": 5 * moves}


def test_parse_keeps_no_faces():
    for text in (TREFOIL_PD, pd_text(load_corpus()["p3_3_3"].diagram), "X(2,1,1,2) X(3,3,4,4)"):
        d = parse_pd(text)
        assert "_faces" not in d.__dict__
        assert d._planar and "_faces" in d.__dict__  # walked again on first use


# ------------------------------------------------------------- normalize_pd

def propagated(tuples):
    """normalize_pd by constraint propagation: from the least end not yet
    oriented, taken as incoming, an arc's two ends and a strand's two ends
    through a crossing get opposite directions."""
    occ, partner = _arc_ends(tuples)
    for lab, ends in occ.items():
        if len(ends) != 2:
            raise DiagramError(f"arc {lab} appears {len(ends)} times")
    is_in = {}
    for start in [(ci, s) for ci in range(len(tuples)) for s in range(4)]:
        if start in is_in:
            continue
        pending = [(start, True)]
        while pending:
            e, val = pending.pop()
            if e in is_in:
                if is_in[e] != val:
                    raise DiagramError("shadow orientations are inconsistent")
                continue
            is_in[e] = val
            ci, s = e
            pending.append((partner(e), not val))
            pending.append(((ci, (s + 2) % 4), not val))
    return LinkDiagram(tuple(t if is_in[(ci, 0)] else (t[2], t[3], t[0], t[1])
                             for ci, t in enumerate(tuples)))


def shadow_sets(rng):
    """Seeded shadows: pretzel and braid closure tuples with random
    half-turns in shuffled order, and random sets of paired labels."""
    for _ in range(700):
        twists = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(2, 4))]
        yield list(pretzel_pd(*twists).crossings)
    for _ in range(700):
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * k for k in range(1, strands)]
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 8))]
        rng.shuffle(word)
        yield list(braid_closure_pd(word, strands).crossings)
    for _ in range(700):
        n = rng.randint(1, 7)
        labels = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(labels)
        yield [tuple(labels[4 * i:4 * i + 4]) for i in range(n)]


def outcome(fn, tuples):
    try:
        return fn(list(tuples)).crossings
    except DiagramError as exc:
        return str(exc)


def test_normalize_pd_equals_the_propagation_oracle():
    rng = random.Random(1901)
    checked = 0
    for tuples in shadow_sets(rng):
        tuples = [t if rng.random() < 0.5 else (t[2], t[3], t[0], t[1]) for t in tuples]
        rng.shuffle(tuples)
        assert outcome(normalize_pd, tuples) == outcome(propagated, tuples), tuples
        checked += 1
    assert checked >= 2000


def test_normalize_pd_builds_one_arc_map_and_derives_the_rotated_one(monkeypatch):
    rng = random.Random(1902)
    for tuples in shadow_sets(rng):
        d = normalize_pd(tuples)
        built = LinkDiagram(d.crossings)
        assert (d._darts, d._is_in) == (built._darts, built._is_in), tuples
    counts = count_calls(monkeypatch, "_darts")
    pretzel_pd(3, 3, 3)
    assert counts == {"_darts": 1}


# --------------------------------------------------------- r2_slide on pieces

def pieces_of(d):
    """Arc label -> the least arc label of its connected piece."""
    occ = _arc_ends(d.crossings)[0]
    piece = {}
    for root in d.arcs:
        if root in piece:
            continue
        stack = [root]
        while stack:
            lab = stack.pop()
            if lab not in piece:
                piece[lab] = root
                stack.extend(d.crossings[ci][s] for ci, _ in occ[lab] for s in range(4))
    return piece


def test_slides_across_pieces_join_them():
    slid_across = 0
    for text in ("X(2,1,1,2) X(3,3,4,4)", TREFOIL_PD + " X(7,7,8,8)"):
        d = parse_pd(text)
        assert not d.is_connected()
        jones, q = jones_via_bracket(d), q_via_skein(d)
        piece = pieces_of(d)
        cobound = [{d.crossings[ci][(s + 1) % 4] for ci, s in f} for f in face_orbits(d.crossings)]
        for a in d.arcs:
            for b in d.arcs:
                if a == b:
                    continue
                across = piece[a] != piece[b]
                if not across and not any({a, b} <= face for face in cobound):
                    with pytest.raises(DiagramError):
                        r2_slide(d, a, b)
                    continue
                slid = r2_slide(d, a, b)
                assert euler_ok(slid.crossings), (text, a, b)
                assert jones_via_bracket(slid) == jones and q_via_skein(slid) == q, (text, a, b)
                if across:
                    assert slid.is_connected(), (text, a, b)
                    slid_across += 1
                built = LinkDiagram(slid.crossings, slid.free_loops)
                assert (built._darts, built._is_in) == (slid._darts, slid._is_in)
    assert slid_across == 8 + 24
