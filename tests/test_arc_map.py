"""One arc map per diagram, against the tuple-keyed map it replaced.

A `LinkDiagram` builds its `_darts` partner list once, in its constructor,
and keeps its orientation as a flag per dart (`_is_in`); the heads, signs,
arcs, pieces, faces, coloring, bracket and skein read those lists, and
`r2_slide` derives them for its candidate.  The parent's route, the
label -> ends map `_arc_ends` with the tuple-keyed `_orient` and `_heads`,
is kept below verbatim as the oracle: on the corpus, seeded pretzels and
braid closures, kinked and slid copies, and the random codes of
`test_orient_walk.py` (inconsistent ones included) and codes with a label
once or three times, both must give the same partner list, orientation,
heads, signs and components, or the same error text.

The other tests pin the builds: a diagram builds its map once and a derived
one never, and one CLI command builds one map per diagram it constructs.
"""

import contextlib
import io
import random
from functools import cached_property
from pathlib import Path

from singdet import diagrams
from singdet.cli import main
from singdet.corpus import load_corpus
from singdet.diagrams import (
    DiagramError,
    End,
    LinkDiagram,
    braid_closure_pd,
    pd_text,
    pretzel_pd,
    r1_kink,
    r2_slide,
)
from test_seifert_trace import old_components


# -- the parent's arc map and orientation, verbatim -----------------------------

def _arc_ends(crossings):
    """(occ, partner): occ maps each arc label to its ends (crossing, slot)
    in crossing order; partner maps an end to the other end of its arc."""
    occ: dict[int, list[End]] = {}
    for ci, tup in enumerate(crossings):
        for s, lab in enumerate(tup):
            occ.setdefault(lab, []).append((ci, s))

    def partner(e: End) -> End:
        a, b = occ[crossings[e[0]][e[1]]]
        return b if e == a else a

    return occ, partner


class ParentDiagram:
    """The parent `LinkDiagram`'s checks, `_partner`, `_orient` and
    `_heads` on a crossing list, without the dataclass."""

    def __init__(self, crossings):
        self.crossings = crossings
        for ci, tup in enumerate(self.crossings):
            if len(tup) != 4:
                raise DiagramError(f"crossing {ci} is not a 4-tuple")
        occ = _arc_ends(self.crossings)[0]
        for lab, ends in occ.items():
            if len(ends) != 2:
                raise DiagramError(f"arc {lab} appears {len(ends)} times, expected 2")
        self._occ = occ
        self._is_in = self._orient()

    def _partner(self, e: End) -> End:
        """The other end of the arc at end e."""
        a, b = self._occ[self.crossings[e[0]][e[1]]]
        return b if e == a else a

    def _orient(self) -> dict[End, bool]:
        """End -> whether the link's orientation enters the crossing there.

        One walk per strand, straight through each crossing it meets: from
        every end (ci, 0) not yet walked, in order, since slot 0 is the
        incoming under end, and then from the least over end (slot 1 or 3)
        of each component that never passes under, whose direction is free.
        A walk that enters an under strand at slot 2 finds the code
        inconsistent.
        """
        n = len(self.crossings)
        is_in: dict[End, bool] = {}
        for start in [(ci, 0) for ci in range(n)] + [(ci, s) for ci in range(n) for s in (1, 3)]:
            e = start
            while e not in is_in:
                ci, s = e
                if s == 2:
                    raise DiagramError("inconsistent strand orientations")
                out = (ci, s ^ 2)
                is_in[e], is_in[out] = True, False
                e = self._partner(out)
        return is_in

    @cached_property
    def _heads(self) -> dict[int, End]:
        """Arc label -> the end its orientation enters.  `_orient` gives the
        two ends of every arc opposite values, so there is exactly one."""
        return {lab: e if self._is_in[e] else f for lab, (e, f) in self._occ.items()}


# -- the comparison -------------------------------------------------------------

def oracle_facts(crossings):
    """(partner list, orientation per dart, heads, signs, components) of the
    parent's route, its maps read at the flat darts 4 ci + s."""
    d = ParentDiagram(crossings)
    ends = [divmod(e, 4) for e in range(4 * len(crossings))]
    partner = [4 * ci + s for ci, s in map(d._partner, ends)]
    is_in = [d._is_in[e] for e in ends]
    signs = tuple(1 if d._is_in[(ci, 3)] else -1 for ci in range(len(crossings)))
    return partner, is_in, d._heads, signs, old_components(d)


def facts(d):
    return d._darts, d._is_in, d._heads, d.signs, d.components


def outcome(fn, crossings):
    try:
        return fn(crossings)
    except DiagramError as exc:
        return str(exc)


def assert_equals_oracle(d, label):
    assert facts(d) == oracle_facts(d.crossings), label


def corpus_diagrams():
    return {name: e.diagram for name, e in sorted(load_corpus().items()) if e.diagram is not None and e.diagram.n}


def seeded_diagrams(rng):
    """40 seeded 2-4-column pretzels and 60 seeded 2-6-strand closures."""
    for _ in range(40):
        twists = [rng.choice((1, -1)) * rng.randint(1, 7) for _ in range(rng.randint(2, 4))]
        yield str(twists), pretzel_pd(*twists)
    for _ in range(60):
        strands = rng.randint(2, 6)
        word = [rng.choice((1, -1)) * k for k in range(1, strands)]
        word += [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 12))]
        rng.shuffle(word)
        yield str((word, strands)), braid_closure_pd(word, strands)


def scrambled(d, rng, moves, label):
    """d after random kinks and R2 slides; each slid diagram, derived by
    `r2_slide`, is checked against the oracle as it is made."""
    for k in range(moves):
        if rng.random() < 0.4:
            d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
            continue
        face = rng.choice([f for f in d._faces if len(f) >= 2])
        a, b = rng.sample(sorted({d.crossings[ci][(s + 1) % 4] for ci, s in face}), 2)
        d = r2_slide(d, a, b)
        assert_equals_oracle(d, (label, k))
    return d


def test_diagrams_equal_the_parent_arc_map():
    rng = random.Random(2901)
    cases = list(corpus_diagrams().items()) + list(seeded_diagrams(rng))
    assert len(cases) >= 130
    for label, d in cases:
        assert_equals_oracle(d, label)
    slid = 0
    for label, d in cases[::3]:
        if d.is_connected():
            assert_equals_oracle(scrambled(d, rng, 6, label), label)
            slid += 1
    assert slid >= 30


def test_codes_orient_or_fail_as_the_parent_does():
    """test_orient_walk's codes, about a third of them inconsistent, and
    codes with a label once or three times or a crossing of three labels."""
    from test_orient_walk import codes  # it imports the oracle from here

    rng = random.Random(2902)
    bad = [[tuple(rng.randint(1, 6) for _ in range(4)) for _ in range(rng.randint(1, 3))] for _ in range(200)]
    bad += [[(1, 2, 3)], [(1, 1, 2, 2), (3, 3, 4)], [(1, 2, 2, 1), (3, 3, 3, 3)], [(1, 1, 2, 2), (2, 3, 3, 4)]]
    errors = {}
    for crossings in list(codes(random.Random(2101))) + bad:
        crossings = tuple(crossings)
        got = outcome(lambda c: facts(LinkDiagram(c)), crossings)
        assert got == outcome(oracle_facts, crossings), crossings
        if isinstance(got, str):
            kind = next(k for k in ("4-tuple", "times, expected 2", "inconsistent") if k in got)
            errors[kind] = errors.get(kind, 0) + 1
    assert errors["4-tuple"] >= 2 and errors["times, expected 2"] >= 100 and errors["inconsistent"] >= 600, errors


# -- the builds -----------------------------------------------------------------

def test_a_diagram_builds_its_map_once_and_a_derived_one_never(monkeypatch):
    from test_diagram_facts import count_calls  # it imports _arc_ends from here

    d = load_corpus()["5_2"].diagram
    counts = count_calls(monkeypatch, "_darts")
    built = LinkDiagram(d.crossings)
    assert counts == {"_darts": 1}
    assert built._heads and built.arcs and built.signs and built._pieces == 1 and built._planar
    diagrams.checkerboard_colors(built)
    diagrams.goeritz_from_diagram(built)
    diagrams.kauffman_bracket(built)
    diagrams.q_via_skein(built)
    slid = r2_slide(built, *sorted({built.crossings[ci][(s + 1) % 4] for ci, s in built._faces[0]})[:2])
    assert slid.signs and slid.components and slid._pieces == 1 and slid._faces
    assert counts == {"_darts": 1}


BRAID_15 = ([1, -2, 1, 3, -2, 1, -3, 2, 2, -1, 3, -2, 1, 3, -2], 4)


def cli_builds(monkeypatch, tmp_path, command, pd):
    from test_diagram_facts import count_calls  # it imports _arc_ends from here

    path = tmp_path / "input.txt"
    path.write_text(f"pd: {pd}\n")
    counts = count_calls(monkeypatch, "_darts")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([command, str(path)]) == 0
    monkeypatch.undo()
    return counts["_darts"]


def test_a_command_builds_one_arc_map_per_diagram(monkeypatch, tmp_path):
    """One map at parse; on the pretzel one more, for the validating build
    of its untangled diagram."""
    braid = braid_closure_pd(*BRAID_15)
    pretzel = load_corpus()["p3_3_3"].diagram
    assert (braid.n, pretzel.n) == (15, 9)
    got = {(name, command): cli_builds(monkeypatch, tmp_path, command, pd_text(d))
           for name, d in (("braid", braid), ("pretzel", pretzel)) for command in ("invariants", "obstruct")}
    assert got == {("braid", "invariants"): 1, ("braid", "obstruct"): 1,
                   ("pretzel", "invariants"): 2, ("pretzel", "obstruct"): 2}


def test_src_keeps_no_second_arc_map():
    for path in sorted(Path(diagrams.__file__).parent.glob("*.py")):
        text = path.read_text()
        assert "_arc_ends" not in text and "_occ" not in text, path.name

