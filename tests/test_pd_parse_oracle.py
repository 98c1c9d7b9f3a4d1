"""The one-pass PD parser and the flat face walk against the code they replaced.

`parse_pd` scans the text once with one token pattern; the parser it
replaced ran three regex passes and a full match per crossing.  It is kept
here as the oracle, and both must give the same crossings and free loops,
or the same `DiagramError` text, on seeded PD texts: valid codes written
with either bracket, extra whitespace and ``O`` tokens, and codes with a
malformed crossing, mismatched brackets or stray tokens.  `face_orbits`
must list the same faces, in the same order, as the walk by arc-end
partners it replaced, on the corpus and on seeded closures with kinks.
"""

import random
import re

from singdet.corpus import load_corpus
from singdet.diagrams import (
    DiagramError,
    LinkDiagram,
    braid_closure_pd,
    face_orbits,
    parse_pd,
    r1_kink,
)
from test_arc_map import _arc_ends


def partner_walk_faces(crossings):
    """Faces as orbits of e -> partner(rotate(e)), in the order of their
    least dart, walked with the arc-end partner function."""
    partner = _arc_ends(crossings)[1]
    seen, faces = set(), []
    for start in ((ci, s) for ci in range(len(crossings)) for s in range(4)):
        if start in seen:
            continue
        orbit, e = [], start
        while True:
            orbit.append(e)
            seen.add(e)
            e = partner((e[0], (e[1] + 1) % 4))
            if e == start:
                break
        faces.append(orbit)
    return faces


def three_pass_parse(text):
    """The parser as it was: O tokens, then crossing tokens each matched in
    full, then what is left once both are cut out."""
    free = len(re.findall(r"\bO\b", text))
    tuples = []
    for tok in re.findall(r"X[\(\[][^\)\]]*[\)\]]", text):
        m = re.fullmatch(r"X[\(\[]\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*[\)\]]", tok)
        if m is None:
            raise DiagramError(f"malformed PD crossing {tok!r}: expected four integer labels")
        if tok[1] + tok[-1] not in ("()", "[]"):
            raise DiagramError(f"malformed PD crossing {tok!r}: mismatched brackets")
        tuples.append(tuple(int(g) for g in m.groups()))
    rest = re.sub(r"X[\(\[][^\)\]]*[\)\]]|\bO\b", " ", text)
    if rest.strip():
        raise DiagramError(f"unparsed PD tokens: {rest.strip()!r}")
    if not tuples and not free:
        raise DiagramError("empty diagram")
    d = LinkDiagram(tuple(tuples), free)
    faces = partner_walk_faces(d.crossings)
    if d.n and d.n - 2 * d.n + len(faces) != 2 * d._pieces:
        raise DiagramError("PD code is not planar: V - E + F != 2 on some connected piece")
    return d


def outcome(parse, text):
    try:
        d = parse(text)
    except DiagramError as err:
        return "error", str(err)
    return d.crossings, d.free_loops


SPACES = ("", " ", "  ", "\t", "\n", " \n ")
BAD_CROSSINGS = ("X(1,2,3)", "X(1,a,3,4)", "X(1,2,3,4,5)", "X()", "X(1;2;3;4)", "X[1,2,,4]",
                 "X(1,2,3,4]", "X[1,2,3,4)", "X(O,1,2,3)", "X(+1,2,3,4)")
STRAY = ("Y", "foo", "7", ",", "OO", "XO", "X", "(1,2,3,4)", "O1", "x(1,2,3,4)", "]")


def crossing_text(rng, t):
    opening, closing = rng.choice(("()", "[]"))
    sp = lambda: rng.choice(SPACES[:4])  # noqa: E731
    return f"X{opening}{sp()}" + f"{sp()},{sp()}".join(str(lab) for lab in t) + f"{sp()}{closing}"


def seeded_text(rng, crossings, free):
    """PD text of the code with random brackets, whitespace and O tokens,
    and now and then a bad crossing or a stray token put in."""
    tokens = [crossing_text(rng, t) for t in crossings] + ["O"] * free
    rng.shuffle(tokens)
    roll = rng.random()
    if roll < 0.15:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(BAD_CROSSINGS))
    elif roll < 0.3:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(STRAY))
    elif roll < 0.4:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(BAD_CROSSINGS + STRAY))
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(STRAY))
    out = rng.choice(SPACES)
    for tok in tokens:
        out += tok + rng.choice(SPACES[1:])
    return out


def seeded_closure(rng, max_strands, max_length):
    strands = rng.randint(2, max_strands)
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(strands - 1, max_length))]
        if {abs(k) for k in word} == set(range(1, strands)):
            return braid_closure_pd(word, strands)


def seeded_codes(rng, count):
    corpus = [e.diagram for _, e in sorted(load_corpus().items()) if e.diagram is not None]
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            d = rng.choice(corpus)
            yield d.crossings, rng.choice((0, 0, 1, 2))
        elif roll < 0.9:
            yield seeded_closure(rng, 4, 9).crossings, rng.choice((0, 0, 1))
        elif roll < 0.95:
            # not a diagram: some label once or three times
            yield [tuple(rng.randint(1, 6) for _ in range(4)) for _ in range(rng.randint(1, 3))], 0
        else:
            # every label twice, placed at random: often not planar
            labels = [lab for lab in range(1, 2 * rng.randint(1, 3) + 1) for _ in range(2)]
            rng.shuffle(labels)
            yield [tuple(labels[i:i + 4]) for i in range(0, len(labels), 4)], 0


def test_parse_pd_equals_the_three_pass_parser_on_seeded_texts():
    rng = random.Random(2305)
    kinds = {}
    texts = ["", "   ", "\n", "\t \n", " \n\t ", "O", "O O", "X(1,1,2,2)", "X[1,1,2,2] O",
             "X(1,2,3,4) garbage X(5,6,7]", "XO", "X(1,2,2,1)O", "X (1,2,3,4)", "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)",
             "X(1,4,2,5)  X(3,6,4,1)\tX(5,2,6,3)\n", "X(1, 2, 3, 4) X(4, 3, 2, 1)",
             "fooX(1,2,3,4)bar", "a X(1,1,2,2) O  b", "O,O"]
    texts += [seeded_text(rng, crossings, free) for crossings, free in seeded_codes(rng, 1500)]
    for text in texts:
        expected = outcome(three_pass_parse, text)
        assert outcome(parse_pd, text) == expected, text
        kind = "parsed" if expected[0] != "error" else category(expected[1])
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["parsed"] >= 700
    for kind in ("malformed", "mismatched", "unparsed", "empty", "not planar", "arc count",
                 "inconsistent"):
        assert kinds.get(kind, 0) >= 5, kinds


def category(message):
    for kind, text in (("mismatched", "mismatched brackets"), ("malformed", "malformed PD crossing"),
                       ("unparsed", "unparsed PD tokens"), ("empty", "empty diagram"),
                       ("not planar", "is not planar"), ("arc count", "times, expected 2"),
                       ("inconsistent", "inconsistent strand orientations")):
        if text in message:
            return kind
    return message


def test_face_orbits_equals_the_partner_walk():
    rng = random.Random(2306)
    codes = [e.diagram for _, e in sorted(load_corpus().items()) if e.diagram is not None]
    for _ in range(200):
        d = seeded_closure(rng, 5, 12)
        codes.append(d)
        codes.append(r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5))
    for d in codes:
        assert face_orbits(d.crossings) == partner_walk_faces(d.crossings), d.crossings
