"""Diagram-level oracle: PD codes, Kauffman bracket, Seifert and Goeritz
matrices, and the Q polynomial by skein recursion.

The Kauffman bracket first removes every kink and every second
Reidemeister pair, by the same move loop as the Q skein below: the bracket
does not change under the second move, and a kink of sign e costs a factor
-A^(3e), with every sign read in the input's orientation.  The crossings
left are contracted, not summed over their 2^n states: they are placed
one at a time, each next the one with the most arcs into those already
placed, and the running sum is kept per planar matching of the open arcs,
the arc labels with one end placed.  Its cost follows the number of
matchings on the widest frontier of the reduced diagram, so braid closures
and pretzels of a hundred crossings take milliseconds.

The Q polynomial is a skein recursion toward descending diagrams, and
each node first removes every kink and every second Reidemeister bigon
(one strand over at both crossings).  Q = F(1, z) is an invariant of
ambient isotopy, so these moves are exact, and they cut away the kinks
and bigons that the skein's own smoothings create.  The moves are found
at crossings on the partner list of `_darts`, with no face walk; a move
rewires that list, and after it only the crossings on the joined arcs are
checked again.  The list of the crossings left goes on to the node, and
each child is spliced out of a copy of it by the move loop's join rule, so
a skein call, like a bracket call, builds no arc map: both start from a
copy of the diagram's.  A bigon left after that is a clasp, and the node
expands the whole twist region through it in one step, by a three-term
recurrence in its number of crossings, so a column of k half-twists costs
one node where the plain skein spends k.

Every crossing list and every diagram object has one arc map, `_darts`: a
partner list over the flat darts 4 ci + s.  A `LinkDiagram` builds it once,
which checks the labels, and keeps it with its orientation, a flag per
dart; its faces, planarity check, coloring, bracket and skein read that
list, and untangling moves patch copies of the two lists.  Two walkers
trace its cycles.  `_strands` follows e -> partner[e ^ turn], turning at
each crossing by its entry in a turn list: a turn of 2 leaves the crossing
opposite where it entered, along a shadow strand, which `_orient`, the
components, `normalize_pd` and the skein read, and the oriented smoothing's
turn, 1 at a positive crossing and 3 at a negative one, gives the Seifert
circles that untangling reads.  `_face_orbit` walks one face, along
e -> partner[rotate(e)], for every face walk: `_face_walk`'s list of faces
(planarity, untangling, Goeritz) and untangling's local walks, which read
each second Reidemeister move (`r2_slide`) off a face its two arcs share
and patch the faces it changes.  The bigon, twist region and
contraction-order searches and the skein's splices read the partner list.

PD convention: a crossing X(a, b, c, d) lists the four arc labels
counterclockwise starting from the incoming under-strand, so the under
strand runs a -> c.  With the over strand oriented d -> b the crossing is
positive, with b -> d negative.  Orientations are not stored in the code;
each strand is walked straight through its crossings from a slot 0, which
is incoming, and a component that never passes under anything is walked
from its least over end.

Crossingless split unknots cannot be expressed by crossing tuples; the
token ``O`` in PD text adds one.
"""

from __future__ import annotations

import itertools
import re
from collections import namedtuple
from functools import cache, cached_property

from .exactlinalg import Frozen, IntegerSymmetricMatrix, SeifertData, SpanningSurfaceData
from .rings import LaurentPolynomial

End = tuple[int, int]  # (crossing index, slot)


class DiagramError(ValueError):
    pass


def _darts(crossings) -> list[int]:
    """The arc map of a crossing list on flat darts: dart 4 ci + s is the end
    at slot s of crossing ci, and partner[e] is the other end of e's arc.
    A label that does not appear exactly twice raises DiagramError."""
    ends: dict[int, list[int]] = {}
    for e, lab in enumerate(lab for t in crossings for lab in t):
        ends.setdefault(lab, []).append(e)
    partner = [0] * (4 * len(crossings))
    for lab, pair in ends.items():
        if len(pair) != 2:
            raise DiagramError(f"arc {lab} appears {len(pair)} times, expected 2")
        a, b = pair
        partner[a], partner[b] = b, a
    return partner


def _strands(partner, starts, turn):
    """The walks of the arc map `partner` that turn at each crossing ci by
    turn[ci]: the orbits of e -> partner[e ^ turn[e >> 2]], one from each of
    `starts` not yet walked.  A walked dart and its exit are both marked,
    since no walk runs through both.  A turn of 2 leaves each crossing
    opposite where it entered, along the shadow strands, so a start is
    skipped once walked either way; a turn of 1 at a positive crossing
    (slots 0 -> 1, 3 -> 2) or 3 at a negative one (0 -> 3, 1 -> 2) follows
    the oriented smoothing, along the Seifert circles."""
    seen = [False] * len(partner)
    for e in starts:
        walk = []
        while not seen[e]:
            out = e ^ turn[e >> 2]
            seen[e] = seen[out] = True
            walk.append(e)
            e = partner[out]
        if walk:
            yield walk


def _piece_count(partner) -> int:
    """Connected pieces of the 4-valent map with the arc map `partner` of
    `_darts`: the two crossings at the ends of each arc are joined, by
    union-find on crossing indices."""
    n = len(partner) // 4
    root = list(range(n))

    def find(ci):
        while root[ci] != ci:
            root[ci] = root[root[ci]]  # path halving
            ci = root[ci]
        return ci

    for e, f in enumerate(partner):
        if e < f:
            root[find(e >> 2)] = find(f >> 2)
    return sum(root[ci] == ci for ci in range(n))


class LinkDiagram(Frozen):
    """A validated oriented link diagram: its crossings, a tuple of 4-tuples,
    and its crossingless free loops; its one arc map, the `_darts` partner
    list, built and label-checked once, and `_is_in`, whether the
    orientation enters at each dart (`_orient`), which all else reads."""

    _fields = ("crossings", "free_loops")

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...], free_loops: int = 0):
        for ci, tup in enumerate(crossings):
            if len(tup) != 4:
                raise DiagramError(f"crossing {ci} is not a 4-tuple")
        d = self.__dict__
        d.update(crossings=crossings, free_loops=free_loops, _darts=_darts(crossings))
        d["_is_in"] = self._orient()

    @classmethod
    def _derived(cls, crossings, free_loops: int, darts, is_in) -> LinkDiagram:
        """A diagram whose partner list the caller derived (`r2_slide`, and
        `normalize_pd`, which runs `_orient` after); nothing is checked."""
        d = object.__new__(cls)
        d.__dict__.update(crossings=crossings, free_loops=free_loops, _darts=darts, _is_in=is_in)
        return d

    # -- construction helpers ------------------------------------------------

    def _orient(self) -> list[bool]:
        """Dart -> whether the link's orientation enters the crossing there.

        One `_strands` walk per strand: from every dart 4 ci not yet walked,
        in order, since slot 0 is the incoming under end, and then from the
        least over dart (slot 1 or 3) of each component that never passes
        under, whose direction is free.  A walk that enters an under strand
        at slot 2, flagging that dart incoming, finds the code inconsistent.
        """
        n = len(self._darts)
        is_in = [False] * n
        for walk in _strands(self._darts, itertools.chain(range(0, n, 4), range(1, n, 2)), [2] * self.n):
            for e in walk:
                is_in[e] = True
        if any(is_in[2::4]):
            raise DiagramError("inconsistent strand orientations")
        return is_in

    @cached_property
    def _heads(self) -> dict[int, End]:
        """Arc label -> the end (crossing, slot) its orientation enters: the
        darts that `_orient` flags, slot 0 of every crossing and slot 3 of a
        positive one or slot 1 of a negative one."""
        heads = {}
        for ci, (t, into) in enumerate(zip(self.crossings, self._is_in[3::4])):
            s = 3 if into else 1
            heads[t[0]], heads[t[s]] = (ci, 0), (ci, s)
        return heads

    # -- public derived data ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> list[int]:
        return sorted(self._heads)

    def sign(self, ci: int) -> int:
        """+1 when the over strand runs d -> b, else -1."""
        return 1 if self._is_in[4 * ci + 3] else -1

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(1 if into else -1 for into in self._is_in[3::4])

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Arcs per component in traversal order, from its least arc: the
        `_strands` walks from the arcs' heads, on first use."""
        t, heads = self.crossings, self._heads
        starts = (4 * ci + s for ci, s in map(heads.get, sorted(heads)))
        walks = _strands(self._darts, starts, [2] * self.n)
        return tuple(tuple(t[e >> 2][e & 3] for e in walk) for walk in walks)

    @cached_property
    def _faces(self) -> list[list[End]]:
        """face_orbits(self.crossings), walked once per diagram object."""
        return _face_walk(self._darts)

    @cached_property
    def _pieces(self) -> int:
        """Connected pieces of the crossing map, counted once per diagram
        object from its arc map.  `r2_slide` does not copy it onto the
        diagrams it derives, since a slide across two pieces joins them."""
        return _piece_count(self._darts)

    @cached_property
    def _planar(self) -> bool:
        """euler_ok(self.crossings), from the one face walk and decided once."""
        return not self.n or _euler_ok_faces(self.n, self._faces, self._pieces)

    @property
    def component_count(self) -> int:
        return len(self.components) + self.free_loops

    def is_connected(self) -> bool:
        if self.free_loops:
            return self.n == 0 and self.free_loops == 1
        return self.n == 0 or self._pieces == 1

    def is_proper(self) -> bool:
        """Every component has even total linking with the rest."""
        c = len(self.components)
        comp_of = {arc: k for k, comp in enumerate(self.components) for arc in comp}
        lk = [[0] * c for _ in range(c)]
        for ci in range(self.n):
            cu = comp_of[self.crossings[ci][0]]
            co = comp_of[self.crossings[ci][1]]
            if cu != co:
                lk[cu][co] += self.sign(ci)
        for i in range(c):
            total = sum(lk[i][j] + lk[j][i] for j in range(c) if j != i)
            if (total // 2) % 2:  # pairwise crossings counted twice
                return False
        return True


# One PD token: a well-formed crossing (its brackets and four labels), any
# other X[...] or X(...) text, which is a malformed crossing, or an O loop.
_PD_TOKEN = re.compile(
    r"X([\(\[])\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*([\)\]])"
    r"|(X[\(\[][^\)\]]*[\)\]])|\bO\b"
)


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text like ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)``.

    ``X[...]`` brackets work as well, and a crossing's two brackets must
    match; each ``O`` token adds a crossingless unknot component.  The text
    is scanned once; the first bad crossing is reported before any text
    between the tokens.

    Planarity is checked with a face walk that is not kept on the diagram.
    Kept faces would stay on every parsed diagram, and would more than
    double what the loaded corpus holds, while only Vogel untangling and
    the Goeritz route read them; those walk the faces again on first use.
    """
    free = 0
    tuples = []
    gaps = []
    last = 0
    for m in _PD_TOKEN.finditer(text):
        gaps.append(text[last:m.start()])
        last = m.end()
        tok = m[0]
        if m[7]:
            raise DiagramError(f"malformed PD crossing {tok!r}: expected four integer labels")
        if tok[0] == "O":
            free += 1
        elif m[1] + m[6] not in ("()", "[]"):
            raise DiagramError(f"malformed PD crossing {tok!r}: mismatched brackets")
        else:
            tuples.append((int(m[2]), int(m[3]), int(m[4]), int(m[5])))
    gaps.append(text[last:])
    rest = " ".join(gaps).strip()
    if rest:
        raise DiagramError(f"unparsed PD tokens: {rest!r}")
    if not tuples and not free:
        raise DiagramError("empty diagram")
    d = LinkDiagram(tuple(tuples), free)
    if d.n and not _euler_ok_faces(d.n, _face_walk(d._darts), d._pieces):
        raise DiagramError("PD code is not planar: V - E + F != 2 on some connected piece")
    return d


def make_crossing(under_in: int, under_out: int, over_in: int, over_out: int, sign: int):
    """PD tuple from strand data: positive means over runs slot3 -> slot1."""
    if sign == 1:
        return (under_in, over_out, under_out, over_in)
    if sign == -1:
        return (under_in, over_in, under_out, over_out)
    raise ValueError("sign must be +-1")


# ---------------------------------------------------------------------- faces

def face_orbits(crossings) -> list[list[End]]:
    """The faces of a crossing list: `_face_walk` on its `_darts`."""
    return _face_walk(_darts(crossings))


def _face_orbit(partner, start: int) -> list[int]:
    """The flat darts of the face through dart `start` in walk order: the
    orbit of e -> partner(rotate(e)), rotate turning to the next slot, so
    dart (ci, s) walks the corner between slots s and s+1 of crossing ci."""
    orbit = [start]
    e = partner[start - (start & 3) + ((start + 1) & 3)]
    while e != start:
        orbit.append(e)
        e = partner[e - (e & 3) + ((e + 1) & 3)]
    return orbit


def _face_walk(partner) -> list[list[End]]:
    """Faces of the planar 4-valent map as (crossing, slot) lists: the
    `_face_orbit` of each dart not yet walked, in order, so each face starts
    at its least dart and the faces come out in the order of those."""
    seen: set[int] = set()
    faces = []
    for start in range(len(partner)):
        if start not in seen:
            orbit = _face_orbit(partner, start)
            seen.update(orbit)
            faces.append([divmod(e, 4) for e in orbit])
    return faces


def euler_ok(crossings) -> bool:
    """V - E + F == 2 on every connected piece of the 4-valent map (E = 2V),
    that is, the code describes a planar diagram.  The faces and the pieces
    are both read from the one arc map of the crossings."""
    partner = _darts(crossings)
    return _euler_ok_faces(len(crossings), _face_walk(partner), _piece_count(partner))


def _euler_ok_faces(n: int, faces, pieces: int) -> bool:
    """The Euler test of `euler_ok` on n crossings with these faces, forming
    this many connected pieces.  Each piece has V - E + F <= 2, so the sum
    over the pieces decides it.  A `LinkDiagram` passes its `_pieces`; a
    crossing list without one counts the pieces of its arc map."""
    return n - 2 * n + len(faces) == 2 * pieces


# ------------------------------------------------------------------- bracket

BRACKET_BUDGET = 16  # default crossing budget of the Jones polynomial


def _add_product(acc: dict[int, int], p: dict[int, int], q: dict[int, int], shift: int = 0) -> None:
    """acc += p * q * A^shift, on dicts A-exponent -> coefficient."""
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            acc[e1 + e2 + shift] = acc.get(e1 + e2 + shift, 0) + c1 * c2


def _bracket_delta_powers(nmax: int) -> list[dict[int, int]]:
    """(-A^2 - A^-2)^k for k = 0..nmax as dicts A-exponent -> coefficient."""
    out = [{0: 1}]
    for _ in range(nmax):
        cur: dict[int, int] = {}
        _add_product(cur, out[-1], {2: -1, -2: -1})
        out.append(cur)
    return out


# A-smoothing joins slots (0,1),(2,3) with A-exponent +1; B joins (0,3),(1,2) with -1.
_SMOOTHINGS = (((0, 1), (2, 3), 1), ((0, 3), (1, 2), -1))
# delta^k for the k loops that placing one crossing closes: each of a
# smoothing's two joins closes at most one
_LOOP_FACTORS = _bracket_delta_powers(2)


def _contraction_order(partner) -> list[int]:
    """Indices of the crossings in the order the bracket contraction places
    them, read on their `_darts` partner list: next is the crossing with the
    most arcs into the placed ones, the lowest index among ties."""
    score = [0] * (len(partner) // 4)
    left = set(range(len(score)))
    order = []
    while left:
        ci = min(left, key=lambda c: (-score[c], c))
        left.remove(ci)
        order.append(ci)
        for e in range(4 * ci, 4 * ci + 4):
            other = partner[e] >> 2
            if other in left:
                score[other] += 1
    return order


def _over_delta(poly: dict[int, int]) -> dict[int, int]:
    """poly / (-A^2 - A^-2), which must be exact: poly / (1 + A^4) from the
    lowest term up, times -A^2."""
    r = dict(poly)
    q = {}
    for e in range(min(r), max(r) - 3):
        c = r.pop(e, 0)
        if c:
            q[e + 2] = -c
            r[e + 4] = r.get(e + 4, 0) - c
    if any(r.values()):
        raise AssertionError("bracket sum is not a multiple of the loop value")
    return q


def _place_crossing(states: dict[tuple, dict[int, int]], labels: tuple) -> dict[tuple, dict[int, int]]:
    """One contraction step: the states after the crossing with these four
    arc labels is placed.

    Each state's matching is read as a mate map, open label -> the far end
    of its strand.  A smoothing's join (a, b) links the far ends
    mate.pop(a, a) and mate.pop(b, b), where a label not open yet is its
    own far end, and closes a loop when a's far end is b.  Each state
    branches on the two smoothings; a branch that closes no loop adds its
    polynomial shifted by the smoothing's exponent, and only one that
    closes loops multiplies by their factor.  Equal matchings merge and
    zero terms drop.
    """
    nxt: dict[tuple, dict[int, int]] = {}
    for key, poly in states.items():
        for (s1, t1), (s2, t2), x in _SMOOTHINGS:
            mate = {}
            for a, b in key:
                mate[a], mate[b] = b, a
            loops = 0
            for a, b in ((labels[s1], labels[t1]), (labels[s2], labels[t2])):
                far_a, far_b = mate.pop(a, a), mate.pop(b, b)
                if far_a == b:
                    loops += 1
                else:
                    mate[far_a], mate[far_b] = far_b, far_a
            acc = nxt.setdefault(tuple(sorted((a, b) for a, b in mate.items() if a < b)), {})
            if loops:
                _add_product(acc, poly, _LOOP_FACTORS[loops], x)
            else:
                for e, c in poly.items():
                    acc[e + x] = acc.get(e + x, 0) + c
    out = {}
    for key, poly in nxt.items():
        poly = {e: c for e, c in poly.items() if c}
        if poly:
            out[key] = poly
    return out


def kauffman_bracket(diagram: LinkDiagram) -> dict[int, int]:
    """Kauffman bracket as a dict A-exponent -> coefficient, with the
    one-loop diagram normalized to 1, by contracting the diagram one
    crossing at a time (Bar-Natan, JKTR 16 (2007)).

    The diagram is first reduced by `_reidemeister_reduce`, the move loop
    of the Q skein, on a copy of the diagram's partner list.  The bracket
    does not change under a second Reidemeister move, and a kink of sign e
    multiplies it by -A^(3e) (Kauffman, Topology 26 (1987)), so the result
    is (-A^3)^k times the bracket of the crossings left, where k is the
    writhe less the sum of the survivors' signs; a second Reidemeister pair
    has one crossing of each sign.  The survivors' signs are read by index
    from the input's own orientation, and the reduced code is not oriented
    again: that would walk a component over at every crossing left from its
    least over end.

    The survivors are placed in the `_contraction_order` of the partner list
    that the reduction hands on.  An open arc is an arc label with one end
    placed; the open arcs are the frontier.  The state maps each planar
    matching of the open arcs, keyed as the sorted tuple of its label pairs
    (a, b) with a < b, to its Laurent polynomial.
    Placing a crossing (`_place_crossing`) branches on its two smoothings,
    joins the strands through it, and multiplies by delta = -A^2 - A^-2 for
    every loop that closes.  When every crossing is placed, the free loops,
    those of the input and those the moves closed, are folded in and the sum
    is divided by delta once.  The cost follows the number of matchings on
    the widest frontier (Burton, arXiv:1712.05776), not 2^n.
    """
    if diagram.n == diagram.free_loops == 0:
        raise DiagramError("empty diagram")
    crossings, free, kept, partner = _reidemeister_reduce(diagram.crossings, diagram.free_loops, diagram._darts)
    k = diagram.writhe - sum(diagram.sign(ci) for ci in kept)
    states: dict[tuple, dict[int, int]] = {(): {0: 1}}
    for ci in _contraction_order(partner):
        states = _place_crossing(states, crossings[ci])
    total: dict[int, int] = {}
    _add_product(total, states[()], _bracket_delta_powers(free)[-1])
    loops = _over_delta(total)
    return {e + 3 * k: -c if k % 2 else c for e, c in loops.items()}


def jones_via_bracket(diagram: LinkDiagram, budget: int = BRACKET_BUDGET) -> LaurentPolynomial:
    """Jones polynomial (value 1 on the unknot, paper-standard skein signs)
    via the normalized bracket, substituting A = t^(-1/4)."""
    if diagram.n > budget:
        raise DiagramError(f"crossing budget exceeded: {diagram.n} > {budget}")
    br = kauffman_bracket(diagram)
    w = diagram.writhe
    out: dict[int, int] = {}
    for e, c in br.items():
        ee = e - 3 * w  # multiply by (-A)^(-3w)
        cc = c * (-1) ** (w % 2)
        if ee % 2:
            raise AssertionError("bracket exponent parity broken")
        key = -ee // 2  # exponent of t^(1/2)
        out[key] = out.get(key, 0) + cc
    return LaurentPolynomial(out)


# ------------------------------------------------------------- Seifert circles

class _SeifertStructure(namedtuple("_SeifertStructure", "circles circle_of_arc corner_order edges")):
    """The arcs of each circle in traced order, the circle of each arc, the
    crossings of each circle in traced cyclic order, and per crossing the
    two circles through it."""

    __slots__ = ()


def seifert_structure(d: LinkDiagram) -> _SeifertStructure:
    """Walk the oriented smoothing of every crossing into Seifert circles.

    The circles are the `_strands` walks from the arcs' heads in sorted
    label order, turning by 1 at a positive crossing, whose incoming ends,
    slots 0 and 3, exit at slots 1 and 2, and by 3 at a negative one, whose
    incoming ends, slots 0 and 1, exit at 3 and 2; each circle starts at its
    least arc.  The circle entering at slot 0 is the crossing's first
    circle, and the one entering at the other incoming end its second.
    """
    t, heads, signs = d.crossings, d._heads, d.signs
    starts = (4 * ci + s for ci, s in map(heads.get, sorted(heads)))
    circles, circle_of, corners = [], {}, []
    for k, walk in enumerate(_strands(d._darts, starts, [2 - sign for sign in signs])):
        arcs, cis = [], []
        for e in walk:
            lab = t[e >> 2][e & 3]
            arcs.append(lab)
            cis.append(e >> 2)
            circle_of[lab] = k
        circles.append(arcs)
        corners.append(cis)
    edges = []
    for tup, sign in zip(t, signs):
        u, w = circle_of[tup[0]], circle_of[tup[3 if sign == 1 else 1]]
        if u == w:
            raise AssertionError("both smoothing strands on one circle")
        edges.append((u, w))
    return _SeifertStructure(circles, circle_of, corners, edges)


def _chain_order(struct: _SeifertStructure) -> list[int] | None:
    """Vertices of the Seifert graph as a path, or None if not a chain."""
    s = len(struct.circles)
    adj: dict[int, set[int]] = {i: set() for i in range(s)}
    for u, v in struct.edges:
        adj[u].add(v)
        adj[v].add(u)
    degs = {v: len(a) for v, a in adj.items()}
    endpoints = [v for v, dg in degs.items() if dg == 1]
    if any(dg > 2 for dg in degs.values()) or len(endpoints) != 2:
        return None
    order = [min(endpoints)]
    prev = None
    while True:
        nxts = [x for x in adj[order[-1]] if x != prev]
        if not nxts:
            break
        prev = order[-1]
        order.append(nxts[0])
    return order if len(order) == s else None


def _braided_data(struct: _SeifertStructure):
    """Per-annulus linear band lists plus per-circle cyclic corner positions,
    or None when the diagram is not in coherently nested (braided) form."""
    chain = _chain_order(struct)
    if chain is None:
        return None
    pos_in_circle = [
        {ci: k for k, ci in enumerate(corners)} for corners in struct.corner_order
    ]
    annuli = []
    for t in range(len(chain) - 1):
        u, v = chain[t], chain[t + 1]
        upper_sub = [ci for ci in struct.corner_order[u] if struct.edges[ci] in ((u, v), (v, u))]
        # a crossing meets each circle once, so both lists hold the same
        # bands once each: rotate the lower one to the upper one's first
        lower_sub = [ci for ci in struct.corner_order[v] if struct.edges[ci] in ((u, v), (v, u))]
        k = lower_sub.index(upper_sub[0])
        if lower_sub[k:] + lower_sub[:k] != upper_sub:
            return None
        annuli.append(upper_sub)
    return chain, annuli, pos_in_circle


def seifert_matrix_from_diagram(d: LinkDiagram) -> SeifertData:
    """A Seifert matrix of the diagram's link via its disc-and-band surface.

    Requires a connected diagram.  If the Seifert circles are not already a
    coherently nested chain, the diagram is first rewired by untangling
    moves (each one an oriented second Reidemeister move across a face whose
    two circles run incoherently), which preserve the link type.  Each move
    derives its diagram from the previous one (`r2_slide`); the last one is
    built once more through the validating `LinkDiagram` constructor, and
    its partner list and orientation must equal the derived ones before the
    matrix is read.  The Seifert circles are traced once for d and once
    after each move, and the first tracing also sets the bound on the
    number of moves.

    In nested form the surface is a stack of discs joined by half-twisted
    ribbons, one per crossing; loops pair consecutive ribbons of an annulus.
    Their linking numbers reduce to three local counts: ribbon twists, chord
    crossings on shared discs, and chords passing under ribbons that land on
    their disc, all read off the cyclic order in which each circle meets its
    crossings.
    """
    if not d.is_connected():
        raise DiagramError("diagram must be connected (band split links first)")
    if d.n == 0:
        return SeifertData(())
    work = d
    struct = seifert_structure(d)
    for _ in range(4 * d.n + 10 * len(struct.circles) ** 2 + 40):
        data = _braided_data(struct)
        if data is not None:
            if work is not d:
                checked = LinkDiagram(work.crossings, work.free_loops)
                if (checked._darts, checked._is_in) != (work._darts, work._is_in):
                    raise AssertionError("untangled diagram differs from its validated build")
                del checked  # not held while the n x n matrix is built
            return _seifert_matrix_braided(work, data)
        work = _vogel_move(work, struct)
        struct = seifert_structure(work)
    raise AssertionError("untangling did not reach braided form")


def _seifert_matrix_braided(d: LinkDiagram, data) -> SeifertData:
    """The Seifert matrix of a braided diagram, from `_braided_data`.

    Annulus ai, between circles chain[ai] and chain[ai+1], holds the loops
    first[ai] ... first[ai+1] - 1; its loop r = first[ai] + k runs through
    bands k and k+1.  Loop r links only with itself, with its neighbour
    r + 1 in the same annulus, across the band they share, and with the
    loops of annulus ai+1, whose chords meet its chord on circle
    chain[ai+1]; those counts read the cyclic positions of the four bands
    on that circle.
    """
    chain, annuli, pos = data
    first = [0]
    for bands in annuli:
        first.append(first[-1] + len(bands) - 1)
    nb = first[-1]
    V = [[0] * nb for _ in range(nb)]
    eps = d.signs
    for ai, bands in enumerate(annuli):
        p = pos[chain[ai + 1]]
        m = len(p)
        below = annuli[ai + 1] if ai + 1 < len(annuli) else ()
        for k in range(len(bands) - 1):
            r = first[ai] + k
            x1, x2 = bands[k], bands[k + 1]
            V[r][r] = -(eps[x1] + eps[x2]) // 2
            if k + 2 < len(bands):
                V[r][r + 1] = (eps[x2] + 1) // 2
                V[r + 1][r] = (eps[x2] - 1) // 2
            px1, px2 = p[x1], p[x2]
            for l in range(len(below) - 1):
                py1, py2 = p[below[l]], p[below[l + 1]]
                y_span = (py2 - py1) % m
                # corner c lies strictly inside the forward arc a -> b iff
                # 0 < (c - a) % m < (b - a) % m.  Loop r links with loop t
                # by its corners x2, x1 inside the arc y1 -> y2, and t never
                # links with r, so V[t][r] stays 0.
                V[r][first[ai + 1] + l] = ((0 < (px2 - py1) % m < y_span)
                                           - (0 < (px1 - py1) % m < y_span))
    for r in range(nb):  # frozen in place, so SeifertData keeps the rows without a copy
        V[r] = tuple(V[r])
    return SeifertData(V)


# ----------------------------------------------------------------- Vogel move

def _vogel_move(d: LinkDiagram, struct: _SeifertStructure) -> LinkDiagram:
    """One untangling move: an oriented R2 across a face bordered by two
    different Seifert circles with equal boundary sense.

    The faces come from d's one face walk, in its order.  Dart
    (ci, s) of a face borders the arc at slot s+1, which the face walks
    along its orientation (sense +1) when that end is the arc's tail.  The
    first face where one sense meets two circles is slid, at the first
    such pair with its arcs listed by (label, +1 before -1): the move that
    the tests' oracle picks from every arc's two flanking faces
    (`oracle_move` in tests/test_vogel_derived.py).
    """
    circle_of = struct.circle_of_arc
    for face in d._faces:
        items = []
        for ci, s in face:
            s = (s + 1) % 4
            lab = d.crossings[ci][s]
            items.append((lab, -1 if d._is_in[4 * ci + s] else 1, circle_of[lab]))
        if all(len({c for _, t, c in items if t == sense}) < 2 for sense in (1, -1)):
            continue
        items.sort(key=lambda t: (t[0], -t[1]))
        for i, (l1, s1, c1) in enumerate(items):
            for l2, s2, c2 in items[i + 1:]:
                if s1 == s2 and c1 != c2:
                    return r2_slide(d, l1, l2)
    raise AssertionError("no untangling move available on a non-braided diagram")


# ------------------------------------------------------------------- Goeritz

def checkerboard_colors(d: LinkDiagram) -> dict[End, int]:
    """Quadrant (crossing, slot) -> color 0/1 of its face, read on the
    diagram's `_darts` partner list alone.

    Quadrant s of crossing ci, the corner between slots s and s+1, takes
    color c[ci] ^ (s & 1), so the colors alternate round every crossing.
    Quadrant s of ci and quadrant f & 3 of crossing f >> 2, where f is the
    partner of dart 4 ci + s+1, are consecutive corners of one face (the
    step of `face_orbits`), so c[f >> 2] = c[ci] ^ ((s ^ f) & 1).  One
    search over the crossings sets c from the least crossing of each piece,
    which takes color 0; a crossing reached with both colors means that no
    coloring exists.
    """
    partner = d._darts
    color = [None] * d.n
    for root in range(d.n):
        if color[root] is not None:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            ci = stack.pop()
            for s in range(4):
                f = partner[4 * ci + (s + 1) % 4]
                want = color[ci] ^ ((s ^ f) & 1)
                if color[f >> 2] is None:
                    color[f >> 2] = want
                    stack.append(f >> 2)
                elif color[f >> 2] != want:
                    raise DiagramError("diagram is not checkerboard colorable")
    return {(ci, s): color[ci] ^ (s & 1) for ci in range(d.n) for s in range(4)}


def goeritz_from_diagram(d: LinkDiagram, shade: int = 1) -> SpanningSurfaceData:
    """Goeritz matrix of the checkerboard surface of the given shade, as a
    presentation that drops in wherever a symmetrized Seifert matrix does.

    The matrix is indexed by the faces of color `shade` in d's face walk
    (`checkerboard_colors`), minus the first.  A crossing joins two of them
    at opposite quadrants; eta is +1 when they are quadrants 0 and 2 (split
    off by rotating the under strand onto the over strand counterclockwise)
    and -1 for 1 and 3.  The convention is pinned by agreement with the
    Seifert route (delta_p, signature, Wall summands and the CLI output),
    which the tests check for both shades.  mu is the link's component count
    (the surface of a connected diagram is connected, as its Tait graph
    is).  The Gordon-Litherland correction e is the sum of eta over the
    crossings whose eta equals their sign, so that the signature is
    sign(R) - e.  Of the orientation only the signs and the component count
    are read.
    """
    if not d.is_connected():
        raise DiagramError("diagram must be connected")
    if d.n == 0:
        raise DiagramError("need at least one crossing for a Goeritz matrix")
    colors = checkerboard_colors(d)
    shaded = [face for face in d._faces if colors[face[0]] == shade]
    findex = {q: i for i, face in enumerate(shaded) for q in face}
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
        # a crossing joining a shaded face to itself (i == j) adds -2 eta + 2 eta
        i, j = findex[quads[0]], findex[quads[1]]
        full[i][j] -= eta
        full[j][i] -= eta
        full[i][i] += eta
        full[j][j] += eta
    # drop the first shaded face's row and column
    R = IntegerSymmetricMatrix([row[1:] for row in full[1:]])
    return SpanningSurfaceData(R, d.component_count, e)


# ------------------------------------------------------------------ Q by skein

Q_BUDGET = 12  # default crossing budget of the Q skein


@cache
def _q_unknot_power(k: int) -> LaurentPolynomial:
    """(2 z^-1 - 1)^k, the Q value of a (k+1)-component unlink."""
    out = LaurentPolynomial.one()
    base = LaurentPolynomial({-2: 2, 0: -1})
    for _ in range(k):
        out = out * base
    return out


def _smoothing(ci: int, mode: int):
    """The dart pairs that smoothing crossing ci joins, by `_SMOOTHINGS`:
    mode s % 2 keeps the corner between slots s and s+1 whole."""
    return [(4 * ci + s, 4 * ci + t) for s, t in _SMOOTHINGS[mode][:2]]


def _splice(partner, labels, through, todo) -> int:
    """Join the dart pairs (x, y) of `through`, the ends dead crossings
    connected, in turn, and return how many loops close: with
    u, v = partner[x], partner[y], u == y closes a free loop, else u and v
    become partners and u takes v's label, the root a union-find of the
    labels would keep.  A later pair reads what an earlier one wrote, so
    chains need no union-find.  The crossings of u and v go on `todo`."""
    loops = 0
    for x, y in through:
        u, v = partner[x], partner[y]
        if u == y:
            loops += 1
        else:
            partner[u], partner[v] = v, u
            labels[u] = labels[v]
            todo += (v >> 2, u >> 2)
    return loops


def _bigon_at(partner, ci: int, s: int):
    """(c2, s2) when the corner between slots s and s+1 of crossing ci is a
    bigon face whose other corner lies between slots s2 and s2+1 of a
    crossing c2 != ci, else None, read on the crossings' `_darts`.

    The bigon's edges join dart 4 ci + s+1 to 4 c2 + s2 and 4 ci + s to
    4 c2 + s2+1; slots 1 and 3 are over, so one strand is over at both
    crossings iff s+1 and s2 have one parity (a second Reidemeister pair),
    and otherwise it is a clasp.
    """
    c2, s2 = divmod(partner[4 * ci + (s + 1) % 4], 4)
    if c2 != ci and partner[4 * ci + s] == 4 * c2 + (s2 + 1) % 4:
        return c2, s2
    return None


def _reidemeister_reduce(crossings: list[tuple], free: int, partner: list[int], cut=()) -> tuple:
    """(crossings, free, kept, partner): the diagram (crossings, free) with
    the crossings of the dart pairs `cut` smoothed, then kinks and second
    Reidemeister pairs removed until none is left.  `kept` holds the indices
    in the input of the crossings left, in order, and `partner` their
    `_darts`: the bracket reads the survivors' signs by kept, the bracket
    and the skein walk on partner, and each skein child is spliced from a
    copy of it.

    The loop runs on a copy of `partner`, the crossings' `_darts`: a
    diagram's own list, which the bracket and the skein hand on, or a skein
    node's; there is no other arc map.  It first splices the pairs of `cut`
    (`_splice`), re-queuing nothing: every crossing is queued in ascending
    order, and re-queuing would change which of two overlapping moves is
    taken.  Corner s of crossing ci is a kink
    when darts 4 ci + s and 4 ci + s + 1 are partners; its through pair is
    the darts at slots s + 2 and s + 3.  It is a second Reidemeister pair
    when `_bigon_at` finds a bigon there with one strand over at both
    crossings; its through pairs are slots s + 3 of ci and s2 + 2 of c2, and
    s + 2 of ci and s2 + 3 of c2.  A clasp is kept.  A move kills its
    crossings and splices its through pairs; only the crossings of the
    joined ends go back on the stack, as a new kink or bigon needs an arc
    the move joined.  The bigon test is written out here, with the parity of
    s2 checked first: a call of `_bigon_at` made the loop about 15% slower.
    """
    partner = list(partner)
    labels = [lab for t in crossings for lab in t]
    alive = [True] * len(crossings)
    for x, _y in cut:
        alive[x >> 2] = False
    free += _splice(partner, labels, cut, [])
    todo = list(range(len(crossings)))[::-1]  # popped from the first crossing
    while todo:
        ci = todo.pop()
        if not alive[ci]:
            continue
        e = 4 * ci
        for s in range(4):
            s1 = (s + 1) % 4
            p = partner[e + s1]
            if p == e + s:
                removed, through = (ci,), ((e + (s + 2) % 4, e + (s + 3) % 4),)
                break
            c2, s2 = p >> 2, p & 3
            if (s1 - s2) % 2 == 0 and c2 != ci and partner[e + s] == 4 * c2 + (s2 + 1) % 4:
                f = 4 * c2
                removed = (ci, c2)
                through = ((e + (s + 3) % 4, f + (s2 + 2) % 4), (e + (s + 2) % 4, f + (s2 + 3) % 4))
                break
        else:
            continue
        for c in removed:
            alive[c] = False
        free += _splice(partner, labels, through, todo)
    kept = [ci for ci in range(len(alive)) if alive[ci]]
    index = {ci: k for k, ci in enumerate(kept)}
    partner = [4 * index[p >> 2] + (p & 3) for ci in kept for p in partner[4 * ci:4 * ci + 4]]
    return [tuple(labels[4 * ci:4 * ci + 4]) for ci in kept], free, kept, partner


def _twist_region(partner):
    """The crossings of one twist region, in order along it, each with a
    bigon corner, or None when no bigon joins two crossings.

    The region grows both ways from the first bigon found: consecutive
    crossings share a bigon, and each inner crossing has its two bigons at
    opposite corners.  A region that closes up holds every crossing of its
    piece.
    """
    start = next(((ci, s) for ci in range(len(partner) // 4) for s in range(4)
                  if _bigon_at(partner, ci, s) is not None), None)
    if start is None:
        return None
    ahead, behind = [start], []
    seen = {start[0]}
    for side, (ci, s) in ((ahead, start), (behind, (start[0], (start[1] + 2) % 4))):
        while (pair := _bigon_at(partner, ci, s)) is not None and pair[0] not in seen:
            ci, s = pair[0], (pair[1] + 2) % 4
            seen.add(ci)
            side.append((ci, s))
    return behind[::-1] + ahead


def _shadow_components(crossings, partner):
    """The shadow's components as lists of (crossing, entry slot) events,
    the `_strands` walks on the crossings' `_darts`.

    The walk is determined by arc labels alone, never by slot numbers, so it
    is invariant under switching a crossing (which rotates its tuple).  That
    makes 'distance to the descending template' a sound induction measure.
    Each component is walked once, entering at the least end of its least
    arc label, and is turned round when that gives the lexicographically
    smaller arc sequence: the walk from the arc's other end meets the same
    arcs in reverse after the first, and enters each crossing on the
    opposite slot, two away.
    """
    labels = [lab for t in crossings for lab in t]
    first: dict[int, int] = {}  # label -> its least end
    for e, lab in enumerate(labels):
        first.setdefault(lab, e)
    comps = []
    for walk in _strands(partner, (first[lab] for lab in sorted(first)), [2] * len(crossings)):
        arcs = [labels[e] for e in walk]
        if arcs[:0:-1] < arcs[1:]:
            walk = [e ^ 2 for e in reversed(walk)]
        comps.append([divmod(e, 4) for e in walk])
    return comps


def _q_canonical_key(crossings, free: int, comps):
    """Memo key: the crossings relabelled in the order the shadow walk
    `comps` first meets their arcs, sorted, with the free loop count."""
    rename: dict[int, int] = {}
    for comp in comps:
        for ci, s in comp:
            rename.setdefault(crossings[ci][s], len(rename))
    return (tuple(sorted(tuple(rename[lab] for lab in t) for t in crossings)), free)


_Z = LaurentPolynomial({2: 1})


@cache
def _twist_coefficients(k: int):
    """(a_k, b_k, c_k) with Q(D_k) = a_k Q(T_1) + b_k Q(T_0) + c_k Q(E) for a
    twist region of k crossings (see `q_via_skein`)."""
    one, zero = LaurentPolynomial.one(), LaurentPolynomial.zero()
    if k < 2:
        return (zero, one, zero) if k == 0 else (one, zero, zero)
    a1, b1, c1 = _twist_coefficients(k - 1)
    a0, b0, c0 = _twist_coefficients(k - 2)
    return _Z * a1 - a0, _Z * b1 - b0, _Z * (c1 + one) - c0


def _twist_expand(crossings: list[tuple], free: int, partner, region, memo: dict) -> LaurentPolynomial:
    """Q of the diagram by the twist recurrence of `q_via_skein` on its
    twist region c_1 ... c_k, each crossing given with a bigon corner s.
    The cuts T_1, T_0 and E are splices of the node's partner list."""
    along = [_smoothing(ci, 1 - s % 2) for ci, s in region]
    c1, s1 = region[0]
    cuts = sum(along[1:], []), sum(along, []), _smoothing(c1, s1 % 2)  # T_1, T_0, E
    t1, t0, e = (_q_affine(crossings, free, memo, partner, cut) for cut in cuts)
    a, b, c = _twist_coefficients(len(region))
    return a * t1 + b * t0 + c * e


def _q_affine(crossings: list[tuple], free: int, memo: dict, partner, cut=()) -> LaurentPolynomial:
    """Q of the diagram (crossings, free loops) with the crossings of `cut`
    smoothed (`_reidemeister_reduce`), one shadow walk per node."""
    crossings, free, _, partner = _reidemeister_reduce(crossings, free, partner, cut)
    if not crossings:
        return _q_unknot_power(free - 1)
    comps = _shadow_components(crossings, partner)
    key = _q_canonical_key(crossings, free, comps)
    hit = memo.get(key)
    if hit is not None:
        return hit
    first: dict[int, int] = {}  # crossing -> entry slot of its first visit
    for comp in comps:
        for c, s in comp:
            first.setdefault(c, s)
    # the first crossing first walked into on its under strand (slot 0 or 2)
    ci = next((c for c, s in first.items() if s in (0, 2)), None)
    if ci is None:
        val = _q_unknot_power(len(comps) + free - 1)
    elif (region := _twist_region(partner)) is not None:
        val = _twist_expand(crossings, free, partner, region, memo)
    else:
        # the switch turns ci's tuple and its four darts by one slot
        switched, e = list(crossings), 4 * ci
        switched[ci] = crossings[ci][1:] + crossings[ci][:1]
        turned = [e + (p - 1) % 4 if p >> 2 == ci else p for p in partner]
        turned[e:e + 4] = turned[e + 1:e + 4] + turned[e:e + 1]
        smoothed = _q_affine(crossings, free, memo, partner, _smoothing(ci, 0)) \
            + _q_affine(crossings, free, memo, partner, _smoothing(ci, 1))
        val = _Z * smoothed - _q_affine(switched, free, memo, turned)
    memo[key] = val
    return val


def q_via_skein(d: LinkDiagram, budget: int = Q_BUDGET) -> LaurentPolynomial:
    """Q polynomial by four-term skein recursion toward descending diagrams.

    Q(L+) + Q(L-) = z (Q(L0) + Q(Loo)) with Q(unknot) = 1 (Brandt,
    Lickorish and Millett, Invent. Math. 84 (1986)).  Each node first
    removes kinks and second Reidemeister pairs until none is left
    (`_reidemeister_reduce`).  Q is the Kauffman polynomial F(a, z) at
    a = 1, and F = a^(-writhe) times a regular isotopy invariant that takes
    a factor a^(+-1) per kink, so at a = 1 a kink costs nothing.  A bigon is
    a second Reidemeister pair only when one strand runs over at both its
    crossings; a clasp (over at one, under at the other) is kept.  Each node
    then walks its shadow once (`_shadow_components`) on the `_darts` of the
    crossings left, which the reduction hands on, for its memo key, its
    component count and the template crossing; a descending diagram is an
    unlink.  The twist region search reads the same darts, and every child
    is spliced out of a copy of them (`_reidemeister_reduce` with a cut),
    so the call builds no `_darts`: the root starts from a copy of the
    diagram's.

    A node with a clasp left expands its twist region c_1 ... c_k
    (`_twist_region`).  With the bigon at corner s of a crossing, smoothing
    it across (mode s % 2) keeps the bigon corner and smoothing it along
    (mode 1 - s % 2) joins the strands that run along the region.  Let D_j
    be the diagram with the region cut to j crossings; D_k is the node.  At
    c_1 the skein reads Q(D_k) + Q(D_(k-2)) = z (Q(D_(k-1)) + Q(E)): the
    switched c_1 forms a second Reidemeister pair with c_2, c_1 along leaves
    D_(k-1), and c_1 across leaves E, whose other region crossings are
    kinks.  So Q(D_k) = a_k Q(T_1) + b_k Q(T_0) + c_k Q(E), where T_0 = D_0
    smooths every region crossing along and T_1 = D_1 keeps c_1 only, with
    (a, b, c)_0 = (0, 1, 0), (a, b, c)_1 = (1, 0, 0) and
    (a, b, c)_j = z (a, b, c)_(j-1) - (a, b, c)_(j-2) + (0, 0, z).  A
    region that closes up, as in T(2, k), is the case where the rest of the
    diagram is the two arcs that close it.

    A node with no bigon branches on the first crossing whose over strand
    differs from the first-visit-on-top template: it is switched (distance
    to descending drops by one) and smoothed both ways (the crossing count
    drops).  Every child of a twist node has fewer crossings, and the
    reduction only removes crossings, so the measure (crossings, distance
    to descending) drops at every step and the recursion terminates.  The
    memo holds diagram keys only; it is local to the call and is freed by
    reference counting when it returns.  The twist coefficients and the
    unlink values depend on a count alone and are kept for the process.
    """
    if d.n > budget:
        raise DiagramError(f"crossing budget exceeded: {d.n} > {budget}")
    return _q_affine(list(d.crossings), d.free_loops, {}, d._darts)


def pd_text(d: LinkDiagram) -> str:
    """Serialize back to PD text (inverse of parse_pd up to formatting)."""
    parts = [f"X({a},{b},{c},{e})" for a, b, c, e in d.crossings]
    parts.extend(["O"] * d.free_loops)
    return " ".join(parts)


# --------------------------------------------------------------- constructions

def normalize_pd(tuples: list[tuple[int, int, int, int]]) -> LinkDiagram:
    """Build a diagram from shadow tuples whose under strand sits on slots
    (0, 2) but whose slot 0 need not be the incoming end.

    Each component is oriented by one straight-through shadow walk,
    `_strands` on the tuples' `_darts`, that enters at the least dart not
    yet walked in either direction; the walk enters every crossing it meets
    at one slot and leaves at the opposite one.  A tuple is rotated by two
    when its walk leaves through slot 0, which moves its dart 4 ci + s to
    4 ci + (s + 2) % 4 in the one partner list; `_orient` then runs on it.
    """
    partner = _darts(tuples)
    turn = [0] * len(tuples)  # 2 where the tuple is rotated
    for walk in _strands(partner, range(len(partner)), [2] * len(tuples)):
        for e in walk:
            if e & 3 == 2:
                turn[e >> 2] = 2
    out = tuple((t[2], t[3], t[0], t[1]) if r else t for t, r in zip(tuples, turn))
    darts = [0] * len(partner)
    for e, f in enumerate(partner):
        darts[e ^ turn[e >> 2]] = f ^ turn[f >> 2]
    diagram = LinkDiagram._derived(out, 0, darts, None)
    diagram.__dict__["_is_in"] = diagram._orient()
    return diagram


def pretzel_pd(*twists: int) -> LinkDiagram:
    """Standard pretzel diagram P(a_1, ..., a_k): vertical twist columns.

    A positive entry gives columns whose crossings put the slot-(1,3)
    diagonal on top.  Entries must be nonzero.
    """
    if len(twists) < 2 or any(a == 0 for a in twists):
        raise ValueError("need at least two nonzero twist counts")
    k = len(twists)
    fresh = itertools.count(1).__next__
    tops = [fresh() for _ in range(k)]  # arc joining column i's top-left corner
    bots = [fresh() for _ in range(k)]
    tuples = []
    for i, a in enumerate(twists):
        left = tops[i]
        right = tops[(i + 1) % k]
        for j in range(abs(a)):
            last = j == abs(a) - 1
            nl = bots[i] if last else fresh()
            nr = bots[(i + 1) % k] if last else fresh()
            # CCW corners (NW, SW, SE, NE); under strand on slots (0, 2)
            shadow = (left, nl, nr, right)
            if a > 0:
                tuples.append(shadow)
            else:
                tuples.append((shadow[1], shadow[2], shadow[3], shadow[0]))
            left, right = nl, nr
    return normalize_pd(tuples)


def braid_closure_pd(word: list[int], strands: int) -> LinkDiagram:
    """Closure of a braid word; letter k means sigma_k, negative its inverse.

    Conventions make sigma_k a positive crossing, so sigma_1^n closes to the
    positive (2, n) torus link.
    """
    if strands < 2:
        raise ValueError("need at least 2 strands")
    used = {abs(k) for k in word}
    if used != set(range(1, strands)):
        raise ValueError("closure would be split: unused strand positions")
    fresh = itertools.count(1).__next__
    current = [fresh() for _ in range(strands)]
    first = list(current)
    crossings = []
    for letter in word:
        k = abs(letter)
        i, j = k - 1, k  # positions i (left) and j (right)
        li, lj = current[i], current[j]
        ni, nj = fresh(), fresh()
        if letter > 0:
            # right strand passes over, landing at position i
            crossings.append(make_crossing(li, nj, lj, ni, 1))
        else:
            crossings.append(make_crossing(lj, ni, li, nj, -1))
        current[i], current[j] = ni, nj
    # closure: each final arc takes the initial label at its position
    closing = dict(zip(current, first))
    return LinkDiagram(tuple(tuple(closing.get(lab, lab) for lab in t) for t in crossings))


def reverse_component(d: LinkDiagram, comp_index: int) -> LinkDiagram:
    """Reverse the orientation of one component (same shadow, rotated tuples)."""
    comp = set(d.components[comp_index])
    out = []
    for ci, tup in enumerate(d.crossings):
        if tup[0] in comp:
            out.append((tup[2], tup[3], tup[0], tup[1]))
        else:
            out.append(tup)
    return LinkDiagram(tuple(out), d.free_loops)


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Mirror image: every crossing switched, orientations kept.

    The tuple rotates so that slot 0 is again the incoming under end: the
    new under strand is the old over strand, which enters at slot 1 of a
    negative crossing and at slot 3 of a positive one.  So a negative
    (a, b, c, d) becomes (b, c, d, a), a positive one (d, a, b, c).
    """
    out = []
    for ci, (a, b, c, cc) in enumerate(d.crossings):
        out.append((b, c, cc, a) if d.sign(ci) == -1 else (cc, a, b, c))
    return LinkDiagram(tuple(out), d.free_loops)


def r1_kink(d: LinkDiagram, arc: int, positive: bool) -> LinkDiagram:
    """Insert a first Reidemeister kink on the given arc."""
    fresh = max(d.arcs) + 1
    mid, loop = fresh, fresh + 1
    out = []
    for ci, tup in enumerate(d.crossings):
        row = list(tup)
        for s in range(4):
            if row[s] == arc and d._is_in[4 * ci + s]:
                row[s] = mid
        out.append(tuple(row))
    if positive:
        kink = make_crossing(arc, loop, loop, mid, 1)
    else:
        kink = make_crossing(loop, mid, arc, loop, -1)
    return LinkDiagram(tuple(out) + (kink,), d.free_loops)


def r2_slide(d: LinkDiagram, arc_over: int, arc_under: int) -> LinkDiagram:
    """Insert a second Reidemeister pair sliding arc_over across arc_under.

    Each arc is split at its head end, which gets a fresh label, and two
    crossings are appended: arc_over runs a1 -> a2 -> a3 over both and
    arc_under b1 -> b2 -> b3 under both, through the second one first
    (border 0) or the first (border 1); the first has sign flip.  The move
    is read off a face that both arcs border, from the senses in which it
    walks them (`_faces_flanking`): border = (s_over != s_under) and
    flip = -s_under, the least (border, s_under) where there are several.
    Arcs that share no face take border 0 and flip +1, which is planar when
    the slide joins two pieces of a split diagram, that is, when it leaves
    fewer pieces (`_piece_count`).  Any other pair, or a non-planar d,
    raises DiagramError.  Vogel untangling inserts its moves here.

    The result is derived from d without a validating build: d's partner
    list and orientation are copied with only the cut ends and the new
    darts patched, paired by label and oriented by `make_crossing` as
    `LinkDiagram` would, and d's faces are patched (`_slid_faces`).
    """
    if arc_over == arc_under:
        raise DiagramError("need two distinct arcs")
    heads = d._heads
    if arc_over not in heads or arc_under not in heads or not d._planar:
        raise DiagramError("arcs do not cobound a face")
    over, under = _faces_flanking(d, arc_over), _faces_flanking(d, arc_under)
    shared = [(s_over != s_under, s_under) for f, s_over in over for g, s_under in under if f == g]
    border, s_under = min(shared, default=(False, -1))
    flip = -s_under
    fresh = max(heads) + 1
    a1, a2, a3 = arc_over, fresh, fresh + 1
    b1, b2, b3 = arc_under, fresh + 2, fresh + 3
    crossings = list(d.crossings)
    cut = []  # the two ends of each split arc, tail then head
    for old, new in ((a1, a3), (b1, b3)):
        ci, s = heads[old]
        crossings[ci] = crossings[ci][:s] + (new,) + crossings[ci][s + 1:]
        cut += (d._darts[4 * ci + s], 4 * ci + s)
    u1_in, u1_out, u2_in, u2_out = (b1, b2, b2, b3) if border else (b2, b3, b1, b2)
    crossings += (make_crossing(u1_in, u1_out, a1, a2, flip), make_crossing(u2_in, u2_out, a2, a3, -flip))
    by_label: dict[int, list[int]] = {}
    for e in itertools.chain(cut, range(4 * d.n, 4 * d.n + 8)):
        by_label.setdefault(crossings[e >> 2][e & 3], []).append(e)
    darts = d._darts + [0] * 8
    for e, f in by_label.values():
        darts[e], darts[f] = f, e
    if not shared and _piece_count(darts) == d._pieces:
        raise DiagramError("arcs do not cobound a face")
    is_in = d._is_in + [into for sign in (flip, -flip) for into in (True, sign < 0, False, sign > 0)]
    slid = LinkDiagram._derived(tuple(crossings), d.free_loops, darts, is_in)
    slid.__dict__.update(_faces=_slid_faces(d, {f for f, _ in over + under}, darts), _planar=True)
    return slid


def _faces_flanking(d: LinkDiagram, arc: int) -> list[tuple[End, int]]:
    """The faces of d on the two sides of an arc, by least end, each with
    the sense in which it walks the arc: -1 for the face at the corner
    before the arc's head end, +1 for the one before its tail end.  Each
    is the least dart of the `_face_orbit` through that corner."""
    partner = d._darts
    ci, s = d._heads[arc]
    flanking = []
    for end, sense in ((4 * ci + s, -1), (partner[4 * ci + s], 1)):
        corner = end - (end & 3) + ((end - 1) & 3)
        flanking.append((divmod(min(_face_orbit(partner, corner)), 4), sense))
    return flanking


def _slid_faces(d: LinkDiagram, touched: set[End], darts: list[int]) -> list[list[End]]:
    """The faces of the diagram that `r2_slide` derives from d, whose
    partner list is `darts`, as `face_orbits` lists them: it differs from d
    only at its two appended crossings and at the cut ends of the arcs they
    split, so the faces of d that flank those arcs (`touched`, by least
    end) are replaced by the `_face_orbit`s through the new crossings, and
    the other faces stay as they are.  Each orbit is turned to start at its
    least dart, and the faces are listed in the order of their least darts."""
    seen: set[int] = set()
    slid = [f for f in d._faces if f[0] not in touched]
    for start in range(4 * d.n, 4 * d.n + 8):
        if start in seen:
            continue
        orbit = _face_orbit(darts, start)
        seen.update(orbit)
        k = orbit.index(min(orbit))
        slid.append([divmod(e, 4) for e in orbit[k:] + orbit[:k]])
    slid.sort()
    return slid
