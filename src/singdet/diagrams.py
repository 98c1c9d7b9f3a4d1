"""Diagram-level oracle: PD codes, Kauffman bracket, Seifert and Goeritz
matrices, and the Q polynomial by skein recursion.

PD convention: a crossing X(a, b, c, d) lists the four arc labels
counterclockwise starting from the incoming under-strand, so the under
strand runs a -> c.  With the over strand oriented d -> b the crossing is
positive, with b -> d negative.  Orientations are not stored in the code;
they are recovered by constraint propagation (slot 0 is incoming, slot 2
outgoing, slots 1/3 are opposite ends of the over strand) and components
that never pass under anything get an arbitrary direction.

Crossingless split unknots cannot be expressed by crossing tuples; the
token ``O`` in PD text adds one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .evaluate import LaurentPolynomial
from .exactlinalg import IntegerSymmetricMatrix
from .seifert import SeifertData, SpanningSurfaceData

End = tuple[int, int]  # (crossing index, slot)


class DiagramError(ValueError):
    pass


@dataclass(frozen=True)
class LinkDiagram:
    """A validated oriented link diagram."""

    crossings: tuple[tuple[int, int, int, int], ...]
    free_loops: int = 0

    def __post_init__(self):
        occ: dict[int, list[End]] = {}
        for ci, tup in enumerate(self.crossings):
            if len(tup) != 4:
                raise DiagramError(f"crossing {ci} is not a 4-tuple")
            for s, lab in enumerate(tup):
                occ.setdefault(lab, []).append((ci, s))
        for lab, ends in occ.items():
            if len(ends) != 2:
                raise DiagramError(f"arc {lab} appears {len(ends)} times, expected 2")
        object.__setattr__(self, "_occ", occ)
        object.__setattr__(self, "_is_in", self._orient())
        object.__setattr__(self, "_components", self._trace_components())

    # -- construction helpers ------------------------------------------------

    def _partner(self, e: End) -> End:
        a, b = self._occ[self.crossings[e[0]][e[1]]]
        return b if e == a else a

    def _orient(self) -> dict[End, bool]:
        is_in: dict[End, bool] = {}
        pending = []
        for ci, tup in enumerate(self.crossings):
            pending.append(((ci, 0), True))
            pending.append(((ci, 2), False))
        unassigned = {(ci, s) for ci in range(len(self.crossings)) for s in (1, 3)}
        while pending or unassigned:
            if not pending:
                e0 = min(unassigned)  # always-over component: direction is free
                unassigned.discard(e0)
                pending.append((e0, True))
            e, val = pending.pop()
            if e in is_in:
                if is_in[e] != val:
                    raise DiagramError("inconsistent strand orientations")
                continue
            is_in[e] = val
            unassigned.discard(e)
            pending.append((self._partner(e), not val))
            ci, s = e
            if s in (1, 3):
                pending.append(((ci, 4 - s), not val))
        return is_in

    def _trace_components(self) -> tuple[tuple[int, ...], ...]:
        heads = {}
        for lab, ends in self._occ.items():
            ins = [e for e in ends if self._is_in[e]]
            outs = [e for e in ends if not self._is_in[e]]
            if len(ins) != 1 or len(outs) != 1:
                raise DiagramError(f"arc {lab} is not consistently directed")
            heads[lab] = ins[0]
        comps = []
        seen: set[int] = set()
        for lab in sorted(heads):
            if lab in seen:
                continue
            comp = []
            cur = lab
            while cur not in seen:
                seen.add(cur)
                comp.append(cur)
                ci, s = heads[cur]
                cur = self.crossings[ci][(s + 2) % 4]
            comps.append(tuple(comp))
        return tuple(comps)

    # -- public derived data ---------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def arcs(self) -> list[int]:
        return sorted(self._occ)

    def is_incoming(self, ci: int, slot: int) -> bool:
        return self._is_in[(ci, slot)]

    def sign(self, ci: int) -> int:
        """+1 when the over strand runs d -> b, else -1."""
        return 1 if self._is_in[(ci, 3)] else -1

    @property
    def signs(self) -> tuple[int, ...]:
        return tuple(self.sign(ci) for ci in range(self.n))

    @property
    def writhe(self) -> int:
        return sum(self.signs)

    @property
    def components(self) -> tuple[tuple[int, ...], ...]:
        return self._components

    @property
    def component_count(self) -> int:
        return len(self._components) + self.free_loops

    def component_of_arc(self, arc: int) -> int:
        for k, comp in enumerate(self._components):
            if arc in comp:
                return k
        raise KeyError(arc)

    def is_connected(self) -> bool:
        if self.free_loops:
            return self.n == 0 and self.free_loops == 1
        if self.n == 0:
            return True
        parent = {ci: ci for ci in range(self.n)}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ends in self._occ.values():
            a, b = find(ends[0][0]), find(ends[1][0])
            parent[a] = b
        return len({find(ci) for ci in range(self.n)}) == 1

    def is_proper(self) -> bool:
        """Every component has even total linking with the rest."""
        c = len(self._components)
        lk = [[0] * c for _ in range(c)]
        for ci in range(self.n):
            cu = self.component_of_arc(self.crossings[ci][0])
            co = self.component_of_arc(self.crossings[ci][1])
            if cu != co:
                lk[cu][co] += self.sign(ci)
        for i in range(c):
            total = sum(lk[i][j] + lk[j][i] for j in range(c) if j != i)
            if (total // 2) % 2:  # pairwise crossings counted twice
                return False
        return True


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD text like ``X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)``.

    ``X[...]`` brackets work as well; each ``O`` token adds a crossingless
    unknot component.
    """
    free = len(re.findall(r"\bO\b", text))
    tuples = []
    for tok in re.findall(r"X[\(\[][^\)\]]*[\)\]]", text):
        m = re.fullmatch(r"X[\(\[]\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*[\)\]]", tok)
        if m is None:
            raise DiagramError(f"malformed PD crossing {tok!r}: expected four integer labels")
        tuples.append(tuple(int(g) for g in m.groups()))
    rest = re.sub(r"X[\(\[][^\)\]]*[\)\]]|\bO\b", " ", text)
    if rest.strip():
        raise DiagramError(f"unparsed PD tokens: {rest.strip()!r}")
    if not tuples and not free:
        raise DiagramError("empty diagram")
    return LinkDiagram(tuple(tuples), free)


def make_crossing(under_in: int, under_out: int, over_in: int, over_out: int, sign: int):
    """PD tuple from strand data: positive means over runs slot3 -> slot1."""
    if sign == 1:
        return (under_in, over_out, under_out, over_in)
    if sign == -1:
        return (under_in, over_in, under_out, over_out)
    raise ValueError("sign must be +-1")


# ---------------------------------------------------------------------- faces

def face_orbits(crossings) -> list[list[End]]:
    """Faces of the planar 4-valent map as orbits of e -> partner(rotate(e)).

    The orbit of dart (ci, s) walks the face containing the corner between
    slots s and s+1 of crossing ci.
    """
    occ: dict[int, list[End]] = {}
    for ci, tup in enumerate(crossings):
        for s, lab in enumerate(tup):
            occ.setdefault(lab, []).append((ci, s))

    def partner(e: End) -> End:
        a, b = occ[crossings[e[0]][e[1]]]
        return b if e == a else a

    darts = {(ci, s) for ci in range(len(crossings)) for s in range(4)}
    faces = []
    while darts:
        start = min(darts)
        orbit = []
        e = start
        while True:
            orbit.append(e)
            darts.discard(e)
            ci, s = e
            e = partner((ci, (s + 1) % 4))
            if e == start:
                break
        faces.append(orbit)
    return faces


def euler_ok(crossings) -> bool:
    """V - E + F == 2 per connected planar component... for our use the
    diagrams are connected, so exactly 2."""
    n = len(crossings)
    if n == 0:
        return True
    return n - 2 * n + len(face_orbits(crossings)) == 2


# ------------------------------------------------------------------- bracket

_A_VAR = "A"


def _bracket_delta_powers(nmax: int) -> list[dict[int, int]]:
    """(-A^2 - A^-2)^k as dicts A-exponent -> coefficient."""
    out = [{0: 1}]
    delta = {2: -1, -2: -1}
    for _ in range(nmax):
        cur = {}
        for e1, c1 in out[-1].items():
            for e2, c2 in delta.items():
                cur[e1 + e2] = cur.get(e1 + e2, 0) + c1 * c2
        out.append(cur)
    return out


def kauffman_bracket(diagram: LinkDiagram) -> dict[int, int]:
    """State-sum Kauffman bracket as a dict A-exponent -> coefficient.

    A-smoothing joins slots (0,1) and (2,3); B-smoothing joins (0,3), (1,2).
    """
    n = diagram.n
    if n == 0:
        if diagram.free_loops == 0:
            raise DiagramError("empty diagram")
        return dict(_bracket_delta_powers(diagram.free_loops)[diagram.free_loops - 1])
    ends = [(ci, s) for ci in range(n) for s in range(4)]
    idx = {e: i for i, e in enumerate(ends)}
    arc_pairs = []
    for ends2 in diagram._occ.values():
        arc_pairs.append((idx[ends2[0]], idx[ends2[1]]))
    deltas = _bracket_delta_powers(2 * n + diagram.free_loops + 2)
    total: dict[int, int] = {}
    for state in range(1 << n):
        parent = list(range(4 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(a, b):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                return 1
            return 0

        merges = 0
        for a, b in arc_pairs:
            merges += union(a, b)
        exp = 0
        for ci in range(n):
            base = 4 * ci
            if (state >> ci) & 1:  # A-smoothing
                exp += 1
                merges += union(base + 0, base + 1)
                merges += union(base + 2, base + 3)
            else:
                exp -= 1
                merges += union(base + 0, base + 3)
                merges += union(base + 1, base + 2)
        # the glue graph on 4n ends is 2-regular: every component is a circle
        loops = 4 * n - merges + diagram.free_loops
        for e, c in deltas[loops - 1].items():
            key = e + exp
            total[key] = total.get(key, 0) + c
    return {e: c for e, c in total.items() if c}


def jones_via_bracket(diagram: LinkDiagram, budget: int = 16) -> LaurentPolynomial:
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

@dataclass
class _SeifertStructure:
    circles: list[list[int]]            # arcs per circle, in traced order
    circle_of_arc: dict[int, int]
    corner_order: list[list[int]]       # crossings per circle, traced cyclic order
    edges: list[tuple[int, int]]        # per crossing: the two circles through it


def seifert_structure(d: LinkDiagram) -> _SeifertStructure:
    """Trace the oriented smoothing of every crossing into Seifert circles."""
    # smoothing partners: positive joins (0,1),(3,2); negative (0,3),(1,2)
    out_slot: dict[End, int] = {}
    for ci in range(d.n):
        if d.sign(ci) == 1:
            out_slot[(ci, 0)] = 1
            out_slot[(ci, 3)] = 2
        else:
            out_slot[(ci, 0)] = 3
            out_slot[(ci, 1)] = 2
    heads = {}
    for lab, ends in d._occ.items():
        heads[lab] = next(e for e in ends if d._is_in[e])
    circles: list[list[int]] = []
    corner: list[list[int]] = []
    circle_of: dict[int, int] = {}
    for lab in sorted(heads):
        if lab in circle_of:
            continue
        arcs = []
        corners = []
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
        # circle through the other smoothing strand
        other_in = 3 if d.sign(ci) == 1 else 1
        w = circle_of[d.crossings[ci][other_in]]
        if u != v:
            raise AssertionError("smoothing strand changed circles")
        if u == w:
            raise AssertionError("both smoothing strands on one circle")
        edges.append((u, w))
    return _SeifertStructure(circles, circle_of, corner, edges)


def _chain_order(struct: _SeifertStructure) -> list[int] | None:
    """Vertices of the Seifert graph as a path, or None if not a chain."""
    s = len(struct.circles)
    if s == 0:
        return None
    adj: dict[int, set[int]] = {i: set() for i in range(s)}
    for u, v in struct.edges:
        adj[u].add(v)
        adj[v].add(u)
    if s == 1:
        return [0] if not struct.edges else None
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


def _cyclic_equal(a: list, b: list) -> bool:
    if len(a) != len(b):
        return False
    if not a:
        return True
    n = len(a)
    for shift in range(n):
        if all(a[(i + shift) % n] == b[i] for i in range(n)):
            return True
    return False


def _braided_data(d: LinkDiagram, struct: _SeifertStructure):
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
        upper_sub = [ci for ci in struct.corner_order[u] if _joins(struct, ci, u, v)]
        lower_sub = [ci for ci in struct.corner_order[v] if _joins(struct, ci, u, v)]
        if not upper_sub or not _cyclic_equal(upper_sub, lower_sub):
            return None
        annuli.append(upper_sub)
    return chain, annuli, pos_in_circle


def _joins(struct: _SeifertStructure, ci: int, u: int, v: int) -> bool:
    e = struct.edges[ci]
    return e in ((u, v), (v, u))


def seifert_matrix_from_diagram(d: LinkDiagram) -> SeifertData:
    """A Seifert matrix of the diagram's link via its disc-and-band surface.

    Requires a connected diagram.  If the Seifert circles are not already a
    coherently nested chain, the diagram is first rewired by untangling
    moves (each one an oriented second Reidemeister move across a face whose
    two circles run incoherently), which preserve the link type.

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
    for _ in range(4 * d.n + 10 * len(seifert_structure(d).circles) ** 2 + 40):
        struct = seifert_structure(work)
        data = _braided_data(work, struct)
        if data is not None:
            return _seifert_matrix_braided(work, struct, data)
        work = _vogel_move(work, struct)
    raise AssertionError("untangling did not reach braided form")


def _seifert_matrix_braided(d: LinkDiagram, struct, data) -> SeifertData:
    chain, annuli, pos = data
    loops: list[tuple[int, int]] = []  # (annulus index, k)
    for ai, bands in enumerate(annuli):
        loops.extend((ai, k) for k in range(len(bands) - 1))
    nb = len(loops)
    V = [[0] * nb for _ in range(nb)]
    eps = d.signs

    def strictly_inside(circle: int, x: int, start: int, end: int) -> bool:
        # is corner x strictly inside the forward arc (start -> end) on circle?
        order = pos[circle]
        px, ps, pe = order[x], order[start], order[end]
        m = len(order)
        if ps == pe:
            return False
        span = (pe - ps) % m
        off = (px - ps) % m
        return 0 < off < span

    def ccw_pattern(circle: int, a1: int, b1: int, a2: int, b2: int) -> bool:
        # do corners appear in cyclic traced order a1, b1, a2, b2?
        order = pos[circle]
        m = len(order)
        pa, qa = order[a1], order[a2]
        rb, sb = order[b1], order[b2]
        return ((rb - pa) % m) < ((qa - pa) % m) < ((sb - pa) % m)

    for r, (ai, k) in enumerate(loops):
        bands = annuli[ai]
        bk, bk1 = bands[k], bands[k + 1]
        V[r][r] = -(eps[bk] + eps[bk1]) // 2
        # consecutive loops in the same annulus share band bk1
        for t, (aj, l) in enumerate(loops):
            if aj == ai and l == k + 1:
                shared = bands[k + 1]
                V[r][t] = (eps[shared] + 1) // 2
                V[t][r] = (eps[shared] - 1) // 2
        # adjacent annulus below (chords meet on the shared circle)
        for t, (aj, l) in enumerate(loops):
            if aj != ai + 1:
                continue
            shared_circle = chain[ai + 1]
            y1, y2 = annuli[aj][l], annuli[aj][l + 1]
            x1, x2 = bk, bk1
            inter_1 = strictly_inside(shared_circle, y1, x1, x2)
            inter_2 = strictly_inside(shared_circle, y2, x1, x2)
            cc = 0
            if inter_1 != inter_2:
                cc = 1 if ccw_pattern(shared_circle, y1, x2, y2, x1) else -1
            c2 = 0
            if strictly_inside(shared_circle, x2, y1, y2):
                c2 += 1
            if strictly_inside(shared_circle, x1, y1, y2):
                c2 -= 1
            if (cc + c2) % 2 or (-cc + c2) % 2:
                raise AssertionError("non-integral linking count")
            V[r][t] = (cc + c2) // 2
            V[t][r] = (-cc + c2) // 2
    return SeifertData(V)


# ----------------------------------------------------------------- Vogel move

def _arc_face_incidences(d: LinkDiagram):
    """For each arc: the two flanking faces with traversal senses.

    The face walking the arc along its link orientation is the orbit of the
    dart one slot clockwise of the arc's tail; the opposite side is the
    orbit one slot clockwise of its head.
    """
    faces = face_orbits(d.crossings)
    face_of_quadrant: dict[End, int] = {}
    for fi, orbit in enumerate(faces):
        for e in orbit:
            face_of_quadrant[e] = fi
    incidences: dict[int, list[tuple[int, int]]] = {}
    for lab, ends in d._occ.items():
        tail = next(e for e in ends if not d._is_in[e])
        head = next(e for e in ends if d._is_in[e])
        with_face = face_of_quadrant[(tail[0], (tail[1] - 1) % 4)]
        against_face = face_of_quadrant[(head[0], (head[1] - 1) % 4)]
        incidences[lab] = [(with_face, 1), (against_face, -1)]
    return incidences


def _vogel_move(d: LinkDiagram, struct: _SeifertStructure) -> LinkDiagram:
    """One untangling move: an oriented R2 across a face bordered by two
    different Seifert circles with equal boundary sense."""
    inc = _arc_face_incidences(d)
    by_face: dict[int, list[tuple[int, int, int]]] = {}
    for lab in sorted(inc):
        for face, sense in inc[lab]:
            by_face.setdefault(face, []).append((lab, sense, struct.circle_of_arc[lab]))
    for face in sorted(by_face):
        items = by_face[face]
        for i in range(len(items)):
            for j in range(i + 1, len(items)):
                l1, s1, c1 = items[i]
                l2, s2, c2 = items[j]
                if c1 != c2 and s1 == s2 and l1 != l2:
                    return _apply_vogel_r2(d, l1, l2)
    raise AssertionError("no untangling move available on a non-braided diagram")


def _apply_vogel_r2(d: LinkDiagram, alpha: int, beta: int) -> LinkDiagram:
    """Slide arc alpha across the shared face over arc beta (oriented R2).

    The two candidate chiralities differ by which crossing comes first along
    beta; exactly one of them closes up into a planar diagram, which the
    Euler count detects.
    """
    fresh = max(d.arcs) + 1
    a1, a2, a3 = alpha, fresh, fresh + 1
    b1, b2, b3 = beta, fresh + 2, fresh + 3

    def rewire(old: int, repl_tail: int, repl_head: int, crossings):
        out = []
        for ci, tup in enumerate(crossings):
            row = list(tup)
            for s in range(4):
                if row[s] == old:
                    row[s] = repl_head if d._is_in[(ci, s)] else repl_tail
            out.append(tuple(row))
        return out

    base = rewire(alpha, a1, a3, d.crossings)
    base = rewire(beta, b1, b3, base)

    for flip in (1, -1):
        x1 = make_crossing(b2, b3, a1, a2, flip)
        x2 = make_crossing(b1, b2, a2, a3, -flip)
        crossings = tuple(base) + (x1, x2)
        if euler_ok(crossings):
            out = LinkDiagram(crossings, d.free_loops)
            return out
    raise AssertionError("neither R2 chirality is planar")


# ------------------------------------------------------------------- Goeritz

def checkerboard_colors(d: LinkDiagram) -> dict[End, int]:
    """2-color the faces; returns quadrant -> color (0/1).

    Faces adjacent across an arc get different colors; at every crossing the
    four quadrant colors alternate.
    """
    faces = face_orbits(d.crossings)
    fq: dict[End, int] = {}
    for fi, orbit in enumerate(faces):
        for e in orbit:
            fq[e] = fi
    adj: dict[int, set[int]] = {}
    for lab, ends in d._occ.items():
        tail = next(e for e in ends if not d._is_in[e])
        head = next(e for e in ends if d._is_in[e])
        f1 = fq[(tail[0], (tail[1] - 1) % 4)]
        f2 = fq[(head[0], (head[1] - 1) % 4)]
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
    for fi in range(len(faces)):
        color.setdefault(fi, 0)
    out = {e: color[fq[e]] for e in fq}
    for ci in range(d.n):
        cs = [out[(ci, s)] for s in range(4)]
        if cs[0] != cs[2] or cs[1] != cs[3] or cs[0] == cs[1]:
            raise AssertionError("quadrant colors do not alternate")
    return out


def goeritz_from_diagram(d: LinkDiagram, shade: int = 1) -> SpanningSurfaceData:
    """Goeritz matrix of the checkerboard surface of the given shade.

    The matrix is indexed by the shaded faces minus one dropped face; the
    crossing sign eta is +1 when the shaded quadrant pair is the one split
    off by rotating the under strand onto the over strand counterclockwise
    (slots (0,2) of the PD tuple), -1 for the other pair.  The convention is
    pinned by the singular-determinant agreement with the Seifert route,
    which the tests check for both shades.  mu is the component count
    correction: link components minus surface components plus one.
    """
    if not d.is_connected():
        raise DiagramError("diagram must be connected")
    if d.n == 0:
        raise DiagramError("need at least one crossing for a Goeritz matrix")
    colors = checkerboard_colors(d)
    faces = face_orbits(d.crossings)
    fq: dict[End, int] = {}
    for fi, orbit in enumerate(faces):
        for e in orbit:
            fq[e] = fi
    shaded = sorted({fq[e] for e in fq if colors[e] == shade})
    findex = {f: i for i, f in enumerate(shaded)}
    m = len(shaded)
    full = [[0] * m for _ in range(m)]
    surf_parent = {f: f for f in shaded}

    def sfind(x):
        while surf_parent[x] != x:
            surf_parent[x] = surf_parent[surf_parent[x]]
            x = surf_parent[x]
        return x

    for ci in range(d.n):
        if colors[(ci, 0)] == shade:
            quads = ((ci, 0), (ci, 2))
            eta = 1
        else:
            quads = ((ci, 1), (ci, 3))
            eta = -1
        f1, f2 = fq[quads[0]], fq[quads[1]]
        surf_parent[sfind(f1)] = sfind(f2)
        i, j = findex[f1], findex[f2]
        if i != j:
            full[i][j] -= eta
            full[j][i] -= eta
            full[i][i] += eta
            full[j][j] += eta
        # a crossing joining a shaded face to itself contributes nothing
    comps = len({sfind(f) for f in shaded})
    mu = d.component_count - comps + 1
    drop = 0
    keep = [i for i in range(m) if i != drop]
    R = IntegerSymmetricMatrix([[full[i][j] for j in keep] for i in keep])
    return SpanningSurfaceData(R, mu)


# ------------------------------------------------------------------ Q by skein

_UNORIENTED_BUDGET = 12


def _q_unknot_power(k: int) -> LaurentPolynomial:
    """(2 z^-1 - 1)^k, the Q value of a (k+1)-component unlink."""
    out = LaurentPolynomial.one()
    base = LaurentPolynomial({-2: 2, 0: -1})
    for _ in range(k):
        out = out * base
    return out


def _smooth_unoriented(crossings: list[tuple], free: int, ci: int, mode: int):
    """Remove crossing ci, joining ends (0,1),(2,3) for mode 0 else (0,3),(1,2).

    Arcs fused at the crossing are merged by union-find on labels; a join
    whose two labels already lie in one class closes a free circle (this
    covers kinks, where a label appears twice in the removed tuple).
    """
    tup = crossings[ci]
    joins = [(0, 1), (2, 3)] if mode == 0 else [(0, 3), (1, 2)]
    rest = [t for k, t in enumerate(crossings) if k != ci]
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    closed = 0
    for s1, s2 in joins:
        r1, r2 = find(tup[s1]), find(tup[s2])
        if r1 == r2:
            closed += 1
        else:
            parent[r1] = r2
    out = [tuple(find(lab) for lab in t) for t in rest]
    return out, free + closed


class _ShadowWalker:
    """Orientation-free traversal of a PD shadow (straight through crossings).

    The walk is determined by arc labels alone, never by slot numbers, so it
    is invariant under switching a crossing (which rotates its tuple).  That
    makes 'distance to the descending template' a sound induction measure.
    """

    def __init__(self, crossings):
        self.crossings = crossings
        self.occ: dict[int, list[End]] = {}
        for ci, t in enumerate(crossings):
            for s, lab in enumerate(t):
                self.occ.setdefault(lab, []).append((ci, s))

    def partner(self, e: End) -> End:
        a, b = self.occ[self.crossings[e[0]][e[1]]]
        return b if e == a else a

    def _walk_from(self, arc: int, entry: End):
        """Events (crossing, entry slot) walking from one end of the arc."""
        events = []
        arcs = []
        e = entry
        cur = arc
        while True:
            arcs.append(cur)
            ci, s = e
            events.append((ci, s))
            exit_end = (ci, (s + 2) % 4)
            nxt = self.crossings[ci][(s + 2) % 4]
            e = self.partner(exit_end)
            cur = nxt
            if cur == arc and e == entry:
                break
        return events, arcs

    def components(self):
        """Components as lists of (crossing, entry slot) events, in the
        direction giving the lexicographically smaller arc sequence."""
        comps = []
        seen: set[int] = set()
        for start in sorted(self.occ):
            if start in seen:
                continue
            e1, e2 = self.occ[start]
            ev1, arcs1 = self._walk_from(start, e1)
            ev2, arcs2 = self._walk_from(start, e2)
            events, arcs = (ev1, arcs1) if arcs1 <= arcs2 else (ev2, arcs2)
            seen.update(arcs)
            comps.append(events)
        return comps


def _q_canonical_key(crossings, free: int):
    if not crossings:
        return ("unlink", free)
    walker = _ShadowWalker(crossings)
    events = []
    for comp in walker.components():
        events.extend(comp)
    rename: dict[int, int] = {}
    seq = []
    for ci, s in events:
        lab = crossings[ci][s]
        if lab not in rename:
            rename[lab] = len(rename)
    for t in crossings:
        seq.append(tuple(rename[lab] for lab in t))
    return (tuple(sorted(seq)), free)


def q_via_skein(d: LinkDiagram, budget: int = _UNORIENTED_BUDGET) -> LaurentPolynomial:
    """Q polynomial by four-term skein recursion toward descending diagrams.

    Q(L+) + Q(L-) = z (Q(L0) + Q(Loo)) with Q(unknot) = 1.  Recursion: walk
    the shadow; the first crossing whose over strand differs from the
    first-visit-on-top template is switched (distance to descending drops by
    one) or smoothed both ways (crossing count drops), so the recursion
    terminates; descending stacked diagrams are unlinks.
    """
    if d.n > budget:
        raise DiagramError(f"crossing budget exceeded: {d.n} > {budget}")
    z = LaurentPolynomial({2: 1})
    memo: dict = {}

    def affine(crossings: list[tuple], free: int) -> LaurentPolynomial:
        key = _q_canonical_key(tuple(crossings), free)
        hit = memo.get(key)
        if hit is not None:
            return hit
        if not crossings:
            val = _q_unknot_power(free - 1) if free else LaurentPolynomial.one()
            memo[key] = val
            return val
        walker = _ShadowWalker(crossings)
        seen: set[int] = set()
        mismatch = None
        for comp in walker.components():
            for ci, s in comp:
                if ci in seen:
                    continue
                seen.add(ci)
                if s in (1, 3):  # walked in on the over strand: already on top
                    continue
                mismatch = ci
                break
            if mismatch is not None:
                break
        ncomp = len(walker.components()) + free
        if mismatch is None:
            val = _q_unknot_power(ncomp - 1)
            memo[key] = val
            return val
        ci = mismatch
        switched = list(crossings)
        a, b, c, cc = switched[ci]
        switched[ci] = (b, c, cc, a)
        s0, f0 = _smooth_unoriented(crossings, free, ci, 0)
        s1, f1 = _smooth_unoriented(crossings, free, ci, 1)
        val = z * (affine(s0, f0) + affine(s1, f1)) - affine(switched, free)
        memo[key] = val
        return val

    return affine(list(d.crossings), d.free_loops)


def pd_text(d: LinkDiagram) -> str:
    """Serialize back to PD text (inverse of parse_pd up to formatting)."""
    parts = [f"X({a},{b},{c},{e})" for a, b, c, e in d.crossings]
    parts.extend(["O"] * d.free_loops)
    return " ".join(parts)


# --------------------------------------------------------------- constructions

def normalize_pd(tuples: list[tuple[int, int, int, int]]) -> LinkDiagram:
    """Build a diagram from shadow tuples whose under strand sits on slots
    (0, 2) but whose slot 0 need not be the incoming end.

    Orientations are solved by parity propagation (free choices are made
    deterministically), then each tuple is rotated by two if slot 0 came out
    as the outgoing under end.
    """
    occ: dict[int, list[End]] = {}
    for ci, t in enumerate(tuples):
        for s, lab in enumerate(t):
            occ.setdefault(lab, []).append((ci, s))
    for lab, ends in occ.items():
        if len(ends) != 2:
            raise DiagramError(f"arc {lab} appears {len(ends)} times")

    def partner(e: End) -> End:
        a, b = occ[tuples[e[0]][e[1]]]
        return b if e == a else a

    is_in: dict[End, bool] = {}
    all_ends = [(ci, s) for ci in range(len(tuples)) for s in range(4)]
    for start in all_ends:
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
    out = []
    for ci, t in enumerate(tuples):
        out.append(t if is_in[(ci, 0)] else (t[2], t[3], t[0], t[1]))
    return LinkDiagram(tuple(out))


def pretzel_pd(*twists: int) -> LinkDiagram:
    """Standard pretzel diagram P(a_1, ..., a_k): vertical twist columns.

    A positive entry gives columns whose crossings put the slot-(1,3)
    diagonal on top.  Entries must be nonzero.
    """
    if len(twists) < 2 or any(a == 0 for a in twists):
        raise ValueError("need at least two nonzero twist counts")
    k = len(twists)
    arc = 0

    def fresh():
        nonlocal arc
        arc += 1
        return arc

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
    arc = 0

    def fresh():
        nonlocal arc
        arc += 1
        return arc

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
    # closure: fuse each final arc with the initial arc at its position
    rename = {}

    def find(x):
        while x in rename:
            x = rename[x]
        return x

    for pos in range(strands):
        a, b = find(current[pos]), find(first[pos])
        if a != b:
            rename[a] = b
    fused = [tuple(find(x) for x in t) for t in crossings]
    return LinkDiagram(tuple(fused))


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
    """Mirror image: every crossing switched (tuple rotated by one)."""
    out = []
    for a, b, c, cc in d.crossings:
        out.append((b, c, cc, a))
    return LinkDiagram(tuple(out), d.free_loops)


def r1_kink(d: LinkDiagram, arc: int, positive: bool) -> LinkDiagram:
    """Insert a first Reidemeister kink on the given arc."""
    fresh = max(d.arcs) + 1
    mid, loop = fresh, fresh + 1
    out = []
    for ci, tup in enumerate(d.crossings):
        row = list(tup)
        for s in range(4):
            if row[s] == arc and d._is_in[(ci, s)]:
                row[s] = mid
        out.append(tuple(row))
    if positive:
        kink = make_crossing(arc, loop, loop, mid, 1)
    else:
        kink = make_crossing(loop, mid, arc, loop, -1)
    return LinkDiagram(tuple(out) + (kink,), d.free_loops)


def r2_slide(d: LinkDiagram, arc_over: int, arc_under: int) -> LinkDiagram:
    """Insert a second Reidemeister pair sliding arc_over across arc_under.

    Valid diagram only when the arcs cobound a face; the planar chirality is
    picked by the Euler check exactly as in the untangling move.
    """
    if arc_over == arc_under:
        raise DiagramError("need two distinct arcs")
    fresh = max(d.arcs) + 1
    a1, a2, a3 = arc_over, fresh, fresh + 1
    b1, b2, b3 = arc_under, fresh + 2, fresh + 3

    def rewire(old, repl_tail, repl_head, crossings):
        out = []
        for ci, tup in enumerate(crossings):
            row = list(tup)
            for s in range(4):
                if row[s] == old:
                    row[s] = repl_head if d._is_in[(ci, s)] else repl_tail
            out.append(tuple(row))
        return out

    base = rewire(arc_over, a1, a3, d.crossings)
    base = rewire(arc_under, b1, b3, base)
    for flip in (1, -1):
        for border in ((b2, b3, b1, b2), (b1, b2, b2, b3)):
            u1_in, u1_out, u2_in, u2_out = border
            x1 = make_crossing(u1_in, u1_out, a1, a2, flip)
            x2 = make_crossing(u2_in, u2_out, a2, a3, -flip)
            crossings = tuple(base) + (x1, x2)
            try:
                cand = LinkDiagram(crossings, d.free_loops)
            except DiagramError:
                continue
            if euler_ok(crossings):
                return cand
    raise DiagramError("arcs do not cobound a face")
