"""Random grid diagrams: a seeded family that is neither a braid closure
nor a pretzel.

Every link has a grid diagram (Cromwell, Topology Appl. 64 (1995)): two
permutations of {0, ..., n-1} put one X and one O in each column and each
row, never in one cell; segments join the X and the O of each column and
of each row, and the vertical segments cross over the horizontal ones.
Random pairs give diagrams whose Vogel untangling is not the braided
shortcut and that are not all twist regions.  On them the Vogel matrix and
both Goeritz shades must agree on every per-prime fact, and the bracket
and the skein on the closed forms.
"""

import random

from singdet.diagrams import (
    goeritz_from_diagram,
    jones_via_bracket,
    normalize_pd,
    q_via_skein,
    seifert_matrix_from_diagram,
)
from singdet.evaluate import jones_zeta6_closed_form, q_at_golden_link
from singdet.exactlinalg import det_exact, det_of
from singdet.linkform import wall_of
from singdet.rings import HALFPOWER
from singdet.seifert import d_p_of, delta_p, mu_of, signature


def grid_pd(xs, os):
    """The diagram of the grid with column c's X at row xs[c] and its O at
    row os[c], or None when a component crosses nothing or the diagram is
    split.  Each component is walked X to O up its column and O to X along
    its row; the edges between crossings get fresh labels, and a crossing
    is written (W, S, E, N), the horizontal under strand on slots 0 and 2,
    for `normalize_pd` to orient."""
    n = len(xs)
    x_col = {r: c for c, r in enumerate(xs)}
    o_col = {r: c for c, r in enumerate(os)}

    def crosses(c, r):
        return (min(xs[c], os[c]) < r < max(xs[c], os[c])
                and min(x_col[r], o_col[r]) < c < max(x_col[r], o_col[r]))

    sides = {}  # (column, row) of a crossing -> side -> label
    label = 0
    walked = set()
    for start in range(n):
        if start in walked:
            continue
        passes = []  # (crossing, side entered, side left)
        c = start
        while c not in walked:
            walked.add(c)
            r0, r1 = xs[c], os[c]
            up = r1 > r0
            passes += [((c, r), "SN"[not up], "NS"[not up])
                       for r in (range(r0 + 1, r1) if up else range(r0 - 1, r1, -1)) if crosses(c, r)]
            c1 = x_col[r1]
            east = c1 > c
            passes += [((k, r1), "WE"[not east], "EW"[not east])
                       for k in (range(c + 1, c1) if east else range(c - 1, c1, -1)) if crosses(k, r1)]
            c = c1
        if not passes:
            return None
        for i, (x, entered, left) in enumerate(passes):
            sides.setdefault(x, {})[entered] = label + (i - 1) % len(passes)
            sides[x][left] = label + i
        label += len(passes)
    d = normalize_pd([(s["W"], s["S"], s["E"], s["N"]) for _, s in sorted(sides.items())])
    return d if d.is_connected() else None


def grid_diagrams(count=300, seed=6, sizes=(5, 11), keep=lambda d: True):
    """count connected grid diagrams that keep accepts, from grids of
    sizes[0] to sizes[1]."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(*sizes)
        xs, os = rng.sample(range(n), n), rng.sample(range(n), n)
        if all(x != o for x, o in zip(xs, os)):
            d = grid_pd(xs, os)
            if d is not None and keep(d):
                out.append(d)
    return out


def grid_knots(count, seed, sizes, crossings):
    """count grid knots of crossings[0] to crossings[1] crossings."""
    lo, hi = crossings
    return grid_diagrams(count, seed, sizes, lambda d: d.component_count == 1 and lo <= d.n <= hi)


def test_grid_pd_builds_the_trefoil_and_the_hopf_link():
    trefoil = grid_pd([0, 1, 2, 3, 4], [2, 3, 4, 0, 1])
    M = seifert_matrix_from_diagram(trefoil).M
    assert (trefoil.n, trefoil.component_count, abs(det_exact(M.entries))) == (3, 1, 3)
    hopf = grid_pd([0, 1, 2, 3], [2, 3, 0, 1])
    assert (hopf.n, hopf.component_count) == (2, 2)
    assert grid_pd([0, 1], [1, 0]) is None  # the unknot crosses nothing


def test_vogel_and_both_goeritz_shades_agree_on_grid_diagrams():
    knots = knotted = links = singular = wall = q_checked = 0
    for d in grid_diagrams():
        forms = (seifert_matrix_from_diagram(d).M, goeritz_from_diagram(d, 0), goeritz_from_diagram(d, 1))
        facts = [(abs(det_of(M)), signature(M), mu_of(M), [(d_p_of(M, p), delta_p(M, p)) for p in (3, 5, 7)])
                 for M in forms]
        assert facts[0] == facts[1] == facts[2], d.crossings
        det = facts[0][0]
        assert abs(det_exact(forms[0].entries)) == det, d.crossings
        singular += det == 0
        if det % 2:
            assert wall_of(forms[0]) == wall_of(forms[1]) == wall_of(forms[2]), d.crossings
            wall += 1
        if d.component_count == 1:
            v = jones_via_bracket(d, budget=d.n).eval_root_of_unity(HALFPOWER["zeta6"])
            assert all(v == jones_zeta6_closed_form(M) for M in forms), d.crossings
            knots += 1
            knotted += det > 1
        else:
            links += 1
        if d.n <= 12:
            q = q_via_skein(d).eval_golden_reciprocal()
            assert all(q == q_at_golden_link(M) for M in forms), d.crossings
            q_checked += 1
    # small grids give mostly unknots; the links and the singular forms
    # carry most of the content
    assert knots >= 100 and knotted >= 5 and links >= 150 and singular >= 100
    assert wall >= 120 and q_checked >= 250


def test_vogel_untangles_large_grid_knots_to_the_goeritz_facts():
    """Grid knots of 20 to 55 crossings need Vogel moves on Seifert circles
    that no braid or twist region lines up: the Vogel matrix grows to 40 to
    202 rows, and must still agree with both Goeritz shades."""
    sizes, nontrivial = [], 0
    for d in grid_knots(16, 16, (16, 22), (20, 60)):
        forms = (seifert_matrix_from_diagram(d).M, goeritz_from_diagram(d, 0), goeritz_from_diagram(d, 1))
        facts = [(abs(det_of(M)), signature(M), mu_of(M), [(d_p_of(M, p), delta_p(M, p)) for p in (3, 5, 7)])
                 for M in forms]
        assert facts[0] == facts[1] == facts[2], d.crossings
        det, sigma = facts[0][:2]
        if det % 2:
            assert wall_of(forms[0]) == wall_of(forms[1]) == wall_of(forms[2]), d.crossings
        sizes.append(forms[0].n)
        nontrivial += det != 1 or sigma != 0
    assert min(sizes) == 40 and max(sizes) == 202 and nontrivial == 10
