"""d_p and the Alexander polynomial from Fox calculus, routes that build
no surface.

The Fox p-colorings of a diagram form a space of dimension
1 + dim H_1(Sigma; F_p) over F_p, Sigma the double branched cover
(Przytycki 1998).  `fox_coloring_dimension` solves the coloring equations
on the PD labels alone; the Vogel matrix and both Goeritz shades each
present H_1(Sigma), so all three give d_p = that dimension less one, on
knots and links alike.

For a knot, a first minor of the Alexander matrix of the Wirtinger
presentation is +-t^k Delta(t) (Crowell-Fox 1963).  `fox_alexander_poly`
computes it by Fraction elimination, so it shares no kernel with
`alexander_poly`, which reads Delta off one `det_exact` of the Seifert
matrix.
"""

import random

import singdet.exactlinalg as exactlinalg
from singdet.corpus import load_corpus
from singdet.diagrams import braid_closure_pd, goeritz_from_diagram, pretzel_pd, seifert_matrix_from_diagram
from singdet.evaluate import alexander_poly
from singdet.seifert import d_p_of

from oracles import fox_alexander_poly, fox_coloring_dimension
from test_grid_diagrams import grid_diagrams

PRIMES = (3, 5, 7, 11, 13)


def fox_diagrams():
    """400 connected diagrams: the corpus's of at most 16 crossings, seeded
    closures of 3 and 4 strands and 4 to 12 letters, 100 pretzels of three
    columns of at most 5 half-twists, and 100 grid diagrams."""
    corpus = [e.diagram for e in load_corpus().values()
              if e.diagram is not None and 0 < e.diagram.n <= 16 and e.diagram.is_connected()]
    rng = random.Random(12)
    closures = []
    while len(closures) < 170:
        strands = rng.randint(3, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(4, 12))]
        if {abs(x) for x in word} == set(range(1, strands)):
            closures.append(braid_closure_pd(word, strands))
    pretzels = [pretzel_pd(*[rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(3)]) for _ in range(100)]
    return corpus + closures + pretzels + grid_diagrams(100, 11, (5, 9))


def test_fox_colorings_count_the_trefoil_and_the_figure_eight():
    corpus = load_corpus()
    # 3_1 has 3 trivial and 6 proper 3-colorings; 4_1 has 5 proper 5-colorings
    assert [fox_coloring_dimension(corpus["3_1"].diagram, p) for p in PRIMES] == [2, 1, 1, 1, 1]
    assert [fox_coloring_dimension(corpus["4_1"].diagram, p) for p in PRIMES] == [1, 2, 1, 1, 1]


def test_fox_colorings_give_d_p_of_the_vogel_matrix_and_both_goeritz_shades():
    diagrams = fox_diagrams()
    agree = nontrivial = links = 0
    for d in diagrams:
        forms = (seifert_matrix_from_diagram(d).M, goeritz_from_diagram(d, 0), goeritz_from_diagram(d, 1))
        links += d.component_count > 1
        for p in PRIMES:
            dim = fox_coloring_dimension(d, p)
            assert all(dim == 1 + d_p_of(M, p) for M in forms), (d.crossings, p)
            agree += 1
            nontrivial += dim > 1
    assert (len(diagrams), agree, nontrivial, links) == (400, 2000, 530, 212)


def _up_to_units(coeffs):
    """A coefficient list, lowest first, with its zero ends cut and its
    lowest coefficient made positive: the class of the polynomial up to
    +-t^k."""
    nonzero = [i for i, c in enumerate(coeffs) if c]
    cut = coeffs[nonzero[0]:nonzero[-1] + 1]
    return [c if cut[0] > 0 else -c for c in cut]


def _dense(poly):
    """The coefficients of a Laurent polynomial in t, lowest first."""
    low = poly.coeffs[0][0]
    out = [0] * ((poly.coeffs[-1][0] - low) // 2 + 1)
    for e2, c in poly.coeffs:
        out[(e2 - low) // 2] = c
    return out


def fox_knots():
    """The corpus knots with a diagram (with the Seifert matrix bundled
    beside p777m and p5_17_5, whose Vogel matrices of 182 and 314 rows take
    seconds), 20 pretzel knots of three odd columns of at most 5
    half-twists, and 20 knotted closures of 3 and 4 strands and 4 to 12
    letters, each with the Seifert matrix to check against."""
    corpus = [(e.diagram, e.seifert if e.diagram.n > 16 else seifert_matrix_from_diagram(e.diagram))
              for _, e in sorted(load_corpus().items())
              if e.diagram is not None and e.diagram.n and e.diagram.component_count == 1]
    rng = random.Random(47)
    pretzels = [pretzel_pd(*[rng.choice((1, -1)) * rng.choice((1, 3, 5)) for _ in range(3)]) for _ in range(20)]
    closures = []
    while len(closures) < 20:
        strands = rng.randint(3, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(4, 12))]
        if {abs(x) for x in word} == set(range(1, strands)):
            d = braid_closure_pd(word, strands)
            if d.component_count == 1:
                closures.append(d)
    return corpus + [(d, seifert_matrix_from_diagram(d)) for d in pretzels + closures]


def test_the_wirtinger_minor_is_the_alexander_polynomial_of_the_seifert_matrix(monkeypatch):
    knots = fox_knots()

    def forbidden(*args):
        raise AssertionError("the Fox route must not reach det_exact")

    monkeypatch.setattr(exactlinalg, "_bareiss_det", forbidden)
    fox = [_up_to_units(fox_alexander_poly(d)) for d, _ in knots]
    monkeypatch.undo()
    nontrivial = 0
    for (d, A), got in zip(knots, fox):
        assert got == _up_to_units(_dense(alexander_poly(A))), d.crossings
        nontrivial += got != [1]
    assert (len(knots), nontrivial, max(d.n for d, _ in knots)) == (67, 50, 27)
