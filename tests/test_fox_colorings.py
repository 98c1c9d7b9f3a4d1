"""d_p from Fox colorings, a route that builds no surface.

The Fox p-colorings of a diagram form a space of dimension
1 + dim H_1(Sigma; F_p) over F_p, Sigma the double branched cover
(Przytycki 1998).  `fox_coloring_dimension` solves the coloring equations
on the PD labels alone; the Vogel matrix and both Goeritz shades each
present H_1(Sigma), so all three give d_p = that dimension less one, on
knots and links alike.
"""

import random

from singdet.corpus import load_corpus
from singdet.diagrams import braid_closure_pd, goeritz_from_diagram, pretzel_pd, seifert_matrix_from_diagram
from singdet.seifert import d_p_of

from oracles import fox_coloring_dimension
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
