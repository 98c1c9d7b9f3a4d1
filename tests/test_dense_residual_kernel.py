"""The dense F_p elimination on residual blocks of 15 rows and more.

`_unit_block_class_mod_p` runs `_eliminate_mod_p` on the residual block R
of a matrix's congruence core.  The corpus and the Vogel matrices leave R
of a dozen rows at most; the Goeritz matrices of both shades of 12 seeded
braid closures (4 to 6 strands, 40 to 90 crossings) leave 3 to 17.  On
each, d_p is checked against the rank of all of G over F_p, and delta_p
against the integer-lifted reduction of all of G (`delta_p` with an rng),
which shares no code with the kernel.
"""

import random

from singdet.diagrams import braid_closure_pd, goeritz_from_diagram
from singdet.exactlinalg import congruence_core, corank_mod_p
from singdet.reference import delta_p_reduced
from singdet.seifert import d_p_of, delta_p

from test_computed_once import PRIMES



def seeded_goeritz_matrices(count: int = 12):
    rng = random.Random(17)
    for _ in range(count):
        strands = rng.randint(4, 6)
        length = rng.randint(40, 90)
        word = [k * rng.choice((1, -1)) for k in range(1, strands)]
        word += [rng.randint(1, strands - 1) * rng.choice((1, -1)) for _ in range(length - len(word))]
        rng.shuffle(word)
        d = braid_closure_pd(word, strands)
        for shade in (0, 1):
            yield goeritz_from_diagram(d, shade)


def test_d_p_and_delta_p_of_large_residual_blocks_match_the_whole_matrix():
    sizes = []
    for G in seeded_goeritz_matrices():
        sizes.append(len(congruence_core(G).R))
        for p in PRIMES:
            assert d_p_of(G, p) == corank_mod_p(G.entries, p), (G.n, p)
            assert delta_p(G, p) == delta_p_reduced(G, p, random.Random(p)), (G.n, p)
    assert max(sizes) >= 15
