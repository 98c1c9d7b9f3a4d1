"""`mirror` switches every crossing and keeps orientations, on diagrams with
crossings of both signs too.

The mirror image has V(t^-1) for its Jones polynomial, so the conjugate
V(zeta6), the negated writhe and signature, the same Q polynomial and the
same d_p.  Its linking form is the negated one, so at p = 3 (mod 4), where
-1 is a non-residue, every Wall summand swaps A and B; the Seifert route
and both Goeritz presentations see the same swap.
"""

import pytest

from singdet.corpus import load_corpus
from singdet.diagrams import (
    Q_BUDGET,
    goeritz_from_diagram,
    jones_via_bracket,
    mirror,
    q_via_skein,
    seifert_matrix_from_diagram,
)
from singdet.exactlinalg import det_exact
from singdet.linkform import WallDecomposition, wall_of
from singdet.rings import HALFPOWER, LaurentPolynomial
from singdet.seifert import d_p_of, signature

from test_computed_once import PRIMES



def corpus_diagrams(max_crossings=14):
    return {name: e.diagram for name, e in sorted(load_corpus().items())
            if e.diagram is not None and 0 < e.diagram.n <= max_crossings}


def test_mirror_of_a_mixed_sign_diagram_is_a_valid_diagram():
    d = load_corpus()["4_1"].diagram
    assert set(d.signs) == {1, -1}
    m = mirror(d)
    assert m.signs == tuple(-s for s in d.signs)
    assert mirror(m).crossings == d.crossings


def test_mirror_identities_on_the_corpus():
    seen = skeined = 0
    for name, d in corpus_diagrams().items():
        m = mirror(d)
        assert m.writhe == -d.writhe, name
        assert m.component_count == d.component_count, name
        v, vm = jones_via_bracket(d), jones_via_bracket(m)
        assert vm == LaurentPolynomial({-e: c for e, c in v.coeffs}), name
        zeta6 = HALFPOWER["zeta6"]
        assert vm.eval_root_of_unity(zeta6) == v.eval_root_of_unity(zeta6).conj(), name
        if d.n <= Q_BUDGET:
            assert q_via_skein(m) == q_via_skein(d), name
            skeined += 1
        if d.is_connected():
            M, Mm = (seifert_matrix_from_diagram(x).M for x in (d, m))
            assert signature(Mm) == -signature(M), name
            assert abs(det_exact(Mm.entries)) == abs(det_exact(M.entries)), name
            assert [d_p_of(Mm, p) for p in PRIMES] == [d_p_of(M, p) for p in PRIMES], name
        seen += 1
    assert seen >= 30 and skeined == 30


def _walls(d):
    """Wall summands from the Seifert matrix and from both Goeritz matrices."""
    presentations = [seifert_matrix_from_diagram(d).M] + [goeritz_from_diagram(d, s) for s in (0, 1)]
    walls = {wall_of(P).summands for P in presentations}
    assert len(walls) == 1, walls
    return walls.pop()


@pytest.mark.parametrize("name, chiral", [("t2_7", True), ("p3_3_3", True), ("5_2", True), ("4_1", False)])
def test_mirror_swaps_wall_summands_at_primes_3_mod_4(name, chiral):
    d = load_corpus()[name].diagram
    wall, mirrored = _walls(d), _walls(mirror(d))
    swap = {"A": "B", "B": "A"}
    expected = WallDecomposition([(p, k, swap[t] if p % 4 == 3 else t) for p, k, t in wall])
    assert mirrored == expected.summands
    assert (mirrored != wall) == chiral
