"""stoimenow_check decides the generator by Prop. 3.6 (the Lickorish sign
pattern), not by a search; the O(det) search stays as the oracle here."""

import random
from fractions import Fraction

import pytest

from singdet.cli import main
from singdet.exactlinalg import IntegerSymmetricMatrix, det_exact, smith_cokernel
from singdet.obstruct import lickorish_check, lickorish_generator_search, stoimenow_check

# Seifert matrix [[1, 1], [0, 2500004]]: det 10 000 015 = 5 * 2000003, past
# the search cutoff of 10^7.
BIG_SEIFERT_TEXT = "2\n1 1\n0 2500004\n"
BIG = IntegerSymmetricMatrix([[2, 1], [1, 5000008]])


def _seeded_knot(rng: random.Random, genus: int) -> IntegerSymmetricMatrix:
    """A + A^t for A = B + E, B symmetric, E a sum of g blocks [[0,1],[0,0]]:
    A - A^t is unimodular, so A is a knot's Seifert matrix and det is odd."""
    n = 2 * genus
    B = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            B[i][j] = B[j][i] = rng.randrange(-3, 4)
    for k in range(0, n, 2):
        B[k][k + 1] += 1
    return IntegerSymmetricMatrix([[B[i][j] + B[j][i] for j in range(n)] for i in range(n)])


def test_stoimenow_generator_matches_search_on_seeded_knots():
    rng = random.Random(404)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 20:
        M = _seeded_knot(rng, rng.choice((1, 2, 3)))
        det = abs(det_exact(M.entries))
        if det % 5 != 0 or det > 5000 or not smith_cokernel(M.entries).is_cyclic():
            continue
        exists = lickorish_generator_search(M, [Fraction(2, det), Fraction(-2, det)])
        assert stoimenow_check(M, lickorish_check(M)).generator_exists == exists, M.entries
        seen[exists] += 1


def test_stoimenow_past_the_search_cutoff(tmp_path, capsys):
    # pinned values: the search, run once with its cutoff raised, finds a
    # generator; the Lickorish pattern admits zeta = -1
    assert det_exact(BIG.entries) == 10_000_015
    rep = stoimenow_check(BIG, lickorish_check(BIG))
    assert rep.generator_exists and rep.agrees and str(rep.q_value) == "-sqrt5"
    path = tmp_path / "big.txt"
    path.write_text(BIG_SEIFERT_TEXT)
    assert main(["obstruct", str(path), "--format", "machine"]) == 0
    assert f"stoimenow={rep.text()}" in capsys.readouterr().out.splitlines()


def test_stoimenow_rejects_an_even_determinant():
    # Z/10 is cyclic with 5 | det, but H_1 of a knot has odd order
    with pytest.raises(ValueError, match="knots only"):
        M = IntegerSymmetricMatrix([[10]])
        stoimenow_check(M, lickorish_check(M))
