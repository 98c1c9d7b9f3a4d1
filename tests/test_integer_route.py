"""The report path runs on integers only.

`signature` is a fraction-free symmetric elimination and `alexander_poly`
reads P(y) = det(A^t - yA) off one integer determinant at y = 2^b.  The
Fraction routes they replaced live on here as oracles: `_fraction_ldl_sign`
(the congruent LDL over Q) and `_lagrange_alexander` (P at y = 0..n,
interpolated by Lagrange over Q).
"""

import contextlib
import functools
import io
import os
import random
import sys
from fractions import Fraction

import pytest

import singdet.exactlinalg as exactlinalg
import singdet.reference as reference
import singdet.seifert as seifert
from singdet.cli import main
from singdet.corpus import load_corpus
from singdet.diagrams import goeritz_from_diagram, pretzel_pd, seifert_matrix_from_diagram
from singdet.evaluate import alexander_poly
from singdet.exactlinalg import IntegerSymmetricMatrix, SeifertData, det_exact, transpose
from singdet.reference import congruence, random_unimodular
from singdet.rings import LaurentPolynomial
from singdet.seifert import signature

from oracles import lagrange_coeffs
from test_cli_input import CORPUS_DIR



def _fraction_ldl_sign(M):
    """sign(M) by the exact congruent diagonalization over Q that
    `signature` used before, without the correction e."""
    n = M.n
    a = [[Fraction(x) for x in row] for row in M.entries]

    def shear(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        for r in a:
            r[dst] += c * r[src]

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in a:
            r[i], r[j] = r[j], r[i]

    sig = 0
    for k in range(n):
        if a[k][k] == 0:
            j = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
            if j is None:
                continue
            if a[j][j] != 0:
                swap(k, j)
            else:
                shear(j, k, 1)
        piv = a[k][k]
        sig += 1 if piv > 0 else -1
        for i in range(k + 1, n):
            if a[i][k] != 0:
                shear(k, i, -a[i][k] / piv)
    return sig


def _lagrange_alexander(A):
    n = A.n
    if n == 0:
        return LaurentPolynomial.one()
    at = transpose(A.A)
    pts = [(y, det_exact([[at[i][j] - y * A.A[i][j] for j in range(n)] for i in range(n)]))
           for y in range(n + 1)]
    return LaurentPolynomial({2 * j - n: c for j, c in enumerate(lagrange_coeffs(pts)) if c})


def _seeded_symmetric(count=360, seed=1968):
    """Symmetric matrices with n <= 8, odd diagonals allowed, in six kinds:
    plain, zero diagonal, singular (a zero block), rank-deficient (a Gram
    matrix of fewer vectors), block sums, and diagonal-only; each kind is
    scrambled by a unimodular congruence."""
    rng = random.Random(seed)
    out = []
    for k in range(count):
        kind = k % 6
        n = rng.randrange(1, 8 if kind in (2, 4) else 9)
        A = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
        rows = [[A[i][j] + A[j][i] - (i == j) * rng.randrange(0, 2) * A[i][i]
                 for j in range(n)] for i in range(n)]
        if kind == 1:
            for i in range(n):
                rows[i][i] = 0
        elif kind == 2:
            rows = [r + [0] for r in rows] + [[0] * (n + 1)]
        elif kind == 3:
            r = rng.randrange(0, n)
            V = [[rng.randrange(-2, 3) for _ in range(n)] for _ in range(r)]
            D = [rng.choice((-1, 1, 2)) for _ in range(r)]
            rows = [[sum(V[t][i] * D[t] * V[t][j] for t in range(r)) for j in range(n)]
                    for i in range(n)]
        elif kind == 4:
            m = rng.randrange(1, 9 - n)
            B = [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(m)]
            rows = IntegerSymmetricMatrix(rows).block_sum(IntegerSymmetricMatrix(
                [[B[i][j] + B[j][i] for j in range(m)] for i in range(m)])).entries
        elif kind == 5:
            rows = [[rng.randrange(-3, 4) if i == j else 0 for j in range(n)] for i in range(n)]
        M = IntegerSymmetricMatrix(rows)
        out.append(congruence(M, random_unimodular(M.n, rng)))
    return out


def test_signature_equals_the_fraction_ldl_on_seeded_matrices():
    family = _seeded_symmetric()
    for M in family:
        assert signature(M) == _fraction_ldl_sign(M), M.entries
    assert len(family) >= 300
    assert any(all(M[i, i] == 0 for i in range(M.n)) for M in family)
    assert any(not M.has_even_diagonal() for M in family)
    assert sum(det_exact(M.entries) == 0 for M in family) >= 60


@functools.lru_cache(maxsize=None)
def _vogel(twists):
    if twists == "p777m":
        return load_corpus()["p777m"].diagram
    return pretzel_pd(*twists)


@pytest.mark.parametrize("twists,n", [((3, -3, 3), 26), ((-5, -3, 3), 42), ("p777m", 182)])
def test_signature_equals_the_fraction_ldl_on_vogel_matrices(twists, n):
    M = seifert_matrix_from_diagram(_vogel(twists)).M
    assert M.n == n
    assert signature(M) == _fraction_ldl_sign(M)


def test_signature_equals_the_fraction_ldl_on_both_goeritz_shades():
    pairs = 0
    for name, e in sorted(load_corpus().items()):
        d = e.diagram
        if d is None or not d.n or not d.is_connected():
            continue
        for shade in (0, 1):
            S = goeritz_from_diagram(d, shade)
            assert signature(S) == _fraction_ldl_sign(S) - S.e, (name, shade)
            pairs += 1
    assert pairs >= 60


def test_signature_reuses_neither_the_mod_p_elimination_nor_the_padic_kernel(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("the signature route must stay independent")

    monkeypatch.setattr(seifert, "_unit_block_class_mod_p", forbidden)
    monkeypatch.setattr(exactlinalg, "padic_jordan", forbidden)
    monkeypatch.setattr(reference, "mod_p_block_reduce", forbidden)
    for M in _seeded_symmetric(count=24, seed=7):
        assert signature(M) == _fraction_ldl_sign(M)


def _seeded_seifert(genus, count, seed):
    rng = random.Random(seed)
    return [SeifertData([[rng.randrange(-3, 4) for _ in range(2 * genus)]
                         for _ in range(2 * genus)]) for _ in range(count)]


@pytest.mark.parametrize("genus", [1, 2, 3, 4])
def test_alexander_equals_the_lagrange_route_on_seeded_seifert_matrices(genus):
    for A in _seeded_seifert(genus, 30, 1968 + genus):
        assert alexander_poly(A) == _lagrange_alexander(A), A.A


def test_alexander_equals_the_lagrange_route_on_dense_matrices_with_large_entries():
    rng = random.Random(4701)
    family = [SeifertData([[rng.randrange(-40, 41) for _ in range(n)] for _ in range(n)])
              for n in (rng.randrange(0, 11) for _ in range(200))]
    for A in family:
        assert alexander_poly(A) == _lagrange_alexander(A), A.A
    assert max(A.n for A in family) == 10
    assert sum(A.n == 0 for A in family) >= 5


def test_alexander_equals_the_lagrange_route_on_the_corpus():
    entries = [e for e in load_corpus().values() if e.seifert is not None]
    assert len(entries) >= 9
    for e in entries:
        assert alexander_poly(e.seifert) == _lagrange_alexander(e.seifert), e.name


def _fraction_exponent_str(poly):
    """`LaurentPolynomial.to_str` as it was, with each exponent a Fraction."""
    terms = []
    for e2, c in poly.coeffs:
        exp = Fraction(e2, 2)
        if exp == 0:
            t = str(abs(c))
        else:
            mag = "" if abs(c) == 1 else f"{abs(c)}*"
            t = f"{mag}t^{exp}" if exp.denominator == 1 else f"{mag}t^({exp})"
        terms.append(("- " if c < 0 else "+ ") + t)
    if not terms:
        return "0"
    return " ".join([terms[0].replace("+ ", "").replace("- ", "-")] + terms[1:])


def test_half_integer_exponents_print_as_before():
    rng = random.Random(3)
    for _ in range(200):
        poly = LaurentPolynomial({rng.randrange(-9, 10): rng.randrange(-3, 4) for _ in range(4)})
        assert poly.to_str() == _fraction_exponent_str(poly)


def test_invariants_and_obstruct_run_no_fraction_code(tmp_path):
    bare = tmp_path / "bare.txt"
    bare.write_text("4\n1 1 0 0\n0 1 0 0\n0 0 -1 1\n0 0 0 -1\n")
    files = [str(bare)] + [os.path.join(CORPUS_DIR, f"{name}.txt") for name in (
        "cx195_1", "example_d17", "m12n553", "hopf_plus", "p3_3_3", "t2_4", "5_2", "unlink2")]
    frames = []

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("fractions.py"):
            frames.append(frame.f_code.co_name)

    out = io.StringIO()
    sys.setprofile(hook)
    try:
        with contextlib.redirect_stdout(out):
            for path in files:
                assert main(["invariants", path, "--format", "machine"]) == 0, path
                assert main(["obstruct", path, "--format", "machine"]) == 0, path
    finally:
        sys.setprofile(None)
    assert frames == []
    text = out.getvalue()
    assert "/2)" in text  # Jones polynomials with half-integer exponents were printed
    assert "alexander=" in text and "signature=" in text
