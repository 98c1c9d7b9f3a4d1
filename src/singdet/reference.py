"""Reference routes: second computations that the verify suites, and the
generator search of `obstruct`, check the production routes against.

Nothing that `singdet invariants` or `singdet obstruct` runs reads this
module, and no other module of the package imports it at module level:
only the verify suites and the generator search of `obstruct` import what
they need, inside the function body.  So importing `singdet.cli` neither
compiles nor runs it.  Each production entry point has one path, and the
check that `verify` runs lives here: `delta_p_reduced` is `seifert.delta_p`
by the integer-lifted reduction of all of M with randomized pivots (the
path-independence oracle), `congruence(M, T)` is T M T^t, and
`q_golden_closed_form` is Q(1/phi) of a knot from its Wall invariants at 5.
The routes that only the tests read, among them the p-adic normal forms
and `oddity`, live in `tests/oracles.py`; `tests/test_imports.py` keeps
every definition here reachable from what the package imports.

Fraction appears only at the API boundary, where a rational value is the
answer: `mat_inverse_q`, `det_q`, `jacobi_minor_identity`,
`RationalSymmetricMatrix` and `eval_form`; each computes on integers and
builds its Fractions last.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import lcm

from .exactlinalg import (
    Frozen,
    IntegerSymmetricMatrix,
    _check_square,
    _check_symmetric,
    _freeze,
    det_exact,
    det_of,
    identity,
    smith_normal_form,
    transpose,
)
from .linkform import LinkingFormPresentation, b_total, wall_of
from .numtheory import check_odd_prime, legendre, p_part
from .rings import Root5
from .seifert import _delta_from_unit_block, d_p_of


# ------------------------------------------- rational and unimodular matrices

def _freeze_q(entries) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


class RationalSymmetricMatrix(Frozen):
    """Exact square symmetric matrix over Q."""

    _fields = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze_q(entries))
        _check_symmetric(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries)


class UnimodularTransform(Frozen):
    """Integer matrix with determinant +-1 (a basis change)."""

    _fields = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze(entries))
        _check_square(self.entries)
        if det_exact(self.entries) not in (1, -1):
            raise ValueError("transform is not unimodular")

    @property
    def n(self) -> int:
        return len(self.entries)

    def inverse(self) -> "UnimodularTransform":
        D, d = adjugate(self.entries)  # d = +-1
        return UnimodularTransform([[d * x for x in row] for row in D])


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = transpose(b)
    return [[sum(a[i][t] * bt[j][t] for t in range(k)) for j in range(m)] for i in range(n)]


def congruence(M: IntegerSymmetricMatrix, T: UnimodularTransform) -> IntegerSymmetricMatrix:
    """T M T^t, another symmetric matrix presenting the same form."""
    return IntegerSymmetricMatrix(mat_mul(mat_mul(T.entries, M.entries), transpose(T.entries)))


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def minor(rows, I, J):
    """Submatrix with rows I and columns J, indices kept in original order."""
    return [[rows[i][j] for j in J] for i in I]


def _clear_denominators(rows) -> tuple[list[list[int]], int]:
    """(B, L) with B = L * rows an integer matrix, L the least common
    denominator of the entries."""
    q = [[x if type(x) is int else Fraction(x) for x in row] for row in rows]
    L = lcm(*(x.denominator for row in q for x in row))
    return [[x.numerator * (L // x.denominator) for x in row] for row in q], L


def adjugate(rows) -> tuple[list[list[int]], int]:
    """(D, d) with D = d * M^{-1}, for a nonsingular integer matrix M.

    Fraction-free Gauss-Jordan elimination on [M | I] (Bareiss, Math. Comp.
    22 (1968)): every division by the previous pivot is exact, the left
    half ends as d * I and the right half as d * M^{-1}, with d = +-det M
    (the sign of the row swaps).  Raises ZeroDivisionError on singular input.
    """
    n = _check_square(rows)
    a = [[*row, *(1 if i == j else 0 for j in range(n))] for i, row in enumerate(_freeze(rows))]
    prev = 1
    for k in range(n):
        r = next((i for i in range(k, n) if a[i][k]), None)
        if r is None:
            raise ZeroDivisionError("matrix is singular")
        a[k], a[r] = a[r], a[k]
        top = a[k]
        piv = top[k]
        for i, row in enumerate(a):
            if i != k:  # columns left of k are never read again
                c = row[k]
                row[k:] = [(piv * x - c * y) // prev for x, y in zip(row[k:], top[k:])]
        prev = piv
    return [row[n:] for row in a], prev


def det_q(rows) -> Fraction:
    """Exact determinant of a rational matrix: det_exact of the matrix
    cleared of its common denominator L, over L^n."""
    n = _check_square(rows)
    b, L = _clear_denominators(rows)
    return Fraction(det_exact(b), L**n)


def mat_inverse_q(rows) -> list[list[Fraction]]:
    """Exact inverse over Q, from the adjugate of the matrix cleared of its
    common denominator; raises ZeroDivisionError on singular input."""
    b, L = _clear_denominators(rows)
    D, d = adjugate(b)
    return [[Fraction(L * x, d) for x in row] for row in D]


def jacobi_minor_identity(
    M: RationalSymmetricMatrix, I: tuple[int, ...], J: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    """Both sides of the general Jacobi minor identity (1-based index sums).

    lhs = det M[I;J]; rhs = (-1)^(sum I + sum J) det(M) det(M^{-1}[I^c;J^c]).
    Indices are passed 0-based; the sign uses the 1-based convention.
    """
    n = M.m
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if len(I) != len(J):
        raise ValueError("index sets must have equal size")
    d = det_q(M.entries)
    if d == 0:
        raise ValueError("matrix must be invertible")
    lhs = det_q(minor(M.entries, I, J))
    inv = mat_inverse_q(M.entries)
    Ic = [i for i in range(n) if i not in I]
    Jc = [j for j in range(n) if j not in J]
    sign = (-1) ** (sum(i + 1 for i in I) + sum(j + 1 for j in J))
    rhs = sign * d * det_q(minor(inv, Ic, Jc))
    return lhs, rhs


def cyclic_generator(rows) -> list[int]:
    """A vector generating coker(M) when the cokernel is cyclic of finite order.

    With U M V = D diagonal, [x] -> [Ux] identifies coker(M) with the direct
    sum of Z/d_i, so the preimage of the standard generator of the largest
    factor is the matching column of U^{-1}.
    """
    d, u, _ = smith_normal_form(rows)
    n = len(d)
    factors = [d[i][i] for i in range(n)]
    if any(f == 0 for f in factors):
        raise ValueError("cokernel is infinite")
    nontrivial = [i for i, f in enumerate(factors) if f > 1]
    if len(nontrivial) > 1:
        raise ValueError("cokernel is not cyclic")
    if not nontrivial:
        return [0] * n
    uinv = mat_inverse_q(u)
    col = nontrivial[0]
    return [int(uinv[i][col]) for i in range(n)]


def mod_p_block_reduce(
    M: IntegerSymmetricMatrix, p: int, rng: random.Random | None = None
) -> tuple[UnimodularTransform, IntegerSymmetricMatrix, int]:
    """Unimodular T with T M T^t = N (+) 0 mod p, det(N) a unit mod p.

    Symmetric Gaussian elimination over F_p lifted to integer moves
    (permutations and shears).  Diagonal pivots are preferred; if the active
    block has unit entries only off the diagonal, adding one basis vector to
    another turns 2*W[i][j] into a diagonal unit (this is where p != 2 is
    used).  Pivot ties break to the lowest index, or randomly when `rng` is
    given (used to test path independence of the result's Legendre class).

    Returns (T, N, d_p) with N of size n - d_p, d_p = corank of M over F_p.
    """
    check_odd_prime(p)
    n = M.n
    w = [list(row) for row in M.entries]
    t = identity(n)

    def swap(i, j):
        w[i], w[j] = w[j], w[i]
        for r in w:
            r[i], r[j] = r[j], r[i]
        t[i], t[j] = t[j], t[i]

    def shear(src, dst, c):
        # row/col dst += c * row/col src
        w[dst] = [x + c * y for x, y in zip(w[dst], w[src])]
        for r in w:
            r[dst] += c * r[src]
        t[dst] = [x + c * y for x, y in zip(t[dst], t[src])]

    k = 0
    while k < n:
        diag = [i for i in range(k, n) if w[i][i] % p != 0]
        if diag:
            i = rng.choice(diag) if rng else diag[0]
            if i != k:
                swap(i, k)
        else:
            off = [(i, j) for i in range(k, n) for j in range(i + 1, n) if w[i][j] % p != 0]
            if not off:
                break
            i, j = rng.choice(off) if rng else off[0]
            shear(j, i, 1)  # makes w[i][i] = 2*w[i][j] mod p, a unit
            if i != k:
                swap(i, k)
        inv = pow(w[k][k], -1, p)
        for i in range(k + 1, n):
            c = (-w[i][k] * inv) % p
            if c:
                shear(k, i, c)
        k += 1

    d_p = n - k
    N = IntegerSymmetricMatrix([row[:k] for row in w[:k]])
    if k and det_exact(N.entries) % p == 0:
        raise AssertionError("reduction produced a singular unit block")
    return UnimodularTransform(t), N, d_p


def delta_p_reduced(M: IntegerSymmetricMatrix, p: int, rng: random.Random) -> int:
    """delta_p(M, p) from `mod_p_block_reduce` of all of M with pivots drawn
    by rng, in place of the F_p elimination on the congruence core's
    residual block: the oracle that delta_p does not depend on the
    reduction path."""
    _, N, d = mod_p_block_reduce(M, p, rng=rng)
    return _delta_from_unit_block(M, p, d, legendre(det_exact(N.entries), p))


def random_unimodular(n: int, rng: random.Random, steps: int = 12) -> UnimodularTransform:
    """Random product of elementary integer moves (shears, swaps, sign flips)."""
    t = identity(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            t[i] = [x + c * y for x, y in zip(t[i], t[j])]
        elif kind == 1 and i != j:
            t[i], t[j] = t[j], t[i]
        elif kind == 2:
            t[i] = [-x for x in t[i]]
    return UnimodularTransform(t)


# -------------------------------------------------------------- linking forms

def eval_form(pres: LinkingFormPresentation, x: list[int], y: list[int]) -> Fraction:
    """lambda([x],[y]) = x^t M^{-1} y as an exact rational reduced into [0, 1)."""
    n = pres.M.n
    if len(x) != n or len(y) != n:
        raise ValueError("vector size mismatch")
    inv = mat_inverse_q(pres.M.entries)
    val = sum(Fraction(xi) * vi for xi, vi in zip(x, mat_vec(inv, y)))
    return val - (val // 1)


# -------------------------------------------------------------- stabilization

def stabilize(M: IntegerSymmetricMatrix) -> IntegerSymmetricMatrix:
    """Append the hyperbolic block [[0,1],[1,0]] (the S-equivalence move)."""
    return M.block_sum(IntegerSymmetricMatrix([[0, 1], [1, 0]]))


# ------------------------------------------------------------- special values

def q_at_golden(det: int, d5: int, wall_parity: int) -> Root5:
    """Closed form for a knot's Q value at (sqrt5-1)/2.

    With det = 5^alpha * q and wall_parity the parity of non-residue Wall
    summands at 5: legendre(q,5) * (-1)^wall_parity * sqrt5^d5.
    """
    if det <= 0 or det % 2 == 0:
        raise ValueError("knot determinants are odd and positive")
    _, q = p_part(det, 5)
    return Root5.sqrt5_pow(d5) * (legendre(q, 5) * (-1) ** (wall_parity % 2))


def q_golden_closed_form(M: IntegerSymmetricMatrix) -> Root5:
    """Knot route via the Wall invariants at p = 5."""
    return q_at_golden(abs(det_of(M)), d_p_of(M, 5), b_total(wall_of(M), 5))
