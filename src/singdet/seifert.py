"""The singular determinant delta_p and the other per-prime invariants,
by their definition.

A symmetrized Seifert matrix M = A + A^t is symmetric with even diagonal;
delta_p(M) is the Legendre class of the nondegenerate block of M mod p with
a parity correction, invariant under unimodular congruence and hyperbolic
stabilization, hence a link invariant.  A spanning-surface presentation
(`SpanningSurfaceData`, for example a Goeritz matrix) may have odd diagonal
entries; it carries its component count and Gordon-Litherland correction,
both given when it is built, and every per-prime function here takes it in
place of M.  The presentation records, `SeifertData` for an unsymmetrized
A and `SpanningSurfaceData`, live in `exactlinalg` beside
`IntegerSymmetricMatrix`, so modules that build presentations need not
import this route.

The per-prime layer reads det M first: at an odd prime p that does not
divide it, M is nondegenerate over F_p, so d_p = 0 and delta_p is one
Legendre symbol of det M.  Only at a prime dividing det M does the dense
F_p elimination run, on the residual block of the congruence core.  The
reduction of all of M that checks this path, `delta_p_reduced`, lives in
`reference`, where `verify invariance` runs it.
"""

from __future__ import annotations

from .exactlinalg import (
    IntegerSymmetricMatrix,
    SpanningSurfaceData,
    _memo_on_matrix,
    _pop_pivot,
    congruence_core,
    corank_mod_p,
)
from .numtheory import check_odd_prime, legendre


@_memo_on_matrix
def mu_of(M: IntegerSymmetricMatrix) -> int:
    """The link's component count: carried by a spanning-surface
    presentation, else the corank of the even-diagonal M over F_2 plus one,
    read from the residual block R of its congruence core."""
    if isinstance(M, SpanningSurfaceData):
        return M.mu
    if not M.has_even_diagonal():
        raise ValueError("matrix must have even diagonal entries")
    return corank_mod_p(congruence_core(M).R, 2) + 1


def _correction(M: IntegerSymmetricMatrix) -> int:
    """The Gordon-Litherland correction e; 0 for a symmetrized Seifert matrix."""
    return M.e if isinstance(M, SpanningSurfaceData) else 0


@_memo_on_matrix
def _unit_block_class_mod_p(M: IntegerSymmetricMatrix, p: int) -> tuple[int, int]:
    """(d_p, Legendre class of the unit block's determinant) over F_p only.

    Det first: M is singular over F_p exactly when p divides det M, so at
    a prime that does not, the unit block is all of M, d_p = 0 and the
    class is (det M | p), with no elimination.  Otherwise M = B + R with B
    unimodular (`congruence_core`), so the unit block of M mod p is B plus
    that of R: d_p is the corank of R, and the unit determinant is det B
    times the product of the pivots that the dense elimination
    `_eliminate_mod_p` takes on R, a few rows at most.  Either way the
    Legendre symbol, being multiplicative, is taken once.
    """
    core = congruence_core(M)
    if core.det % p:
        return 0, legendre(core.det, p)
    d, unit_det = _eliminate_mod_p(core.R, p)
    return d, legendre(core.det_B * unit_det, p)


def _eliminate_mod_p(entries, p: int) -> tuple[int, int]:
    """(corank, product of the pivots mod p) over F_p of a symmetric integer
    matrix, at an odd prime p: one dense symmetric elimination that shares
    the pivot step `_pop_pivot` with `_symmetric_bareiss`, run on a
    residual block R of a few rows.

    Odd diagonal entries are valid pivots, since p is odd.  The other rows
    are Schur-updated mod p; the all-zero block left at the end has the
    corank as its size.
    """
    a = [[x % p for x in row] for row in entries]
    unit_det = 1
    while (step := _pop_pivot(a)) is not None:
        top, piv, col = step
        unit_det = unit_det * piv % p
        inv = pow(piv, -1, p)
        for row, c in zip(a, col):
            c = c * inv % p
            if c:
                row[:] = [(x - c * y) % p for x, y in zip(row, top)]
    return len(a), unit_det


def delta_p(M: IntegerSymmetricMatrix, p: int) -> int:
    """Singular determinant at an odd prime p of an even-diagonal symmetric
    M or of a spanning-surface presentation.

    Independent of the reduction path; unchanged by unimodular congruence
    and by hyperbolic stabilization.  Defined for singular M as well.
    `_unit_block_class_mod_p` takes the class of det M when p does not
    divide it, and otherwise works over F_p on the residual block R of the
    congruence core of M, with the unit determinant starting at det B.
    """
    check_odd_prime(p)
    return _delta_from_unit_block(M, p, *_unit_block_class_mod_p(M, p))


def _delta_from_unit_block(M: IntegerSymmetricMatrix, p: int, d: int, cls: int) -> int:
    """delta_p from the corank d of M mod p and the Legendre class cls of
    its unit block: cls * (-1|p)^(d + (n + mu - 1 - e)/2), whatever
    reduction found d and cls.  An odd diagonal without a carried
    correction is a ValueError (`mu_of`)."""
    e2 = M.n + mu_of(M) - 1 - _correction(M)
    if e2 % 2 != 0:
        raise ValueError("exponent (n + mu - 1 - e)/2 is not an integer")
    if cls == 0:
        raise AssertionError("unit block determinant divisible by p")
    return cls * legendre(-1, p) ** ((d + e2 // 2) % 2)


def d_p_of(M: IntegerSymmetricMatrix, p: int) -> int:
    """Corank of M over F_p at an odd prime p (the F_p-dimension of the
    relevant homology): 0 when p does not divide det M, else read from the
    elimination that delta_p runs."""
    check_odd_prime(p)
    return _unit_block_class_mod_p(M, p)[0]


def signature(M: IntegerSymmetricMatrix) -> int:
    """sign(M) - e: the matrix signature less the Gordon-Litherland
    correction of a spanning-surface presentation (e = 0 for any other
    matrix), which is the signature of the link M presents.

    sign(M) is the signature of its congruence core: that of the
    unimodular blocks split off M plus that of the residual block,
    from integer congruence moves only.
    """
    return congruence_core(M).sign - _correction(M)
