"""Linking forms on finite abelian groups of odd order, presented by matrices.

A nonsingular symmetric integer matrix M presents the form
lambda([x],[y]) = x^t M^{-1} y in Q/Z on coker(M).  For odd group order the
isometry type decomposes orthogonally into rank-one pieces A_{p^k} (value a
residue over p^k) and B_{p^k} (non-residue), subject only to the relation
A+A = B+B, so the mod-2 counts r_{p,k} of A-summands classify the form.
"""

from __future__ import annotations

from collections import Counter

from .exactlinalg import (
    Frozen,
    IntegerSymmetricMatrix,
    _memo_on_matrix,
    congruence_core,
    det_of,
    padic_jordan,
)
from .numtheory import legendre, ord_int, p_part, prime_factors


class LinkingFormPresentation(Frozen):
    """The form a symmetrized Seifert or Goeritz matrix M presents."""

    _fields = ("M",)

    def __init__(self, M: IntegerSymmetricMatrix):
        object.__setattr__(self, "M", M)
        if det_of(M) == 0:
            raise ValueError("presentation matrix must be nonsingular")


class WallDecomposition(Frozen):
    """Multiset of (p, k, 'A'|'B') summands, canonically at most one B per (p, k)."""

    _fields = ("summands",)

    def __init__(self, summands):
        raw = Counter()
        for p, k, t in summands:
            if t not in ("A", "B"):
                raise ValueError(f"bad summand type {t!r}")
            if k < 1:
                raise ValueError("exponents must be positive")
            raw[(p, k, t)] += 1
        normal = []
        groups = sorted({(p, k) for (p, k, _) in raw})
        for p, k in groups:
            na = raw[(p, k, "A")]
            nb = raw[(p, k, "B")]
            # A+A = B+B lets us cancel B's in pairs into A's
            keep_b = nb % 2
            normal.extend([(p, k, "A")] * (na + nb - keep_b))
            normal.extend([(p, k, "B")] * keep_b)
        object.__setattr__(self, "summands", tuple(sorted(normal)))

    def group_order(self) -> int:
        order = 1
        for p, k, _ in self.summands:
            order *= p**k
        return order

    def direct_sum(self, other: "WallDecomposition") -> "WallDecomposition":
        return WallDecomposition(self.summands + other.summands)

    def serialize(self) -> str:
        return "\n".join(f"{p} {k} {t}" for p, k, t in self.summands)


def wall_decompose(pres: LinkingFormPresentation) -> WallDecomposition:
    """Orthogonal A/B decomposition of the linking form presented by M.

    Requires odd |det M|.  Per prime p | det M, the p-adic Jordan kernel
    (exactlinalg.padic_jordan) diagonalizes the residual block R of the
    congruence core of M over Z/p^(alpha+1), alpha = ord_p(det M); R
    presents the same form (det R = +-det M, so alpha is the same).  Each
    pivot p^e * u with e >= 1 is one Z/p^e summand, with value 1/(p^e u),
    of type A when (u|p) = 1 and B otherwise.  Unit pivots are never read,
    and R is an integer presentation of the form, not the mod-p unit
    block, so this route shares no elimination with the definition route.
    """
    det = det_of(pres.M)
    if det % 2 == 0:
        raise ValueError("only odd-order forms are classified here")
    R = congruence_core(pres.M).R
    return WallDecomposition(
        (p, e, "A" if legendre(u, p) == 1 else "B")
        for p in prime_factors(det)
        for e, u in padic_jordan(R, p, ord_int(det, p)))


@_memo_on_matrix
def wall_of(M: IntegerSymmetricMatrix) -> WallDecomposition:
    """wall_decompose of the form M presents, computed once per matrix."""
    return wall_decompose(LinkingFormPresentation(M))


def b_total(W: WallDecomposition, p: int) -> int:
    """Parity of the number of non-residue (B) summands at the prime p.

    This is the parity entering the closed forms for delta_p and the special
    values: the product over p-power summands of the Legendre classes of
    their diagonal values is (-1)^(number of B's).
    """
    return sum(1 for (q, _, t) in W.summands if q == p and t == "B") % 2


def delta_from_wall(M: IntegerSymmetricMatrix, p: int) -> int:
    """Singular determinant from the Wall invariants (the dual route).

    For even-diagonal symmetric M with odd nonzero determinant |det| =
    p^alpha * q and m the corank of M over F_p, which is the number of
    Jordan constituents at p (one per Z/p^e summand, e >= 1):

        delta_p = legendre(q, p) * (-1)^(#B summands at p)
                  * (-1)^(((p-1)/2) * (alpha + m + (q-1)/2)).

    Derived from the definition by the Jacobi minor identity applied to the
    p-adically normalized presentation; computed here entirely through the
    summands at p of the Wall decomposition of M (`wall_of`, computed once
    per matrix), independently of the mod-p reduction used by the
    definition route.
    """
    det = det_of(M)
    if det == 0 or det % 2 == 0:
        raise ValueError("requires odd nonzero determinant")
    alpha, q = p_part(abs(det), p)
    W = wall_of(M)
    sign = legendre(q, p) * (-1) ** b_total(W, p)
    e = ((p - 1) // 2) * (alpha + sum(r == p for r, _, _ in W.summands) + (q - 1) // 2)
    return sign * (-1) ** (e % 2)
