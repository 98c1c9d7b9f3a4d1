"""Linking forms on finite abelian groups of odd order, presented by matrices.

A nonsingular symmetric integer matrix M presents the form
lambda([x],[y]) = x^t M^{-1} y in Q/Z on coker(M).  For odd group order the
isometry type decomposes orthogonally into rank-one pieces A_{p^k} (value a
residue over p^k) and B_{p^k} (non-residue), subject only to the relation
A+A = B+B, so the mod-2 counts r_{p,k} of A-summands classify the form.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .exactlinalg import (
    IntegerSymmetricMatrix,
    det_exact,
    mat_inverse_q,
    mat_vec,
    padic_jordan,
)
from .numtheory import legendre, ord_int, prime_factors


@dataclass(frozen=True)
class LinkingFormPresentation:
    M: IntegerSymmetricMatrix
    det: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        det = det_exact(self.M.entries)
        if det == 0:
            raise ValueError("presentation matrix must be nonsingular")
        object.__setattr__(self, "det", det)

    @property
    def n(self) -> int:
        return self.M.n


@dataclass(frozen=True)
class WallDecomposition:
    """Multiset of (p, k, 'A'|'B') summands, canonically at most one B per (p, k)."""

    summands: tuple[tuple[int, int, str], ...]

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


def eval_form(pres: LinkingFormPresentation, x: list[int], y: list[int]) -> Fraction:
    """lambda([x],[y]) = x^t M^{-1} y as an exact rational reduced into [0, 1)."""
    n = pres.n
    if len(x) != n or len(y) != n:
        raise ValueError("vector size mismatch")
    inv = mat_inverse_q(pres.M.entries)
    val = sum(Fraction(xi) * vi for xi, vi in zip(x, mat_vec(inv, y)))
    return val - (val // 1)


def _summands_at(M: IntegerSymmetricMatrix, p: int, alpha: int) -> list[tuple[int, int, str]]:
    """Wall summands at p from the non-unit pivots p^e * u of the p-adic
    Jordan kernel: Z/p^e with value 1/(p^e u), type A iff (u|p) = 1."""
    return [(p, e, "A" if legendre(u, p) == 1 else "B")
            for e, u in padic_jordan(M.entries, p, alpha)]


def wall_decompose(pres: LinkingFormPresentation) -> WallDecomposition:
    """Orthogonal A/B decomposition of the linking form presented by M.

    Requires odd |det M|.  Per prime p | det M, the p-adic Jordan kernel
    (exactlinalg.padic_jordan) diagonalizes M over Z/p^(alpha+1) with
    alpha = ord_p(det M); each pivot p^e * u with e >= 1 is one Z/p^e
    summand, of type A when (u|p) = 1 and B otherwise.  Unit pivots are
    never read, so this route shares nothing with the mod-p unit block of
    the definition route.
    """
    det = pres.det
    if det % 2 == 0:
        raise ValueError("only odd-order forms are classified here")
    summands = []
    for p in prime_factors(det):
        summands += _summands_at(pres.M, p, ord_int(det, p))
    return WallDecomposition(summands)


def r_pk(W: WallDecomposition, p: int, k: int) -> int:
    """Number of A_{p^k} summands mod 2 (a complete system of invariants)."""
    return sum(1 for (q, j, t) in W.summands if (q, j, t) == (p, k, "A")) % 2


def r_total(W: WallDecomposition, p: int) -> int:
    """Parity of the total number of A summands at the prime p."""
    return sum(1 for (q, _, t) in W.summands if q == p and t == "A") % 2


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
    p^alpha * q and m the corank of M over F_p:

        delta_p = legendre(q, p) * (-1)^(#B summands at p)
                  * (-1)^(((p-1)/2) * (alpha + m + (q-1)/2)).

    Derived from the definition by the Jacobi minor identity applied to the
    p-adically normalized presentation; computed here entirely through the
    linking-form decomposition at p alone, independently of the mod-p
    reduction used by the definition route.
    """
    from .numtheory import p_part
    from .exactlinalg import corank_mod_p

    det = det_exact(M.entries)
    if det == 0 or det % 2 == 0:
        raise ValueError("requires odd nonzero determinant")
    alpha, q = p_part(abs(det), p)
    m = corank_mod_p(M.entries, p)
    w = WallDecomposition(_summands_at(M, p, alpha))
    sign = legendre(q, p) * (-1) ** b_total(w, p)
    e = ((p - 1) // 2) * (alpha + m + (q - 1) // 2)
    return sign * (-1) ** (e % 2)


def isometric(W1: WallDecomposition, W2: WallDecomposition) -> bool:
    """Same underlying group and equal r_{p,k} for all (p, k).

    Both decompositions are stored in the canonical <=1-B-per-(p,k) form, so
    this is a plain equality of summand multisets.
    """
    return W1.summands == W2.summands
