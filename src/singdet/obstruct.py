"""Unknotting-number obstructions from singular determinants.

All obstructions report constraints; none of them ever asserts an
unknotting number (the underlying results are one-directional).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .evaluate import Cyclo24, Root5, q_at_golden_link
from .exactlinalg import (
    IntegerSymmetricMatrix,
    cyclic_generator,
    det_exact,
    smith_cokernel,
)
from .linkform import LinkingFormPresentation, eval_form
from .numtheory import prime_factors
from .seifert import d_p_of, delta_p, mu_of

GENERATOR_SEARCH_CUTOFF = 10**7


@dataclass(frozen=True)
class SignedUnknottingConstraint:
    """The sign condition a minimal unknotting sequence must satisfy.

    For a link whose unknotting number attains d_p - c + 1, with u+ positive
    and u- negative crossing changes, delta_p obeys a rule depending on
    p mod 8: p=1: delta=+1; p=3: delta=(-1)^(u-); p=5: delta=(-1)^u;
    p=7: delta=(-1)^(u+).
    """

    p: int
    base_bound: int
    parity_rule: str
    delta: int

    RULES = {
        1: "delta_must_be_plus",
        3: "delta_eq_parity_u_minus",
        5: "delta_eq_parity_u",
        7: "delta_eq_parity_u_plus",
    }

    def consistent(self, u_plus: int, u_minus: int) -> bool:
        """Can (u_plus, u_minus) be a minimal sequence at the bound?

        The split must sum to the bound (sequences whose d_p fails to drop
        at every step are not minimal and are rejected here).
        """
        if u_plus < 0 or u_minus < 0 or u_plus + u_minus != self.base_bound:
            return False
        rule = self.p % 8
        if rule == 1:
            return self.delta == 1
        if rule == 3:
            return self.delta == (-1) ** (u_minus % 2)
        if rule == 5:
            return self.delta == (-1) ** ((u_plus + u_minus) % 2)
        return self.delta == (-1) ** (u_plus % 2)

    def improved_bound(self) -> int:
        """The sign rule excludes the bound itself for p = 1 (mod 4) half the time.

        For p = 1 (mod 8) the bound requires delta = +1; for p = 5 (mod 8) it
        requires delta = (-1)^bound.  When violated, the bound improves by one.
        """
        w = self.base_bound
        if self.p % 8 == 1 and self.delta == -1:
            return w + 1
        if self.p % 8 == 5 and self.delta != (-1) ** (w % 2):
            return w + 1
        return w


@dataclass(frozen=True)
class LickorishReport:
    admissible_zeta: tuple[int, ...]
    per_prime: dict[int, tuple[int, int, dict[int, bool]]]  # p -> (d_p, delta_p, {zeta: ok})

    def text(self) -> str:
        lines = []
        for p, (dp, dl, ok) in sorted(self.per_prime.items()):
            lines.append(
                f"p={p}: d_p={dp} delta_p={dl:+d} zeta=+1:{'ok' if ok[1] else 'fail'}"
                f" zeta=-1:{'ok' if ok[-1] else 'fail'}"
            )
        zs = ",".join(f"{z:+d}" for z in self.admissible_zeta) or "none"
        lines.append(f"admissible zeta: {zs}")
        return "\n".join(lines)


@dataclass(frozen=True)
class StoimenowReport:
    q_value: Root5
    generator_exists: bool
    conjecture_value: Root5
    agrees: bool

    def text(self) -> str:
        kind = "agreement" if self.agrees else "counterexample"
        return (
            f"Q(golden) = {self.q_value}; generator with lambda(h,h) = +-2/det "
            f"{'exists' if self.generator_exists else 'does not exist'}; "
            f"conjectured {self.conjecture_value}; {kind}"
        )


def wendt_bound(M: IntegerSymmetricMatrix, p: int) -> int:
    """u(L) >= d_p - c + 1 (may be <= 0, in which case it says nothing)."""
    return d_p_of(M, p) - mu_of(M) + 1


def signed_obstruction(M: IntegerSymmetricMatrix, p: int) -> SignedUnknottingConstraint:
    return SignedUnknottingConstraint(
        p=p,
        base_bound=wendt_bound(M, p),
        parity_rule=SignedUnknottingConstraint.RULES[p % 8],
        delta=delta_p(M, p),
    )


def improved_bound(M: IntegerSymmetricMatrix, p: int) -> int:
    """Wendt's bound, raised by one where the sign rule excludes it
    (SignedUnknottingConstraint.improved_bound)."""
    return signed_obstruction(M, p).improved_bound()


def _generator_form_value(M: IntegerSymmetricMatrix) -> tuple[int, int]:
    """(a, det) with lambda(h', h') = a/det for a fixed generator h'."""
    det = abs(det_exact(M.entries))
    h = cyclic_generator(M.entries)
    pres = LinkingFormPresentation(M)
    val = eval_form(pres, h, h)
    if val.denominator != det:
        # self-value of a generator of a cyclic group has full denominator
        raise AssertionError("generator self-value is not primitive")
    return val.numerator, det


def lickorish_generator_search(M: IntegerSymmetricMatrix, targets: list[Fraction]) -> bool:
    """Brute force: does some generator h have lambda(h,h) in targets?

    Iterates multiples b*h' of a fixed generator over b coprime to det.
    O(det); guarded by a documented cutoff.
    """
    det = abs(det_exact(M.entries))
    if det > GENERATOR_SEARCH_CUTOFF:
        raise ValueError(f"determinant {det} exceeds search cutoff")
    a, det = _generator_form_value(M)
    tset = {t - (t // 1) for t in targets}
    for b in range(1, det):
        if gcd(b, det) != 1:
            continue
        if Fraction(b * b * a % det, det) in tset:
            return True
    return False


def lickorish_check(M: IntegerSymmetricMatrix) -> LickorishReport:
    """Which crossing-change signs zeta admit unknotting number one.

    For each zeta, admissibility means: for every prime p | det, d_p = 1 and
    the mod-8 sign pattern holds (p=1: delta=+1; p=3: delta=zeta;
    p=5: delta=-1; p=7: delta=-zeta).  Equivalent to the existence of a
    generator h with lambda(h,h) = 2*zeta*(-1)^((det-1)/2)/det.
    """
    if mu_of(M) != 1:
        raise ValueError("defined for knots only (mu = 1)")
    det = det_exact(M.entries)
    if det == 0:
        raise ValueError("knot determinant cannot vanish")
    per = {}
    admissible = {1: True, -1: True}
    for p in prime_factors(det):
        dp = d_p_of(M, p)
        dl = delta_p(M, p)
        ok = {}
        for zeta in (1, -1):
            r = p % 8
            if r == 1:
                good = dl == 1
            elif r == 3:
                good = dl == zeta
            elif r == 5:
                good = dl == -1
            else:
                good = dl == -zeta
            ok[zeta] = dp == 1 and good
            admissible[zeta] = admissible[zeta] and ok[zeta]
        per[p] = (dp, dl, ok)
    if abs(det) == 1:
        # trivial group: the generator condition is empty
        return LickorishReport((1, -1), {})
    zs = tuple(z for z in (1, -1) if admissible[z])
    return LickorishReport(zs, per)


def lickorish_direct(M: IntegerSymmetricMatrix, zeta: int) -> bool:
    """Condition (i) verbatim: a generator h with
    lambda(h,h) = 2*zeta*(-1)^((det-1)/2)/det, found by exhaustive search."""
    det = abs(det_exact(M.entries))
    if det == 1:
        return True
    target = Fraction(2 * zeta * (-1) ** (((det - 1) // 2) % 2), det)
    return lickorish_generator_search(M, [target])


def stoimenow_check(M: IntegerSymmetricMatrix) -> StoimenowReport:
    """Compare the Q value at the golden reciprocal with the conjectured rule
    "-sqrt5 iff some h has lambda(h,h) = +-2/det" on cyclic odd H_1 with
    5 | det."""
    det = det_exact(M.entries)
    ck = smith_cokernel(M.entries)
    if not ck.is_cyclic() or ck.order_or_zero == 0:
        raise ValueError("requires finite cyclic first homology")
    if det % 5 != 0:
        raise ValueError("requires determinant divisible by 5")
    adet = abs(det)
    qval = q_at_golden_link(M)
    exists = lickorish_generator_search(
        M, [Fraction(2, adet), Fraction(-2, adet)]
    )
    conj = Root5(0, -1) if exists else Root5(0, 1)
    return StoimenowReport(qval, exists, conj, qval == conj)


def traczyk_value(M: IntegerSymmetricMatrix, u_minus: int) -> Cyclo24:
    """Predicted V(zeta_6) for a link unknottable at the F_3 bound with
    u_minus negative changes: (-1)^(u-) * i^(c-1) * (i*sqrt3)^(d_3)."""
    c = mu_of(M)
    d3 = d_p_of(M, 3)
    return Cyclo24.i_pow(c - 1) * Cyclo24.i_sqrt3() ** d3 * (-1) ** (u_minus % 2)


def q_value_bound(value: Root5, c: int) -> int | None:
    """Unknotting bound from a Q value of the form (-1)^(a+c) * sqrt5^a.

    Returns a lower bound u > a - c + 1 (i.e. u >= a - c + 2) when the sign
    matches that pattern, else None.
    """
    if value.a != 0 and value.b != 0:
        return None
    if value.b == 0:
        mag, sign5 = value.a, 0
    else:
        mag, sign5 = value.b, 1
    if mag == 0:
        return None
    k = 0
    m = abs(mag)
    while m % 5 == 0:
        m //= 5
        k += 1
    if m != 1:
        return None
    a = 2 * k + sign5
    sign = 1 if mag > 0 else -1
    if sign == (-1) ** ((a + c) % 2):
        return a - c + 2
    return None
