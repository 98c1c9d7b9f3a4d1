"""Unknotting-number obstructions from singular determinants.

All obstructions report constraints; none of them ever asserts an
unknotting number (the underlying results are one-directional).  Every
decision behind `singdet obstruct` is made here, and each report formats
its own line (`text()`): the CLI only prints them.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd

from .evaluate import q_at_golden_link
from .exactlinalg import IntegerSymmetricMatrix, det_of
from .linkform import LinkingFormPresentation
from .numtheory import prime_factors
from .rings import Root5
from .seifert import d_p_of, delta_p, mu_of

# Largest |det| that lickorish_generator_search enumerates.  The search is the
# tests' oracle for Prop. 3.6; no production path runs it.
GENERATOR_SEARCH_CUTOFF = 10**7


class SignedUnknottingConstraint(namedtuple("SignedUnknottingConstraint", "p base_bound delta")):
    """The sign condition a minimal unknotting sequence must satisfy.

    For a link whose unknotting number attains d_p - c + 1, with u+ positive
    and u- negative crossing changes, delta_p = (-1)^(a*u+ + b*u-), where
    RULES maps p mod 8 to the rule's name and (a, b): p=1: delta=+1;
    p=3: delta=(-1)^(u-); p=5: delta=(-1)^u; p=7: delta=(-1)^(u+).
    """

    __slots__ = ()

    RULES = {
        1: ("delta_must_be_plus", (0, 0)),
        3: ("delta_eq_parity_u_minus", (0, 1)),
        5: ("delta_eq_parity_u", (1, 1)),
        7: ("delta_eq_parity_u_plus", (1, 0)),
    }

    @property
    def parity_rule(self) -> str:
        """The name of the rule that p mod 8 selects."""
        return self.RULES[self.p % 8][0]

    def _sign_rule_holds(self, u_plus: int, u_minus: int) -> bool:
        """delta = (-1)^(a*u+ + b*u-), (a, b) from RULES."""
        a, b = self.RULES[self.p % 8][1]
        return self.delta == (-1) ** ((a * u_plus + b * u_minus) % 2)

    def splits(self) -> list[tuple[int, int]]:
        """The splits (u+, u-) of the bound that the sign rule admits, u+
        ascending; none when the bound is negative.

        Only splits that sum to the bound count: sequences whose d_p fails
        to drop at every step are not minimal.
        """
        w = self.base_bound
        return [(u, w - u) for u in range(w + 1) if self._sign_rule_holds(u, w - u)]

    def consistent(self, u_plus: int, u_minus: int) -> bool:
        """Can (u_plus, u_minus) be a minimal sequence at the bound?"""
        return (u_plus, u_minus) in self.splits()

    def text(self) -> str:
        """The `signed_p` line of `singdet obstruct`."""
        splits = " ".join(f"(u+={u},u-={v})" for u, v in self.splits()) or "none"
        return f"delta={self.delta:+d} rule={self.parity_rule} admissible at bound: {splits}"

    def improved_bound(self) -> int:
        """The sign rule excludes the bound itself for p = 1 (mod 4) half the time.

        For p = 1 (mod 8) the bound requires delta = +1; for p = 5 (mod 8) it
        requires delta = (-1)^bound.  Neither rule depends on how the bound
        splits into u+ and u-, so when it is violated the bound improves by one.
        At p = 3 (mod 4) the bound is never raised, so a `signed_p ...
        admissible at bound: none` line can stand beside an unraised
        `improved_p` (corpus 3_1 at p = 11, 4_1 at p = 3 and 7).  The fix is
        ROADMAP item 2; it waits for a benchmark change, since it moves
        output digests in `perfbench/reference.json`.
        """
        w = self.base_bound
        return w + 1 if self.p % 4 == 1 and not self._sign_rule_holds(w, 0) else w


class LickorishReport(namedtuple("LickorishReport", "admissible_zeta per_prime")):
    """The admissible zeta, and the signed constraint at each prime p | det."""

    __slots__ = ()

    @property
    def stoimenow_applies(self) -> bool:
        """5 | det and H_1 cyclic: d_p, the base bound as mu = 1, is at most 1
        at every prime p | det."""
        return 5 in self.per_prime and all(con.base_bound <= 1 for con in self.per_prime.values())

    def text(self) -> str:
        """The `lickorish` line of `singdet obstruct`."""
        return "admissible zeta: " + (",".join(f"{z:+d}" for z in self.admissible_zeta) or "none")


class StoimenowReport(namedtuple("StoimenowReport", "q_value generator_exists conjecture_value agrees")):
    __slots__ = ()

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
    return SignedUnknottingConstraint(p, wendt_bound(M, p), delta_p(M, p))


def improved_bound(M: IntegerSymmetricMatrix, p: int) -> int:
    """Wendt's bound, raised by one where the sign rule excludes it
    (SignedUnknottingConstraint.improved_bound)."""
    return signed_obstruction(M, p).improved_bound()


def _generator_form_value(M: IntegerSymmetricMatrix) -> tuple[int, int]:
    """(a, det) with lambda(h', h') = a/det for a fixed generator h'."""
    from .reference import cyclic_generator, eval_form

    det = abs(det_of(M))
    h = cyclic_generator(M.entries)
    pres = LinkingFormPresentation(M)
    val = eval_form(pres, h, h)
    if val.denominator != det:
        # self-value of a generator of a cyclic group has full denominator
        raise AssertionError("generator self-value is not primitive")
    return val.numerator, det


def lickorish_generator_search(M: IntegerSymmetricMatrix, targets: list) -> bool:
    """Brute force: does some generator h have lambda(h,h) in targets, a
    list of Fractions?

    Iterates multiples b*h' of a fixed generator over b coprime to det.
    O(det); guarded by GENERATOR_SEARCH_CUTOFF.  This is the oracle the tests
    compare lickorish_check and stoimenow_check against (Prop. 3.6); the CLI
    never runs it.
    """
    from fractions import Fraction

    det = abs(det_of(M))
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

    For each zeta, admissibility means: for every prime p | det, the signed
    constraint at p admits the single change of sign zeta among its splits,
    (1, 0) for zeta = +1 and (0, 1) for zeta = -1; that is d_p = 1 and the
    mod-8 sign pattern holds (p=1: delta=+1; p=3: delta=zeta; p=5: delta=-1;
    p=7: delta=-zeta).  Equivalent to the existence of a generator h with
    lambda(h,h) = 2*zeta*(-1)^((det-1)/2)/det (Prop. 3.6).  When |det| = 1
    no prime divides it and both signs are admissible.
    """
    if mu_of(M) != 1:
        raise ValueError("defined for knots only (mu = 1)")
    det = det_of(M)
    if det == 0:
        raise ValueError("knot determinant cannot vanish")
    per = {p: signed_obstruction(M, p) for p in prime_factors(det)}
    splits = [con.splits() for con in per.values()]
    zs = tuple(z for z, change in ((1, (1, 0)), (-1, (0, 1))) if all(change in s for s in splits))
    return LickorishReport(zs, per)


def stoimenow_check(M: IntegerSymmetricMatrix, rep: LickorishReport) -> StoimenowReport:
    """Compare the Q value at the golden reciprocal with the conjectured rule
    "-sqrt5 iff some h has lambda(h,h) = +-2/det" on cyclic odd H_1 with
    5 | det.

    The generator is decided by Prop. 3.6: over zeta = +-1 the Lickorish
    targets 2*zeta*(-1)^((det-1)/2)/det are exactly +-2/det, so some h
    attains one iff lickorish_check admits some zeta.  H_1 is cyclic iff
    d_p <= 1 at every prime p | det (an odd det has d_2 = 0).  An even det
    means mu > 1, which lickorish_check rejects with ValueError.  rep is
    lickorish_check(M), the report this reads; ValueError unless
    rep.stoimenow_applies.
    """
    if not rep.stoimenow_applies:
        raise ValueError("requires 5 | det and finite cyclic first homology")
    qval = q_at_golden_link(M)
    exists = bool(rep.admissible_zeta)
    conj = Root5(0, -1) if exists else Root5(0, 1)
    return StoimenowReport(qval, exists, conj, qval == conj)
