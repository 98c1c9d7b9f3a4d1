"""Elementary exact number theory: Legendre symbols, p-adic valuations,
quadratic residues and the sign nu() used by the sixth-root evaluation.

Everything here is exact integer arithmetic; all symbols are small ints in
{-1, 0, +1} so a single wrong sign propagates into a wrong theorem, hence the
hard preconditions (primality is actually verified, never trusted).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Union

Rational = Union[int, Fraction]


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; fine at desk scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f, r = 5, isqrt(n)
    while f <= r:
        if n % f == 0 or n % (f + 2) == 0:
            return False
        f += 6
    return True


def check_odd_prime(p: int) -> None:
    """ValueError "p = ... is not an odd prime" unless p is one."""
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1} for an odd prime p.

    0 iff p | a; +1 iff a is a nonzero quadratic residue mod p; -1 otherwise.
    Computed by Euler's criterion, a^((p-1)/2) mod p.
    """
    check_odd_prime(p)
    r = pow(a % p, (p - 1) // 2, p)
    if r == 0:
        return 0
    return 1 if r == 1 else -1


def legendre_fraction(x: Rational, p: int) -> int:
    """Legendre symbol of a rational with ord_p(x) = 0.

    (num/den | p) = (num*den | p) since den^2 is a square mod p.
    """
    x = Fraction(x)
    if x.numerator % p == 0 or x.denominator % p == 0:
        raise ValueError(f"{x} is not a p-adic unit for p = {p}")
    return legendre(x.numerator * x.denominator, p)


@dataclass(frozen=True, order=False)
class PAdicValuation:
    """Value of ord_p: an integer, or infinity exactly for the rational 0.

    Infinity is an explicit variant (finite=None), not a sentinel integer,
    so that comparisons like `ord_p(0, 3) > anything` are total and testable.
    """

    finite: int | None

    @classmethod
    def of(cls, k: int) -> "PAdicValuation":
        return cls(int(k))

    @classmethod
    def infinity(cls) -> "PAdicValuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def __int__(self) -> int:
        if self.finite is None:
            raise ValueError("infinite valuation has no integer value")
        return self.finite

    def _key(self) -> tuple[int, int]:
        # infinity sorts above every integer
        return (1, 0) if self.finite is None else (0, self.finite)

    def __lt__(self, other: "PAdicValuation | int") -> bool:
        return self._key() < _as_val(other)._key()

    def __le__(self, other: "PAdicValuation | int") -> bool:
        return self._key() <= _as_val(other)._key()

    def __gt__(self, other: "PAdicValuation | int") -> bool:
        return self._key() > _as_val(other)._key()

    def __ge__(self, other: "PAdicValuation | int") -> bool:
        return self._key() >= _as_val(other)._key()

    def __add__(self, other: "PAdicValuation | int") -> "PAdicValuation":
        o = _as_val(other)
        if self.finite is None or o.finite is None:
            return PAdicValuation.infinity()
        return PAdicValuation.of(self.finite + o.finite)

    def __repr__(self) -> str:
        return "ord(oo)" if self.finite is None else f"ord({self.finite})"


def _as_val(x: "PAdicValuation | int") -> PAdicValuation:
    return x if isinstance(x, PAdicValuation) else PAdicValuation.of(x)


def ord_int(n: int, p: int) -> int:
    """ord_p of a nonzero integer (raises on 0)."""
    if n == 0:
        raise ValueError("ord_int(0) is infinite; use ord_p")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def ord_p(x: Rational, p: int) -> PAdicValuation:
    """p-adic valuation of a rational; ord_p(0) is infinity.

    For x != 0, p^(-ord) * x has numerator and denominator coprime with p.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    x = Fraction(x)
    if x == 0:
        return PAdicValuation.infinity()
    return PAdicValuation.of(ord_int(x.numerator, p) - ord_int(x.denominator, p))


def p_part(n: int, p: int) -> tuple[int, int]:
    """Split a nonzero integer as (alpha, q) with n = +-p^alpha * q, p coprime to q.

    Returns the exponent alpha and the p-free part q (sign preserved in q).
    """
    if n == 0:
        raise ValueError("0 has no p-part split")
    a = ord_int(n, p)
    return a, n // p**a


def nu(eta: int) -> int:
    """+1 for eta = +-1 mod 12, -1 for eta = +-5 mod 12; eta coprime to 6."""
    if gcd(eta, 6) != 1:
        raise ValueError(f"nu requires gcd(eta, 6) = 1, got {eta}")
    return 1 if eta % 12 in (1, 11) else -1


def is_qr_mod(a: int, q: int) -> bool:
    """True iff a is a quadratic residue modulo the odd integer q, gcd(a,q)=1.

    a is a residue mod q iff (a|p) = 1 for every prime divisor p of q; in
    particular mod p^k the condition is just (a|p) = 1.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {q}")
    if gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    if q == 1:
        return True
    for p in prime_factors(q):
        if legendre(a, p) != 1:
            return False
    return True


# Largest trial divisor of prime_factors: every |n| < TRIAL_DIVISION_LIMIT**2
# factors exactly, and no call runs more than about half a million divisions.
TRIAL_DIVISION_LIMIT = 10**6


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of |n|, n != 0.

    Trial division stops at TRIAL_DIVISION_LIMIT; a cofactor left above its
    square may be composite, and then ValueError names n.
    """
    orig = n
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = []
    for p in (2, 3):
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
    f, r = 5, isqrt(n)
    while f <= r:
        if f > TRIAL_DIVISION_LIMIT:
            raise ValueError(f"cannot factor {orig}: cofactor {n} has no prime factor "
                             f"up to {TRIAL_DIVISION_LIMIT} and may be composite")
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
            r = isqrt(n)
        f += 2
    if n > 1:
        out.append(n)
    return out


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}, n != 0."""
    return {p: ord_int(n, p) for p in prime_factors(n)}
