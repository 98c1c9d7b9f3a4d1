"""Elementary exact number theory: primality, Legendre symbols, p-adic
valuations of integers, factorization and the sign nu() used by the
sixth-root evaluation.

Everything here is exact integer arithmetic; all symbols are small ints in
{-1, 0, +1} so a single wrong sign propagates into a wrong theorem, hence the
hard preconditions (primality is actually verified, never trusted).
"""

from __future__ import annotations

from math import gcd, isqrt


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


def ord_int(n: int, p: int) -> int:
    """ord_p of a nonzero integer (raises on 0)."""
    if n == 0:
        raise ValueError("ord_int(0) is infinite; use ord_p")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


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
