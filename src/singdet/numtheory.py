"""Elementary exact number theory: primality, Legendre symbols, p-adic
valuations of integers, factorization and the sign nu() used by the
sixth-root evaluation.  Primality is trial division, or past 10^12 the
Miller-Rabin test on bases for which it is a proof below MILLER_RABIN_BOUND;
a probable prime at or above that bound is refused with ValueError, since
no test here proves it prime in bounded time.  Factorization is trial
division, then Brent's rho on the cofactor it leaves.

Everything here is exact integer arithmetic; all symbols are small ints in
{-1, 0, +1} so a single wrong sign propagates into a wrong theorem, hence the
hard preconditions (primality is actually verified, never trusted).
"""

from __future__ import annotations

from math import gcd, isqrt


# Largest trial divisor of prime_factors and is_prime: every |n| <
# TRIAL_DIVISION_LIMIT**2 factors exactly by trial division, and no call runs
# more than about half a million divisions.
TRIAL_DIVISION_LIMIT = 10**6

# The strong-probable-prime test to the first 13 prime bases proves an n
# below MILLER_RABIN_BOUND prime (Sorenson and Webster, Math. Comp. 86 (2017)).
MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981

# Steps of Brent's rho that prime_factors may spend on the cofactor left by
# trial division, over all its splits: enough for a least prime factor up to
# about 10^12, and about 4 s before the ValueError on a 2-core x86 VM.
RHO_BUDGET = 1 << 22


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division up to sqrt(n), or, past
    TRIAL_DIVISION_LIMIT**2, the Miller-Rabin test, which refutes any
    composite it rejects and proves n prime below MILLER_RABIN_BOUND.  A
    probable prime at or above the bound raises ValueError naming n."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0 or n % 3 == 0:
        return False
    f, r = 5, isqrt(n)
    if r > TRIAL_DIVISION_LIMIT:
        if not _miller_rabin(n):
            return False
        if n >= MILLER_RABIN_BOUND:
            raise ValueError(f"cannot prove {n} prime: it is a probable prime at or above "
                             f"{MILLER_RABIN_BOUND}, past which the Miller-Rabin test is no proof")
        return True
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
        raise ValueError("0 has no p-adic valuation")
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def p_part(n: int, p: int) -> tuple[int, int]:
    """Split a nonzero integer as (alpha, q) with n = +-p^alpha * q, p coprime to q.

    Returns the exponent alpha and the p-free part q (sign preserved in q).
    """
    a = ord_int(n, p)
    return a, n // p**a


def nu(eta: int) -> int:
    """+1 for eta = +-1 mod 12, -1 for eta = +-5 mod 12; eta coprime to 6."""
    if gcd(eta, 6) != 1:
        raise ValueError(f"nu requires gcd(eta, 6) = 1, got {eta}")
    return 1 if eta % 12 in (1, 11) else -1


def prime_factors(n: int) -> list[int]:
    """Sorted distinct prime factors of |n|, n != 0.

    Trial division stops at TRIAL_DIVISION_LIMIT; a cofactor left above its
    square is split by Brent's rho (`_rho_prime_factors`).  ValueError names
    n when a part is a probable prime above MILLER_RABIN_BOUND, which no
    test here proves prime, or when the split runs past RHO_BUDGET.
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
            return out + _rho_prime_factors(orig, n)
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
            r = isqrt(n)
        f += 2
    if n > 1:
        out.append(n)
    return out


def _miller_rabin(n: int) -> bool:
    """Whether the odd n > 41 is a strong probable prime to every base of
    MILLER_RABIN_BASES.  False proves n composite; True proves it prime
    only below MILLER_RABIN_BOUND."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_prime_factors(orig: int, n: int) -> list[int]:
    """Sorted distinct primes of a cofactor n of orig that has no prime
    factor up to TRIAL_DIVISION_LIMIT: each part that the Miller-Rabin test
    calls composite is split by Brent's rho, all splits sharing RHO_BUDGET
    steps.  ValueError names orig when a part is a probable prime at or
    above MILLER_RABIN_BOUND or when the budget runs out."""
    out, todo, steps = set(), [n], RHO_BUDGET
    while todo:
        m = todo.pop()
        if _miller_rabin(m):
            if m >= MILLER_RABIN_BOUND:
                raise ValueError(f"cannot factor {orig}: part {m} is a probable prime "
                                 f"above {MILLER_RABIN_BOUND}, where primality is not proven")
            out.add(m)
            continue
        d, steps = _brent_rho(m, steps)
        if d is None:
            raise ValueError(f"cannot factor {orig}: part {m} did not split "
                             f"within {RHO_BUDGET} rho steps")
        todo += [d, m // d]
    return sorted(out)


def _brent_rho(n: int, steps: int) -> tuple[int | None, int]:
    """(a proper divisor of the odd composite n or None, steps left) by
    Brent's cycle-finding rho on x -> x^2 + c (Brent, BIT 20 (1980)): the
    differences are multiplied in batches of 128 before each gcd, and a
    batch that overshoots to gcd n is walked again one difference at a
    time.  A failed c (gcd n) moves on to c + 1; every iterate counts
    against steps."""
    c = 0
    while steps > 0:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and steps > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = gcd(q, n)
                k += 128
            steps -= 2 * r
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(x - ys, n)
        if 1 < g < n:
            return g, steps
    return None, steps
