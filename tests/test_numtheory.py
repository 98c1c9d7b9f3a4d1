import math
import random

import pytest

import singdet.numtheory as numtheory
from singdet.numtheory import (
    MILLER_RABIN_BOUND,
    _miller_rabin,
    factorize,
    is_prime,
    legendre,
    nu,
    p_part,
    prime_factors,
)
from fractions import Fraction

from oracles import PAdicValuation, is_qr_mod, legendre_fraction, ord_p


def odd_primes_upto(n):
    return [p for p in range(3, n + 1) if is_prime(p)]


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
    for n in range(-3, 32):
        assert is_prime(n) == (n in primes)
    assert is_prime(7919)
    assert not is_prime(7917)


def test_legendre_rejects_bad_modulus():
    for p in (0, 1, 2, 4, 9, 15, -7):
        with pytest.raises(ValueError):
            legendre(3, p)


def test_legendre_against_exhaustive_residues():
    # spec invariant: agreement with the full square table for p <= 97
    for p in odd_primes_upto(97):
        squares = {(b * b) % p for b in range(1, p)}
        for a in range(-p, 2 * p):
            want = 0 if a % p == 0 else (1 if a % p in squares else -1)
            assert legendre(a, p) == want


def test_legendre_multiplicative():
    rng = random.Random(1)
    for _ in range(400):
        p = rng.choice([3, 5, 7, 11, 13, 97])
        a = rng.randrange(-1000, 1001)
        b = rng.randrange(-1000, 1001)
        assert legendre(a * b, p) == legendre(a, p) * legendre(b, p)


def test_legendre_closed_forms():
    # (-1|p) by p mod 4 and (2|p) by p mod 8, for all odd primes <= 1000
    for p in odd_primes_upto(1000):
        assert legendre(-1, p) == (1 if p % 4 == 1 else -1)
        assert legendre(2, p) == (1 if p % 8 in (1, 7) else -1)


def test_legendre_specific_values():
    assert legendre(-1, 5) == 1
    assert legendre(2, 7) == 1
    assert legendre(0, 3) == 0


def test_legendre_fraction():
    assert legendre_fraction(Fraction(1, 3), 5) == legendre(3, 5) * legendre(1, 5)
    with pytest.raises(ValueError):
        legendre_fraction(Fraction(5, 3), 5)


def test_ord_p_basic():
    assert int(ord_p(9, 3)) == 2
    assert int(ord_p(Fraction(2, 9), 3)) == -2
    assert ord_p(0, 5).is_infinite
    assert int(ord_p(7, 5)) == 0


def test_ord_p_additive_under_multiplication():
    rng = random.Random(2)
    for _ in range(300):
        p = rng.choice([3, 5, 7])
        x = Fraction(rng.randrange(-200, 201), rng.randrange(1, 100))
        y = Fraction(rng.randrange(-200, 201), rng.randrange(1, 100))
        assert ord_p(x * y, p) == ord_p(x, p) + ord_p(y, p)


def test_valuation_order_total_with_infinity():
    inf = PAdicValuation.infinity()
    assert inf > 10**9 and inf >= inf and not (inf < inf)
    assert PAdicValuation.of(-3) < PAdicValuation.of(0) < inf
    assert inf + 5 == inf and (PAdicValuation.of(2) + inf).is_infinite


def test_nu_table():
    assert nu(1) == 1
    assert nu(5) == -1
    assert nu(13) == 1
    assert nu(-1) == 1
    assert nu(7) == -1
    assert nu(11) == 1
    for eta in (0, 2, 3, 9, -6):
        with pytest.raises(ValueError):
            nu(eta)


def test_is_qr_mod_golden():
    assert is_qr_mod(4, 9)
    assert not is_qr_mod(2, 3)
    with pytest.raises(ValueError):
        is_qr_mod(3, 9)
    with pytest.raises(ValueError):
        is_qr_mod(3, 8)


def test_is_qr_mod_prime_powers_match_legendre():
    # residues mod p^k are exactly the residues mod p (odd p, units)
    for p in (3, 5, 7):
        for k in (1, 2, 3):
            q = p**k
            squares = {(b * b) % q for b in range(1, q) if math.gcd(b, q) == 1}
            for a in range(1, q):
                if math.gcd(a, q) != 1:
                    continue
                assert is_qr_mod(a, q) == (a % q in squares)
                assert is_qr_mod(a, q) == (legendre(a, p) == 1)


def test_is_qr_mod_brute_force_composite():
    rng = random.Random(3)
    mods = [m for m in range(3, 10_000, 2) if m % 2 == 1]
    for q in rng.sample(mods, 60) + [9999, 6561, 1155]:
        squares = {(b * b) % q for b in range(q)}
        for _ in range(20):
            a = rng.randrange(1, q)
            if math.gcd(a, q) != 1:
                continue
            assert is_qr_mod(a, q) == (a % q in squares)


def test_p_part_and_factorize():
    assert p_part(195, 5) == (1, 39)
    assert p_part(-45, 3) == (2, -5)
    assert prime_factors(195) == [3, 5, 13]
    assert factorize(360) == {2: 3, 3: 2, 5: 1}


def trial_division_is_prime(n):
    return n % 2 == 1 and all(n % f for f in range(3, math.isqrt(n) + 1, 2))


def test_miller_rabin_agrees_with_trial_division_on_seeded_inputs():
    rng = random.Random(38)
    draws = [rng.randrange(43, 10**k) | 1 for k in (4, 6, 9) for _ in range(100)]
    draws += [rng.randrange(10**11, 10**12) | 1 for _ in range(20)]
    for n in draws:  # below TRIAL_DIVISION_LIMIT**2, is_prime is trial division
        assert _miller_rabin(n) == is_prime(n), n
    primes = [n for n in draws if n > 10**6 and is_prime(n)]
    for p, q in zip(primes, primes[1:]):
        assert not _miller_rabin(p * q), (p, q)
    # past it, is_prime is the Miller-Rabin test itself
    for n in [10**12 + 39, 10**12 + 41, 10**12 + 61, 10**12 + 63]:
        assert is_prime(n) == _miller_rabin(n) == trial_division_is_prime(n), n


@pytest.mark.parametrize("n, factors", [
    (2047, (23, 89)),  # strong pseudoprime to base 2
    (3215031751, (151, 751, 28351)),  # to the bases 2, 3, 5, 7
    (3825123056546413051, (149491, 747451, 34233211)),  # to the first 9 primes
    (318665857834031151167461, (399165290221, 798330580441)),  # to the first 12 primes
])
def test_miller_rabin_rejects_strong_pseudoprimes_to_fewer_bases(n, factors):
    assert math.prod(factors) == n
    assert not _miller_rabin(n)


def test_prime_factors_splits_a_cofactor_past_trial_division_by_rho():
    det = -801202792027905778027366252037
    assert prime_factors(det) == [167, 1012824277, 4736874518213327143]
    assert factorize(det) == {167: 1, 1012824277: 1, 4736874518213327143: 1}
    assert prime_factors(1000000007**2 * 1001000113 * 6) == [2, 3, 1000000007, 1001000113]


def test_prime_factors_refuses_what_it_cannot_prove():
    # the least strong pseudoprime to the first 13 primes is the bound itself
    psi13 = 3317044064679887385961981
    assert psi13 == MILLER_RABIN_BOUND == 1287836182261 * 2575672364521
    assert _miller_rabin(psi13)
    with pytest.raises(ValueError, match="probable prime above"):
        prime_factors(psi13)
    with pytest.raises(ValueError, match="probable prime above"):
        prime_factors(3 * (2**89 - 1))  # a Mersenne prime, beyond the proof


def test_is_prime_refuses_a_probable_prime_past_the_proven_bound():
    # trial division to the square root takes hours at the bound and far
    # longer at the Mersenne prime; the Miller-Rabin test answers at once
    for n in (2**89 - 1, MILLER_RABIN_BOUND):
        with pytest.raises(ValueError, match=f"cannot prove {n} prime.*{MILLER_RABIN_BOUND}"):
            is_prime(n)
    assert not is_prime((2**89 - 1) * (2**61 - 1))  # a composite is refuted as before


def test_prime_factors_gives_up_past_the_rho_budget(monkeypatch):
    monkeypatch.setattr(numtheory, "RHO_BUDGET", 64)
    with pytest.raises(ValueError, match="did not split within 64 rho steps"):
        prime_factors(1000000007 * 1001000113)
