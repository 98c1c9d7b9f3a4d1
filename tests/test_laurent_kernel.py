"""The sparse Laurent-polynomial kernel against the constructor-based
arithmetic it replaced.

`LaurentPolynomial`'s `+`, `-` and `*` build their results through the
unchecked `_of`, and `*` runs `rings._add_product`, the loop that the
bracket contraction runs too.  Each is compared with `tests/oracles.py`'s
`laurent_add`, `laurent_sub` and `laurent_mul`, which go through the
public constructor, on seeded pairs: doubled exponents of both parities,
sums that cancel to zero, the zero polynomial and int scalars.  Equality
compares the coefficient tuples, so a zero term kept or a term out of
order fails.  The two unlink values, the bracket's delta^k and the Q
skein's (2 z^-1 - 1)^k, both read off `rings._power`, are compared with
k repeated products.
"""

import random

from oracles import laurent_add, laurent_mul, laurent_sub
from singdet.diagrams import _DELTA, _LOOP_FACTORS, _Q_LOOP, _q_unknot_power
from singdet.rings import LaurentPolynomial, _power

PAIRS = 2000
SCALARS = (0, 1, -1, 7, -(10**30))


def _random_poly(rng: random.Random) -> LaurentPolynomial:
    """Up to eight terms at doubled exponents in [-12, 12], of both
    parities; a coefficient is zero now and then, large now and then."""
    terms = {}
    for _ in range(rng.randint(0, 8)):
        c = rng.randint(-3, 3) if rng.random() < 0.9 else rng.choice((1, -1)) * 10**rng.randint(10, 40)
        terms[rng.randint(-12, 12)] = c
    return LaurentPolynomial(terms)


def _pairs():
    rng = random.Random(4)
    for _ in range(PAIRS):
        p = _random_poly(rng)
        kind = rng.random()
        if kind < 0.15:
            q = laurent_mul(p, -1)  # p + q cancels to zero
        elif kind < 0.3:
            # q cancels part of p: its negated terms, some dropped, plus new ones
            q = LaurentPolynomial({**{e: -c for e, c in p.coeffs if rng.random() < 0.7},
                                   **{rng.randint(-12, 12): rng.randint(1, 3)}})
        elif kind < 0.35:
            q = p  # p - q cancels to zero
        else:
            q = _random_poly(rng)
        yield p, q


def _is_normal(p: LaurentPolynomial) -> bool:
    exps = [e for e, _ in p.coeffs]
    return exps == sorted(set(exps)) and all(type(e) is int and type(c) is int and c for e, c in p.coeffs)


def test_arithmetic_equals_the_constructor_route():
    zero_results = odd = large = 0
    for p, q in _pairs():
        results = [(p + q, laurent_add(p, q)), (p - q, laurent_sub(p, q)), (p * q, laurent_mul(p, q))]
        results += [(p * s, laurent_mul(p, s)) for s in SCALARS]
        results += [(s * p, laurent_mul(p, s)) for s in SCALARS]
        for got, want in results:
            assert got == want, (p, q)
            assert _is_normal(got), got
        zero_results += sum(got.is_zero() for got, _ in results[:3])
        odd += any(e % 2 for e, _ in p.coeffs + q.coeffs)
        large += any(abs(c) > 2**63 for _, c in p.coeffs + q.coeffs)
    # the draws reach cancellation, odd exponents and coefficients past 64 bits
    assert (zero_results, odd, large) == (864, 1758, 656)


def test_unlink_powers_equal_repeated_products():
    want_delta = want_q = LaurentPolynomial.one()
    for k in range(41):
        assert _power(_DELTA, k) == want_delta, k
        assert _q_unknot_power(k) == want_q, k
        want_delta, want_q = laurent_mul(want_delta, _DELTA), laurent_mul(want_q, _Q_LOOP)
    assert _DELTA.coeffs == ((-2, -1), (2, -1)) and _Q_LOOP.coeffs == ((-2, 2), (0, -1))
    assert _LOOP_FACTORS == tuple(_power(_DELTA, k).coeffs for k in range(3))
