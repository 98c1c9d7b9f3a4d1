"""Unknotting certificates against the lower bounds that `obstruct` prints.

A set of k crossing switches after which the second and first Reidemeister
moves alone (`_reidemeister_reduce`) leave one crossingless loop proves
u <= k.  A switch turns the crossing's tuple by one slot, as the Q skein's
switch does.  Every lower bound must then be at most k: Wendt's d_p - c + 1
raised by the sign rule (`improved_bound`) and ceil(|sigma|/2).  Where k
equals Wendt's bound at p, the certificate is a minimal sequence, so its
split into u+ switches of positive crossings and u- of negative ones must
satisfy the signed rule on delta_p.
"""

import random
from itertools import combinations
from math import ceil

from singdet.corpus import corpus_knots
from singdet.diagrams import _darts, _reidemeister_reduce, braid_closure_pd, seifert_matrix_from_diagram
from singdet.obstruct import improved_bound, signed_obstruction, wendt_bound
from singdet.seifert import signature

from test_computed_once import PRIMES

MAX_SWITCHES = 2


def _knots():
    """The corpus knots of at most 14 crossings, then seeded 3- and 4-strand
    knot closures of 6 to 11 letters, 200 knots in all."""
    knots = [(name, e.diagram) for name, e in sorted(corpus_knots(14).items())]
    rng = random.Random(8)
    while len(knots) < 200:
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(6, 11))]
        if set(range(1, strands)) <= {abs(x) for x in word}:
            d = braid_closure_pd(word, strands)
            if d.component_count == 1:
                knots.append((f"braid {word}", d))
    return knots


def _unknots_after(d, switched) -> bool:
    crossings = [t[1:] + t[:1] if ci in switched else t for ci, t in enumerate(d.crossings)]
    return _reidemeister_reduce(crossings, d.free_loops, _darts(crossings))[:2] == ([], 1)


def _certificate(d):
    """(k, the switch sets of size k that unknot d) for the least k <= 2
    with any, trying all C(n, k) sets; None when there is none."""
    for k in range(min(MAX_SWITCHES, d.n) + 1):
        sets = [s for s in combinations(range(d.n), k) if _unknots_after(d, set(s))]
        if sets:
            return k, sets
    return None


def test_no_lower_bound_exceeds_an_unknotting_certificate():
    knots = _knots()
    assert len(knots) == 200
    certified = sharp = pairs = swapped_fail = 0
    for name, d in knots:
        cert = _certificate(d)
        if cert is None:
            continue
        certified += 1
        k, sets = cert
        M = seifert_matrix_from_diagram(d).M
        lower = max([improved_bound(M, p) for p in PRIMES] + [ceil(abs(signature(M)) / 2)])
        assert lower <= k, (name, lower, k)
        sharp += lower == k
        for p in PRIMES:
            if wendt_bound(M, p) != k:
                continue
            con = signed_obstruction(M, p)
            for s in sets:
                u_plus = sum(d.signs[ci] == 1 for ci in s)
                assert con.consistent(u_plus, k - u_plus), (name, p, s)
                pairs += 1
                swapped_fail += not con.consistent(k - u_plus, u_plus)
    assert certified >= 190 and sharp >= 175
    # the sign rule has teeth: swapping u+ and u- breaks it on over a quarter
    assert pairs >= 790 and swapped_fail >= 200
