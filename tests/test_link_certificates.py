"""Unlinking certificates for links against the lower bounds that
`obstruct` prints.

A set of k crossing switches after which the second and first
Reidemeister moves alone (`_reidemeister_reduce`) leave c crossingless
loops, for a c-component link, proves u <= k: the loops are the
c-component unlink.  A switch turns the crossing's tuple by one slot, as
in `tests/test_unknotting_certificates.py`.  No `improved_bound` at
p = 3..13 may exceed k.  Wendt's bound w = d_p - c + 1 is often negative
for a link, and says nothing there.  Where w = k the certificate is a
minimal sequence at the bound, so its split into u+ switches of positive
crossings and u- of negative ones must satisfy the signed rule on
delta_p.  The counts are pinned: how often the sign rule raises w, how
often the raised bound meets a certificate of k >= 1 (`met`), and how
often w itself does (`sharp`).
"""

import random
from collections import Counter
from itertools import combinations

from singdet.corpus import load_corpus
from singdet.diagrams import _darts, _reidemeister_reduce, braid_closure_pd, seifert_matrix_from_diagram
from singdet.obstruct import improved_bound, signed_obstruction, wendt_bound

from test_computed_once import PRIMES

MAX_SWITCHES = 3
LINKS = 150


def _links():
    """The connected corpus links, then seeded connected 3- and 4-strand
    closures of 5 to 10 letters with at least two components, 150 in all."""
    links = [(name, e.diagram) for name, e in sorted(load_corpus().items())
             if e.diagram is not None and e.diagram.component_count > 1 and e.diagram.is_connected()]
    rng = random.Random(9)
    while len(links) < LINKS:
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(5, 10))]
        if set(range(1, strands)) <= {abs(x) for x in word}:
            d = braid_closure_pd(word, strands)
            if d.component_count > 1:
                links.append((f"braid {word}", d))
    return links


def _unlinks_after(d, switched) -> bool:
    crossings = [t[1:] + t[:1] if ci in switched else t for ci, t in enumerate(d.crossings)]
    return _reidemeister_reduce(crossings, d.free_loops, _darts(crossings))[:2] == ([], d.component_count)


def _certificate(d):
    """(k, the switch sets of size k that unlink d) for the least k <= 3
    with any, trying all C(n, k) sets; None when there is none."""
    for k in range(min(MAX_SWITCHES, d.n) + 1):
        sets = [s for s in combinations(range(d.n), k) if _unlinks_after(d, set(s))]
        if sets:
            return k, sets
    return None


def test_no_improved_bound_exceeds_an_unlinking_certificate():
    links = _links()
    assert len(links) == LINKS
    sizes = Counter()
    pairs = raised = met = sharp = negative = 0
    for name, d in links:
        cert = _certificate(d)
        if cert is None:
            continue
        k, sets = cert
        sizes[k] += 1
        M = seifert_matrix_from_diagram(d).M
        for p in PRIMES:
            w, improved = wendt_bound(M, p), improved_bound(M, p)
            assert improved <= k, (name, p, improved, k)
            pairs += 1
            raised += improved > w
            met += improved == k > 0
            negative += w < 0
            if w == k:
                sharp += k > 0
                con = signed_obstruction(M, p)
                for s in sets:
                    u_plus = sum(d.signs[ci] == 1 for ci in s)
                    assert con.consistent(u_plus, k - u_plus), (name, p, s)
    # 145 of 150 certified; the 30 at k = 0 are closures that first and
    # second Reidemeister moves alone turn into the unlink
    assert dict(sizes) == {0: 30, 1: 61, 2: 42, 3: 12}
    assert (pairs, raised, met, sharp, negative) == (725, 71, 20, 10, 471)
