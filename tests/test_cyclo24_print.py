"""`Cyclo24.__str__` reads its eight basis monomials i^a * sqrt3^b * sqrt2^c
from a table built once.  The loop it replaced, which rebuilt each basis
element by ring arithmetic on every call, is kept here as the oracle."""

import random

from singdet.rings import Cyclo24


def rebuilt_as_monomial(self):
    """Decompose as m * i^a * sqrt3^b * sqrt2^c with a,b,c in {0,1}."""
    if self.is_zero():
        return (0, 0, 0, 0)
    for a in range(2):
        for b in range(2):
            for c in range(2):
                basis = Cyclo24.i_pow(a) * Cyclo24.sqrt3() ** b * Cyclo24.sqrt2() ** c
                ref = next(x for x in basis.coords if x != 0)
                idx = basis.coords.index(ref)
                num = self.coords[idx]
                if num % ref != 0:
                    continue
                m = num // ref
                if basis * m == self:
                    return (m, a, b, c)
    return None


def old_str(x, monkeypatch):
    with monkeypatch.context() as mp:
        mp.setattr(Cyclo24, "_as_monomial", rebuilt_as_monomial)
        return str(x)


def test_every_small_monomial_prints_as_before(monkeypatch):
    seen = set()
    for a in range(2):
        for b in range(2):
            for c in range(2):
                basis = Cyclo24.i_pow(a) * Cyclo24.sqrt3() ** b * Cyclo24.sqrt2() ** c
                for m in range(-20, 21):
                    x = basis * m
                    assert x._as_monomial() == rebuilt_as_monomial(x)
                    assert str(x) == old_str(x, monkeypatch)
                    seen.add(str(x))
    assert {"0", "1", "-1", "i", "-20*i*sqrt3*sqrt2", "3*sqrt2"} <= seen
    assert len(seen) == 8 * 40 + 1


def test_non_monomials_fall_back_to_coordinates(monkeypatch):
    rng = random.Random(24)
    count = 0
    while count < 200:
        x = Cyclo24(tuple(rng.randrange(-4, 5) for _ in range(8)))
        if rebuilt_as_monomial(x) is not None:
            continue
        count += 1
        assert x._as_monomial() is None
        assert str(x) == old_str(x, monkeypatch) == "zeta24" + str(x.coords)
