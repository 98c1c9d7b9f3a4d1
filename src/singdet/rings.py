"""Number rings with integer coordinates, in which the polynomial oracles
and the closed forms take their exact values.

* ``Cyclo24``  - Z[zeta] for zeta = exp(i*pi/12), basis 1..zeta^7 with
  zeta^8 = zeta^4 - 1.  This is the smallest cyclotomic ring containing
  every evaluation point's half power (t^(1/2) at t = 1, -1, zeta_3, i,
  zeta_6) together with i, sqrt3 and sqrt2; sqrt2 is genuinely needed since
  V(i) of an even-component proper link is an odd power of sqrt2.
* ``Root5`` - Z[sqrt5] for the Q-polynomial values.  A Q polynomial is
  evaluated at the reciprocal golden ratio on the two integer coordinates
  of Z[(1+sqrt5)/2], where it is a unit, and the value lands in Z[sqrt5].
* ``LaurentPolynomial`` - integer Laurent polynomials in t^(1/2), with
  their evaluations into the two rings; ``HALFPOWER`` gives t^(1/2) at
  the five evaluation points as a power of zeta.

Both diagram oracles compute on one sparse Laurent-polynomial kernel:
`_add_product`, the only sparse product loop, and `_power`, the only power
routine, which gives each oracle's unlink values.

Equality is coordinatewise and exact.  `Cyclo24.to_complex` and
`Root5.to_float` are the tests' float shadow; no route here reads them.
This module reads no invariant of a matrix, so the diagram oracles that
build these values share no code with the closed forms they are checked
against.
"""

from __future__ import annotations

import functools

from .exactlinalg import Frozen, _int_entry

# zeta^8 = zeta^4 - 1; powers of zeta as coordinate vectors
_DIM = 8


def _zeta_power_table() -> list[tuple[int, ...]]:
    table = []
    cur = [1, 0, 0, 0, 0, 0, 0, 0]
    for _ in range(24):
        table.append(tuple(cur))
        nxt = [0] + cur[:-1]
        if cur[-1]:  # zeta^8 = zeta^4 - 1
            nxt[4] += cur[-1]
            nxt[0] -= cur[-1]
        cur = nxt
    return table


_ZPOW = _zeta_power_table()


class Cyclo24(Frozen):
    """Element of Z[zeta_24] with exact integer coordinates."""

    _fields = ("coords",)

    def __init__(self, coords):
        c = tuple(x if type(x) is int else _int_entry(x) for x in coords)
        if len(c) != _DIM:
            raise ValueError("Cyclo24 needs 8 coordinates")
        object.__setattr__(self, "coords", c)

    @classmethod
    def from_int(cls, n: int) -> "Cyclo24":
        return cls((n, 0, 0, 0, 0, 0, 0, 0))

    @classmethod
    def zero(cls) -> "Cyclo24":
        return cls.from_int(0)

    @classmethod
    def one(cls) -> "Cyclo24":
        return cls.from_int(1)

    @classmethod
    def zeta_pow(cls, k: int) -> "Cyclo24":
        return cls(_ZPOW[k % 24])

    @classmethod
    def i(cls) -> "Cyclo24":
        return cls.zeta_pow(6)

    @classmethod
    def i_pow(cls, k: int) -> "Cyclo24":
        return cls.zeta_pow(6 * (k % 4))

    @classmethod
    def sqrt3(cls) -> "Cyclo24":
        # 2*zeta^2 - i
        return cls.zeta_pow(2) * 2 - cls.i()

    @classmethod
    def i_sqrt3(cls) -> "Cyclo24":
        # 2*zeta^4 - 1
        return cls.zeta_pow(4) * 2 - cls.one()

    @classmethod
    def sqrt2(cls) -> "Cyclo24":
        return cls.zeta_pow(3) + cls.zeta_pow(-3)

    def __add__(self, other: "Cyclo24") -> "Cyclo24":
        return Cyclo24(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Cyclo24") -> "Cyclo24":
        return Cyclo24(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "Cyclo24":
        return Cyclo24(tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return Cyclo24(tuple(a * other for a in self.coords))
        out = [0] * _DIM
        for i, a in enumerate(self.coords):
            if not a:
                continue
            for j, b in enumerate(other.coords):
                if not b:
                    continue
                k = i + j
                if k < _DIM:
                    out[k] += a * b
                else:
                    zk = _ZPOW[k]
                    for t in range(_DIM):
                        out[t] += a * b * zk[t]
        return Cyclo24(tuple(out))

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Cyclo24":
        if k < 0:
            raise ValueError("negative powers only for roots of unity")
        out = Cyclo24.one()
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> "Cyclo24":
        out = Cyclo24.zero()
        for j, a in enumerate(self.coords):
            if a:
                out = out + Cyclo24.zeta_pow(-j) * a
        return out

    def norm_sq(self) -> "Cyclo24":
        return self * self.conj()

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.coords)

    def to_complex(self) -> complex:
        from cmath import exp, pi

        z = exp(1j * pi / 12)
        return sum(a * z**j for j, a in enumerate(self.coords))

    def _as_monomial(self) -> tuple[int, int, int, int] | None:
        """Decompose as m * i^a * sqrt3^b * sqrt2^c with a,b,c in {0,1}."""
        coords = self.coords
        for a, b, c, basis, idx in _monomial_basis():
            m, r = divmod(coords[idx], basis[idx])
            if not r and all(x == m * y for x, y in zip(coords, basis)):
                return (m, a, b, c)
        return None

    def __str__(self) -> str:
        mono = self._as_monomial()
        if mono is None:
            return "zeta24" + str(self.coords)
        m, a, b, c = mono
        if m == 0:
            return "0"
        parts = []
        if abs(m) != 1 or (a == b == c == 0):
            parts.append(str(abs(m)))
        if a:
            parts.append("i")
        if b:
            parts.append("sqrt3")
        if c:
            parts.append("sqrt2")
        return ("-" if m < 0 else "") + "*".join(parts)


@functools.cache
def _monomial_basis() -> tuple[tuple[int, int, int, tuple[int, ...], int], ...]:
    """(a, b, c, coords, index of the first nonzero coordinate) of each
    i^a * sqrt3^b * sqrt2^c, a, b, c in {0, 1}, built on first use."""
    table = []
    for a in range(2):
        for b in range(2):
            for c in range(2):
                coords = (Cyclo24.i_pow(a) * Cyclo24.sqrt3() ** b * Cyclo24.sqrt2() ** c).coords
                table.append((a, b, c, coords, next(k for k, x in enumerate(coords) if x)))
    return tuple(table)


class Root5(Frozen):
    """Element a + b*sqrt5 of Z[sqrt5]."""

    _fields = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @classmethod
    def from_int(cls, n: int) -> "Root5":
        return cls(n, 0)

    @classmethod
    def sqrt5_pow(cls, k: int) -> "Root5":
        if k < 0:
            raise ValueError("negative powers not in the ring")
        if k % 2 == 0:
            return cls(5 ** (k // 2), 0)
        return cls(0, 5 ** ((k - 1) // 2))

    def __add__(self, o: "Root5") -> "Root5":
        return Root5(self.a + o.a, self.b + o.b)

    def __neg__(self) -> "Root5":
        return Root5(-self.a, -self.b)

    def __sub__(self, o: "Root5") -> "Root5":
        return self + (-o)

    def __mul__(self, o):
        if isinstance(o, int):
            return Root5(self.a * o, self.b * o)
        return Root5(self.a * o.a + 5 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def to_float(self) -> float:
        return self.a + self.b * 5**0.5

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        if self.a == 0:
            if self.b == 1:
                return "sqrt5"
            if self.b == -1:
                return "-sqrt5"
            return f"{self.b}*sqrt5"
        sign = "+" if self.b > 0 else "-"
        babs = abs(self.b)
        btxt = "sqrt5" if babs == 1 else f"{babs}*sqrt5"
        return f"{self.a}{sign}{btxt}"


def _add_product(acc: dict[int, int], p, q, shift: int = 0) -> None:
    """acc += p * q * x^shift; acc maps exponent -> coefficient, p and q are
    sized collections of (exponent, coefficient) pairs with distinct
    exponents.  The longer is the inner loop: loop factors and z are short."""
    if len(p) < len(q):
        p, q = q, p
    for e2, c2 in q:
        e2 += shift
        for e1, c1 in p:
            acc[e1 + e2] = acc.get(e1 + e2, 0) + c1 * c2


class LaurentPolynomial(Frozen):
    """Finitely supported Laurent polynomial; exponents may be half-integers,
    stored doubled (key = 2 * exponent).  coeffs is the sorted tuple of
    (doubled exponent, coefficient) pairs.  The constructor checks that
    each is an integer; `+`, `-` and `*` build their results by `_of`."""

    _fields = ("coeffs",)

    def __init__(self, coeffs):
        d: dict[int, int] = {}
        for e2, c in coeffs.items() if isinstance(coeffs, dict) else coeffs:
            if c:
                e2 = e2 if type(e2) is int else _int_entry(e2)
                d[e2] = d.get(e2, 0) + (c if type(c) is int else _int_entry(c))
        object.__setattr__(self, "coeffs", tuple(sorted((e, c) for e, c in d.items() if c)))

    @classmethod
    def _of(cls, pairs) -> "LaurentPolynomial":
        """Unchecked: integer terms with distinct exponents, zeros dropped."""
        out = object.__new__(cls)
        object.__setattr__(out, "coeffs", tuple(sorted((e, c) for e, c in pairs if c)))
        return out

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls({})

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    def _plus(self, o: "LaurentPolynomial", sign: int) -> "LaurentPolynomial":
        acc = dict(self.coeffs)
        _add_product(acc, o.coeffs, ((0, sign),))
        return LaurentPolynomial._of(acc.items())

    def __add__(self, o: "LaurentPolynomial") -> "LaurentPolynomial":
        return self._plus(o, 1)

    def __sub__(self, o: "LaurentPolynomial") -> "LaurentPolynomial":
        return self._plus(o, -1)

    def __mul__(self, o):
        if isinstance(o, int):
            return LaurentPolynomial._of((e, c * o) for e, c in self.coeffs)
        acc: dict[int, int] = {}
        _add_product(acc, self.coeffs, o.coeffs)
        return LaurentPolynomial._of(acc.items())

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not self.coeffs

    def eval_root_of_unity(self, halfpower_as_zeta24: int) -> Cyclo24:
        """Value when t^(1/2) = zeta_24^e; keys are exponents of t^(1/2).
        The terms are summed on coordinates, read from the table of powers
        of zeta, and one Cyclo24 is built from the sum."""
        out = [0] * _DIM
        for e2, c in self.coeffs:
            for t, z in enumerate(_ZPOW[halfpower_as_zeta24 * e2 % 24]):
                if z:
                    out[t] += c * z
        return Cyclo24(out)

    def eval_golden_reciprocal(self) -> Root5:
        """Value at z = (sqrt5-1)/2 = 1/phi, phi = (1+sqrt5)/2, for
        integer-exponent polynomials.

        The value is kept as two integers (a, b) standing for a + b*phi:
        phi^2 = phi + 1 and 1/phi = phi - 1, so multiplying by z maps (a, b)
        to (b - a, a) and multiplying by phi maps it to (b, a + b).  Horner's
        rule runs from the top exponent down to the lowest, lo, and the sum
        is then multiplied by z^lo.  a + b*phi = (a + b/2) + (b/2)*sqrt5 lies
        in Z[sqrt5] iff b is even, and a Q value always does:
        Q(1/phi) = delta_5 * sqrt5^(d_5) (`q_at_golden_link`).
        """
        coeffs = dict(self.coeffs)
        if any(e2 % 2 for e2 in coeffs):
            raise ValueError("Q polynomials have integer exponents")
        lo, hi = (min(coeffs) // 2, max(coeffs) // 2) if coeffs else (0, 0)
        a = b = 0
        for e in range(hi, lo - 1, -1):
            a, b = b - a + coeffs.get(2 * e, 0), a
        for _ in range(abs(lo)):
            a, b = (b - a, a) if lo > 0 else (b, a + b)
        if b % 2:
            raise ValueError(f"{a} + {b}*phi is not in Z[sqrt5]")
        return Root5(a + b // 2, b // 2)

    def to_str(self, var: str = "t") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for e2, c in self.coeffs:
            if e2 == 0:
                t = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                estr = str(e2 // 2) if e2 % 2 == 0 else f"({e2}/2)"
                t = f"{mag}{var}^{estr}"
            terms.append(("- " if c < 0 else "+ ") + t)
        first = terms[0].replace("+ ", "").replace("- ", "-")
        return " ".join([first] + terms[1:])

    def __str__(self) -> str:
        return self.to_str()


@functools.cache
def _power(base: LaurentPolynomial, k: int) -> LaurentPolynomial:
    """base^k for k >= 0 by k products, kept for the process: the oracles'
    unlink values are powers of their loop values."""
    out = LaurentPolynomial.one()
    for _ in range(k):
        out = out * base
    return out


# half powers t^(1/2) at the five evaluation points, as powers of zeta_24
HALFPOWER = {"1": 0, "-1": 6, "zeta3": 4, "i": 3, "zeta6": 2}
