"""Exact integer and rational symmetric linear algebra.

Determinants (fraction-free), Smith-normal-form cokernels, symmetric
congruence reduction mod p, and the p-adic Jordan kernel (`padic_jordan`)
that feeds the linking-form classifier.  The Fraction-based normal forms
`rational_normalize` and `inverse_ord_normalize` are the older, slower route
to the same classification; they stay as the reference the tests compare
the kernel against.  All arithmetic is arbitrary precision (int and
Fraction); there is no floating point anywhere in this package's math.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

from .numtheory import PAdicValuation, factorize, is_prime, ord_p

Rows = tuple[tuple[int, ...], ...]


def _freeze(entries) -> Rows:
    return tuple(tuple(int(x) for x in row) for row in entries)


def _freeze_q(entries) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


def _check_square(rows) -> int:
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise ValueError("matrix is not square")
    return n


def _check_symmetric(rows) -> None:
    n = _check_square(rows)
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError(f"matrix not symmetric at ({i},{j})")


@dataclass(frozen=True)
class IntegerSymmetricMatrix:
    """Exact square symmetric integer matrix."""

    entries: Rows

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze(entries))
        _check_symmetric(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return self.entries[ij[0]][ij[1]]

    def has_even_diagonal(self) -> bool:
        return all(self.entries[i][i] % 2 == 0 for i in range(self.n))

    def block_sum(self, other: "IntegerSymmetricMatrix") -> "IntegerSymmetricMatrix":
        n, m = self.n, other.n
        out = [[0] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                out[i][j] = self.entries[i][j]
        for i in range(m):
            for j in range(m):
                out[n + i][n + j] = other.entries[i][j]
        return IntegerSymmetricMatrix(out)

    def congruence(self, T: "UnimodularTransform") -> "IntegerSymmetricMatrix":
        """T M T^t, another symmetric matrix presenting the same form."""
        return IntegerSymmetricMatrix(mat_mul(mat_mul(T.entries, self.entries), transpose(T.entries)))


@dataclass(frozen=True)
class RationalSymmetricMatrix:
    """Exact square symmetric matrix over Q."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze_q(entries))
        _check_symmetric(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class UnimodularTransform:
    """Integer matrix with determinant +-1 (a basis change)."""

    entries: Rows

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze(entries))
        _check_square(self.entries)
        if det_exact(self.entries) not in (1, -1):
            raise ValueError("transform is not unimodular")

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "UnimodularTransform":
        return cls(identity(n))

    def inverse(self) -> "UnimodularTransform":
        inv = mat_inverse_q(self.entries)
        return UnimodularTransform([[int(x) for x in row] for row in inv])

    def transposed(self) -> "UnimodularTransform":
        return UnimodularTransform(transpose(self.entries))


@dataclass(frozen=True)
class CokernelDecomposition:
    """coker(M) = Z^free_rank + sum over primes p of Z/p^k summands.

    prime_parts maps p to the full ascending exponent list (zeros included),
    one entry per invariant factor, so its length equals the matrix size
    minus free_rank copies... precisely: length == number of invariant
    factors == matrix size when free_rank is counted separately.
    """

    prime_parts: dict[int, tuple[int, ...]]
    free_rank: int
    order_or_zero: int
    invariant_factors: tuple[int, ...] = field(default=())

    def exponents(self, p: int) -> tuple[int, ...]:
        k = len(self.invariant_factors)
        return self.prime_parts.get(p, (0,) * k)

    def d_p(self, p: int) -> int:
        """dim of coker(M) tensor F_p = corank of M over F_p."""
        return self.free_rank + sum(1 for k in self.exponents(p) if k > 0)

    def is_cyclic(self) -> bool:
        if self.free_rank > 0:
            return False
        nontrivial = [d for d in self.invariant_factors if d > 1]
        return len(nontrivial) <= 1


# ---------------------------------------------------------------- raw matrix helpers

def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def transpose(rows):
    return [list(col) for col in zip(*rows)] if rows else []


def mat_mul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    bt = transpose(b)
    return [[sum(a[i][t] * bt[j][t] for t in range(k)) for j in range(m)] for i in range(n)]


def mat_vec(a, v):
    return [sum(a[i][j] * v[j] for j in range(len(v))) for i in range(len(a))]


def det_exact(rows) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    n = _check_square(rows)
    if n == 0:
        return 1
    a = [[int(x) for x in row] for row in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det_q(rows) -> Fraction:
    """Exact determinant of a rational matrix (Gaussian elimination over Q)."""
    n = _check_square(rows)
    if n == 0:
        return Fraction(1)
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            det = -det
        det *= a[k][k]
        inv = 1 / a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] * inv
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
    return det


def mat_inverse_q(rows):
    """Exact inverse over Q (Gauss-Jordan); raises on singular input."""
    n = _check_square(rows)
    a = [[Fraction(x) for x in row] + [Fraction(1 if i == j else 0) for j in range(n)]
         for i, row in enumerate(rows)]
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular")
        a[k], a[piv] = a[piv], a[k]
        inv = 1 / a[k][k]
        a[k] = [x * inv for x in a[k]]
        for i in range(n):
            if i != k and a[i][k] != 0:
                f = a[i][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return [row[n:] for row in a]


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p by Gaussian elimination."""
    n = len(rows)
    if n == 0:
        return 0
    m = len(rows[0])
    a = [[x % p for x in row] for row in rows]
    rank = 0
    col = 0
    for col in range(m):
        piv = next((i for i in range(rank, n) if a[i][col] % p != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        inv = pow(a[rank][col], -1, p)
        a[rank] = [(x * inv) % p for x in a[rank]]
        for i in range(n):
            if i != rank and a[i][col] % p != 0:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[rank])]
        rank += 1
        if rank == n:
            break
    return rank


def corank_mod_p(rows, p: int) -> int:
    return len(rows) - rank_mod_p(rows, p)


def minor(rows, I, J):
    """Submatrix with rows I and columns J, indices kept in original order."""
    return [[rows[i][j] for j in J] for i in I]


# ---------------------------------------------------------------- Smith normal form

def smith_normal_form(rows) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U*M*V = D diagonal, d_i | d_{i+1}, det U, det V = +-1.

    Smallest-nonzero-entry pivoting keeps intermediate entries modest at the
    sizes used here.
    """
    n = _check_square(rows)
    a = [[int(x) for x in row] for row in rows]
    U = identity(n)
    V = identity(n)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]
        for r in V:
            r[dst] += c * r[src]

    t = 0
    while t < n:
        # locate smallest nonzero entry of the trailing block
        best = None
        for i in range(t, n):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = False
        for i in range(t + 1, n):
            q, r = divmod(a[i][t], a[t][t])
            if q:
                add_row(t, i, -q)
            if r:
                dirty = True
        for j in range(t + 1, n):
            q, r = divmod(a[t][j], a[t][t])
            if q:
                add_col(t, j, -q)
            if r:
                dirty = True
        if dirty:
            continue
        # pivot now divides its row and column remainders are zero; enforce
        # divisibility of the rest of the block
        offender = None
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                if a[i][j] % a[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    for i in range(n):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            U[i] = [-x for x in U[i]]
    return a, U, V


def smith_cokernel(rows) -> CokernelDecomposition:
    """Invariant-factor decomposition of coker(M) for a square integer matrix."""
    n = _check_square(rows)
    d, _, _ = smith_normal_form(rows)
    factors = [d[i][i] for i in range(n)]
    free = sum(1 for x in factors if x == 0)
    finite = [x for x in factors if x != 0]
    torsion = 1
    for x in finite:
        torsion *= x
    order = 0 if free else torsion
    prime_parts: dict[int, list[int]] = {}
    if torsion > 1:
        for p in factorize(torsion):
            ks = [0] * (n - len(finite))
            for x in finite:
                k = 0
                while x % p == 0:
                    x //= p
                    k += 1
                ks.append(k)
            prime_parts[p] = sorted(ks)
    return CokernelDecomposition(
        prime_parts={p: tuple(v) for p, v in prime_parts.items()},
        free_rank=free,
        order_or_zero=order,
        invariant_factors=tuple(factors),
    )


def cyclic_generator(rows) -> list[int]:
    """A vector generating coker(M) when the cokernel is cyclic of finite order.

    With U M V = D diagonal, [x] -> [Ux] identifies coker(M) with the direct
    sum of Z/d_i, so the preimage of the standard generator of the largest
    factor is the matching column of U^{-1}.
    """
    n = _check_square(rows)
    d, u, _ = smith_normal_form(rows)
    factors = [d[i][i] for i in range(n)]
    if any(f == 0 for f in factors):
        raise ValueError("cokernel is infinite")
    nontrivial = [i for i, f in enumerate(factors) if f > 1]
    if len(nontrivial) > 1:
        raise ValueError("cokernel is not cyclic")
    if not nontrivial:
        return [0] * n
    uinv = mat_inverse_q(u)
    col = nontrivial[0]
    return [int(uinv[i][col]) for i in range(n)]


# ---------------------------------------------------------------- mod-p block reduction

def mod_p_block_reduce(
    M: IntegerSymmetricMatrix, p: int, rng: random.Random | None = None
) -> tuple[UnimodularTransform, IntegerSymmetricMatrix, int]:
    """Unimodular T with T M T^t = N (+) 0 mod p, det(N) a unit mod p.

    Symmetric Gaussian elimination over F_p lifted to integer moves
    (permutations and shears).  Diagonal pivots are preferred; if the active
    block has unit entries only off the diagonal, adding one basis vector to
    another turns 2*W[i][j] into a diagonal unit (this is where p != 2 is
    used).  Pivot ties break to the lowest index, or randomly when `rng` is
    given (used to test path independence of the result's Legendre class).

    Returns (T, N, d_p) with N of size n - d_p, d_p = corank of M over F_p.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    n = M.n
    w = [list(row) for row in M.entries]
    t = identity(n)

    def swap(i, j):
        w[i], w[j] = w[j], w[i]
        for r in w:
            r[i], r[j] = r[j], r[i]
        t[i], t[j] = t[j], t[i]

    def shear(src, dst, c):
        # row/col dst += c * row/col src
        w[dst] = [x + c * y for x, y in zip(w[dst], w[src])]
        for r in w:
            r[dst] += c * r[src]
        t[dst] = [x + c * y for x, y in zip(t[dst], t[src])]

    k = 0
    while k < n:
        diag = [i for i in range(k, n) if w[i][i] % p != 0]
        if diag:
            i = rng.choice(diag) if rng else diag[0]
            if i != k:
                swap(i, k)
        else:
            off = [(i, j) for i in range(k, n) for j in range(i + 1, n) if w[i][j] % p != 0]
            if not off:
                break
            i, j = rng.choice(off) if rng else off[0]
            shear(j, i, 1)  # makes w[i][i] = 2*w[i][j] mod p, a unit
            if i != k:
                swap(i, k)
        inv = pow(w[k][k], -1, p)
        for i in range(k + 1, n):
            c = (-w[i][k] * inv) % p
            if c:
                shear(k, i, c)
        k += 1

    d_p = n - k
    N = IntegerSymmetricMatrix([row[:k] for row in w[:k]])
    if k and det_exact(N.entries) % p == 0:
        raise AssertionError("reduction produced a singular unit block")
    return UnimodularTransform(t), N, d_p


# ---------------------------------------------------------------- p-adic Jordan kernel

def padic_jordan(entries, p: int, alpha: int) -> list[tuple[int, int]]:
    """Non-unit pivots (e, u mod p) of a p-adic diagonalization of M.

    Symmetric elimination over Z/p^(alpha+1), alpha = ord_p(det M) (Conway-
    Sloane, SPLAG ch. 15 sec. 7).  Each step pivots on an active entry of
    least valuation, preferring the diagonal; an off-diagonal minimum a_ij
    is first moved onto the diagonal by one shear, a_ii + 2a_ij + a_jj,
    which keeps valuation e because p is odd.  The pivot's row and column
    are then cleared by shears reduced mod p^(alpha+1).  Each pivot is
    p^e * u with u a unit; only pivots with e >= 1 are returned, and they
    give the Jordan constituents of the p-part of coker(M): the summand
    Z/p^e carries the form 1/(p^e u), of Legendre class (u|p).

    Valuations never fall from one pivot to the next, so the scan for the
    least one resumes at the previous level.  Working mod p^(alpha+1) is
    exact here: the error p^(alpha+1)E perturbs each pivot p^e u only by a
    multiple of p^(e+1).  Raises AssertionError unless the returned
    exponents sum to alpha.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    mod = p ** (alpha + 1)
    a = [[x % mod for x in row] for row in entries]
    pivots = []
    e, pe = 0, 1  # current valuation level and p^e
    while a:
        m = len(a)
        step = pe * p
        i = next((i for i in range(m) if a[i][i] % step), None)
        if i is None:
            ij = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j] % step), None)
            if ij is None:
                e, pe = e + 1, step
                if e > alpha:
                    raise AssertionError(f"active block vanishes mod {p}^{alpha + 1}")
                continue
            i, j = ij
            a[i] = [(x + y) % mod for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] = (row[i] + row[j]) % mod
        if i:
            a[0], a[i] = a[i], a[0]
            for row in a:
                row[0], row[i] = row[i], row[0]
        top = a[0]
        u = top[0] // pe
        if e:
            pivots.append((e, u % p))
        uinv = pow(u, -1, mod)
        rest = top[1:]
        below = []
        for row in a[1:]:
            if row[0]:
                c = -(row[0] // pe) * uinv % mod
                below.append([(x + c * y) % mod for x, y in zip(row[1:], rest)])
            else:
                below.append(row[1:])
        a = below
    if sum(k for k, _ in pivots) != alpha:
        raise AssertionError(f"Jordan exponents {pivots} do not sum to ord_{p}(det) = {alpha}")
    return pivots


# ---------------------------------------------------------------- p-adic normal forms (reference route)

def _ordv(x: Fraction, p: int) -> PAdicValuation:
    return ord_p(x, p)


def _clear_coeff(target: Fraction, pivot: Fraction, p: int, upto: int) -> int:
    """Integer c with ord_p(target + c*pivot) >= upto, given ord(target) >= ord(pivot).

    c is the p-adic approximation of -target/pivot to precision p^k.
    """
    x = target / pivot  # ord >= 0
    k = upto - int(ord_p(pivot, p))
    if k <= 0:
        return 0
    mod = p**k
    num, den = x.numerator, x.denominator
    c = (-num * pow(den % mod, -1, mod)) % mod
    if c > mod // 2:
        c -= mod
    return c


def _rational_kernel_split(entries) -> tuple[list[list[int]], int]:
    """Unimodular base whose first rows span ker(N) over Z, exactly zeroed.

    Because N is symmetric, kernel basis vectors pair to exact zeros with
    everything, so conjugating by this base puts the infinite valuations up
    front where the sorted-diagonal contract wants them.  The kernel columns
    of the SNF right transform are part of a Z-basis, so reordering the
    columns of V gives the completion for free.
    """
    from math import gcd

    m = len(entries)
    lcm = 1
    for row in entries:
        for x in row:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    zrows = [[int(x * lcm) for x in row] for row in entries]
    d, _, v = smith_normal_form(zrows)
    zero = [j for j in range(m) if d[j][j] == 0]
    if not zero:
        return identity(m), 0
    nonzero = [j for j in range(m) if d[j][j] != 0]
    base = [[v[i][j] for i in range(m)] for j in zero + nonzero]
    return base, len(zero)


def rational_normalize(N: RationalSymmetricMatrix, p: int, rho: int) -> UnimodularTransform:
    """Unimodular S so N' = S N S^t has p-adically sorted diagonal.

    Contract on N': writing v(x) = ord_p(x),
      * v(N'[i][i]) <= v(N'[j][j]) for i >= j (nonincreasing down is the
        transposed reading: larger index has smaller-or-equal valuation),
      * v(N'[i][i]) < v(N'[i][j]) for i != j (exact zeros count as infinite
        and satisfy the strict bound),
      * rho <= v(N'[i][j]) for i != j.

    The construction places the minimum-valuation entry of the active block
    on its last diagonal slot (moving an off-diagonal minimum onto the
    diagonal by one shear; p odd makes 2 a unit) and clears its row to a
    target precision.  Since clearing precision interacts with the not yet
    known diagonal valuations, the whole pass runs under an escalating
    precision until the checked contract holds.

    Reference route: the linking-form classifier uses `padic_jordan`, and
    the tests rebuild the Wall decomposition from this normal form (through
    `inverse_ord_normalize`) to check the kernel against it.
    """
    if p == 2 or not is_prime(p):
        raise ValueError(f"p = {p} is not an odd prime")
    m = N.m
    if m == 0:
        return UnimodularTransform.identity(0)

    base, kdim = _rational_kernel_split(N.entries)
    core = mat_mul(mat_mul(base, [list(r) for r in N.entries]), transpose(base))
    for i in range(kdim):
        if any(core[i][j] != 0 for j in range(m)):
            raise AssertionError("kernel split failed")

    finite_vals = [int(ord_p(x, p)) for row in core for x in row if x != 0]
    tau = max([rho, 0] + [abs(v) for v in finite_vals]) + 4 if finite_vals else max(rho, 0) + 4

    rng = random.Random(0x5EED)
    pre = identity(m)
    for attempt in range(12):
        work = core if attempt == 0 else mat_mul(mat_mul(pre, core), transpose(pre))
        s_core, ok = _normalize_pass(work, kdim, p, rho, tau)
        if ok:
            full = mat_mul(mat_mul(s_core, pre), base)
            return UnimodularTransform(full)
        tau = 2 * tau + 8
        if attempt >= 2:
            # exact degeneracies are broken by a kernel-preserving shuffle
            shuf = random_unimodular(m - kdim, rng, steps=6).entries
            pre = identity(m)
            for i in range(m - kdim):
                for j in range(m - kdim):
                    pre[kdim + i][kdim + j] = shuf[i][j]
    raise AssertionError("p-adic normalization did not converge")


def _normalize_pass(core, kdim, p, rho, tau):
    """One sweep with clearing precision tau; returns (S, contract_ok)."""
    m = len(core)
    a = [[Fraction(x) for x in row] for row in core]
    s = identity(m)

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in a:
            r[i], r[j] = r[j], r[i]
        s[i], s[j] = s[j], s[i]

    def shear(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        for r in a:
            r[dst] += c * r[src]
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]

    # active block indices kdim..last, shrinking from the right
    for last in range(m - 1, kdim - 1, -1):
        block = range(kdim, last + 1)
        entries = [(i, j) for i in block for j in block if a[i][j] != 0]
        if not entries:
            break
        omega = min(int(ord_p(a[i][j], p)) for i, j in entries)
        diag = [i for i in block if a[i][i] != 0 and int(ord_p(a[i][i], p)) == omega]
        if diag:
            i = diag[0]
        else:
            i, j = next(
                (i, j) for i in block for j in block
                if i != j and a[i][j] != 0 and int(ord_p(a[i][j], p)) == omega
            )
            shear(i, j, 1)  # diagonal (j,j) picks up 2*a[i][j]: valuation omega
            i = j
        if i != last:
            swap(i, last)
        target = max(tau, rho)
        for j in range(m):
            if j != last and a[last][j] != 0:
                c = _clear_coeff(a[last][j], a[last][last], p, target)
                if c:
                    shear(last, j, c)

    ok = _check_normal_contract(a, p, rho)
    return (s, ok) if ok else (s, False)


def _check_normal_contract(a, p, rho) -> bool:
    m = len(a)
    vals = [[ord_p(x, p) for x in row] for row in a]
    for i in range(m):
        for j in range(i):
            # i >= j: v_ii <= v_jj
            if not vals[i][i] <= vals[j][j]:
                return False
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if not vals[i][j] >= rho:
                return False
            if not (vals[i][j].is_infinite or vals[i][i] < vals[i][j]):
                return False
    return True


def inverse_ord_normalize(M: IntegerSymmetricMatrix, p: int) -> UnimodularTransform:
    """Unimodular T so that (T M T^t)^{-1} has diagonal valuations -k_i.

    The k_i are the ascending p-exponents of coker(M); off-diagonal entries
    of the inverse become p-integral.  Built from rational_normalize applied
    to M^{-1} with floor 0: T = (S^{-1})^t.

    Reference route for the Wall decomposition: reading the diagonal of
    (T M T^t)^{-1} gives the same summands as `padic_jordan`, by Fraction
    inverses and retries instead of one elimination; the tests compare the
    two.
    """
    if det_exact(M.entries) == 0:
        raise ValueError("matrix must be nonsingular")
    inv = RationalSymmetricMatrix(mat_inverse_q(M.entries))
    S = rational_normalize(inv, p, 0)
    return S.inverse().transposed()


def jacobi_minor_identity(
    M: RationalSymmetricMatrix, I: tuple[int, ...], J: tuple[int, ...]
) -> tuple[Fraction, Fraction]:
    """Both sides of the general Jacobi minor identity (1-based index sums).

    lhs = det M[I;J]; rhs = (-1)^(sum I + sum J) det(M) det(M^{-1}[I^c;J^c]).
    Indices are passed 0-based; the sign uses the 1-based convention.
    """
    n = M.m
    I, J = tuple(sorted(I)), tuple(sorted(J))
    if len(I) != len(J):
        raise ValueError("index sets must have equal size")
    d = det_q(M.entries)
    if d == 0:
        raise ValueError("matrix must be invertible")
    lhs = det_q(minor(M.entries, I, J))
    inv = mat_inverse_q(M.entries)
    Ic = [i for i in range(n) if i not in I]
    Jc = [j for j in range(n) if j not in J]
    sign = (-1) ** (sum(i + 1 for i in I) + sum(j + 1 for j in J))
    rhs = sign * d * det_q(minor(inv, Ic, Jc))
    return lhs, rhs


# ---------------------------------------------------------------- text format

def format_matrix(rows) -> str:
    """First line n, then n whitespace-separated rows."""
    n = len(rows)
    lines = [str(n)]
    for row in rows:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> list[list[int]]:
    toks = text.split()
    if not toks:
        raise ValueError("empty matrix text")
    n = int(toks[0])
    if len(toks) != 1 + n * n:
        raise ValueError(f"expected {n * n} entries, got {len(toks) - 1}")
    vals = [int(t) for t in toks[1:]]
    return [vals[i * n:(i + 1) * n] for i in range(n)]


def load_symmetric_matrix(text: str) -> IntegerSymmetricMatrix:
    return IntegerSymmetricMatrix(parse_matrix(text))


def random_unimodular(n: int, rng: random.Random, steps: int = 12) -> UnimodularTransform:
    """Random product of elementary integer moves (shears, swaps, sign flips)."""
    t = identity(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        i = rng.randrange(n)
        j = rng.randrange(n)
        if kind == 0 and i != j:
            c = rng.choice([-2, -1, 1, 2])
            t[i] = [x + c * y for x, y in zip(t[i], t[j])]
        elif kind == 1 and i != j:
            t[i], t[j] = t[j], t[i]
        elif kind == 2:
            t[i] = [-x for x in t[i]]
    return UnimodularTransform(t)
