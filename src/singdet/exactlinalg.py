"""Exact integer symmetric linear algebra.

Determinants (fraction-free), Smith-normal-form cokernels, the congruence
core and the p-adic Jordan kernel (`padic_jordan`) that feeds the
linking-form classifier.  All arithmetic is arbitrary precision; there is
no floating point anywhere in this package's math.  The rational and
unimodular matrices that the verify suites check these kernels with live
in `reference`; the p-adic normal forms that the tests check
`padic_jordan` against live in `tests/oracles.py`.

The matrix types live here too: `IntegerSymmetricMatrix` and, beside it,
the presentation records `SeifertData` (an unsymmetrized Seifert matrix A
with its symmetrization) and `SpanningSurfaceData` (a spanning surface's
form with the link's component count and Gordon-Litherland correction).
The diagram layer builds them without importing any per-prime route.

The per-prime layer reads each symmetric matrix M through one memoized
congruence core (`congruence_core`).  Every M, sparse or dense, goes
through `_split_unimodular_blocks`, which splits it over Z as B + R, B an
orthogonal sum of unimodular 1x1 and 2x2 blocks: unit pivots are taken in
the order of their Markowitz cost when queued (Markowitz, Management
Science 3 (1957)), and each exact Schur update touches only the pivot
rows' supports.  The rows no pivot removes form R, all of M when M has no
unit pivot.  B is unimodular, so R presents the linking form of M: det,
the signature, mu, d_p, delta_p and the Wall summands all read the core.
Vogel-untangled Seifert matrices are about 98% zeros and almost all
unimodular, so R has a few rows at most, and every kernel that reads R is
one dense loop over its rows: the fraction-free symmetric Bareiss pass
that gives sign M and det M, `corank_mod_p`, the F_p elimination of
`seifert` and `padic_jordan`.  `det_exact` is one Bareiss elimination of
the whole matrix, symmetric or not, and shares nothing with the core: it
is the core's independent check.
"""

from __future__ import annotations

import functools
from collections import namedtuple

from .numtheory import check_odd_prime, factorize

Rows = tuple[tuple[int, ...], ...]


def _int_entry(x) -> int:
    """x as an int; a ValueError, not a silent truncation, when x is not
    integral (an integral Fraction is accepted)."""
    i = int(x)
    if i != x:
        raise ValueError(f"entry {x!r} is not an integer")
    return i


def _freeze(entries) -> Rows:
    """entries as a tuple of int tuples; a row that is one already is kept."""
    return tuple(row if type(row) is tuple and all(type(x) is int for x in row)
                 else tuple(x if type(x) is int else _int_entry(x) for x in row) for row in entries)


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


class Frozen:
    """Base of the package's immutable value classes that a namedtuple does
    not fit: those that normalize their arguments, define arithmetic, or
    keep a memo or a cached property in the instance dict.  Two instances
    are equal, and hash alike, when they are of one class and their
    `_fields` are equal; the repr lists the fields.  Setting or deleting an
    attribute raises: constructors store fields with object.__setattr__ or
    in the instance dict, where memos go too."""

    _fields: tuple[str, ...] = ()

    def _state(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._state() == other._state()

    def __hash__(self):
        return hash(self._state())

    def __repr__(self) -> str:
        args = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._state()))
        return f"{type(self).__qualname__}({args})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class IntegerSymmetricMatrix(Frozen):
    """Exact square symmetric integer matrix."""

    _fields = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze(entries))
        _check_symmetric(self.entries)

    @property
    def n(self) -> int:
        return len(self.entries)

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


class SeifertData(Frozen):
    """Unsymmetrized Seifert matrix A with its symmetrization M = A + A^t,
    built once; a non-integral entry of A is a ValueError.  Equality, hash
    and repr read A alone."""

    _fields = ("A",)

    def __init__(self, A):
        rows = _freeze(A)
        _check_square(rows)
        object.__setattr__(self, "A", rows)
        M = IntegerSymmetricMatrix([tuple(x + y for x, y in zip(row, col)) for row, col in zip(rows, zip(*rows))])
        object.__setattr__(self, "M", M)

    @property
    def n(self) -> int:
        return len(self.A)


class SpanningSurfaceData(IntegerSymmetricMatrix):
    """A spanning surface's form R, which this matrix is, and which presents
    the double branched cover's linking pairing but may have odd diagonal
    entries, with what R alone does not determine: the link's
    component count mu and the Gordon-Litherland correction e.  The
    signature is sign(R) - e, and e mod 8 enters delta_p.  A symmetrized
    Seifert matrix M is the case mu = mu_of(M), e = 0; the per-prime
    functions take either.  Both are always given: `goeritz_from_diagram`
    reads them off the diagram; `oddity(R)` in `tests/oracles.py`, which
    gives e only for odd det R, serves hand-built presentations in the
    tests.
    """

    _fields = ("entries", "mu", "e")

    def __init__(self, R: IntegerSymmetricMatrix, mu: int, e: int):
        object.__setattr__(self, "entries", R.entries)  # validated when R was built
        if mu < 1:
            raise ValueError("mu must be >= 1")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "e", e)


class CokernelDecomposition(namedtuple("CokernelDecomposition",
                                        "prime_parts free_rank order_or_zero invariant_factors",
                                        defaults=((),))):
    """coker(M) = Z^free_rank + sum over primes p of Z/p^k summands.

    prime_parts maps p to the ascending list of p-exponents of the invariant
    factors, zeros included: one entry per invariant factor, so its length
    is the matrix size.  A zero invariant factor (a free Z summand, counted
    by free_rank) gets exponent 0 there.
    """

    __slots__ = ()

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


def det_exact(rows) -> int:
    """Exact determinant of a square integer matrix, symmetric or not, by
    one fraction-free Bareiss elimination (`_bareiss_det`).  It shares no
    code with the congruence core, so it is the independent check of
    `det_of`.  Entries may be ints or integral numbers of another type; a
    non-integral entry is a ValueError.
    """
    _check_square(rows)
    return _bareiss_det([list(row) for row in _freeze(rows)])


def _bareiss_det(a: list[list[int]]) -> int:
    """Determinant of a dense integer matrix (consumed) by fraction-free
    Bareiss elimination: every division is exact by Sylvester's identity."""
    n = len(a)
    if n == 0:
        return 1
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
        top = a[k]
        piv = top[k]
        for i in range(k + 1, n):
            row = a[i]
            c = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * piv - c * top[j]) // prev
        prev = piv
    return sign * a[n - 1][n - 1]


def _memo_on_matrix(fn):
    """Cache fn(M, *args) in the instance dict of M, keyed by the function's
    name and args, so that each fact about a matrix is computed once and the
    cache lives exactly as long as the matrix."""

    @functools.wraps(fn)
    def wrapper(M, *args):
        memo = M.__dict__.setdefault("_memo", {})
        key = (fn.__name__, *args)
        if key not in memo:
            memo[key] = fn(M, *args)
        return memo[key]

    return wrapper


class CongruenceCore(namedtuple("CongruenceCore", "sign det R det_B")):
    """What one integral congruence M = B + R, B unimodular, tells of a
    symmetric integer matrix M (`_congruence_split`): the signature of M,
    det M = det B * det R, the residual block R, which presents the linking
    form of M, and det B = +-1."""

    __slots__ = ()


def _split_unimodular_blocks(entries) -> tuple[int, list[list[int]]]:
    """Congruence M = B_1 + ... + B_k + R over Z with unimodular blocks B,
    for any symmetric integer matrix M, sparse or dense.

    The pivots are a diagonal a_ii = +-1 (sign a_ii), or a pair (i, j) with
    a_ij = +-1 and D = a_ii a_jj - 1 = +-1 (sign 0 when D = -1, the block
    being indefinite, and 2 sign(a_ii) when D = +1).  Each is eliminated by
    the integral inverse adj(B) * D of its block, touching only the union
    of the two rows' supports.  Candidates wait in a heap keyed by their
    Markowitz cost (r_i - 1)(r_j - 1) when queued, r the nonzero count of a
    row; every row an elimination touches queues its +-1 entries again at
    their new cost, and a popped candidate is taken if it is still a unit
    pivot.  Returns (the blocks' total signature, R dense in the original
    index order); a matrix with no unit pivot is returned whole as R.
    """
    from heapq import heappop, heappush  # on first use, not at package load

    n = len(entries)
    rows: list[dict[int, int] | None] = [
        {j: x for j, x in enumerate(row) if x} for row in entries]
    heap = []

    def offer(i):
        row = rows[i]
        ri = len(row) - 1
        for j, x in row.items():
            if x == 1 or x == -1:
                heappush(heap, (ri * (len(rows[j]) - 1), min(i, j), max(i, j)))

    for i in range(n):
        offer(i)
    sig = 0
    while heap:
        _, i, j = heappop(heap)
        ri, rj = rows[i], rows[j]
        if ri is None or rj is None or ri.get(j) not in (1, -1):
            continue
        if i != j:
            p, q, r = ri.get(i, 0), ri[j], rj.get(j, 0)
            det = p * r - 1  # q * q = 1
            if det != 1 and det != -1:
                continue
        rows[i] = rows[j] = None
        if i == j:  # a_kl -= a_ki * d * a_il, since 1/d = d
            d = ri.pop(i)
            sig += d
            rj = {}
            vec = {k: (d * x, 0) for k, x in ri.items()}
        else:  # a_kl -= x_k B^-1 x_l^t, x_k = (a_ki, a_kj), B^-1 = D * [[r, -q], [-q, p]]
            sig += 0 if det == -1 else 2 if p > 0 else -2
            for row in (ri, rj):
                row.pop(i, None)
                row.pop(j, None)
            vec = {k: (det * (r * ri.get(k, 0) - q * rj.get(k, 0)),
                       det * (p * rj.get(k, 0) - q * ri.get(k, 0))) for k in ri.keys() | rj.keys()}
        for k in vec:
            row = rows[k]
            row.pop(i, None)
            row.pop(j, None)
        for k, (u, v) in vec.items():
            row = rows[k]
            for l in vec:
                y = row.get(l, 0) - u * ri.get(l, 0) - v * rj.get(l, 0)
                if y:
                    row[l] = y
                else:
                    row.pop(l, None)
        for k in vec:
            offer(k)
    left_idx = [i for i in range(n) if rows[i] is not None]
    return sig, [[rows[i].get(j, 0) for j in left_idx] for i in left_idx]


def _symmetric_bareiss(a: list[list[int]]) -> tuple[int, int]:
    """(sign, det) of a symmetric integer matrix a (consumed), by integer
    congruence moves only.

    A nonzero active diagonal entry is the pivot; if the whole active
    diagonal is zero, row/column j is first added to row/column i, so that
    the diagonal picks up 2*a_ij.  Each pivot D_k is then a leading
    principal minor of the moved matrix, so every division is exact
    (Sylvester's identity), the signature is the sum of sign(D_k * D_(k-1))
    with D_0 = 1, and det is the last pivot.  An all-zero active block
    (kernel directions, which add nothing to the signature) ends the loop
    with det 0.
    """
    sig, prev = 0, 1
    while a:
        m = len(a)
        i = next((i for i in range(m) if a[i][i]), None)
        if i is None:
            ij = next(((i, j) for i in range(m) for j in range(i + 1, m) if a[i][j]), None)
            if ij is None:
                return sig, 0
            i, j = ij
            a[i] = [x + y for x, y in zip(a[i], a[j])]
            for row in a:
                row[i] += row[j]
        top = a.pop(i)
        piv = top.pop(i)
        sig += 1 if (piv > 0) == (prev > 0) else -1
        col = [row.pop(i) for row in a]
        a = [[(piv * x - c * y) // prev for x, y in zip(row, top)] for row, c in zip(a, col)]
        prev = piv
    return sig, prev


def _congruence_split(rows) -> CongruenceCore:
    """The congruence core of the symmetric integer matrix rows.

    Every M goes through `_split_unimodular_blocks`, whatever its density.
    Each block of B has determinant +-1, so its determinant is
    (-1)^(its negative eigenvalues), and det B = (-1)^((n - r - sign B)/2),
    r the size of R.  One `_symmetric_bareiss` pass on R gives sign R and
    det R.
    """
    sig_b, a = _split_unimodular_blocks(rows)
    det_b = (-1) ** ((len(rows) - len(a) - sig_b) // 2)
    R = tuple(map(tuple, a))
    sig_r, det_r = _symmetric_bareiss(a)
    return CongruenceCore(sig_b + sig_r, det_b * det_r, R, det_b)


@_memo_on_matrix
def congruence_core(M: IntegerSymmetricMatrix) -> CongruenceCore:
    """The congruence core of M, computed once per matrix object.  B is
    unimodular, so R presents the same linking form as M and has the same
    corank over every F_p (Wall, Topology 2 (1963); Conway-Sloane, SPLAG
    ch. 15): every per-prime fact reads R."""
    return _congruence_split(M.entries)


def det_of(M: IntegerSymmetricMatrix) -> int:
    """det M, from the congruence core of M."""
    return congruence_core(M).det


def rank_mod_p(rows, p: int) -> int:
    """Rank over F_p by forward Gaussian elimination (pivot rows are
    neither normalized nor cleared above: the rank needs neither)."""
    n = len(rows)
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if n else 0):
        piv = next((i for i in range(rank, n) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        top = a[rank]
        inv = pow(top[col], -1, p)
        for i in range(rank + 1, n):
            f = a[i][col] * inv % p
            if f:
                a[i] = [(x - f * y) % p for x, y in zip(a[i], top)]
        rank += 1
        if rank == n:
            break
    return rank


def corank_mod_p(rows, p: int) -> int:
    return len(rows) - rank_mod_p(rows, p)


# ---------------------------------------------------------------- Smith normal form

def smith_normal_form(rows) -> tuple[list[list[int]], list[list[int]], list[list[int]]]:
    """Return (D, U, V) with U*M*V = D diagonal, d_i | d_{i+1}, det U, det V = +-1.

    Smallest-nonzero-entry pivoting keeps intermediate entries modest at the
    sizes used here.
    """
    n = _check_square(rows)
    a = [list(row) for row in _freeze(rows)]
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
    d, _, _ = smith_normal_form(rows)
    n = len(d)
    factors = [d[i][i] for i in range(n)]
    free = sum(1 for x in factors if x == 0)
    finite = [x for x in factors if x != 0]
    torsion = 1
    for x in finite:
        torsion *= x
    order = 0 if free else torsion
    prime_parts: dict[int, list[int]] = {}
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
    check_odd_prime(p)
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


# ---------------------------------------------------------------- text format

def parse_matrix(text: str) -> list[list[int]]:
    toks = text.split()
    if not toks:
        raise ValueError("empty matrix text")
    n = int(toks[0])
    if n < 0:
        raise ValueError(f"matrix size {n} is negative")
    if len(toks) != 1 + n * n:
        raise ValueError(f"expected {n * n} entries, got {len(toks) - 1}")
    vals = [int(t) for t in toks[1:]]
    return [vals[i * n:(i + 1) * n] for i in range(n)]
