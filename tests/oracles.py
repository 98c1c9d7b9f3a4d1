"""Test oracles: second routes that only the tests check the package
against.  No command and no verify suite runs them, so they live here and
not in the package; the routes that `verify` runs stay in
`singdet.reference`, and these build on them.

The p-adic normal forms `rational_normalize` and `inverse_ord_normalize`
are a second route to the classification that `exactlinalg.padic_jordan`
gives the linking-form classifier; the tests compare the kernel against
them.  They clear denominators once and run one integer elimination, whose
clearing precision is fixed in advance by the Jordan bound: no pivot of a
nonsingular block B of size r and least entry valuation w exceeds
v_p(det B) - (r - 1) w.

`jacobi_minor_identity` gives both sides of the general Jacobi minor
identity on a `RationalSymmetricMatrix`, through the Fraction determinant
`det_q` of the minors.  The tests check it on random draws; `verify
prop35` checks what the package derives from it, the Wall closed form of
delta_p (`linkform.delta_from_wall`), against the definition.

`oddity` gives the Gordon-Litherland correction of a hand-built
`SpanningSurfaceData` of odd determinant.

`rational_pd` and `lens_plumbing` give two presentations of one 3-manifold
that share no code: the 2-bridge knot K(p/q), whose double branched cover
is the lens space L(p, q), and the linear plumbing of L(p, q), read off
p/q by arithmetic alone.  The reports never build a diagram, so the
builder stays here, as `grid_pd` does in its test module.  `montesinos_pd`
and `star_plumbing` do the same for a Montesinos knot and the
Seifert-fibred space that is its double branched cover.

`fox_coloring_dimension` reads d_p off a diagram's Fox colorings, and
`fox_alexander_poly` the Alexander polynomial off the Fox-calculus matrix
of its Wirtinger presentation: two routes that build no surface.  The
second shares no kernel with `alexander_poly`: its determinants are Fraction
eliminations, rebuilt into a polynomial by Lagrange over Q
(`lagrange_coeffs`).

`laurent_add`, `laurent_sub` and `laurent_mul` are `LaurentPolynomial`'s
`+`, `-` and `*` built through the public constructor, which checks and
merges every term: the reference for the package's sparse kernel
(`rings._add_product`, `rings._power`) and its unchecked results.

`rank_mod_p_swapping` and `padic_jordan_swapping` are the package's two
kernels as they were before they popped their pivots in place: each swaps
its pivot row (and column) to the front of the active block, and the
Jordan kernel rebuilds the block below it.  They are the reference for
`exactlinalg.rank_mod_p` and `exactlinalg.padic_jordan`.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from singdet.diagrams import LinkDiagram, normalize_pd
from singdet.evaluate import alexander_poly
from singdet.exactlinalg import (
    Frozen,
    IntegerSymmetricMatrix,
    SeifertData,
    SpanningSurfaceData,
    _check_square,
    _check_symmetric,
    det_exact,
    det_of,
    identity,
    parse_matrix,
    rank_mod_p,
    smith_normal_form,
    transpose,
)
from singdet.linkform import WallDecomposition
from singdet.numtheory import check_odd_prime, is_prime, legendre, ord_int, prime_factors
from singdet.obstruct import lickorish_generator_search
from singdet.reference import (
    UnimodularTransform,
    _clear_denominators,
    adjugate,
    mat_inverse_q,
    mat_mul,
)
from singdet.rings import HALFPOWER, Cyclo24, LaurentPolynomial, Root5
from singdet.seifert import d_p_of, delta_p, mu_of, signature


# ---------------------------------------------------------------- matrix text

def format_matrix(rows) -> str:
    """First line n, then n whitespace-separated rows."""
    n = len(rows)
    lines = [str(n)]
    for row in rows:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def load_symmetric_matrix(text: str) -> IntegerSymmetricMatrix:
    return IntegerSymmetricMatrix(parse_matrix(text))


# ------------------------------------------ rational matrices and minors

def _freeze_q(entries) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(x) for x in row) for row in entries)


class RationalSymmetricMatrix(Frozen):
    """Exact square symmetric matrix over Q."""

    _fields = ("entries",)

    def __init__(self, entries):
        object.__setattr__(self, "entries", _freeze_q(entries))
        _check_symmetric(self.entries)

    @property
    def m(self) -> int:
        return len(self.entries)


def minor(rows, I, J):
    """Submatrix with rows I and columns J, indices kept in original order."""
    return [[rows[i][j] for j in J] for i in I]


def det_q(rows) -> Fraction:
    """Exact determinant of a rational matrix: det_exact of the matrix
    cleared of its common denominator L, over L^n."""
    n = _check_square(rows)
    b, L = _clear_denominators(rows)
    return Fraction(det_exact(b), L**n)


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


# -------------------------------------------------------- p-adic normal forms

def _kernel_split(rows) -> tuple[list[list[int]], int]:
    """Unimodular base whose first rows span ker(C) over Z, exactly zeroed.

    Because C is symmetric, kernel basis vectors pair to exact zeros with
    everything, so conjugating by this base puts the infinite valuations up
    front where the sorted-diagonal contract wants them.  The kernel columns
    of the SNF right transform are part of a Z-basis, so reordering the
    columns of V gives the completion for free.
    """
    m = len(rows)
    d, _, v = smith_normal_form(rows)
    zero = [j for j in range(m) if d[j][j] == 0]
    nonzero = [j for j in range(m) if d[j][j] != 0]
    return [[v[i][j] for i in range(m)] for j in zero + nonzero], len(zero)


def rational_normalize(N: RationalSymmetricMatrix, p: int, rho: int) -> UnimodularTransform:
    """Unimodular S so N' = S N S^t has p-adically sorted diagonal.

    Contract on N': writing v(x) = ord_p(x),
      * v(N'[i][i]) <= v(N'[j][j]) for i >= j (nonincreasing down is the
        transposed reading: larger index has smaller-or-equal valuation),
      * v(N'[i][i]) < v(N'[i][j]) for i != j (exact zeros count as infinite
        and satisfy the strict bound),
      * rho <= v(N'[i][j]) for i != j.

    N is cleared of its common denominator L once, which shifts every
    valuation, rho included, by ord_p(L); the rest is `_integer_normalize`,
    one pass on ints.  Reference route: the linking-form classifier uses
    `padic_jordan`, and the tests rebuild the Wall decomposition from this
    normal form (through `inverse_ord_normalize`) to check the kernel
    against it.
    """
    check_odd_prime(p)
    b, L = _clear_denominators(N.entries)
    return UnimodularTransform(_integer_normalize(b, p, rho + ord_int(L, p))[0])


def _integer_normalize(
    rows: list[list[int]], p: int, rho: int
) -> tuple[list[list[int]], list[list[int]] | None]:
    """(S, S^{-1}) for a unimodular S so that S C S^t meets the
    `rational_normalize` contract at floor rho, for a symmetric integer
    matrix C.  S^{-1} is None when a kernel was split off: only
    `rational_normalize` meets singular C, and it needs S alone.

    The kernel of C is split off first (`_kernel_split`).  On the
    nonsingular block B, of size r and least entry valuation w, the
    p-exponents of the elementary divisors are each at least w and sum to
    v_p(det B), so the largest, s, is at most v_p(det B) - (r - 1) w
    (Conway-Sloane, SPLAG ch. 15 sec. 7).  No pivot exceeds s while the
    finished rows are cleared to a valuation tau > s: a row vanishing mod
    p^(s+1) would contradict p^s B^{-1} being p-integral.  So the clearing
    precision tau = max(rho, v_p(det B) - (r - 1) w + 1) is fixed before
    the pass (`_normalize_pass`), which runs once.  The contract is checked
    on the exact result; a failure is an AssertionError.
    """
    m = len(rows)
    core = [list(row) for row in rows]
    det = det_exact(rows)
    kdim = 0
    if not det:
        base, kdim = _kernel_split(rows)
        core = mat_mul(mat_mul(base, rows), transpose(base))
        if any(any(row) for row in core[:kdim]):
            raise AssertionError("kernel split failed")
        det = det_exact([row[kdim:] for row in core[kdim:]])
    s, s_inv = identity(m), identity(m)
    if kdim < m:
        w = ord_int(gcd(*(x for row in core[kdim:] for x in row)), p)
        tau = max(rho, ord_int(det, p) - (m - kdim - 1) * w + 1)
        s, s_inv = _normalize_pass(core, kdim, p, tau)
    _check_normal_contract(core, p, rho)
    return (mat_mul(s, base), None) if kdim else (s, s_inv)


def _normalize_pass(
    a: list[list[int]], kdim: int, p: int, tau: int
) -> tuple[list[list[int]], list[list[int]]]:
    """Symmetric elimination of a (in place) from its last slot down to
    slot kdim; returns the transform S, so that a ends as S a S^t, and
    S^{-1}, carried by the inverse column moves.

    Each step places an active entry of least valuation on the last active
    diagonal slot, moving an off-diagonal minimum a_ij onto the diagonal
    by one shear, a_ii + 2a_ij + a_jj (p odd keeps its valuation e), then
    clears the rest of that row to valuation tau by shears whose integer
    coefficient is -a_ij / a_ii mod p^(tau - e).  Valuations never fall
    from one pivot to the next, so the scan for the least one resumes at
    the previous level.
    """
    m = len(a)
    s, s_inv = identity(m), identity(m)

    def swap(i, j):
        a[i], a[j] = a[j], a[i]
        for r in a:
            r[i], r[j] = r[j], r[i]
        s[i], s[j] = s[j], s[i]
        for r in s_inv:
            r[i], r[j] = r[j], r[i]

    def shear(src, dst, c):
        # row/col dst += c * row/col src; in S^{-1}, column src -= c * column dst
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        for r in a:
            r[dst] += c * r[src]
        s[dst] = [x + c * y for x, y in zip(s[dst], s[src])]
        for r in s_inv:
            r[src] -= c * r[dst]

    e, pe = 0, 1  # current valuation level and p^e
    for last in range(m - 1, kdim - 1, -1):
        block = range(kdim, last + 1)
        while True:
            step = pe * p
            i = next((i for i in block if a[i][i] % step), None)
            if i is not None:
                break
            ij = next(((i, j) for i in block for j in range(i + 1, last + 1) if a[i][j] % step), None)
            if ij is not None:
                i, j = ij
                shear(j, i, 1)  # a_ii picks up 2 a_ij: valuation e
                break
            e, pe = e + 1, step
            if e >= tau:
                raise AssertionError(f"active block vanishes mod {p}^{tau}")
        if i != last:
            swap(i, last)
        mod = p ** (tau - e)
        uinv = pow(a[last][last] // pe, -1, mod)
        for j in range(kdim, last):
            c = -(a[last][j] // pe) * uinv % mod
            if c:
                shear(last, j, c - mod if c > mod // 2 else c)
    return s, s_inv


def _check_normal_contract(a: list[list[int]], p: int, rho: int) -> None:
    """Raise AssertionError unless the integer matrix a meets the
    `rational_normalize` contract at floor rho; a zero has infinite
    valuation."""
    diag = [ord_int(row[i], p) if row[i] else None for i, row in enumerate(a)]
    finite = [v for v in diag if v is not None]
    if diag != [None] * (len(a) - len(finite)) + sorted(finite, reverse=True):
        raise AssertionError(f"diagonal valuations {diag} are not sorted")
    for i, row in enumerate(a):
        # off the diagonal, each nonzero entry must vanish mod p^bound
        bound = None if diag[i] is None else p ** max(rho, diag[i] + 1)
        for j, x in enumerate(row):
            if j != i and x and (bound is None or x % bound):
                raise AssertionError(f"entry ({i},{j}) of valuation {ord_int(x, p)} breaks the contract")


def inverse_ord_normalize(M: IntegerSymmetricMatrix, p: int) -> UnimodularTransform:
    """Unimodular T so that (T M T^t)^{-1} has diagonal valuations -k_i.

    The k_i are the ascending p-exponents of coker(M); off-diagonal entries
    of the inverse become p-integral.  With (D, d) = adjugate(M), so that
    D = d M^{-1}, the normal form of M^{-1} at floor 0 is that of the
    integer matrix D at floor ord_p(d): S = `_integer_normalize`(D), and
    T = (S^{-1})^t, with S^{-1} carried through the pass rather than
    inverted afterwards (S can grow far larger than S^{-1}).  Integer
    arithmetic throughout.

    Reference route for the Wall decomposition: reading the diagonal of
    (T M T^t)^{-1} gives the same summands as `padic_jordan`; the tests
    compare the two.
    """
    check_odd_prime(p)
    try:
        D, d = adjugate(M.entries)
    except ZeroDivisionError:
        raise ValueError("matrix must be nonsingular") from None
    _, s_inv = _integer_normalize(D, p, ord_int(d, p))
    return UnimodularTransform(transpose(s_inv))


# --------------------------------------------- p-adic valuations and residues

def legendre_fraction(x: int | Fraction, p: int) -> int:
    """Legendre symbol of a rational with ord_p(x) = 0.

    (num/den | p) = (num*den | p) since den^2 is a square mod p.
    """
    x = Fraction(x)
    if x.numerator % p == 0 or x.denominator % p == 0:
        raise ValueError(f"{x} is not a p-adic unit for p = {p}")
    return legendre(x.numerator * x.denominator, p)


class PAdicValuation(Frozen):
    """Value of ord_p: an integer, or infinity exactly for the rational 0.

    Infinity is an explicit variant (finite=None), not a sentinel integer,
    so that comparisons like `ord_p(0, 3) > anything` are total and testable.
    """

    _fields = ("finite",)

    def __init__(self, finite: int | None):
        object.__setattr__(self, "finite", finite)

    @classmethod
    def of(cls, k: int) -> "PAdicValuation":
        return cls(int(k))

    @classmethod
    def infinity(cls) -> "PAdicValuation":
        return cls(None)

    @property
    def is_infinite(self) -> bool:
        return self.finite is None

    def __int__(self) -> int:
        if self.finite is None:
            raise ValueError("infinite valuation has no integer value")
        return self.finite

    def _key(self) -> tuple[int, int]:
        # infinity sorts above every integer
        return (1, 0) if self.finite is None else (0, self.finite)

    def __lt__(self, other: "PAdicValuation | int") -> bool:
        return self._key() < _as_val(other)._key()

    def __le__(self, other: "PAdicValuation | int") -> bool:
        return self._key() <= _as_val(other)._key()

    def __gt__(self, other: "PAdicValuation | int") -> bool:
        return self._key() > _as_val(other)._key()

    def __ge__(self, other: "PAdicValuation | int") -> bool:
        return self._key() >= _as_val(other)._key()

    def __add__(self, other: "PAdicValuation | int") -> "PAdicValuation":
        o = _as_val(other)
        if self.finite is None or o.finite is None:
            return PAdicValuation.infinity()
        return PAdicValuation.of(self.finite + o.finite)


def _as_val(x: "PAdicValuation | int") -> PAdicValuation:
    return x if isinstance(x, PAdicValuation) else PAdicValuation.of(x)


def ord_p(x: int | Fraction, p: int) -> PAdicValuation:
    """p-adic valuation of a rational; ord_p(0) is infinity.

    For x != 0, p^(-ord) * x has numerator and denominator coprime with p.
    """
    if not is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    x = Fraction(x)
    if x == 0:
        return PAdicValuation.infinity()
    return PAdicValuation.of(ord_int(x.numerator, p) - ord_int(x.denominator, p))


def is_qr_mod(a: int, q: int) -> bool:
    """True iff a is a quadratic residue modulo the odd integer q, gcd(a,q)=1.

    a is a residue mod q iff (a|p) = 1 for every prime divisor p of q; in
    particular mod p^k the condition is just (a|p) = 1.
    """
    if q < 1 or q % 2 == 0:
        raise ValueError(f"modulus must be odd and positive, got {q}")
    if gcd(a, q) != 1:
        raise ValueError(f"gcd({a}, {q}) != 1")
    if q == 1:
        return True
    for p in prime_factors(q):
        if legendre(a, p) != 1:
            return False
    return True


# -------------------------------------------------------------- linking forms

def r_pk(W: WallDecomposition, p: int, k: int) -> int:
    """Number of A_{p^k} summands mod 2 (a complete system of invariants)."""
    return sum(1 for (q, j, t) in W.summands if (q, j, t) == (p, k, "A")) % 2


def r_total(W: WallDecomposition, p: int) -> int:
    """Parity of the total number of A summands at the prime p."""
    return sum(1 for (q, _, t) in W.summands if q == p and t == "A") % 2


def isometric(W1: WallDecomposition, W2: WallDecomposition) -> bool:
    """Same underlying group and equal r_{p,k} for all (p, k).

    Both decompositions are stored in the canonical <=1-B-per-(p,k) form, so
    this is a plain equality of summand multisets.
    """
    return W1.summands == W2.summands


# --------------------------------------------- Seifert data and stabilization

class LinkInvariantBundle(NamedTuple):
    c: int
    det: int
    sigma: int
    d_p: dict[int, int]
    delta_p: dict[int, int]
    arf_sign: int | None


def crossing_change_pair(
    P: IntegerSymmetricMatrix, a: int, case: int
) -> tuple[IntegerSymmetricMatrix, IntegerSymmetricMatrix]:
    """Matrices (M_plus, M_minus) for the two links across one crossing change.

    The pair is identical except for the last diagonal entry, greater by two
    in M_minus.  case 1 appends the 1x1 block (a -+ 1); case 2 the 2x2 block
    [[0, 1], [1, a -+ 1]].  a must be odd so diagonals stay even.
    """
    if case not in (1, 2):
        raise ValueError("case must be 1 or 2")
    if a % 2 == 0:
        raise ValueError("a must be odd to keep diagonals even")
    if not P.has_even_diagonal():
        raise ValueError("P must have even diagonal entries")
    if case == 1:
        plus = P.block_sum(IntegerSymmetricMatrix([[a - 1]]))
        minus = P.block_sum(IntegerSymmetricMatrix([[a + 1]]))
    else:
        plus = P.block_sum(IntegerSymmetricMatrix([[0, 1], [1, a - 1]]))
        minus = P.block_sum(IntegerSymmetricMatrix([[0, 1], [1, a + 1]]))
    return plus, minus


def characteristic_vector(R: IntegerSymmetricMatrix) -> list[int]:
    """A 0/1 vector v with w^t R w = v^t R w (mod 2) for all w.

    Equivalent to solving R v = diag(R) over F_2, which is always solvable
    for symmetric matrices; when R has even diagonal, v = 0.  (For matrices
    whose diagonal parities already solve the system, such as even-diagonal
    ones, this agrees with taking v_i = R_ii mod 2.)
    """
    n = R.n
    a = [[R.entries[i][j] % 2 for j in range(n)] + [R.entries[i][i] % 2] for i in range(n)]
    rank = 0
    pivots = []
    for col in range(n):
        piv = next((r for r in range(rank, n) if a[r][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(n):
            if r != rank and a[r][col]:
                a[r] = [(x + y) % 2 for x, y in zip(a[r], a[rank])]
        pivots.append(col)
        rank += 1
    v = [0] * n
    for r, col in enumerate(pivots):
        v[col] = a[r][n]
    for r in range(rank, n):
        if a[r][n]:
            raise AssertionError("characteristic system unsolvable for symmetric matrix")
    return v


def oddity(R: IntegerSymmetricMatrix) -> int:
    """v^t R v mod 8 for a characteristic vector v.

    Well-defined over all characteristic vectors when det(R) is odd (the
    mod-2 class of v is then unique); a fixed deterministic solution is used
    in general.  It is the Gordon-Litherland correction that the tests give
    a hand-built SpanningSurfaceData, exact only for odd det R; a Goeritz
    matrix carries the diagram's correction instead.
    """
    v = characteristic_vector(R)
    total = sum(v[i] * R.entries[i][j] * v[j] for i in range(R.n) for j in range(R.n))
    return total % 8


def delta_p_gl(S: SpanningSurfaceData, p: int) -> int:
    """delta_p(S, p), under the name the spanning-surface API has had.

    Agrees with the Seifert route when S is a Goeritz matrix of the same
    link; invariant under gl_stabilize with a (+1), (-1) or (0) block.
    """
    return delta_p(S, p)


def gl_stabilize(S: SpanningSurfaceData, block: int) -> SpanningSurfaceData:
    """Append a (+1), (-1) or (0) diagonal block; (0) also increments mu,
    and the correction e moves by the block."""
    if block not in (1, -1, 0):
        raise ValueError("block must be +1, -1 or 0")
    R = S.block_sum(IntegerSymmetricMatrix([[block]]))
    return SpanningSurfaceData(R, S.mu + (1 if block == 0 else 0), S.e + block)


def arf_sign_from_det(det: int) -> int:
    """+1 when det = +-1 mod 8, -1 when det = +-3 mod 8 (knot determinants are odd)."""
    r = det % 8
    if r in (1, 7):
        return 1
    if r in (3, 5):
        return -1
    raise ValueError(f"determinant {det} is even")


def classical_invariants(A: SeifertData, primes: list[int]) -> LinkInvariantBundle:
    """Component count, determinant, signature, d_p and delta_p per odd prime."""
    M = A.M
    c = mu_of(M)
    det = abs(det_of(M))
    sig = signature(M)
    dps = {p: d_p_of(M, p) for p in primes}
    deltas = {p: delta_p(M, p) for p in primes}
    arf = arf_sign_from_det(det) if c == 1 else None
    return LinkInvariantBundle(c=c, det=det, sigma=sig, d_p=dps, delta_p=deltas, arf_sign=arf)


def load_seifert_data(text: str) -> SeifertData:
    """Seifert file format: the square-matrix text format; A itself need not
    be symmetric, only A + A^t is validated (even diagonal is automatic)."""
    return SeifertData(parse_matrix(text))


# ------------------------------------------------------------- special values

class JonesSpecialValues(NamedTuple):
    at_1: Cyclo24
    at_minus1: Cyclo24
    at_zeta3: Cyclo24
    at_i: Cyclo24
    at_zeta6: Cyclo24


def jones_special_values(
    bundle: LinkInvariantBundle, delta3: int, proper_arf: int | None
) -> JonesSpecialValues:
    """The five special values from classical invariants.

    proper_arf is the multiplicative Arf sign of a proper link and must be
    None exactly when the link is improper (then the value at i is 0).
    """
    c = bundle.c
    if c == 1 and proper_arf is None:
        raise ValueError("a knot is proper; its Arf sign is required")
    if 3 not in bundle.d_p:
        raise ValueError("bundle must carry d_3")
    at_1 = Cyclo24.from_int((-2) ** (c - 1))
    at_minus1 = Cyclo24.i_pow(bundle.sigma) * bundle.det
    at_zeta3 = Cyclo24.from_int((-1) ** (c - 1))
    if proper_arf is None:
        at_i = Cyclo24.zero()
    else:
        at_i = (Cyclo24.sqrt2() ** (c - 1)) * ((-1) ** (c - 1) * proper_arf)
    at_zeta6 = Cyclo24.i_pow(c - 1) * Cyclo24.i_sqrt3() ** bundle.d_p[3] * delta3
    return JonesSpecialValues(at_1, at_minus1, at_zeta3, at_i, at_zeta6)


def jones_zeta6_via_delta3(M: IntegerSymmetricMatrix) -> Cyclo24:
    """Link route: delta_3 * i^(c-1) * (i*sqrt3)^(d_3) with c = mu_of(M)."""
    return Cyclo24.i_pow(mu_of(M) - 1) * Cyclo24.i_sqrt3() ** d_p_of(M, 3) * delta_p(M, 3)


def alexander_at_minus1(A: SeifertData) -> Cyclo24:
    """Exact value at t = -1 (understood as t^(1/2) = i)."""
    return alexander_poly(A).eval_root_of_unity(HALFPOWER["-1"])


# --------------------------------------------------------------- obstructions

def lickorish_direct(M: IntegerSymmetricMatrix, zeta: int) -> bool:
    """Condition (i) verbatim: a generator h with
    lambda(h,h) = 2*zeta*(-1)^((det-1)/2)/det, found by exhaustive search."""
    det = abs(det_of(M))
    if det == 1:
        return True
    target = Fraction(2 * zeta * (-1) ** (((det - 1) // 2) % 2), det)
    return lickorish_generator_search(M, [target])


def traczyk_value(M: IntegerSymmetricMatrix, u_minus: int) -> Cyclo24:
    """Predicted V(zeta_6) for a link unknottable at the F_3 bound with
    u_minus negative changes: (-1)^(u-) * i^(c-1) * (i*sqrt3)^(d_3)."""
    c = mu_of(M)
    d3 = d_p_of(M, 3)
    return Cyclo24.i_pow(c - 1) * Cyclo24.i_sqrt3() ** d3 * (-1) ** (u_minus % 2)


def q_value_bound(value: Root5, c: int) -> int | None:
    """Unknotting bound from a Q value of the form (-1)^(a+c) * sqrt5^a.

    Returns a lower bound u > a - c + 1 (i.e. u >= a - c + 2) when the sign
    matches that pattern, else None.
    """
    if value.a != 0 and value.b != 0:
        return None
    if value.b == 0:
        mag, sign5 = value.a, 0
    else:
        mag, sign5 = value.b, 1
    if mag == 0:
        return None
    k = 0
    m = abs(mag)
    while m % 5 == 0:
        m //= 5
        k += 1
    if m != 1:
        return None
    a = 2 * k + sign5
    sign = 1 if mag > 0 else -1
    if sign == (-1) ** ((a + c) % 2):
        return a - c + 2
    return None


# ------------------------------------------------------------- lens spaces

def rational_pd(p: int, q: int) -> LinkDiagram:
    """The 2-bridge knot or link K(p/q), for p > q > 0 coprime, as the
    plat closure of the 4-braid s2^a1 s1^-a2 s2^a3 ..., where
    [a1, ..., ak] is the continued fraction of p/q of odd length (an even
    one ends a, 1 in place of a + 1), with caps and cups on positions
    (1, 2) and (3, 4).  A crossing between positions i and i+1 has labels
    (li, lj) above and (ni, nj) below; it is the shadow (li, ni, nj, lj)
    in the s2 columns and that shadow turned by one slot in the s1
    columns, under strand on slots 0 and 2, for `normalize_pd` to orient.
    Its double branched cover is L(p, q) (Schubert 1956)."""
    a = []
    while q:
        a.append(p // q)
        p, q = q, p % q
    if len(a) % 2 == 0:
        a[-1:] = [a[-1] - 1, 1]
    fresh = itertools.count(3).__next__
    current = [1, 1, 2, 2]  # the caps join positions 1, 2 and 3, 4
    tuples = []
    for k, ak in enumerate(a):
        i = 1 - k % 2  # s2 in the even columns, s1 in the odd ones
        for _ in range(ak):
            li, lj = current[i], current[i + 1]
            ni, nj = fresh(), fresh()
            shadow = (li, ni, nj, lj)
            tuples.append(shadow[1:] + shadow[:1] if i == 0 else shadow)
            current[i], current[i + 1] = ni, nj
    cups = {current[1]: current[0], current[3]: current[2]}
    return normalize_pd([tuple(cups.get(lab, lab) for lab in t) for t in tuples])


def _hirzebruch_jung(p: int, q: int) -> list[int]:
    """b1, ..., bk with p/q = b1 - 1/(b2 - ...) and b_i >= 2 after the
    first, for q != 0 of either sign: b1 = ceil(p/q) is any integer."""
    b = []
    while q:
        b.append(-(-p // q))
        p, q = q, b[-1] * q - p
    return b


def lens_plumbing(p: int, q: int) -> IntegerSymmetricMatrix:
    """The linear plumbing of L(p, q), for p > q > 0 coprime: diagonal
    b1, ..., bk and -1 next to it, from the Hirzebruch-Jung continued
    fraction p/q = b1 - 1/(b2 - ...) with every b_i >= 2.  Its determinant
    is p, and it presents the linking form of L(p, q)."""
    b = _hirzebruch_jung(p, q)
    n = len(b)
    return IntegerSymmetricMatrix([[b[i] if i == j else -(abs(i - j) == 1) for j in range(n)]
                                   for i in range(n)])


# -------------------------------------------------------- Montesinos knots

def montesinos_pd(fractions) -> LinkDiagram:
    """The Montesinos link of the rational tangles beta/alpha in fractions
    (anything `Fraction` takes), set side by side as `pretzel_pd`'s columns
    are: the tangle 1/a is a column of a half-twists, so every beta = 1
    gives `pretzel_pd`'s crossings exactly.

    A tangle is built from the outside in.  Euclid's quotients of
    alpha/|beta| count, in turn, twists on the tangle's top ends and on its
    right ends; each is a crossing shaped as the column's, (NW, SW, SE, NE)
    with the under strand on slots 0 and 2, turned by one slot when
    beta < 0.  The innermost tangle is the infinity tangle )( after top
    twists and the zero tangle after right ones, so the last crossing's
    inner ends are the tangle's own left or lower ends."""
    k = len(fractions)
    fresh = itertools.count(1).__next__
    tops = [fresh() for _ in range(k)]  # arc joining tangle i's top-left corner
    bots = [fresh() for _ in range(k)]
    tuples = []
    for i, f in enumerate(map(Fraction, fractions)):
        quotients = []
        p, q = f.denominator, abs(f.numerator)
        while q:
            quotients.append(p // q)
            p, q = q, p % q
        moves = [m % 2 for m, c in enumerate(quotients) for _ in range(c)]
        nw, ne, sw, se = tops[i], tops[(i + 1) % k], bots[i], bots[(i + 1) % k]
        for j, right in enumerate(moves):
            last = j == len(moves) - 1
            if right:  # a crossing right of the rest, on its NE and SE ends
                inner = (nw, sw) if last else (fresh(), fresh())
                shadow = (*inner, se, ne)
                ne, se = inner
            else:  # a crossing above the rest, on its NW and NE ends
                inner = (sw, se) if last else (fresh(), fresh())
                shadow = (nw, *inner, ne)
                nw, ne = inner
            tuples.append(shadow if f > 0 else shadow[1:] + shadow[:1])
    return normalize_pd(tuples)


def star_plumbing(e: int, fractions) -> IntegerSymmetricMatrix:
    """The star plumbing of the Seifert-fibred space M(e; beta_1/alpha_1,
    ...), the double branched cover of `montesinos_pd(fractions)` when
    e = 0: a centre of weight e and, for each beta/alpha, a linear chain
    from the Hirzebruch-Jung fraction of alpha/beta, -1 between neighbours
    as in `lens_plumbing` (Montesinos 1973; Neumann, Trans. AMS 268
    (1981)).  Its determinant is alpha_1 ... alpha_k (e - sum beta_i/alpha_i)
    up to sign."""
    weights, edges = [e], []
    for f in map(Fraction, fractions):
        prev = 0  # the centre, joined by +1 to each chain's first vertex
        for b in _hirzebruch_jung(f.denominator, f.numerator):
            edges.append((prev, len(weights), -1 if prev else 1))
            prev = len(weights)
            weights.append(b)
    M = [[0] * len(weights) for _ in weights]
    for i, b in enumerate(weights):
        M[i][i] = b
    for i, j, x in edges:
        M[i][j] = M[j][i] = x
    return IntegerSymmetricMatrix(M)


# ------------------------------------------------------------ Fox colorings

def fox_coloring_dimension(d: LinkDiagram, p: int) -> int:
    """Dimension over F_p of the Fox p-colorings of d, a route to d_p that
    builds no surface: one color per PD label, and at each crossing
    (a, b, c, e) the over strand keeps its color, x_b = x_e, and
    2 x_b = x_a + x_c.  It is 1 + dim H_1(Sigma; F_p), Sigma the double
    branched cover (Przytycki 1998)."""
    index = {lab: i for i, lab in enumerate(sorted({lab for t in d.crossings for lab in t}))}
    rows = []
    for a, b, c, e in d.crossings:
        for terms in (((b, 1), (e, -1)), ((b, 2), (a, -1), (c, -1))):
            row = [0] * len(index)
            for lab, x in terms:
                row[index[lab]] += x
            rows.append(row)
    return len(index) - rank_mod_p(rows, p)


# ------------------------------------------------- Alexander matrix (Fox calculus)

def lagrange_coeffs(pts) -> list[int]:
    """Coefficients, lowest first, of the polynomial through the points
    (x, y), by Lagrange over Q; they must be integers."""
    n = len(pts)
    coeffs = [Fraction(0)] * n
    for k, (xk, yk) in enumerate(pts):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(pts):
            if j == k:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for d, c in enumerate(basis):
                new[d] -= c * xj
                new[d + 1] += c
            basis = new
            denom *= xk - xj
        for d, c in enumerate(basis):
            coeffs[d] += c * yk / denom
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


def _det_fraction(a: list[list[Fraction]]) -> Fraction:
    """Determinant of a square matrix (consumed) by Gaussian elimination
    over Q, skipping the zero entries of each pivot row."""
    det = Fraction(1)
    for k in range(len(a)):
        p = next((i for i in range(k, len(a)) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            det = -det
        top = a[k]
        det *= top[k]
        support = [j for j in range(k + 1, len(a)) if top[j]]
        for row in a[k + 1:]:
            if row[k]:
                f = row[k] / top[k]
                for j in support:
                    row[j] -= f * top[j]
    return det


def fox_alexander_matrix(d: LinkDiagram) -> list[dict[int, tuple[int, int]]]:
    """The Alexander matrix of the Wirtinger presentation of d, one sparse
    row per crossing, entry u + v t stored as (u, v) under its arc's index.

    The generators are the Wirtinger arcs, the PD labels joined through
    each over-crossing; the relation at a crossing with over arc k and
    under arcs i in, j out is x_j = x_k x_i x_k^-1 when it is positive and
    x_j = x_k^-1 x_i x_k when negative.  Its Fox derivatives, with every
    generator sent to t (times -t for a negative crossing), give the row
    1 - t at k, t at i and -1 at j, or -1 at i and t at j (Crowell-Fox,
    Introduction to Knot Theory (1963), ch. VII)."""
    root: dict[int, int] = {}

    def find(x):
        while root.setdefault(x, x) != x:
            x = root[x]
        return x

    for _, b, _, e in d.crossings:
        root[find(b)] = find(e)
    index = {r: i for i, r in enumerate(sorted({find(x) for t in d.crossings for x in t}))}
    rows = []
    for ci, (a, b, c, e) in enumerate(d.crossings):
        under = ((a, (0, 1)), (c, (-1, 0))) if d.sign(ci) > 0 else ((a, (-1, 0)), (c, (0, 1)))
        row: dict[int, tuple[int, int]] = {}
        for lab, (u, v) in ((b, (1, -1)), *under):
            k = index[find(lab)]
            u0, v0 = row.get(k, (0, 0))
            row[k] = (u0 + u, v0 + v)
        rows.append(row)
    return rows


def fox_alexander_poly(d: LinkDiagram) -> list[int]:
    """Coefficients, lowest first, of the minor of `fox_alexander_matrix(d)`
    without its last row and column, which is +-t^k Delta(t) for a knot.
    Its entries have degree at most 1, so the minor, of size m, has degree
    at most m: it is evaluated at t = 0..m by `_det_fraction` and rebuilt
    by `lagrange_coeffs`."""
    rows = fox_alexander_matrix(d)
    m = len(rows) - 1
    pts = []
    for t in range(m + 1):
        a = [[Fraction(0)] * m for _ in range(m)]
        for i, row in enumerate(rows[:m]):
            for k, (u, v) in row.items():
                if k < m:
                    a[i][k] = Fraction(u + v * t)
        pts.append((t, _det_fraction(a)))
    return lagrange_coeffs(pts)


# ------------------------------------------------------- Laurent arithmetic

def laurent_add(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    d = dict(p.coeffs)
    for e, c in q.coeffs:
        d[e] = d.get(e, 0) + c
    return LaurentPolynomial(d)


def laurent_sub(p: LaurentPolynomial, q: LaurentPolynomial) -> LaurentPolynomial:
    return laurent_add(p, laurent_mul(q, -1))


def laurent_mul(p: LaurentPolynomial, q) -> LaurentPolynomial:
    """p * q for a polynomial or an int q."""
    if isinstance(q, int):
        return LaurentPolynomial({e: c * q for e, c in p.coeffs})
    d: dict[int, int] = {}
    for e1, c1 in p.coeffs:
        for e2, c2 in q.coeffs:
            d[e1 + e2] = d.get(e1 + e2, 0) + c1 * c2
    return LaurentPolynomial(d)


# ------------------------------------------ kernels that swap their pivots

def rank_mod_p_swapping(rows, p: int) -> int:
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


def padic_jordan_swapping(entries, p: int, alpha: int) -> list[tuple[int, int]]:
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
