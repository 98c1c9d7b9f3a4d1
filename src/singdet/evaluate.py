"""Closed forms for the special values of the Jones and Q polynomials,
and the Alexander polynomial of a Seifert matrix.

The closed forms read the per-prime invariants of a matrix: the Jones
value at zeta_6 from det, the F_3-dimension and the Wall parity at 3
(`linkform`), and Q(1/phi) from delta_5 and d_5 (`seifert`).  Their values
live in the rings of `rings`, where the diagram oracles of `diagrams`,
which import none of these routes, land too, so the two compare exactly.
The Alexander polynomial is read off one integer determinant by Kronecker
substitution (`alexander_poly`).
"""

from __future__ import annotations

from .exactlinalg import IntegerSymmetricMatrix, SeifertData, det_exact, det_of
from .linkform import b_total, wall_of
from .numtheory import nu, p_part
from .rings import Cyclo24, LaurentPolynomial, Root5
from .seifert import d_p_of, delta_p


def jones_at_zeta6_knot(det: int, dim_f3: int, wall_parity: int) -> Cyclo24:
    """Closed form for a knot's Jones value at the primitive sixth root.

    With det = 3^alpha * q (q coprime to 3):
    nu(q) * (-1)^(alpha + dim_f3 + wall_parity) * (i*sqrt3)^dim_f3,
    where wall_parity is the parity of non-residue summands in the Wall
    decomposition of the linking form at p = 3 (the parity the diagram
    oracle pins down; the residue-summand parity differs from it by
    dim_f3).
    """
    if det <= 0 or det % 2 == 0:
        raise ValueError("knot determinants are odd and positive")
    alpha, q = p_part(det, 3)
    sign = nu(q) * (-1) ** ((alpha + dim_f3 + wall_parity) % 2)
    return Cyclo24.i_sqrt3() ** dim_f3 * sign


def jones_zeta6_closed_form(M: IntegerSymmetricMatrix) -> Cyclo24:
    """Knot route: determinant, F_3-dimension and Wall parities from M."""
    return jones_at_zeta6_knot(abs(det_of(M)), d_p_of(M, 3), b_total(wall_of(M), 3))


def q_at_golden_link(M: IntegerSymmetricMatrix) -> Root5:
    """delta_5(M) * sqrt5^(d_5), valid for links (even-diagonal M)."""
    return Root5.sqrt5_pow(d_p_of(M, 5)) * delta_p(M, 5)


def alexander_poly(A: SeifertData) -> LaurentPolynomial:
    """Conway-normalized Alexander polynomial det(-t^(1/2) A + t^(-1/2) A^t).

    Computed as x^(-n) P(x^2) for P(y) = det(A^t - y A), read off one
    integer determinant by Kronecker substitution: P(2^b) written in
    balanced base-2^b digits gives P's coefficients, lowest first.  Each
    |c_k| is at most max |P| on |y| = 1 (Cauchy), which is at most
    H = prod_i ||(|a_ji| + |a_ij|)_j||_2 (Hadamard), and 2^(b-1) > H keeps
    every coefficient inside one digit.
    """
    n, a = A.n, A.A
    sq = 1
    for i in range(n):
        sq *= sum((abs(a[j][i]) + abs(x)) ** 2 for j, x in enumerate(a[i]))
    b = sq.bit_length() // 2 + 3
    y = 1 << b
    rest = det_exact([[a[j][i] - y * x for j, x in enumerate(a[i])] for i in range(n)])
    coeffs = []
    for _ in range(n + 1):
        c = (rest + (y >> 1)) % y - (y >> 1)
        coeffs.append(c)
        rest = (rest - c) >> b
    if rest:
        raise AssertionError("the Kronecker decode left digits above degree n")
    return LaurentPolynomial({2 * j - n: c for j, c in enumerate(coeffs) if c})
