"""Closed forms for the special values of the Jones and Q polynomials,
and the Alexander polynomial of a Seifert matrix.

The closed forms read the per-prime invariants of a matrix: the Jones
value at zeta_6 from det, the F_3-dimension and the Wall parity at 3
(`linkform`), and Q(1/phi) from delta_5 and d_5 (`seifert`).  Their values
live in the rings of `rings`, where the diagram oracles of `diagrams`,
which import none of these routes, land too, so the two compare exactly.
"""

from __future__ import annotations

from .exactlinalg import IntegerSymmetricMatrix, SeifertData, det_exact, det_of, transpose
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

    Computed as x^(-n) P(x^2) for P(y) = det(A^t - y A): P is evaluated at
    y = 0..n by the integer determinant and rebuilt by integer Newton
    interpolation (`_interpolate_int`).
    """
    n = A.n
    at = transpose(A.A)
    values = [det_exact([[at[i][j] - y * A.A[i][j] for j in range(n)] for i in range(n)])
              for y in range(n + 1)]
    coeffs = _interpolate_int(values)
    return LaurentPolynomial({2 * j - n: c for j, c in enumerate(coeffs) if c})


def _interpolate_int(values: list[int]) -> list[int]:
    """Coefficients, lowest first, of the integer polynomial P of degree
    below len(values) with P(y) = values[y] at y = 0, 1, 2, ...

    The forward differences give Delta^k P(0) = k! * c_k, where the c_k are
    P's coefficients in the falling-factorial basis y(y-1)...(y-k+1), which
    are integers because P's are; Horner's rule in that basis expands P.
    Raises AssertionError when k! does not divide a difference (no integer
    polynomial takes these values).
    """
    c, diffs, fact = [], list(values), 1
    for k in range(len(values)):
        fact *= max(k, 1)
        q, r = divmod(diffs[0], fact)
        if r:
            raise AssertionError("interpolation of an integer polynomial failed")
        c.append(q)
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
    out: list[int] = []
    for k in reversed(range(len(c))):  # out = out * (y - k) + c_k
        out = [hi - k * lo for hi, lo in zip([0] + out, out + [0])]
        out[0] += c[k]
    return out
