import random
from math import gcd

import pytest

from singdet.corpus import corpus_knots, load_corpus
from singdet.diagrams import (
    DiagramError,
    LinkDiagram,
    braid_closure_pd,
    checkerboard_colors,
    euler_ok,
    face_orbits,
    goeritz_from_diagram,
    jones_via_bracket,
    mirror,
    normalize_pd,
    parse_pd,
    pd_text,
    pretzel_pd,
    q_via_skein,
    r1_kink,
    r2_slide,
    reverse_component,
    seifert_matrix_from_diagram,
)
from singdet.evaluate import alexander_poly, q_at_golden_link
from singdet.exactlinalg import det_exact, det_of
from singdet.numtheory import prime_factors
from singdet.rings import HALFPOWER, Cyclo24, LaurentPolynomial
from singdet.seifert import d_p_of, delta_p, mu_of, signature
from oracles import delta_p_gl
from test_cli_input import TREFOIL_PD
from test_grid_diagrams import grid_diagrams, grid_knots


# published Jones polynomials (standard tables), keyed by 2*exponent
PUBLISHED_JONES = {
    "3_1": {-8: -1, -6: 1, -2: 1},
    "4_1": {4: 1, 2: -1, 0: 1, -2: -1, -4: 1},
    "5_2": {-12: -1, -10: 1, -8: -1, -6: 2, -4: -1, -2: 1},
    "6_3": {6: -1, 4: 2, 2: -2, 0: 3, -2: -2, -4: 2, -6: -1},
    "7_6": {2: 1, 0: -2, -2: 3, -4: -3, -6: 4, -8: -3, -10: 2, -12: -1},
    "8_10": {12: -1, 10: 2, 8: -4, 6: 5, 4: -4, 2: 5, 0: -3, -2: 2, -4: -1},
    "9_14": {12: 1, 10: -2, 8: 3, 6: -5, 4: 6, 2: -6, 0: 6, -2: -4, -4: 3, -6: -1},
}


def test_parse_pd_basics():
    d = parse_pd(TREFOIL_PD)
    assert d.n == 3
    assert d.component_count == 1
    assert d.writhe == -3
    assert d.signs == (-1, -1, -1)


def test_parse_pd_unknots():
    assert parse_pd("O").component_count == 1
    assert parse_pd("O O").component_count == 2
    with pytest.raises(DiagramError):
        parse_pd("")
    with pytest.raises(DiagramError):
        parse_pd("X(1,2,3)")


def test_parse_pd_arc_count_validation():
    with pytest.raises(DiagramError):
        parse_pd("X(1,2,3,4) X(1,2,3,5)")  # arcs 4, 5 appear once
    with pytest.raises(DiagramError):
        parse_pd("X(1,1,1,1)")


def test_pd_text_roundtrip():
    d = parse_pd(TREFOIL_PD)
    assert parse_pd(pd_text(d)).crossings == d.crossings


def test_faces_euler():
    for pd in (TREFOIL_PD, "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"):
        d = parse_pd(pd)
        assert euler_ok(d.crossings)
        assert len(face_orbits(d.crossings)) == d.n + 2


def test_bracket_published_values():
    for name, coeffs in PUBLISHED_JONES.items():
        e = load_corpus()[name]
        assert jones_via_bracket(e.diagram) == LaurentPolynomial(coeffs), name


def test_bracket_torus_links_paper_values():
    c = load_corpus()
    assert jones_via_bracket(c["hopf_plus"].diagram) == LaurentPolynomial({5: -1, 1: -1})
    assert jones_via_bracket(c["hopf_minus"].diagram) == LaurentPolynomial({-5: -1, -1: -1})
    # V_T(2,4) = -t^(3/2) - t^(7/2) + t^(9/2) - t^(11/2)
    assert jones_via_bracket(c["t2_4"].diagram) == LaurentPolynomial(
        {3: -1, 7: -1, 9: 1, 11: -1}
    )
    # reversing one component: -t^(-9/2) - t^(-5/2) + t^(-3/2) - t^(-1/2)
    assert jones_via_bracket(c["t2_4_rev"].diagram) == LaurentPolynomial(
        {-9: -1, -5: -1, -3: 1, -1: -1}
    )


def test_bracket_unknot_and_unlink():
    assert jones_via_bracket(parse_pd("O")) == LaurentPolynomial.one()
    assert jones_via_bracket(parse_pd("O O")) == LaurentPolynomial({1: -1, -1: -1})


def test_bracket_budget():
    with pytest.raises(DiagramError):
        jones_via_bracket(braid_closure_pd([1] * 17, 2))


def test_bracket_mirror_inverts_variable():
    d = parse_pd(TREFOIL_PD)
    v = jones_via_bracket(d)
    vm = jones_via_bracket(mirror(d))
    assert vm == LaurentPolynomial({-e: c for e, c in v.coeffs})


def test_bracket_reidemeister_invariance():
    rng = random.Random(60)
    for name in ("3_1", "4_1", "hopf_plus"):
        d = load_corpus()[name].diagram
        v = jones_via_bracket(d)
        arcs = d.arcs
        # R1 kinks of both signs on random arcs
        for positive in (True, False):
            d1 = r1_kink(d, rng.choice(arcs), positive)
            assert euler_ok(d1.crossings)
            assert jones_via_bracket(d1) == v
        # R2 slides across faces found by trial
        slid = 0
        for a in arcs:
            for b in arcs:
                if a == b:
                    continue
                try:
                    d2 = r2_slide(d, a, b)
                except DiagramError:
                    continue
                assert jones_via_bracket(d2) == v
                slid += 1
                if slid >= 3:
                    break
            if slid >= 3:
                break
        assert slid >= 3


def test_seifert_matrix_golden_hopf():
    A = seifert_matrix_from_diagram(load_corpus()["hopf_plus"].diagram)
    assert A.A == ((-1,),)
    assert A.M.entries == ((-2,),)
    A2 = seifert_matrix_from_diagram(load_corpus()["hopf_minus"].diagram)
    assert A2.M.entries == ((2,),)


def test_seifert_matrix_golden_trefoil_braid():
    A = seifert_matrix_from_diagram(braid_closure_pd([1, 1, 1], 2))
    assert A.A == ((-1, 1), (0, -1))


def test_seifert_matrix_requires_connected():
    with pytest.raises(DiagramError):
        seifert_matrix_from_diagram(parse_pd("O O"))
    d = parse_pd(TREFOIL_PD + " O")
    with pytest.raises(DiagramError):
        seifert_matrix_from_diagram(d)


def test_seifert_unknot_empty():
    assert seifert_matrix_from_diagram(parse_pd("O")).n == 0


def test_seifert_bracket_identity_whole_corpus():
    # V(-1) = i^sigma det ties the diagram-true bracket to the constructed
    # Seifert matrix for every bundled diagram small enough to bracket
    for name, e in sorted(load_corpus().items()):
        d = e.diagram
        if d is None or d.n > 12 or not d.is_connected():
            continue
        M = seifert_matrix_from_diagram(d).M
        v = jones_via_bracket(d)
        det = abs(det_exact(M.entries))
        sig = signature(M)
        assert v.eval_root_of_unity(HALFPOWER["-1"]) == Cyclo24.i_pow(sig) * det, name
        # determinant also matches |V(-1)|
        assert v.eval_root_of_unity(HALFPOWER["-1"]).norm_sq() == Cyclo24.from_int(det * det)


def test_seifert_matches_bundled_matrices():
    # entries bundling both a diagram and a small Seifert matrix must agree
    # on the Alexander polynomial (an honest invariant, Conway normalized);
    # the big pretzels would balloon under untangling, so only diagrams of
    # modest size are compared this way (they get the delta checks below)
    for name in ("p3_3_3", "p3m33", "hopf_plus", "hopf_minus"):
        e = load_corpus()[name]
        A_diag = seifert_matrix_from_diagram(e.diagram)
        assert alexander_poly(A_diag) == alexander_poly(e.seifert), name


def test_seifert_pretzel_vogel_path():
    # pretzel diagrams are not braided; the untangling path must give the
    # same singular determinants as the bundled 2x2 matrices
    for name in ("p777m", "p5_17_5", "p3_3_3"):
        e = load_corpus()[name]
        M_big = seifert_matrix_from_diagram(e.diagram).M
        M_small = e.seifert.M
        det = abs(det_exact(M_small.entries))
        assert abs(det_of(M_big)) == det
        for p in prime_factors(det):
            assert delta_p(M_big, p) == delta_p(M_small, p), (name, p)
            assert d_p_of(M_big, p) == d_p_of(M_small, p), (name, p)


def test_goeritz_trefoil():
    S = goeritz_from_diagram(parse_pd(TREFOIL_PD), 1)
    det = abs(det_exact(S.entries))
    S0 = goeritz_from_diagram(parse_pd(TREFOIL_PD), 0)
    assert {det, abs(det_exact(S0.entries))} == {3}
    assert S.mu >= 1 and S0.mu >= 1


def test_goeritz_delta_agreement_both_shades():
    # singular determinants from either checkerboard surface agree with the
    # Seifert route on a tabulated batch of knots (> 20 checks)
    checked = 0
    for name, e in sorted(corpus_knots(9).items()):
        d = e.diagram
        M = seifert_matrix_from_diagram(d).M
        det = abs(det_exact(M.entries))
        primes = set(prime_factors(det) if det > 1 else []) | {3, 5}
        for shade in (0, 1):
            S = goeritz_from_diagram(d, shade)
            assert abs(det_exact(S.entries)) == det, (name, shade)
            for p in primes:
                assert delta_p_gl(S, p) == delta_p(M, p), (name, shade, p)
        checked += 1
    assert checked >= 20


def test_goeritz_link_mu():
    # T(2,4): one checkerboard surface is an annulus (mu = 2), the other a
    # disjoint pair of discs... the correction keeps delta consistent
    d = load_corpus()["t2_4"].diagram
    M = seifert_matrix_from_diagram(d).M
    for shade in (0, 1):
        S = goeritz_from_diagram(d, shade)
        for p in (3, 5):
            assert delta_p_gl(S, p) == delta_p(M, p)


def test_q_skein_unlinks():
    assert q_via_skein(parse_pd("O")) == LaurentPolynomial.one()
    assert q_via_skein(parse_pd("O O")) == LaurentPolynomial({-2: 2, 0: -1})
    three = q_via_skein(parse_pd("O O O"))
    base = LaurentPolynomial({-2: 2, 0: -1})
    assert three == base * base


def test_q_skein_budget():
    with pytest.raises(DiagramError):
        q_via_skein(braid_closure_pd([1] * 13, 2))


def test_q_skein_published_values():
    c = load_corpus()
    # Q(Hopf) = 2z^-1 - 1 + ... : published -2 z^-1 + 1 + 2z... as dict:
    assert q_via_skein(c["hopf_plus"].diagram) == LaurentPolynomial({-2: -2, 0: 1, 2: 2})
    # Q is mirror-invariant
    assert q_via_skein(c["hopf_minus"].diagram) == q_via_skein(c["hopf_plus"].diagram)
    # trefoil: -3 + 2z + 2z^2 (both chiralities)
    tre = LaurentPolynomial({0: -3, 2: 2, 4: 2})
    assert q_via_skein(parse_pd(TREFOIL_PD)) == tre
    assert q_via_skein(braid_closure_pd([1, 1, 1], 2)) == tre
    # figure eight: -3 - 2z + 4z^2 + 2z^3
    assert q_via_skein(c["4_1"].diagram) == LaurentPolynomial({0: -3, 2: -2, 4: 4, 6: 2})


def test_q_skein_rong_identity_corpus():
    for name, e in sorted(load_corpus().items()):
        d = e.diagram
        if d is None or d.n > 9:
            continue
        q = q_via_skein(d).eval_golden_reciprocal()
        if d.is_connected() and d.n > 0:
            M = seifert_matrix_from_diagram(d).M
            assert q == q_at_golden_link(M), name
        elif d.n == 0:
            # unlinks: value sqrt5^(c-1)
            from singdet.rings import Root5

            assert q == Root5.sqrt5_pow(d.component_count - 1)


def test_q_skein_reidemeister_invariance():
    rng = random.Random(61)
    d = parse_pd(TREFOIL_PD)
    q = q_via_skein(d)
    assert q_via_skein(r1_kink(d, 1, True)) == q
    assert q_via_skein(r1_kink(d, 1, False)) == q
    assert q_via_skein(mirror(d)) == q


def test_normalize_pd_matches_parser():
    # shadow tuples with slot 0 accidentally outgoing get rotated into a
    # valid diagram describing the same link
    d = parse_pd(TREFOIL_PD)
    shuffled = tuple(
        (t[2], t[3], t[0], t[1]) if i % 2 else t for i, t in enumerate(d.crossings)
    )
    d2 = normalize_pd(list(shuffled))
    assert jones_via_bracket(d2) == jones_via_bracket(d)


def test_pretzel_generator():
    # P(1,1,1) is a trefoil
    d = pretzel_pd(1, 1, 1)
    assert d.n == 3 and d.component_count == 1
    assert euler_ok(d.crossings)
    v = jones_via_bracket(d)
    assert v in (
        LaurentPolynomial({-8: -1, -6: 1, -2: 1}),
        LaurentPolynomial({8: -1, 6: 1, 2: 1}),
    )
    # P(2,2) would be a (2,4)-ish torus link; P with even entries gives links
    d24 = pretzel_pd(2, 2)
    assert d24.component_count == 2
    # determinant of P(p,q,r) is |pq + qr + rp|
    for tw in ((3, 5, 7), (3, -3, 3), (5, 17, 5)):
        d = pretzel_pd(*tw)
        M = seifert_matrix_from_diagram(d).M
        want = abs(tw[0] * tw[1] + tw[1] * tw[2] + tw[2] * tw[0])
        assert abs(det_of(M)) == want, tw


def test_braid_closure_validation():
    with pytest.raises(ValueError):
        braid_closure_pd([1], 3)  # strand 3 never used: split
    with pytest.raises(ValueError):
        braid_closure_pd([1, 1], 1)


def test_braid_closure_components():
    assert braid_closure_pd([1, 1], 2).component_count == 2
    assert braid_closure_pd([1, 1, 1], 2).component_count == 1
    assert braid_closure_pd([1, -2, 1, -2], 3).component_count == 1


def test_reverse_component_changes_signs():
    t24 = braid_closure_pd([1, 1, 1, 1], 2)
    assert t24.writhe == 4
    rev = reverse_component(t24, 1)
    assert rev.writhe == -4  # all crossings between the two components flip
    assert rev.component_count == 2


def test_is_proper():
    c = load_corpus()
    assert c["t2_4"].diagram.is_proper()  # lk = 2
    assert not c["hopf_plus"].diagram.is_proper()  # lk = 1
    assert parse_pd(TREFOIL_PD).is_proper()  # knots are proper


def test_v_at_i_vanishes_for_improper_links():
    d = load_corpus()["hopf_plus"].diagram
    v = jones_via_bracket(d).eval_root_of_unity(HALFPOWER["i"])
    assert v.is_zero()


def _five_point_inputs():
    """The connected corpus diagrams of 1 to 10 crossings, then seeded knots:
    3- and 4-strand closures of 5 to 12 letters, 3-column pretzels with
    odd twists, and grid knots of 3 to 16 crossings, which are neither."""
    for name, e in sorted(load_corpus().items()):
        d = e.diagram
        if d is not None and 0 < d.n <= 10 and d.is_connected():
            yield name, d
    rng = random.Random(34)
    knots = 0
    while knots < 60:
        strands = rng.choice((3, 4))
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(5, 12))]
        if set(range(1, strands)) <= {abs(x) for x in word}:
            d = braid_closure_pd(word, strands)
            if d.component_count == 1:
                knots += 1
                yield f"braid {word}", d
    for _ in range(40):
        twists = [rng.choice((1, -1)) * rng.choice((1, 3, 5)) for _ in range(3)]
        yield f"pretzel {twists}", pretzel_pd(*twists)
    for d in grid_knots(20, 38, (6, 12), (3, 16)):
        yield f"grid knot {d.crossings}", d


def _f2_arf(M):
    """The Arf sign of the link with symmetrized Seifert matrix M, or None if
    the link is improper, from q(x) = x^T M x / 2 mod 2 on F2^n, whose
    bilinear form q(x + y) - q(x) - q(y) is M mod 2 (Robertello 1965;
    Murakami 1986).  Symplectic reduction splits off pairs e, f with e.Mf
    odd, each adding q(e) q(f) to the Arf invariant, and projects the other
    vectors off them; a vector that pairs with none left lies in the
    radical of M mod 2, where q is linear.  The link is proper iff q
    vanishes there, and then its Arf sign is (-1)^Arf."""
    n = len(M)
    odd = [sum(1 << j for j in range(n) if M[i][j] & 1) for i in range(n)]
    half_diag = sum(1 << i for i in range(n) if M[i][i] >> 1 & 1)
    upper = [odd[i] >> (i + 1) << (i + 1) for i in range(n)]  # odd M[i][j], j > i

    def image(x):  # M x mod 2, vectors as bit masks
        out = 0
        for i in range(n):
            if x >> i & 1:
                out ^= odd[i]
        return out

    def q(x):  # sum of M[i][i] / 2 and of M[i][j], i < j, over i, j in x
        pairs = sum((upper[i] & x).bit_count() for i in range(n) if x >> i & 1)
        return ((x & half_diag).bit_count() + pairs) & 1

    vecs, radical, arf = [1 << i for i in range(n)], [], 0
    while vecs:
        e = vecs.pop()
        me = image(e)
        f = next((f for f in vecs if (me & f).bit_count() & 1), None)
        if f is None:
            radical.append(e)
            continue
        vecs.remove(f)
        mf = image(f)
        arf ^= q(e) & q(f)
        vecs = [v ^ (e if (mf & v).bit_count() & 1 else 0) ^ (f if (me & v).bit_count() & 1 else 0)
                for v in vecs]
    if any(q(v) for v in radical):
        return None
    return -1 if arf else 1


def _check_five_points(name, d, A):
    """The bracket of d at the five points against the closed forms from its
    Seifert matrix A; properness and the Arf sign come from A + A^t over F2,
    so V(i) is checked exactly for links too.  Returns the Arf sign."""
    from oracles import classical_invariants, jones_special_values

    bundle = classical_invariants(A, [3])
    assert bundle.c == d.component_count, name
    arf = _f2_arf(A.M.entries)
    assert (arf is not None) == d.is_proper(), name
    if bundle.c == 1:
        assert arf == bundle.arf_sign, name
    vals = jones_special_values(bundle, bundle.delta_p[3], arf)
    v = jones_via_bracket(d)
    assert v.eval_root_of_unity(HALFPOWER["1"]) == vals.at_1, name
    assert v.eval_root_of_unity(HALFPOWER["-1"]) == vals.at_minus1, name
    assert v.eval_root_of_unity(HALFPOWER["zeta3"]) == vals.at_zeta3, name
    assert v.eval_root_of_unity(HALFPOWER["zeta6"]) == vals.at_zeta6, name
    assert v.eval_root_of_unity(HALFPOWER["i"]) == vals.at_i, name
    return arf


def test_five_point_identity_chain_on_corpus():
    for name, d in _five_point_inputs():
        _check_five_points(name, d, seifert_matrix_from_diagram(d))


def _seeded_links():
    """120 seeded braid closures of 2 to 4 strands, 4 to 12 letters and at
    least 2 components, then the torus links T(p,q), p = 2..4,
    gcd(p, q) > 1, of at most 12 crossings."""
    rng = random.Random(9)
    links = 0
    while links < 120:
        strands = rng.randint(2, 4)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(4, 12))]
        if set(range(1, strands)) <= {abs(x) for x in word}:
            d = braid_closure_pd(word, strands)
            if d.component_count >= 2:
                links += 1
                yield f"braid {word}", d
    for p in (2, 3, 4):
        for q in range(2, 12 // (p - 1) + 1):
            if gcd(p, q) > 1:
                yield f"T({p},{q})", braid_closure_pd(list(range(1, p)) * q, p)


def test_seeded_links_match_both_diagram_oracles():
    # the five closed forms, among them V(zeta6) = delta_3 i^(c-1) (i sqrt3)^(d_3),
    # and Q(1/phi) = delta_5 sqrt5^(d_5) hold for links, det 0 among them
    count = singular = 0
    arfs = set()
    for name, d in _seeded_links():
        A = seifert_matrix_from_diagram(d)
        arfs.add(_check_five_points(name, d, A))
        assert q_via_skein(d).eval_golden_reciprocal() == q_at_golden_link(A.M), name
        count += 1
        singular += det_exact(A.M.entries) == 0
    assert count == 130 and singular > 0 and arfs == {None, 1, -1}


def test_seeded_grid_links_match_both_diagram_oracles():
    # grid links are neither closures nor twist regions; V(i) is exact, with
    # the Arf sign of the proper ones read off A + A^t over F2
    arfs = {None: 0, 1: 0, -1: 0}
    for d in grid_diagrams(120, 43, (5, 10), lambda d: d.component_count >= 2 and d.n <= 16):
        A = seifert_matrix_from_diagram(d)
        arfs[_check_five_points(d.crossings, d, A)] += 1
        assert q_via_skein(d, budget=d.n).eval_golden_reciprocal() == q_at_golden_link(A.M), d.crossings
    assert arfs == {None: 47, 1: 69, -1: 4}


def test_r2_slide_keeps_the_faces_a_fresh_walk_finds(monkeypatch):
    """Vogel moves read each diagram's faces from the one before; along
    every move of these untanglings they equal a walk of the new diagram."""
    import singdet.diagrams as diagrams

    moves = []
    slide = diagrams.r2_slide

    def checked(d, arc_over, arc_under):
        out = slide(d, arc_over, arc_under)
        assert out._faces == face_orbits(out.crossings)
        assert euler_ok(out.crossings)
        moves.append(out)
        return out

    monkeypatch.setattr(diagrams, "r2_slide", checked)
    rng = random.Random(1957)
    twists = [(3, -3, 3), (-5, -3, 3)] + [
        tuple(rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(3)) for _ in range(8)]
    corpus = [e.diagram for e in load_corpus().values()
              if e.diagram is not None and 0 < e.diagram.n <= 16 and e.diagram.is_connected()]
    for d in [pretzel_pd(*tw) for tw in twists] + corpus:
        seifert_matrix_from_diagram(d)
    assert len(moves) >= 30
