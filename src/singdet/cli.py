"""Command-line front end.

    singdet invariants <path>            full invariant report for a file
    singdet obstruct <path> --prime p    unknotting obstructions
    singdet verify <suite> --seed s      run a verification suite

Input files use the corpus entry format (pd: / seifert: / matrix: blocks) or
bare matrix text (first line n, then n rows).  Exit status is nonzero when a
verification fails, for CI gating; a missing file or malformed input gives a
one-line "singdet: <message>" on stderr and exit status 2.  Verify suites
print their wall times on stderr.
"""

from __future__ import annotations

import argparse
import random
import sys
import time

from . import corpus as corpus_mod
from .corpus import CorpusEntry, load_corpus, parse_entry
from .diagrams import jones_via_bracket, q_via_skein, seifert_matrix_from_diagram
from .evaluate import (
    HALFPOWER,
    Cyclo24,
    alexander_poly,
    jones_at_zeta6_knot,
    jones_special_values,
    jones_zeta6_closed_form,
    jones_zeta6_via_delta3,
    q_at_golden_link,
    q_golden_closed_form,
)
from .exactlinalg import (
    IntegerSymmetricMatrix,
    RationalSymmetricMatrix,
    det_exact,
    jacobi_minor_identity,
    parse_matrix,
    random_unimodular,
    smith_cokernel,
)
from .linkform import LinkingFormPresentation, b_total, delta_from_wall, wall_decompose
from .numtheory import is_prime
from .obstruct import (
    improved_bound,
    lickorish_check,
    signed_obstruction,
    stoimenow_check,
)
from .seifert import (
    SeifertData,
    classical_invariants,
    delta_p,
    mu_of,
    stabilize,
)

DEFAULT_PRIMES = [3, 5, 7, 11, 13]


def _load_input(path: str) -> CorpusEntry:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped[:1].isdigit():
        # bare matrix text: interpret as an unsymmetrized Seifert matrix
        return CorpusEntry(path, None, SeifertData(parse_matrix(text)), None)
    return parse_entry(text, path)


def _matrix_from_diagram(d) -> IntegerSymmetricMatrix | None:
    """Symmetrized Seifert matrix, using the zero matrix for crossingless
    unlinks; None for split diagrams that would need banding first."""
    if d.n == 0:
        c = d.component_count
        return IntegerSymmetricMatrix([[0] * (c - 1) for _ in range(c - 1)])
    if not d.is_connected():
        return None
    return seifert_matrix_from_diagram(d).M


def _emit(pairs, fmt: str):
    if fmt == "machine":
        for k, v in pairs:
            print(f"{k}={v}")
    else:
        width = max(len(k) for k, _ in pairs)
        for k, v in pairs:
            print(f"{k:<{width}}  {v}")


def cmd_invariants(args) -> int:
    entry = _load_input(args.path)
    pairs = [("input", entry.name)]
    M = entry.symmetrized
    if entry.diagram is not None:
        d = entry.diagram
        pairs.append(("components", d.component_count))
        pairs.append(("crossings", d.n))
        pairs.append(("writhe", d.writhe))
        if d.n <= args.budget:
            v = jones_via_bracket(d, budget=args.budget)
            pairs.append(("jones", v))
            for point in ("1", "-1", "zeta3", "i", "zeta6"):
                pairs.append((f"V({point})", v.eval_root_of_unity(HALFPOWER[point])))
        if d.n <= args.q_budget:
            q = q_via_skein(d, budget=args.q_budget)
            pairs.append(("q_poly", q.to_str("z")))
            pairs.append(("Q(golden)", q.eval_golden_reciprocal()))
        if M is None:
            M = _matrix_from_diagram(d)
    if M is not None:
        primes = args.primes
        if entry.seifert is not None:
            pairs.append(("alexander", alexander_poly(entry.seifert)))
        det = abs(det_exact(M.entries))
        pairs.append(("det", det))
        from .seifert import signature, d_p_of

        pairs.append(("signature", signature(M)))
        mu = mu_of(M)
        pairs.append(("mu", mu))
        dims = {}
        for p in primes:
            dims[p] = d_p_of(M, p)
            pairs.append((f"d_{p}", dims[p]))
            pairs.append((f"delta_{p}", f"{delta_p(M, p):+d}"))
        if det % 2 != 0:
            w = wall_decompose(LinkingFormPresentation(M))
            pairs.append(("wall", "; ".join(f"{p} {k} {t}" for p, k, t in w.summands) or "trivial"))
            # mu = 1 (a knot) means M is invertible mod 2, so det is odd
            if mu == 1:
                d3 = dims[3] if 3 in dims else d_p_of(M, 3)
                pairs.append(("V(zeta6)[closed form]", jones_at_zeta6_knot(det, d3, b_total(w, 3))))
        pairs.append(("Q(golden)[delta_5 route]", q_at_golden_link(M)))
    _emit(pairs, args.format)
    return 0


def cmd_obstruct(args) -> int:
    entry = _load_input(args.path)
    M = entry.symmetrized
    if M is None:
        if entry.diagram is None:
            print("no matrix data", file=sys.stderr)
            return 2
        M = _matrix_from_diagram(entry.diagram)
    pairs = [("input", entry.name)]
    primes = [args.prime] if args.prime else args.primes
    for p in primes:
        con = signed_obstruction(M, p)
        w = con.base_bound
        pairs.append((f"wendt_{p}", f"u >= {w}"))
        pairs.append((f"improved_{p}", f"u >= {con.improved_bound()}"))
        splits = [
            f"(u+={up},u-={w - up})"
            for up in range(max(w, 0) + 1)
            if con.consistent(up, w - up)
        ]
        pairs.append((f"signed_{p}", f"delta={con.delta:+d} rule={con.parity_rule} "
                                     f"admissible at bound: {' '.join(splits) or 'none'}"))
    if mu_of(M) == 1 and (det := det_exact(M.entries)) != 0:
        rep = lickorish_check(M)
        zs = ",".join(f"{z:+d}" for z in rep.admissible_zeta) or "none"
        pairs.append(("lickorish", f"admissible zeta: {zs}"))
        ck = smith_cokernel(M.entries)
        if ck.is_cyclic() and det % 5 == 0 and det % 2 != 0:
            srep = stoimenow_check(M)
            pairs.append(("stoimenow", srep.text()))
    _emit(pairs, args.format)
    return 0


# ------------------------------------------------------------ verify suites

def _suite_examples(report) -> bool:
    """Golden values from the worked examples (the erratum case is listed
    under its mathematically consistent value; see the acceptance tests)."""
    ok = True
    c = load_corpus()
    m777 = IntegerSymmetricMatrix([[0, 7], [7, 0]])
    from .seifert import d_p_of

    ok &= report("d_7(P(7,-7,7)) == 2", d_p_of(m777, 7) == 2)
    ok &= report("delta_7(P(7,-7,7)) == -1 (erratum: stated +1)", delta_p(m777, 7) == -1)
    m17 = c["example_d17"].matrix
    ok &= report("d_17 == 3", d_p_of(m17, 17) == 3)
    ok &= report("delta_17 == -1", delta_p(m17, 17) == -1)
    ok &= report("improved bound u >= 4", improved_bound(m17, 17) == 4)
    m553 = c["m12n553"].matrix
    ok &= report("12n553 cokernel exponents (0,1,1,2)",
                 smith_cokernel(m553.entries).exponents(3) == (0, 1, 1, 2))
    m195 = c["p5_17_5"].seifert.M
    ok &= report("det(P(5,17,5)) == 195", det_exact(m195.entries) == 195)
    ok &= report("delta_5 == -1", delta_p(m195, 5) == -1)
    ok &= report("delta_13 == +1", delta_p(m195, 13) == 1)
    ok &= report("Q(golden) == -sqrt5", str(q_at_golden_link(m195)) == "-sqrt5")
    ok &= report("no admissible Lickorish generator", lickorish_check(m195).admissible_zeta == ())
    ok &= report("Stoimenow counterexample", not stoimenow_check(m195).agrees)
    for name, vm1, vz6 in (("hopf_plus", "-2*i", "-i"), ("hopf_minus", "2*i", "i")):
        v = jones_via_bracket(c[name].diagram)
        ok &= report(f"V_{name}(-1) == {vm1}", str(v.eval_root_of_unity(HALFPOWER["-1"])) == vm1)
        ok &= report(f"V_{name}(zeta6) == {vz6}", str(v.eval_root_of_unity(HALFPOWER["zeta6"])) == vz6)
    vt = jones_via_bracket(c["t2_4"].diagram).eval_root_of_unity(HALFPOWER["i"])
    vs = jones_via_bracket(c["t2_4_rev"].diagram).eval_root_of_unity(HALFPOWER["i"])
    ok &= report("V_T(2,4)(i) and reversed split +-sqrt2",
                 {str(vt), str(vs)} == {"sqrt2", "-sqrt2"})
    return ok


def _random_even_symmetric(rng: random.Random, max_g: int = 3, spread: int = 3):
    g = rng.randrange(1, max_g + 1)
    n = 2 * g
    A = [[rng.randrange(-spread, spread + 1) for _ in range(n)] for _ in range(n)]
    return IntegerSymmetricMatrix([[A[i][j] + A[j][i] for j in range(n)] for i in range(n)])


def _suite_prop35(report, seed: int, count: int = 500) -> bool:
    rng = random.Random(seed)
    done = 0
    while done < count:
        M = _random_even_symmetric(rng)
        d = det_exact(M.entries)
        if d == 0 or d % 2 == 0:
            continue
        done += 1
        for p in (3, 5, 7, 11, 13):
            if delta_p(M, p) != delta_from_wall(M, p):
                return report(f"dual route mismatch at p={p}: {M.entries}", False)
    return report(f"definition == Wall closed form on {count} matrices x 5 primes", True)


def _suite_jacobi(report, seed: int, count: int = 1000) -> bool:
    rng = random.Random(seed)
    done = 0
    while done < count:
        n = rng.randrange(2, 6)
        A = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(n)]
        M = [[A[i][j] + A[j][i] for j in range(n)] for i in range(n)]
        if det_exact(M) == 0:
            continue
        done += 1
        k = rng.randrange(0, n + 1)
        I = tuple(sorted(rng.sample(range(n), k)))
        J = tuple(sorted(rng.sample(range(n), k)))
        lhs, rhs = jacobi_minor_identity(RationalSymmetricMatrix(M), I, J)
        if lhs != rhs:
            return report(f"jacobi mismatch: {M} {I} {J}", False)
    return report(f"general Jacobi identity on {count} random minors", True)


def _suite_invariance(report, seed: int, count: int = 1000) -> bool:
    rng = random.Random(seed)
    ok = True
    M = _random_even_symmetric(rng, max_g=2)
    for trial in range(count):
        if trial % 50 == 0:
            M = _random_even_symmetric(rng, max_g=2)
        p = rng.choice((3, 5, 7, 11, 13))
        base = delta_p(M, p)
        T = random_unimodular(M.n, rng)
        if delta_p(M.congruence(T), p) != base:
            return report("delta_p not invariant under congruence", False)
        if delta_p(stabilize(M), p) != base:
            return report("delta_p not invariant under stabilization", False)
        if delta_p(M, p, rng=rng) != base:
            return report("delta_p depends on the reduction path", False)
    ok &= report(f"delta_p invariance: {count} congruences/stabilizations/reductions", True)
    return ok


def _suite_endtoend(report, seed: int = 0) -> bool:
    from .corpus import corpus_knots

    ok = True
    for name, e in sorted(corpus_knots(9).items()):
        d = e.diagram
        M = seifert_matrix_from_diagram(d).M
        v = jones_via_bracket(d).eval_root_of_unity(HALFPOWER["zeta6"])
        if v.coords != jones_zeta6_closed_form(M).coords:
            ok &= report(f"zeta6 closed form mismatch on {name}", False)
    ok &= report("bracket at zeta6 == closed form on all bundled knots <= 9 crossings", ok)
    done = True
    for name, e in sorted(corpus_knots(8).items()):
        d = e.diagram
        M = seifert_matrix_from_diagram(d).M
        q = q_via_skein(d).eval_golden_reciprocal()
        if q != q_golden_closed_form(M):
            done &= report(f"golden Q mismatch on {name}", False)
    ok &= report("Q at golden == closed form on all bundled knots <= 8 crossings", done)
    return ok


SUITES = {
    "examples": lambda seed: _run_suite(_suite_examples, None),
    "prop35": lambda seed: _run_suite(_suite_prop35, seed),
    "jacobi": lambda seed: _run_suite(_suite_jacobi, seed),
    "invariance": lambda seed: _run_suite(_suite_invariance, seed),
    "endtoend": lambda seed: _run_suite(_suite_endtoend, seed),
}


def _run_suite(fn, seed):
    results = []

    def report(name, passed):
        results.append((name, bool(passed)))
        return bool(passed)

    ok = fn(report) if seed is None else fn(report, seed)
    for name, passed in results:
        print(f"{'PASS' if passed else 'FAIL'}  {name}")
    return bool(ok)


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        print(f"== suite {name} (seed {args.seed})")
        t0 = time.perf_counter()
        all_ok &= SUITES[name](args.seed)
        # stderr, so that stdout stays identical from run to run
        print(f"suite {name}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    print("VERIFY", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _add_common(sp):
    sp.add_argument("--format", choices=("text", "machine"), default="text")
    sp.add_argument("--prime", type=int, default=None)
    sp.add_argument("--primes", type=_primes_arg, default=DEFAULT_PRIMES,
                    help="comma separated odd primes (default 3,5,7,11,13)")
    sp.add_argument("--budget", dest="budget", type=int, default=16,
                    help="crossing budget for the bracket")
    sp.add_argument("--q-budget", dest="q_budget", type=int, default=12)
    sp.add_argument("--corpus", default=None, help="override corpus directory")


def _primes_arg(text: str):
    out = []
    for tok in text.split(","):
        p = int(tok)
        if p < 3 or not is_prime(p):
            raise argparse.ArgumentTypeError(f"{p} is not an odd prime")
        out.append(p)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="singdet", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("invariants", help="invariant report for a link file")
    sp.add_argument("path")
    _add_common(sp)
    sp.set_defaults(fn=cmd_invariants)

    sp = sub.add_parser("obstruct", help="unknotting obstruction report")
    sp.add_argument("path")
    _add_common(sp)
    sp.set_defaults(fn=cmd_obstruct)

    sp = sub.add_parser("verify", help="run a verification suite")
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--seed", type=int, default=0)
    _add_common(sp)
    sp.set_defaults(fn=cmd_verify)

    args = ap.parse_args(argv)
    if getattr(args, "corpus", None):
        import os

        os.environ[corpus_mod.ENV_CORPUS] = args.corpus
    if getattr(args, "prime", None) is not None:
        p = args.prime
        if p < 3 or not is_prime(p):
            ap.error(f"{p} is not an odd prime")
        if p not in args.primes:
            args.primes = args.primes + [p]
    try:
        return args.fn(args)
    except (OSError, ValueError) as exc:  # unreadable or malformed input
        print(f"singdet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
