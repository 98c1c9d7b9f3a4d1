"""Command-line front end.

    singdet invariants <path> [--format F] [--primes p,q,...]
                              [--budget n] [--q-budget n]
                                         full invariant report for a file
    singdet obstruct <path> [--format F] [--primes p,q,...]
                                         unknotting obstructions
    singdet verify <suite> [--seed s] [--corpus dir]
                                         run a verification suite

Input files use the corpus entry format (pd: / seifert: / matrix: blocks) or
bare matrix text (first line n, then n rows).  Exit status is nonzero when a
verification fails, for CI gating; a missing file or malformed input gives a
one-line "singdet: <message>" on stderr and exit status 2.  Verify suites
print their wall times on stderr.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .corpus import CorpusEntry, corpus_knots, load_corpus, parse_entry
from .diagrams import BRACKET_BUDGET, Q_BUDGET, jones_via_bracket, q_via_skein, seifert_matrix_from_diagram
from .evaluate import alexander_poly, jones_zeta6_closed_form, q_at_golden_link
from .exactlinalg import IntegerSymmetricMatrix, SeifertData, det_exact, det_of, parse_matrix, smith_cokernel
from .linkform import delta_from_wall, wall_of
from .numtheory import check_odd_prime
from .obstruct import (
    improved_bound,
    lickorish_check,
    signed_obstruction,
    stoimenow_check,
)
from .rings import HALFPOWER
from .seifert import d_p_of, delta_p, mu_of, signature

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


def _presentation(entry: CorpusEntry) -> IntegerSymmetricMatrix | None:
    """The matrix the per-prime layer reads: the entry's own matrix, else its
    symmetrized Seifert matrix, else one derived from its diagram."""
    if entry.matrix is not None:
        return entry.matrix
    if entry.seifert is not None:
        return entry.seifert.M
    return None if entry.diagram is None else _matrix_from_diagram(entry.diagram)


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
    if entry.diagram is not None:
        d = entry.diagram
        pairs.append(("components", d.component_count))
        pairs.append(("crossings", d.n))
        pairs.append(("writhe", d.writhe))
        if d.n <= args.budget:
            v = jones_via_bracket(d, budget=args.budget)
            pairs.append(("jones", v))
            for point, k in HALFPOWER.items():
                pairs.append((f"V({point})", v.eval_root_of_unity(k)))
        if d.n <= args.q_budget:
            q = q_via_skein(d, budget=args.q_budget)
            pairs.append(("q_poly", q.to_str("z")))
            pairs.append(("Q(golden)", q.eval_golden_reciprocal()))
    M = _presentation(entry)
    if M is not None:
        if entry.seifert is not None:
            pairs.append(("alexander", alexander_poly(entry.seifert)))
        det = abs(det_of(M))
        pairs.append(("det", det))
        pairs.append(("signature", signature(M)))
        pairs.append(("mu", mu_of(M)))
        for p in args.primes:
            pairs.append((f"d_{p}", d_p_of(M, p)))
            pairs.append((f"delta_{p}", f"{delta_p(M, p):+d}"))
        # mu = 1 (a knot) means M is invertible mod 2, so det is odd and nonzero
        if mu_of(M) == 1:
            w = wall_of(M)
            pairs.append(("wall", "; ".join(f"{p} {k} {t}" for p, k, t in w.summands) or "trivial"))
            pairs.append(("V(zeta6)[closed form]", jones_zeta6_closed_form(M)))
        pairs.append(("Q(golden)[delta_5 route]", q_at_golden_link(M)))
    _emit(pairs, args.format)
    return 0


def cmd_obstruct(args) -> int:
    entry = _load_input(args.path)
    M = _presentation(entry)
    if M is None:
        raise ValueError("no matrix data: the diagram is split")
    pairs = [("input", entry.name)]
    for p in args.primes:
        con = signed_obstruction(M, p)
        pairs.append((f"wendt_{p}", f"u >= {con.base_bound}"))
        pairs.append((f"improved_{p}", f"u >= {con.improved_bound()}"))
        pairs.append((f"signed_{p}", con.text()))
    # mu = 1 (a knot) means M is invertible mod 2, so det is odd and nonzero
    if mu_of(M) == 1:
        rep = lickorish_check(M)
        pairs.append(("lickorish", rep.text()))
        if rep.stoimenow_applies:
            pairs.append(("stoimenow", stoimenow_check(M, rep).text()))
    _emit(pairs, args.format)
    return 0


# ------------------------------------------------------------ verify suites
#
# Each suite takes the report callback and the verify arguments, whose seed
# or corpus folder it reads.  The suites import `random` and the reference
# routes inside their bodies, so that the two report commands load neither.

def _suite_examples(report, args) -> bool:
    """Golden values from the worked examples (the erratum case is listed
    under its mathematically consistent value; see the acceptance tests),
    read from the corpus folder `args.corpus`, or `load_corpus`'s default
    for None."""
    ok = True
    c = load_corpus(args.corpus)

    def entry(name, block):
        """The given block (matrix, seifert or diagram) of a corpus entry."""
        if name not in c:
            raise ValueError(f"corpus has no entry {name!r}")
        value = getattr(c[name], block)
        if value is None:
            raise ValueError(f"corpus entry {name!r} has no {block} block")
        return value

    m777 = IntegerSymmetricMatrix([[0, 7], [7, 0]])
    ok &= report("d_7(P(7,-7,7)) == 2", d_p_of(m777, 7) == 2)
    ok &= report("delta_7(P(7,-7,7)) == -1 (erratum: stated +1)", delta_p(m777, 7) == -1)
    m17 = entry("example_d17", "matrix")
    ok &= report("d_17 == 3", d_p_of(m17, 17) == 3)
    ok &= report("delta_17 == -1", delta_p(m17, 17) == -1)
    ok &= report("improved bound u >= 4", improved_bound(m17, 17) == 4)
    m553 = entry("m12n553", "matrix")
    ok &= report("12n553 cokernel exponents (0,1,1,2)",
                 smith_cokernel(m553.entries).exponents(3) == (0, 1, 1, 2))
    m195 = entry("p5_17_5", "seifert").M
    ok &= report("det(P(5,17,5)) == 195", det_exact(m195.entries) == 195)
    ok &= report("delta_5 == -1", delta_p(m195, 5) == -1)
    ok &= report("delta_13 == +1", delta_p(m195, 13) == 1)
    ok &= report("Q(golden) == -sqrt5", str(q_at_golden_link(m195)) == "-sqrt5")
    rep = lickorish_check(m195)
    ok &= report("no admissible Lickorish generator", rep.admissible_zeta == ())
    ok &= report("Stoimenow counterexample", not stoimenow_check(m195, rep).agrees)
    for name, vm1, vz6 in (("hopf_plus", "-2*i", "-i"), ("hopf_minus", "2*i", "i")):
        v = jones_via_bracket(entry(name, "diagram"))
        ok &= report(f"V_{name}(-1) == {vm1}", str(v.eval_root_of_unity(HALFPOWER["-1"])) == vm1)
        ok &= report(f"V_{name}(zeta6) == {vz6}", str(v.eval_root_of_unity(HALFPOWER["zeta6"])) == vz6)
    vt = jones_via_bracket(entry("t2_4", "diagram")).eval_root_of_unity(HALFPOWER["i"])
    vs = jones_via_bracket(entry("t2_4_rev", "diagram")).eval_root_of_unity(HALFPOWER["i"])
    ok &= report("V_T(2,4)(i) and reversed split +-sqrt2",
                 {str(vt), str(vs)} == {"sqrt2", "-sqrt2"})
    return ok


def _random_even_symmetric(rng, max_g: int = 3):
    g = rng.randrange(1, max_g + 1)
    n = 2 * g
    A = [[rng.randrange(-3, 4) for _ in range(n)] for _ in range(n)]
    return IntegerSymmetricMatrix([[A[i][j] + A[j][i] for j in range(n)] for i in range(n)])


def _suite_prop35(report, args) -> bool:
    import random

    count = 500
    rng = random.Random(args.seed)
    done = 0
    while done < count:
        M = _random_even_symmetric(rng)
        if det_of(M) % 2 == 0:
            continue
        done += 1
        for p in DEFAULT_PRIMES:
            if delta_p(M, p) != delta_from_wall(M, p):
                return report(f"dual route mismatch at p={p}: {M.entries}", False)
    return report(f"definition == Wall closed form on {count} matrices x {len(DEFAULT_PRIMES)} primes", True)


def _suite_invariance(report, args) -> bool:
    import random

    from .reference import congruence, delta_p_reduced, random_unimodular, stabilize

    count = 1000
    rng = random.Random(args.seed)
    M = _random_even_symmetric(rng, max_g=2)
    for trial in range(count):
        if trial % 50 == 0:
            M = _random_even_symmetric(rng, max_g=2)
        p = rng.choice(DEFAULT_PRIMES)
        base = delta_p(M, p)
        T = random_unimodular(M.n, rng)
        if delta_p(congruence(M, T), p) != base:
            return report("delta_p not invariant under congruence", False)
        if delta_p(stabilize(M), p) != base:
            return report("delta_p not invariant under stabilization", False)
        if delta_p_reduced(M, p, rng) != base:
            return report("delta_p depends on the reduction path", False)
    return report(f"delta_p invariance: {count} congruences/stabilizations/reductions", True)


def _suite_endtoend(report, args) -> bool:
    from .reference import q_golden_closed_form

    ok = True
    knots = sorted(corpus_knots(max(9, Q_BUDGET), args.corpus).items())
    if not any(0 < e.diagram.n <= 9 for _, e in knots):
        raise ValueError("corpus has no knot of 1 to 9 crossings")
    matrices = {name: _matrix_from_diagram(e.diagram) for name, e in knots}
    for name, e in knots:
        if e.diagram.n > 9:
            continue
        v = jones_via_bracket(e.diagram).eval_root_of_unity(HALFPOWER["zeta6"])
        if v.coords != jones_zeta6_closed_form(matrices[name]).coords:
            ok &= report(f"zeta6 closed form mismatch on {name}", False)
    ok &= report("bracket at zeta6 == closed form on all bundled knots <= 9 crossings", ok)
    done = True
    for name, e in knots:
        if e.diagram.n > Q_BUDGET:
            continue
        q = q_via_skein(e.diagram, budget=Q_BUDGET).eval_golden_reciprocal()
        if q != q_golden_closed_form(matrices[name]):
            done &= report(f"golden Q mismatch on {name}", False)
    ok &= report(f"Q at golden == closed form on all bundled knots <= {Q_BUDGET} crossings", done)
    return ok


SUITES = {
    "examples": _suite_examples,
    "prop35": _suite_prop35,
    "invariance": _suite_invariance,
    "endtoend": _suite_endtoend,
}


def cmd_verify(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        results = []

        def report(check, passed):
            results.append((check, bool(passed)))
            return bool(passed)

        t0 = time.perf_counter()
        ok = SUITES[name](report, args)
        # printed once the suite has run, so that bad input leaves stdout empty
        print(f"== suite {name} (seed {args.seed})")
        for check, passed in results:
            print(f"{'PASS' if passed else 'FAIL'}  {check}")
        all_ok &= bool(ok)
        # stderr, so that stdout stays identical from run to run
        print(f"suite {name}: {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    print("VERIFY", "PASS" if all_ok else "FAIL")
    return 0 if all_ok else 1


def _add_report_options(sp):
    """The options of the two report commands."""
    sp.add_argument("path")
    sp.add_argument("--format", choices=("text", "machine"), default="text")
    sp.add_argument("--primes", type=_primes_arg, default=DEFAULT_PRIMES,
                    help="comma separated odd primes (default 3,5,7,11,13)")


def _odd_prime(text: str) -> int:
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    try:
        check_odd_prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def _budget(text: str) -> int:
    """A crossing budget: an integer >= 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return n


def _primes_arg(text: str):
    out = []
    for tok in text.split(","):
        p = _odd_prime(tok)
        if p in out:
            raise argparse.ArgumentTypeError(f"{p} is listed twice")
        out.append(p)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and kept for the process."""
    ap = argparse.ArgumentParser(prog="singdet", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("invariants", help="invariant report for a link file", allow_abbrev=False)
    _add_report_options(sp)
    sp.add_argument("--budget", dest="budget", type=_budget, default=BRACKET_BUDGET,
                    help="crossing budget for the bracket")
    sp.add_argument("--q-budget", dest="q_budget", type=_budget, default=Q_BUDGET,
                    help="crossing budget for the Q skein")

    sp = sub.add_parser("obstruct", help="unknotting obstruction report", allow_abbrev=False)
    _add_report_options(sp)

    sp = sub.add_parser("verify", help="run a verification suite", allow_abbrev=False)
    sp.add_argument("suite", choices=sorted(SUITES) + ["all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--corpus", default=None, help="override corpus directory")
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    # looked up on each call rather than kept in the parser, so that a
    # rebinding of a command function at module level takes effect
    fn = {"invariants": cmd_invariants, "obstruct": cmd_obstruct, "verify": cmd_verify}[args.cmd]
    try:
        return fn(args)
    except (OSError, ValueError) as exc:  # unreadable or malformed input
        print(f"singdet: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
