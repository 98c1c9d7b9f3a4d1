"""Every line that `invariants` and `obstruct` print is a link invariant.

Random walks of first and second Reidemeister moves (`r1_kink`, and
`r2_slide` across a face that both arcs border) over the connected corpus
diagrams leave each printed line as the unmoved diagram prints it, except
`input`, `crossings` and `writhe`, which read the diagram itself.  The
polynomial oracles undo such moves before they expand, so the walks test
the matrix route above all: Vogel untangling of a diagram it has not seen.

The mirror image of every walked diagram, read by library calls, has the
negated signature and the conjugate V(zeta6) of the unmoved diagram, and
the same d_p and Q(1/phi).
"""

import contextlib
import io
import random

from singdet.cli import DEFAULT_PRIMES, main
from singdet.corpus import load_corpus
from singdet.diagrams import (
    _faces_flanking,
    jones_via_bracket,
    mirror,
    pd_text,
    q_via_skein,
    r1_kink,
    r2_slide,
    seifert_matrix_from_diagram,
)
from singdet.rings import HALFPOWER
from singdet.seifert import d_p_of, signature

DIAGRAM_LINES = ("input=", "crossings=", "writhe=")
BUDGET, Q_BUDGET = 30, 20  # --budget and --q-budget of every run


def _printed(d, path):
    """The machine-format lines of `invariants` and `obstruct` on d, PD
    only, less those that read the diagram itself."""
    path.write_text(f"pd: {pd_text(d)}\n")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["invariants", str(path), "--format", "machine",
                     "--budget", str(BUDGET), "--q-budget", str(Q_BUDGET)]) == 0
        assert main(["obstruct", str(path), "--format", "machine"]) == 0
    return [line for line in out.getvalue().splitlines() if not line.startswith(DIAGRAM_LINES)]


def _mirror_facts(d):
    """(signature, V(zeta6), the d_p, Q(1/phi)) of d, by the library routes
    that `invariants` prints them from."""
    M = seifert_matrix_from_diagram(d).M
    return (signature(M), jones_via_bracket(d, BUDGET).eval_root_of_unity(HALFPOWER["zeta6"]),
            [d_p_of(M, p) for p in DEFAULT_PRIMES], q_via_skein(d, Q_BUDGET).eval_golden_reciprocal())


def _shared_face_arcs(d, rng):
    """Two distinct arcs of d that border one face, drawn at random."""
    faces = {}
    for arc in d.arcs:
        for face, _ in _faces_flanking(d, arc):
            faces.setdefault(face, set()).add(arc)
    face = rng.choice(sorted(f for f, arcs in faces.items() if len(arcs) > 1))
    return rng.sample(sorted(faces[face]), 2)


def test_reidemeister_walks_keep_every_printed_invariant(tmp_path):
    diagrams = [e.diagram for _, e in sorted(load_corpus().items())
                if e.diagram is not None and 1 <= e.diagram.n <= 10 and e.diagram.is_connected()]
    rng = random.Random(11)
    path = tmp_path / "input.txt"
    walks = kinks = slides = signed = complex_zeta6 = 0
    for start in diagrams:
        unmoved = _printed(start, path)
        sig, zeta6, d_ps, q_golden = _mirror_facts(start)
        for _ in range(6):
            d = start
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.4:
                    d = r1_kink(d, rng.choice(d.arcs), rng.random() < 0.5)
                    kinks += 1
                else:
                    d = r2_slide(d, *_shared_face_arcs(d, rng))
                    slides += 1
            assert _printed(d, path) == unmoved, pd_text(d)
            assert _mirror_facts(mirror(d)) == (-sig, zeta6.conj(), d_ps, q_golden), pd_text(d)
            walks += 1
            signed += sig != 0
            complex_zeta6 += zeta6 != zeta6.conj()
    assert (len(diagrams), walks, kinks, slides) == (30, 180, 135, 216)
    assert (signed, complex_zeta6) == (132, 60)  # walks whose mirror moves a value
