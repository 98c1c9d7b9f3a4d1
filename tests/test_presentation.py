"""One presentation for the per-prime layer: a Goeritz matrix with its
Gordon-Litherland correction drops in wherever a symmetrized Seifert matrix
does.

The Vogel route (the Seifert matrix of the untangled diagram) is the oracle.
PD-only p777m and p5_17_5 are too slow for it here; they are compared with
their bundled Seifert blocks instead.
"""

import contextlib
import functools
import io
import os
import random
import sys

import pytest

import singdet.cli as cli
import singdet.exactlinalg as exactlinalg
import singdet.obstruct as obstruct
import singdet.reference as reference
import singdet.seifert as seifert
from singdet.corpus import load_corpus
from singdet.diagrams import (
    braid_closure_pd,
    goeritz_from_diagram,
    pd_text,
    pretzel_pd,
    seifert_matrix_from_diagram,
)
from singdet.exactlinalg import SpanningSurfaceData, congruence_core
from singdet.seifert import delta_p, signature

from oracles import delta_p_gl, format_matrix
from test_cli_input import CORPUS_DIR
from test_computed_once import PRIMES

BIG = ("p777m", "p5_17_5")
PICKS = {
    "shade 0": lambda pair: pair[0],
    "shade 1": lambda pair: pair[1],
    "smaller": lambda pair: min(pair, key=lambda S: S.n),
}


def seeded_pretzels(count=30, seed=2601):
    rng = random.Random(seed)
    return {f"pretzel{k}": pretzel_pd(*[rng.choice((-1, 1)) * rng.randrange(1, 5)
                                        for _ in range(rng.randrange(2, 4))])
            for k in range(count)}


def seeded_braids(count=30, seed=2602):
    rng = random.Random(seed)
    out = {}
    for k in range(count):
        strands = rng.randrange(2, 5)
        while True:
            word = [rng.choice((-1, 1)) * rng.randrange(1, strands)
                    for _ in range(rng.randrange(strands, 9))]
            if {abs(x) for x in word} == set(range(1, strands)):
                break
        out[f"braid{k}"] = braid_closure_pd(word, strands)
    return out


@functools.lru_cache(maxsize=None)
def diagrams():
    """Every connected corpus diagram with crossings, then the seeded ones."""
    out = {name: e.diagram for name, e in sorted(load_corpus().items())
           if e.diagram is not None and e.diagram.n and e.diagram.is_connected()}
    return {**out, **seeded_pretzels(), **seeded_braids()}


@functools.lru_cache(maxsize=None)
def vogel_matrix(name):
    return seifert_matrix_from_diagram(diagrams()[name]).M


def run(*argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0, argv
    return buf.getvalue()


def outputs(path):
    return (run("invariants", path, "--format", "machine", "--budget", "0", "--q-budget", "0"),
            run("obstruct", path, "--format", "machine"))


def without(text, prefixes):
    return [line for line in text.splitlines() if not line.startswith(prefixes)]


@pytest.fixture(scope="module")
def pd_files(tmp_path_factory):
    """PD-only copies of every diagram, and their outputs by the Vogel route."""
    root = tmp_path_factory.mktemp("pd_only")
    files, vogel = {}, {}
    for name, d in diagrams().items():
        path = str(root / f"{name}.txt")
        with open(path, "w") as fh:
            fh.write(f"name: {name}\npd: {pd_text(d)}\n")
        files[name] = path
        if name not in BIG:
            vogel[name] = outputs(path)
    return files, vogel


def test_the_seeded_families_include_even_determinants(pd_files):
    dets = [int(line.split("=")[1]) for name, (inv, _) in pd_files[1].items()
            for line in inv.splitlines() if line.startswith("det=")]
    assert len(dets) == len(diagrams()) - len(BIG)
    assert sum(d % 2 == 0 for d in dets) >= 10 and sum(d % 2 == 1 for d in dets) >= 10


@pytest.mark.parametrize("pick", sorted(PICKS))
def test_goeritz_presentation_drops_in_for_the_seifert_matrix(monkeypatch, tmp_path, pd_files, pick):
    files, vogel = pd_files
    monkeypatch.setattr(cli, "_matrix_from_diagram", lambda d: PICKS[pick](
        tuple(goeritz_from_diagram(d, shade) for shade in (0, 1))))
    changed = [name for name in vogel if outputs(files[name]) != vogel[name]]
    assert changed == []
    corpus = load_corpus()
    for name in BIG:
        seifert_only = tmp_path / f"{name}.txt"
        seifert_only.write_text(f"name: {name}\nseifert:\n{format_matrix(corpus[name].seifert.A)}")
        inv, obs = outputs(str(seifert_only))
        got_inv, got_obs = outputs(files[name])
        assert without(got_inv, ("components=", "crossings=", "writhe=")) == without(inv, ("alexander=",))
        assert got_obs == obs


def test_goeritz_delta_and_signature_follow_the_seifert_route(pd_files):
    """Against the Seifert route's values: the Vogel route's `invariants`
    lines, and the bundled Seifert blocks of the two big pretzels."""
    corpus = load_corpus()
    for name, d in diagrams().items():
        if name in BIG:
            M = corpus[name].seifert.M
            want = {"signature": signature(M), **{f"delta_{p}": delta_p(M, p) for p in PRIMES}}
        else:
            want = dict(line.split("=", 1) for line in pd_files[1][name][0].splitlines())
        for shade in (0, 1):
            S = goeritz_from_diagram(d, shade)
            assert isinstance(S, SpanningSurfaceData)
            assert signature(S) == int(want["signature"]), (name, shade)
            for p in PRIMES:
                assert delta_p_gl(S, p) == int(want[f"delta_{p}"]), (name, shade, p)


def _count_calls(monkeypatch, module, fn_name, keep=lambda *args: True):
    """Record the calls of module.fn_name through every singdet binding of it."""
    real = getattr(module, fn_name)
    calls = []

    def counting(*args, **kwargs):
        if keep(*args):
            calls.append(args)
        return real(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("singdet") and getattr(mod, fn_name, None) is real:
            monkeypatch.setattr(mod, fn_name, counting)
    return calls


def test_mod_p_block_reduce_is_reached_only_from_the_rng_path(monkeypatch):
    calls = _count_calls(monkeypatch, reference, "mod_p_block_reduce")
    for stem in ("p3_3_3", "t2_6", "m12n553"):
        path = os.path.join(CORPUS_DIR, f"{stem}.txt")
        run("invariants", path)
        run("obstruct", path)
    d = diagrams()["5_2"]
    for shade in (0, 1):
        delta_p_gl(goeritz_from_diagram(d, shade), 7)
    assert calls == []
    reference.delta_p_reduced(vogel_matrix("5_2"), 7, random.Random(0))
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["invariants", "obstruct"])
@pytest.mark.parametrize("stem", ["p5_17_5", "5_2"])
def test_each_command_computes_the_presentation_det_once(monkeypatch, tmp_path, command, stem):
    if stem in BIG:  # corpus file: the presentation is its Seifert block
        path = os.path.join(CORPUS_DIR, f"{stem}.txt")
        M = load_corpus()[stem].seifert.M
    else:  # PD-only: the presentation is the Vogel matrix
        path = str(tmp_path / "pd.txt")
        with open(path, "w") as fh:
            fh.write(f"pd: {pd_text(diagrams()[stem])}\n")
        M = vogel_matrix(stem)
    # det M comes from the one split-and-eliminate pass of its congruence core
    dets = _count_calls(monkeypatch, exactlinalg, "_congruence_split", keep=lambda rows: rows == M.entries)
    lickorish = _count_calls(monkeypatch, obstruct, "lickorish_check")
    run(command, path)
    assert len(dets) == 1
    assert len(lickorish) == (command == "obstruct")


@pytest.mark.parametrize("twists,n", [((3, -3, 3), 26), ((-5, -3, 3), 42)])
def test_no_inflated_matrix_reaches_the_per_prime_kernels(monkeypatch, tmp_path, twists, n):
    """Both commands on a PD-only pretzel hand the per-prime kernels the
    residual block R of the Vogel matrix's congruence core, never the
    matrix itself."""
    d = pretzel_pd(*twists)
    M = seifert_matrix_from_diagram(d).M
    r = len(congruence_core(M).R)
    assert M.n == n and r == 2
    path = tmp_path / "pd.txt"
    path.write_text(f"pd: {pd_text(d)}\n")
    kernels = {name: _count_calls(monkeypatch, module, name) for module, name in (
        (exactlinalg, "padic_jordan"), (exactlinalg, "corank_mod_p"), (seifert, "_eliminate_mod_p"))}
    run("invariants", str(path))
    run("obstruct", str(path))
    for name, calls in kernels.items():
        assert calls, name
        assert max(len(args[0]) for args in calls) <= r, name
