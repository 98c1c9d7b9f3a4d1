"""One route to each fact, and each fast route checked by an independent one.

`det_exact` is one Bareiss elimination and never enters the congruence
core, so the tests that compare it with `det_of` compare two routes, not
the core with itself; only `congruence_core` calls `_congruence_split`,
and it splits every matrix, dense or sparse, once.
In the CLI, `_matrix_from_diagram` alone turns a diagram into a matrix,
so swapping the route it takes is a change to that one function.
"""

import ast
import itertools
import os
import random

import singdet.exactlinalg as exactlinalg
from singdet.cli import _presentation
from singdet.corpus import load_corpus
from singdet.diagrams import seifert_matrix_from_diagram
from singdet.exactlinalg import IntegerSymmetricMatrix, congruence_core, det_exact
from test_diagram_facts import count_calls
from test_sparse_kernels import _is_sparse
from test_startup import PKG, read


def leibniz_det(rows) -> int:
    """det by the sum over permutations, with the sign from the inversions."""
    n = len(rows)
    total = 0
    for perm in itertools.permutations(range(n)):
        term = (-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        for i, j in enumerate(perm):
            term *= rows[i][j]
            if not term:
                break
        total += term
    return total


def sparse_symmetric(rng, n):
    """A symmetric n x n matrix, about two thirds zeros, rich in +-1 entries
    so that the unimodular split would take pivots from it."""
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.3:
                a[i][j] = a[j][i] = rng.choice((-2, -1, -1, 1, 1, 2, 3))
    return a


def test_det_exact_never_enters_the_congruence_core(monkeypatch):
    M = seifert_matrix_from_diagram(load_corpus()["p777m"].diagram).M

    def refuse(*args):
        raise AssertionError("det_exact entered the congruence core")

    for name in ("_congruence_split", "_split_unimodular_blocks", "_symmetric_bareiss"):
        monkeypatch.setattr(exactlinalg, name, refuse)
    assert M.n == 182 and _is_sparse(M.entries)
    assert det_exact(M.entries) == -49
    rng = random.Random(36)
    sparse = 0
    for _ in range(300):
        a = sparse_symmetric(rng, rng.randint(1, 6))
        sparse += _is_sparse(a)
        assert det_exact(a) == leibniz_det(a), a
    assert sparse >= 200


def calls_by_function(source: str, callee: str) -> list[str]:
    """The top-level statements of source that name callee, once each: a
    function or class by its name, any other statement as '<module>'."""
    return [getattr(node, "name", "<module>") for node in ast.parse(source).body
            if any(isinstance(n, ast.Name) and n.id == callee for n in ast.walk(node))]


def test_only_congruence_core_runs_the_split():
    callers = [(m, f) for m in sorted(os.listdir(PKG)) if m.endswith(".py")
               for f in calls_by_function(read(m), "_congruence_split")]
    assert callers == [("exactlinalg.py", "congruence_core")]


def test_every_presentation_goes_through_the_split_once_whatever_its_density(monkeypatch):
    """The core has no density fork: each corpus presentation, dense or
    sparse, is split once, and a dense matrix with a unit pivot leaves a
    smaller R than itself."""
    presentations = {name: _presentation(e) for name, e in load_corpus().items()}
    assert sum(not _is_sparse(M.entries) for M in presentations.values()) >= 20
    counts = count_calls(monkeypatch, "_split_unimodular_blocks", module=exactlinalg)
    for name, M in presentations.items():
        before = counts["_split_unimodular_blocks"]
        congruence_core(M)
        congruence_core(M)
        assert counts["_split_unimodular_blocks"] == before + 1, name
    assert congruence_core(IntegerSymmetricMatrix([[0, 1], [1, 0]])).R == ()


def test_one_cli_function_turns_a_diagram_into_a_matrix():
    source = read("cli.py")
    for builder in ("seifert_matrix_from_diagram", "goeritz_from_diagram"):
        assert set(calls_by_function(source, builder)) <= {"_matrix_from_diagram"}, builder
