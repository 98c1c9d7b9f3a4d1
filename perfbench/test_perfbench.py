"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import itertools
import json
import re
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from singdet.diagrams import parse_pd  # noqa: E402
from singdet.exactlinalg import parse_matrix  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def first_rounds(workload, seed, k=2):
    return [[(i.name, i.text) for i in batch]
            for batch in itertools.islice(workloads.rounds(workload, seed), k)]


def test_generators_are_deterministic_per_seed():
    for w in workloads.WORKLOADS:
        assert first_rounds(w, 7) == first_rounds(w, 7)
        assert first_rounds(w, 7) != first_rounds(w, 8)


def test_matrices_are_knot_seifert_matrices():
    for inp in next(workloads.rounds("matrices", 3)):
        A = parse_matrix(inp.text)
        n = len(A)
        J = [[A[i][j] - A[j][i] for j in range(n)] for i in range(n)]
        std = [[1 if i % 2 == 0 and j == i + 1 else -1 if j % 2 == 0 and i == j + 1 else 0
                for j in range(n)] for i in range(n)]
        assert J == std
        assert n in (2, 4, 6)


def test_braid_words_use_every_generator():
    batches = list(itertools.islice(workloads.rounds("braids", 5), 2))
    assert all(len(batch) == len(workloads.BRAID_LENGTHS) for batch in batches)
    for inp in workloads.prologue("braids") + batches[0] + batches[1]:
        strands = int(re.search(r"strands=(\d)", inp.params).group(1))
        word = json.loads(inp.params.split("word=")[1])
        assert {abs(k) for k in word} == set(range(1, strands))
        assert 8 <= len(word) <= 16
        pd = parse_pd(inp.text.split("pd:")[1])
        assert pd.n == len(word) and pd.is_connected()


def test_pretzels_have_at_most_eleven_crossings():
    fixed = [inp for inp in workloads.prologue("pretzels") if inp.corpus_name is None]
    seeded = [inp for batch in itertools.islice(workloads.rounds("pretzels", 5), 3) for inp in batch]
    assert fixed and len(seeded) == 3 * len(workloads.PRETZEL_CLASSES)
    for inp in fixed + seeded:
        twists = json.loads(inp.params.split("twists=")[1].replace("(", "[").replace(")", "]"))
        assert all(1 <= abs(a) <= 5 for a in twists)
        assert parse_pd(inp.text.split("pd:")[1]).n <= workloads.MAX_PRETZEL_CROSSINGS


def test_forced_overrun_counts_as_failure(tmp_path):
    inp = workloads.pretzel_prologue()[3]  # PD-only P(5,17,5)
    path = tmp_path / "p.txt"
    path.write_text(inp.text)
    rec = run.run_input(str(path), inp.name, budget=0.2)
    assert not rec.ok and rec.overran and "overran" in rec.reason
    assert rec.t_total < 5
    attempted, failed, mismatches = run.tally([(inp, rec)])
    assert (attempted, len(failed), mismatches) == (1, 1, 0)
    assert run.end_to_end([(inp, rec)], 0.1, 1.0)["links_per_s"] == 0


def test_corrupted_output_counts_as_mismatch(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    inp = next(workloads.rounds("matrices", 0))[0]
    path = tmp_path / "m.txt"
    path.write_text(inp.text)
    rec = run.run_input(str(path), inp.name)
    assert rec.ok
    good = [(inp, rec)]
    run.check("matrices", good, {})
    assert run.tally(good)[2] == 0
    flipped = {"+1": "-1", "-1": "+1"}
    bad = run.Record(inp.name, inp.params, ok=True, t_total=rec.t_total,
                     out_inv=re.sub(r"delta_3=([+-]1)", lambda m: "delta_3=" + flipped[m.group(1)],
                                    rec.out_inv),
                     out_obs=rec.out_obs)
    run.check("matrices", [(inp, bad)], {})
    assert any("Wall route" in p for p in bad.problems)
    assert run.tally([(inp, bad)])[1:] == ([bad], 1)


def test_reference_digest_catches_a_change_both_routes_share(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT", tmp_path)
    inp = next(workloads.rounds("matrices", run.DEFAULT_SEED))[0]
    path = tmp_path / "m.txt"
    path.write_text(inp.text)
    rec = run.run_input(str(path), inp.name)
    rec.out_obs = rec.out_obs.replace("u >= ", "u >= 1")
    run.check("matrices", [(inp, rec)], run.load_reference("matrices", run.DEFAULT_SEED))
    assert any("reference" in p for p in rec.problems)


def test_metric_names_are_well_formed():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(run.E2E_UNITS) + list(spans.metric_units()) + list(run.TRACE_UNITS)
    assert all(NAME.fullmatch(n) for n in names)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.E2E_UNITS)
    assert {m["name"] for m in bench["per_layer"]} == set(spans.metric_units()) | set(run.TRACE_UNITS)


def _bindings():
    return {(name, attr): val for name, mod in list(sys.modules.items())
            if name == "singdet" or name.startswith("singdet.")
            for attr, val in vars(mod).items() if callable(val)}


def test_trace_wrappers_restore_every_binding(tmp_path):
    import singdet.cli as cli
    import singdet.seifert as seifert

    before = _bindings()
    inp = next(workloads.rounds("matrices", 0))[0]
    path = tmp_path / "m.txt"
    path.write_text(inp.text)
    with spans.Tracer() as tracer:
        assert cli.det_exact is not before[("singdet.cli", "det_exact")]
        assert seifert.signature.__wrapped__ is before[("singdet.seifert", "signature")]
        tracer.open_input(inp.name)
        assert run.run_input(str(path), inp.name).ok
    after = _bindings()
    assert after == before
    m = tracer.aggregate()
    # cmd_invariants imports signature inside the function: still traced
    assert m["seifert.signature.calls"] == 1
    assert m["cli.cmd_invariants.calls"] == 1 and m["cli.cmd_obstruct.calls"] == 1
    assert m["linkform.wall_decompose.calls"] >= 1
    assert 0 < m["exactlinalg.det_exact.distinct_ratio"] <= 1
