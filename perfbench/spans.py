"""Per-layer tracing from outside the program.

A Tracer replaces every binding of each target function across the loaded
``singdet.*`` module namespaces with a wrapper that records a span (name,
start, end, parent span, input id), and puts every original binding back
on exit.  Bindings come in several kinds, and all are module attributes:
``cli`` imports names directly, ``evaluate``/``obstruct``/``linkform`` import
from ``seifert`` and ``exactlinalg``, and ``cmd_invariants`` imports
``signature`` and ``d_p_of`` inside the function body, which reads the
``seifert`` attribute at call time.

Spans stay in memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# "<module>.<function>" under singdet, in layer order.
TARGETS = (
    "corpus.parse_entry",
    "exactlinalg.parse_matrix",
    "diagrams.seifert_matrix_from_diagram",
    "diagrams.jones_via_bracket",
    "diagrams.q_via_skein",
    "exactlinalg.det_exact",
    "exactlinalg.smith_cokernel",
    "exactlinalg.corank_mod_p",
    "seifert.signature",
    "seifert.d_p_of",
    "seifert.delta_p",
    "seifert.mu_of",
    "linkform.wall_decompose",
    "numtheory.prime_factors",
    "evaluate.alexander_poly",
    "evaluate.jones_zeta6_closed_form",
    "evaluate.q_at_golden_link",
    "obstruct.improved_bound",
    "obstruct.lickorish_check",
    "obstruct.stoimenow_check",
    "obstruct.lickorish_generator_search",
    "cli.cmd_invariants",
    "cli.cmd_obstruct",
)


def _rows_key(rows):
    return tuple(map(tuple, rows))


# Functions whose repeated calls on the same (matrix, prime) are wasted work:
# name -> argument key.  distinct_ratio = distinct keys per input / calls.
DISTINCT_KEYS = {
    "exactlinalg.det_exact": lambda rows: _rows_key(rows),
    "seifert.delta_p": lambda M, p, rng=None: (M.entries, p),
    "linkform.wall_decompose": lambda pres: pres.M.entries,
}

PER_LAYER_STATS = ("s", "self_s", "calls")
EXTRA_STATS = (
    ("exactlinalg.det_exact.distinct_ratio", "ratio"),
    ("seifert.delta_p.distinct_ratio", "ratio"),
    ("linkform.wall_decompose.distinct_ratio", "ratio"),
    ("diagrams.seifert_matrix_from_diagram.n_out", "count"),
    ("diagrams.seifert_matrix_from_diagram.n_per_crossing", "ratio"),
    ("diagrams.jones_via_bracket.states", "count"),
    ("obstruct.lickorish_generator_search.iterations", "count"),
)
STAT_UNITS = {"s": "s", "self_s": "s", "calls": "count"}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the tracer reports, with its unit."""
    units = {f"{t}.{s}": STAT_UNITS[s] for t in TARGETS for s in PER_LAYER_STATS}
    units.update(EXTRA_STATS)
    return units


def _singdet_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "singdet" or name.startswith("singdet."))]


class Tracer:
    """Context manager; spans are [name, start, end, parent, input_id]."""

    def __init__(self):
        self.spans: list[list] = []
        self.input_id: str | None = None
        self._stack: list[int] = []
        self._first = 0
        self._saved: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._distinct: dict[str, set] = defaultdict(set)
        self.distinct_total: dict[str, int] = defaultdict(int)

    # ---------------------------------------------------------- binding
    def __enter__(self):
        for target in TARGETS:
            importlib.import_module("singdet." + target.split(".")[0])
        modules = _singdet_modules()
        for target in TARGETS:
            mod_name, fn_name = target.split(".")
            orig = getattr(sys.modules[f"singdet.{mod_name}"], fn_name)
            wrapper = self._wrap(target, orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, orig))
        return self

    def __exit__(self, *exc):
        self.close_input()
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()
        return False

    # ---------------------------------------------------------- inputs
    def open_input(self, input_id: str) -> None:
        self.close_input()
        self.input_id = input_id
        self._first = len(self.spans)
        # An overrun interrupts at any bytecode, so a stack left over from
        # the previous input is discarded rather than trusted.
        self._stack = []

    def close_input(self) -> None:
        """Fold the per-input distinct-argument sets into the totals and
        close spans that an interrupt left open."""
        for name, keys in self._distinct.items():
            self.distinct_total[name] += len(keys)
        self._distinct.clear()
        if self.input_id is not None:
            now = time.perf_counter()
            for span in self.spans[self._first:]:
                if span[2] is None:
                    span[2] = now
        self.input_id = None

    # ---------------------------------------------------------- spans
    def _wrap(self, name, orig):
        spans = self.spans
        counter = _COUNTERS.get(name)
        key_fn = DISTINCT_KEYS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if key_fn is not None:
                tracer._distinct[name].add(key_fn(*args, **kwargs))
            stack = tracer._stack
            span = [name, 0.0, None, stack[-1] if stack else -1, tracer.input_id]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                if stack:
                    stack.pop()
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        wrapper.__wrapped__ = orig
        wrapper.__name__ = getattr(orig, "__name__", name)
        return wrapper

    # ---------------------------------------------------------- results
    def aggregate(self) -> dict[str, float]:
        """Per-layer metrics: inclusive and self time, calls, work counts."""
        incl = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        for span in self.spans:
            name, start, end, parent = span[:4]
            incl[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        for i, (name, start, end) in enumerate(span[:3] for span in self.spans):
            self_s[name] += end - start - child[i]
        out = {}
        for t in TARGETS:
            out[f"{t}.s"] = incl[t]
            out[f"{t}.self_s"] = self_s[t]
            out[f"{t}.calls"] = calls[t]
        for name in DISTINCT_KEYS:
            out[f"{name}.distinct_ratio"] = (
                self.distinct_total[name] / calls[name] if calls[name] else 0.0)
        c = self.counts
        vogel = "diagrams.seifert_matrix_from_diagram"
        out[f"{vogel}.n_out"] = c[f"{vogel}.n_out"]
        out[f"{vogel}.n_per_crossing"] = (
            c[f"{vogel}.n_out"] / c[f"{vogel}.crossings"] if c[f"{vogel}.crossings"] else 0.0)
        for k in ("diagrams.jones_via_bracket.states",
                  "obstruct.lickorish_generator_search.iterations"):
            out[k] = c[k]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("name,start,end,parent,input\n")
            for name, start, end, parent, input_id in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{input_id}\n")


# Work counters, run after a traced call returns: (counts, args, result).
# They add no span; their time falls in the caller's self time.
def _count_vogel(counts, args, result):
    counts["diagrams.seifert_matrix_from_diagram.n_out"] += result.n
    counts["diagrams.seifert_matrix_from_diagram.crossings"] += args[0].n


def _count_states(counts, args, result):
    counts["diagrams.jones_via_bracket.states"] += 2 ** args[0].n


def _count_search(counts, args, result):
    # exactlinalg's attribute may be the det_exact wrapper; __wrapped__ is
    # the original, so the count opens no span.
    det_exact = sys.modules["singdet.exactlinalg"].det_exact
    det_exact = getattr(det_exact, "__wrapped__", det_exact)
    counts["obstruct.lickorish_generator_search.iterations"] += abs(det_exact(args[0].entries))


_COUNTERS = {
    "diagrams.seifert_matrix_from_diagram": _count_vogel,
    "diagrams.jones_via_bracket": _count_states,
    "obstruct.lickorish_generator_search": _count_search,
}
