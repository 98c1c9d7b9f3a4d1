"""singdet benchmark: seeded inputs through the CLI, in process.

    python3 perfbench/run.py --workload matrices --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  The program is imported from ``src/`` of
that checkout.  Each input is written to a file and goes through
``singdet.cli.main(["invariants", path, "--format", "machine"])`` and then
``main(["obstruct", path, ...])`` with stdout captured, one input after
another in this one process and thread (a closed loop with one client),
with the CLI's default budgets.  Every output is checked outside the timed
calls.  The last line of stdout is one JSON object: the end-to-end metrics
with ``--trace 0``, the per-layer metrics of a second, traced pass with
``--trace 1``.  A run record with per-input results goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

DEFAULT_SEED = 0
# Per-input wall-clock budget (s) for invariants plus obstruct.  The slowest
# input that completes takes 6 s to 8 s on a 2-core x86 VM.
BUDGET_S = 15.0
SETUP_REPEATS = 11
# This VM's speed drifts for identical work: a fixed loop's time varies by
# +-13% between 2-second windows and whole runs by up to 1.7x, so repeated
# runs of one input had an interquartile spread of 25-30%.  Every time of
# the program is therefore scaled by CAL_REF_S / c, where c is the time of
# the calibration loop measured next to it (before and after each
# CAL_EVERY_S of work); the metrics read as seconds on the reference machine,
# a 2-core x86 VM where the loop takes CAL_REF_S.  Scaling cut that spread
# to 11-12%.  Raw times and metrics are kept in the result file.
CAL_REF_S = 0.0025
CAL_EVERY_S = 0.25
# The CLI's default crossing budgets for the bracket and the Q skein.
BRACKET_CROSSINGS = 16
Q_CROSSINGS = 12

E2E_UNITS = {
    "links_per_s": "1/s",
    "invariants_s_p50": "s",
    "obstruct_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
TRACE_UNITS = {"trace.links_per_s": "1/s", "trace.slowdown": "x"}


class Overrun(BaseException):
    """Raised inside the program when an input exceeds its budget.  A
    BaseException, so that no ``except Exception`` in the program absorbs it."""


class Budget:
    """Interrupts the enclosed pure-Python work after `seconds` by raising
    Overrun from a SIGALRM handler (main thread only)."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.armed = False

    def _fire(self, signum, frame):
        if self.armed:
            raise Overrun()

    def __enter__(self):
        self.prev = signal.signal(signal.SIGALRM, self._fire)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, self.seconds)
        return self

    def __exit__(self, *exc):
        # An alarm handled after this point is ignored; one handled before
        # it raises Overrun out of this method, which the caller catches.
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.prev)
        return False


@dataclass
class Record:
    name: str
    params: str
    ok: bool = False
    reason: str = ""
    t_inv: float | None = None
    t_obs: float | None = None
    t_total: float = 0.0
    overran: bool = False
    scale: float = 1.0  # CAL_REF_S / calibration time around this input
    out_inv: str = ""
    out_obs: str = ""
    problems: list[str] = field(default_factory=list)

    @property
    def completed(self) -> bool:
        return self.ok and not self.problems


# ------------------------------------------------------------------ setup

def calibration_loop() -> int:
    """Interpreter work that allocates nothing (small ints are cached), so
    its time follows the machine's speed and not the heap's state."""
    s = 0
    for _ in itertools.repeat(None, 40000):
        s = (s * 5 + 1) & 127
    return s


def calibration_s() -> float:
    """Fastest of three runs of the calibration loop (s)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        calibration_loop()
        best = min(best, time.perf_counter() - t0)
    return best


def import_singdet() -> tuple[float, float]:
    """Import singdet from this checkout and load its corpus, several times
    from a clean module table; returns the median time (s) and its scale."""
    if not (SRC / "singdet" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no singdet package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ.pop("SINGDET_CORPUS", None)
    times = []
    before = calibration_s()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "singdet" or m.startswith("singdet.")]:
            del sys.modules[name]
        t0 = time.perf_counter()
        importlib.import_module("singdet.cli")
        sys.modules["singdet.corpus"].load_corpus()
        times.append(time.perf_counter() - t0)
    pkg = Path(sys.modules["singdet"].__file__).resolve()
    if SRC.resolve() not in pkg.parents:
        raise SystemExit(f"perfbench: imported singdet from {pkg}, not from {SRC}")
    return statistics.median(times), CAL_REF_S / ((before + calibration_s()) / 2)


# ------------------------------------------------------------------ running

def run_input(path: str, name: str, params: str = "", budget: float = BUDGET_S) -> Record:
    """invariants then obstruct on one file, both inside one budget."""
    from singdet.cli import main

    rec = Record(name, params)
    cmd = "invariants"
    t0 = time.perf_counter()
    try:
        with Budget(budget):
            for cmd in ("invariants", "obstruct"):
                buf = io.StringIO()
                t1 = time.perf_counter()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                    status = main([cmd, path, "--format", "machine"])
                dt = time.perf_counter() - t1
                if cmd == "invariants":
                    rec.t_inv, rec.out_inv = dt, buf.getvalue()
                else:
                    rec.t_obs, rec.out_obs = dt, buf.getvalue()
                if status != 0:
                    rec.reason = f"{cmd} exit status {status}: {buf.getvalue().strip()[:200]}"
                    break
            else:
                rec.ok = True
    except Overrun:
        rec.overran = True
        rec.reason = f"{cmd} overran the {budget:g} s budget"
    except Exception as exc:  # the run goes on; the input counts as failed
        rec.reason = f"{cmd} raised {type(exc).__name__}: {str(exc)[:200]}"
    rec.t_total = time.perf_counter() - t0
    return rec


def input_dir(workload: str) -> Path:
    d = OUT / "inputs" / workload
    d.mkdir(parents=True, exist_ok=True)
    return d


def rounds_for(workload: str, seconds: float) -> int:
    """Seeded rounds in a run of about `seconds` on the reference machine.
    The count depends on `seconds` alone, so a run's inputs are fixed by
    seed and length and the parent and a change process the same inputs."""
    return max(1, round(seconds / workloads.ROUND_SECONDS[workload]))


def run_batch(workload: str, seed: int, n_rounds: int):
    """The prologue, then `n_rounds` seeded rounds, with a calibration
    sample before and after every CAL_EVERY_S of work."""
    d = input_dir(workload)
    done: list[tuple[workloads.BenchInput, Record]] = []
    inputs = itertools.chain(workloads.prologue(workload),
                             *itertools.islice(workloads.rounds(workload, seed), n_rounds))
    block: list[Record] = []
    before = calibration_s()
    for inp in inputs:
        path = d / f"{inp.name}.txt"
        path.write_text(inp.text)
        rec = run_input(str(path), inp.name, inp.params)
        done.append((inp, rec))
        block.append(rec)
        if sum(r.t_total for r in block) >= CAL_EVERY_S:
            before = scale_block(block, before)
            block = []
    if block:
        scale_block(block, before)
    return done


def scale_block(block: list[Record], before: float) -> float:
    after = calibration_s()
    for rec in block:
        rec.scale = CAL_REF_S / ((before + after) / 2)
    return after


# ------------------------------------------------------------------ checks

def parse_machine(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep:
            out[key] = val
    return out


def output_digest(rec: Record) -> str:
    """Digest of both outputs without their input= line, which holds a path."""
    lines = [ln for ln in (rec.out_inv + rec.out_obs).splitlines() if not ln.startswith("input=")]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def cross_route_problems(inv: dict[str, str]) -> list[str]:
    """The CLI's own independent routes must agree."""
    problems = []
    knot = inv.get("components", inv.get("mu")) == "1"
    crossings = int(inv["crossings"]) if "crossings" in inv else None
    if crossings is not None and knot and crossings <= BRACKET_CROSSINGS:
        a, b = inv.get("V(zeta6)"), inv.get("V(zeta6)[closed form]")
        if a is None or a != b:
            problems.append(f"V(zeta6)={a} but closed form {b}")
    if crossings is not None and crossings <= Q_CROSSINGS and "det" in inv:
        a, b = inv.get("Q(golden)"), inv.get("Q(golden)[delta_5 route]")
        if a is None or a != b:
            problems.append(f"Q(golden)={a} but delta_5 route {b}")
    return problems


def wall_route_problems(inp: workloads.BenchInput, inv: dict[str, str]) -> list[str]:
    """Every delta_p line against linkform.delta_from_wall (verify prop35)."""
    from singdet.exactlinalg import IntegerSymmetricMatrix
    from singdet.linkform import delta_from_wall

    M = IntegerSymmetricMatrix(inp.matrix)
    keys = [k for k in inv if k.startswith("delta_")]
    if not keys:
        return ["no delta_p lines"]
    problems = []
    for k in keys:
        p = int(k[len("delta_"):])
        want = f"{delta_from_wall(M, p):+d}"
        if inv[k] != want:
            problems.append(f"{k}={inv[k]} but Wall route {want}")
    return problems


def corpus_problems(inp: workloads.BenchInput, inv: dict[str, str], scratch: Path) -> list[str]:
    """A PD-only corpus copy prints the det, signature, d_p and delta_p lines
    of the corpus entry read through its Seifert block."""
    from singdet.cli import main

    path = scratch / f"{inp.name}.seifert.txt"
    path.write_text(workloads.without_pd(workloads.corpus_text(inp.corpus_name)))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main(["invariants", str(path), "--format", "machine"])
    want = {k: v for k, v in parse_machine(buf.getvalue()).items()
            if k in ("det", "signature") or k.startswith(("d_", "delta_"))}
    return [f"{k}={inv.get(k)} but corpus entry {v}" for k, v in want.items() if inv.get(k) != v]


def load_reference(workload: str, seed: int) -> dict[str, str]:
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return {}
    return json.loads(REFERENCE.read_text())["digests"].get(workload, {})


def check(workload: str, done, reference: dict[str, str]) -> None:
    """Fill rec.problems for every input that ran to the end; `reference`
    maps input names to frozen output digests."""
    scratch = input_dir(workload)
    for inp, rec in done:
        if not rec.ok:
            continue
        inv = parse_machine(rec.out_inv)
        rec.problems += cross_route_problems(inv)
        if inp.matrix is not None:
            rec.problems += wall_route_problems(inp, inv)
        if inp.corpus_name is not None:
            rec.problems += corpus_problems(inp, inv, scratch)
        want = reference.get(inp.name)
        if want is not None and output_digest(rec) != want:
            rec.problems.append(f"output digest {output_digest(rec)} != reference {want}")


# ------------------------------------------------------------------ metrics

def tally(done) -> tuple[int, list[Record], int]:
    """(attempted, failed records, mismatches).  An input fails when it
    raised, overran its budget or gave a wrong output."""
    recs = [rec for _, rec in done]
    return len(recs), [r for r in recs if not r.completed], sum(bool(r.problems) for r in recs)


def end_to_end(done, setup_s: float, peak_rss_mb: float, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics, from times scaled to the reference machine
    or, with scaled=False, from raw times.  An overrun costs its budget,
    which is wall time on any machine."""
    recs = [rec for _, rec in done]

    def k(r):
        return r.scale if scaled else 1.0

    wall = sum(r.t_total if r.overran else r.t_total * k(r) for r in recs)
    t_inv = [r.t_inv * k(r) for r in recs if r.t_inv is not None]
    t_obs = [r.t_obs * k(r) for r in recs if r.t_obs is not None]
    # With no completed call, a median reports the budget: the limit that
    # every call missed or failed within.
    return {
        "links_per_s": sum(r.completed for r in recs) / wall,
        "invariants_s_p50": statistics.median(t_inv or [BUDGET_S]),
        "obstruct_s_p50": statistics.median(t_obs or [BUDGET_S]),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced_pass(workload: str, done):
    """Runs the inputs that completed again under the tracer; returns the
    tracer, the per-layer metrics and the number of outputs that changed."""
    from spans import Tracer

    ok = [(inp, rec) for inp, rec in done if rec.completed]
    d = input_dir(workload)
    changed = 0
    wall = 0.0
    with Tracer() as tracer:
        for inp, rec in ok:
            tracer.open_input(inp.name)
            again = run_input(str(d / f"{inp.name}.txt"), inp.name)
            wall += again.t_total
            if (again.out_inv, again.out_obs) != (rec.out_inv, rec.out_obs):
                changed += 1
    metrics = tracer.aggregate()
    untraced = sum(rec.t_total for _, rec in ok)
    metrics["trace.links_per_s"] = len(ok) / wall if wall else 0.0
    metrics["trace.slowdown"] = wall / untraced if untraced else 0.0
    return tracer, metrics, changed


# ------------------------------------------------------------------ record

def git_sha() -> str | None:
    """HEAD of the checkout's git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_record(args, load1: float) -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_1min_at_start": load1,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "rounds": rounds_for(args.workload, args.seconds),
        "trace": args.trace,
        "budget_s": BUDGET_S,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    load1 = os.getloadavg()[0]

    setup_raw, setup_scale = import_singdet()
    done = run_batch(args.workload, args.seed, rounds_for(args.workload, args.seconds))
    rss = peak_rss_mib()
    check(args.workload, done, load_reference(args.workload, args.seed))

    attempted, failed, mismatches = tally(done)
    recs = [rec for _, rec in done]
    e2e = end_to_end(done, setup_raw * setup_scale, rss)
    raw = end_to_end(done, setup_raw, rss, scaled=False)
    speed = statistics.median(r.scale for r in recs)
    record = run_record(args, load1)
    record.update(
        attempted=attempted, failed=len(failed), fail_share=len(failed) / attempted,
        mismatches=mismatches, metrics=e2e, metrics_raw=raw, median_scale=speed,
        inputs=[{"name": r.name, "params": r.params, "ok": r.ok, "reason": r.reason,
                 "invariants_s": r.t_inv, "obstruct_s": r.t_obs, "scale": r.scale,
                 "problems": r.problems}
                for r in recs],
    )
    for r in failed:
        print(f"failed {r.name}: {r.reason or '; '.join(r.problems)}")
    for k, v in e2e.items():
        print(f"{k} {v:.6g} {E2E_UNITS[k]} (raw {raw[k]:.6g})")
    print(f"median scale to the reference machine {speed:.4g}")
    print(f"fail_share {len(failed) / attempted:.6g} share ({len(failed)}/{attempted})")
    print(f"mismatches {mismatches} count")

    metrics, units = e2e, E2E_UNITS
    if args.trace:
        from spans import metric_units

        tracer, metrics, changed = traced_pass(args.workload, done)
        mismatches += changed
        units = {**metric_units(), **TRACE_UNITS}
        record.update(traced=metrics, traced_output_changes=changed)
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.csv")
        layers = sorted(((v, k[:-len(".self_s")]) for k, v in metrics.items()
                         if k.endswith(".self_s")), reverse=True)
        for v, k in layers[:5]:
            print(f"self time {k} {v:.4g} s ({metrics[k + '.s']:.4g} s inclusive)")
        print(f"trace.slowdown {metrics['trace.slowdown']:.4g} x")

    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({
        "correct": mismatches == 0,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
