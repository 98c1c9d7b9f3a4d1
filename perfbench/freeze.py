"""Freeze the CLI outputs of the default seed into reference.json.

    python3 perfbench/freeze.py

Each entry is a digest of one input's invariants and obstruct output, less
the input= line.  run.py compares the default seed's outputs with these, so
a change that moves two independent routes together still fails the check.
Regenerate only after a change meant to alter the output, and review the
diff.  Covers more rounds than a run at the default length consumes.
"""

from __future__ import annotations

import json
import sys

import run

ROUNDS = {"matrices": 40, "braids": 6, "pretzels": 8}


def main() -> int:
    run.import_singdet()
    digests = {}
    for workload, k in ROUNDS.items():
        done = run.run_batch(workload, run.DEFAULT_SEED, k)
        run.check(workload, done, {})
        for _, rec in done:
            if not rec.completed:
                print(f"{workload} {rec.name}: {rec.reason or '; '.join(rec.problems)}")
        digests[workload] = {rec.name: run.output_digest(rec) for _, rec in done if rec.completed}
        print(f"{workload}: {len(digests[workload])} of {len(done)} inputs frozen")
    run.REFERENCE.write_text(json.dumps(
        {"seed": run.DEFAULT_SEED, "digests": digests}, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
