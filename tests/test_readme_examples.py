"""Each `$ PYTHONPATH=src python3 -m singdet ...` example in README.md
prints exactly the block shown under it.

An example is an indented line starting with that prompt; its block is the
indented lines that follow, up to the first line that is not indented.
The command runs from the repository root, as the README's paths assume.
"""

import os
import re
import shlex
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(__file__), "..")
PROMPT = re.compile(r"    \$ PYTHONPATH=src python3 -m singdet (.*)")


def _examples():
    """(argument string, expected stdout) for each example, in README order."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = fh.read().splitlines()
    examples = []
    for k, line in enumerate(lines):
        m = PROMPT.fullmatch(line)
        if m:
            block = []
            for out in lines[k + 1:]:
                if not out.startswith("    "):
                    break
                block.append(out[4:] + "\n")
            examples.append((m.group(1), "".join(block)))
    return examples


EXAMPLES = _examples()
COMMANDS = [args.split()[0] for args, _ in EXAMPLES]


def test_the_readme_has_three_examples():
    assert COMMANDS == ["invariants", "obstruct", "verify"]


@pytest.mark.parametrize("args, expected", EXAMPLES, ids=COMMANDS)
def test_readme_example_prints_its_block(args, expected):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "singdet", *shlex.split(args)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
