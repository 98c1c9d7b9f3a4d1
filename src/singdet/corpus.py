"""Bundled corpus: small link diagrams and Seifert data used by the tests,
the verification suites and the CLI.

File format (one link per file):
    # optional comment lines
    name: <identifier>
    pd: X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)
    seifert:          <- unsymmetrized Seifert matrix A, matrix text format
    2
    -1 1
    0 -1
    matrix:           <- symmetrized matrix M directly (entries without a
    ...                  geometric A use this instead of seifert:)

Every entry carries at least one of pd/seifert/matrix, and at most one of
seifert/matrix: an entry with both would take det, the signature and the
per-prime lines from one and the Alexander polynomial from the other, so
it is refused.  Values bundled here are cross-checked by the test suite
itself (dual-route identities), never trusted from outside.
"""

from __future__ import annotations

import os
from collections import namedtuple

from .diagrams import parse_pd
from .exactlinalg import IntegerSymmetricMatrix, SeifertData, parse_matrix


class CorpusEntry(namedtuple("CorpusEntry", "name diagram seifert matrix")):
    """One corpus file: its name and whichever of a `LinkDiagram`, a
    `SeifertData` and an `IntegerSymmetricMatrix` it gives, None for the
    others."""

    __slots__ = ()


def parse_entry(text: str, fallback_name: str = "") -> CorpusEntry:
    name = fallback_name
    pd_line = None
    blocks: dict[str, list[str]] = {}
    current: list[str] | None = None
    seen: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, colon, value = line.partition(":")
        if colon and key in ("name", "pd", "seifert", "matrix"):
            if key in seen:
                raise ValueError(f"corpus entry {name!r} repeats the '{key}:' key")
            seen.add(key)
            current = None
            if key == "name":
                name = value.strip()
            elif key == "pd":
                pd_line = value.strip()
            else:
                current = blocks[key] = []
        elif current is not None:
            current.append(line)
        else:
            raise ValueError(f"unparsed corpus line: {line!r}")
    if "seifert" in blocks and "matrix" in blocks:
        raise ValueError(f"corpus entry {name!r} gives both a 'seifert:' and a 'matrix:' block")
    diagram = parse_pd(pd_line) if pd_line is not None else None
    seifert = SeifertData(parse_matrix("\n".join(blocks["seifert"]))) if "seifert" in blocks else None
    matrix = (
        IntegerSymmetricMatrix(parse_matrix("\n".join(blocks["matrix"])))
        if "matrix" in blocks
        else None
    )
    if diagram is None and seifert is None and matrix is None:
        raise ValueError(f"corpus entry {name!r} is empty")
    return CorpusEntry(name, diagram, seifert, matrix)


def load_corpus(root: str | None = None) -> dict[str, CorpusEntry]:
    """The entries of the `.txt` files in the folder `root`, or the bundled
    entries when root is None.  Two files whose entries share a name raise
    ValueError.  The bundled files are read beside this module, with no
    importlib.resources, whose import costs more than loading the corpus."""
    folder = root or os.path.join(os.path.dirname(__file__), "corpus")
    entries, files = {}, {}
    for name in sorted(os.listdir(folder)):
        if not name.endswith(".txt"):
            continue
        with open(os.path.join(folder, name)) as fh:
            e = parse_entry(fh.read(), name[:-4])
        if e.name in files:
            raise ValueError(f"corpus files {files[e.name]} and {name} both name an entry {e.name!r}")
        entries[e.name], files[e.name] = e, name
    return entries


def corpus_knots(max_crossings: int | None = None, root: str | None = None) -> dict[str, CorpusEntry]:
    """The entries of `load_corpus(root)` that are knots with diagrams, of
    at most `max_crossings` crossings when that is given."""
    out = {}
    for name, e in load_corpus(root).items():
        if e.diagram is None or e.diagram.component_count != 1:
            continue
        if max_crossings is not None and e.diagram.n > max_crossings:
            continue
        out[name] = e
    return out
