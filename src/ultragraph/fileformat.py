"""Plain-text ultragraph files.

    ultragraph
    # comment lines and blank lines are allowed anywhere
    vertex v
    edge e v { w u }

The header must be the first meaningful line.  Every edge names its source
and a braced, nonempty list of range vertices; all references must resolve.
Diagnostics carry 1-based line numbers.  Emission is canonical: sorted
vertices, then sorted edges with sorted ranges, so parse and emit round-trip.
"""

from __future__ import annotations

import re
from typing import Dict, FrozenSet, Set

from .core import Ultragraph

HEADER = "ultragraph"
_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _check_name(num: int, kind: str, name: str) -> None:
    if not _NAME.match(name):
        raise ParseError(num, f"bad {kind} name '{name}'")


def parse(text: str) -> Ultragraph:
    """One pass per line, splitting it into tokens once.  Only LF, CR LF
    and CR end a line, the line ends text-mode universal newlines know, so
    a form feed or U+2028 inside a comment stays in it.  A name already
    declared passed the name check on its own line, so only new names are
    matched against the pattern; the checks still fail in the order the
    line reads: duplicate or bad name, then unknown references, then a
    repeated range vertex."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    seen: Set[str] = set()
    source: Dict[str, str] = {}
    ranges: Dict[str, FrozenSet[str]] = {}
    header_seen = False
    for num, raw in enumerate(text.split("\n"), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        if not header_seen:
            if tokens != [HEADER]:
                line = raw.partition("#")[0].strip()
                raise ParseError(num, f"expected header '{HEADER}', got '{line}'")
            header_seen = True
            continue
        head = tokens[0]
        if head == "edge":
            if len(tokens) < 5 or tokens[3] != "{" or tokens[-1] != "}":
                raise ParseError(
                    num, "edge lines look like: edge <name> <source> { <vertex>... }"
                )
            name, src = tokens[1], tokens[2]
            if name in source:
                raise ParseError(num, f"duplicate edge '{name}'")
            _check_name(num, "edge", name)
            if src not in seen:
                _check_name(num, "vertex", src)
                raise ParseError(num, f"edge '{name}' has unknown source '{src}'")
            rng = tokens[4:-1]
            if not rng:
                raise ParseError(num, f"edge '{name}' has an empty range")
            if not seen.issuperset(rng):
                for w in rng:
                    if w not in seen:
                        _check_name(num, "vertex", w)
                        raise ParseError(
                            num, f"edge '{name}' has unknown range vertex '{w}'"
                        )
            members = frozenset(rng)
            if len(members) != len(rng):
                raise ParseError(num, f"edge '{name}' repeats a range vertex")
            source[name] = src
            ranges[name] = members
        elif head == "vertex":
            if len(tokens) != 2:
                raise ParseError(num, "vertex lines take exactly one name")
            name = tokens[1]
            if name in seen:
                raise ParseError(num, f"duplicate vertex '{name}'")
            _check_name(num, "vertex", name)
            seen.add(name)
        else:
            raise ParseError(num, f"unknown directive '{head}'")
    if not header_seen:
        raise ParseError(1, f"missing header '{HEADER}'")
    if not seen:
        raise ParseError(1, "an ultragraph needs at least one vertex")
    return Ultragraph(
        vertices=frozenset(seen), edges=frozenset(source), source=source, range=ranges
    )


def parse_file(path: str) -> Ultragraph:
    """Reads the file as UTF-8; a leading byte order mark, and only a
    leading one, is dropped."""
    # one read of the whole file needs no buffer object
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    return parse(data.decode("utf-8-sig"))


def emit(g: Ultragraph) -> str:
    lines = [HEADER]
    lines.extend(f"vertex {v}" for v in g.vertices_sorted())
    for e in g.edges_sorted():
        rng = " ".join(sorted(g.range[e]))
        lines.append(f"edge {e} {g.source[e]} {{ {rng} }}")
    return "\n".join(lines) + "\n"


def emit_file(g: Ultragraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit(g))
