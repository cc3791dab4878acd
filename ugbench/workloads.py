"""Seeded inputs and request lists for the four benchmark workloads.

Graphs are plain tuples built here, not `ultragraph.Ultragraph` values, so
the oracles in `oracle.py` never depend on the package they check.  The
program only ever sees the `.ug` files written by `write_inputs`.

Every workload is a closed loop: one caller sends the next request only
after the previous one has returned.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

Edge = Tuple[str, str, Tuple[str, ...]]  # (name, source, range)


@dataclass(frozen=True)
class Graph:
    vertices: Tuple[str, ...]
    edges: Tuple[Edge, ...]

    def text(self) -> str:
        lines = ["ultragraph"]
        lines.extend(f"vertex {v}" for v in self.vertices)
        lines.extend(f"edge {e} {s} {{ {' '.join(r)} }}" for e, s, r in self.edges)
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class Request:
    """One CLI call.  `graph` names an input file and `out`, when set, a
    file the call writes; both live in the inputs directory."""

    command: str
    graph: str
    options: Tuple[str, ...] = ()
    out: str = ""


def ring(n: int, seed: int) -> Graph:
    """The ROADMAP family: a directed n-cycle of edges e_i: v_i -> {v_(i+1)}
    plus n extra edges x_j, each drawing its source with rng.choice and then
    its range with rng.sample(vs, min(3, n)) from one random.Random(seed)."""
    vs = tuple(f"v{i}" for i in range(n))
    edges: List[Edge] = [(f"e{i}", vs[i], (vs[(i + 1) % n],)) for i in range(n)]
    rng = random.Random(seed)
    for j in range(n):
        src = rng.choice(vs)
        edges.append((f"x{j}", src, tuple(rng.sample(vs, min(3, n)))))
    return Graph(vs, tuple(edges))


SWEEP_SINK_EVERY = 5  # graph i has a sink iff i % 5 == 4: a 1-in-5 share


def sweep_graph(rng: random.Random, sink: bool) -> Graph:
    """2-5 vertices; every vertex but the sink emits 1-2 edges with ranges of
    1-3 vertices.  With `sink` the last vertex emits nothing."""
    n = rng.randint(2, 5)
    vs = tuple(f"v{i}" for i in range(n))
    emitters = vs[:-1] if sink else vs
    edges: List[Edge] = []
    for v in emitters:
        for _ in range(rng.randint(1, 2)):
            rng_set = tuple(rng.sample(vs, rng.randint(1, min(3, n))))
            edges.append((f"e{len(edges)}", v, rng_set))
    return Graph(vs, tuple(edges))


def _sub(seed: int, k: int) -> int:
    """Seed of the k-th graph of one family in a run; k = 0 keeps the run's
    own seed, so seed 0 reproduces the ROADMAP graphs."""
    return seed * 64 + k


# Many small graphs rather than a few large ones.  The cost of a single ring
# graph moves by 10-30% from seed to seed, so a pass sums over several
# graphs, and the slowest request of `structure` is one of three skew
# requests, not a single one.  Every request is short (at most about
# 0.25 s), so one run holds a few dozen passes.
ALGEBRA_GROUPOID_GRAPHS = 4
LATTICE_CK_GRAPHS = 10
LATTICE_GRAPHS = 3
STRUCTURE_ANALYZE_GRAPHS = 4
STRUCTURE_SKEW_GRAPHS = 3
SWEEP_GRAPHS = 300


def read_fixture(root: str, name: str) -> Graph:
    with open(os.path.join(root, "fixtures", name), encoding="utf-8") as fh:
        return parse_ug(fh.read())


def build(workload: str, seed: int, root: str) -> Tuple[Dict[str, Graph], List[Request]]:
    """The input graphs by file name, and the request list of one pass.
    `root` is the repository checkout holding fixtures/."""
    graphs: Dict[str, Graph] = {}
    reqs: List[Request] = []
    if workload == "algebra":
        graphs["GX.ug"] = read_fixture(root, "GX.ug")
        reqs.append(Request("semigroup", "GX.ug", ("--max-len", "3")))
        for k in range(ALGEBRA_GROUPOID_GRAPHS):
            name = f"ring2_{k}.ug"
            graphs[name] = ring(2, _sub(seed, k))
            reqs.append(Request("groupoid", name, ("--cycle-bound", "1")))
    elif workload == "lattice_ck":
        for k in range(LATTICE_CK_GRAPHS):
            name = f"ring6_{k}.ug"
            graphs[name] = ring(6, _sub(seed, k))
            reqs.append(Request("ck", name))
            reqs.append(Request("paths", name))
        for k in range(LATTICE_GRAPHS):
            name = f"ring8_{k}.ug"
            graphs[name] = ring(8, _sub(seed, k))
            reqs.append(Request("lattice", name))
    elif workload == "structure":
        for k in range(STRUCTURE_ANALYZE_GRAPHS):
            name = f"ring20_{k}.ug"
            graphs[name] = ring(20, _sub(seed, k))
            reqs.append(Request("analyze", name))
        for k in range(STRUCTURE_SKEW_GRAPHS):
            name = f"ring40_{k}.ug"
            graphs[name] = ring(40, _sub(seed, k))
            reqs.append(Request("skew", name, ("--window", "5"), out=f"skew_{k}.ug"))
            reqs.append(Request("validate", name))
    elif workload == "sweep":
        rng = random.Random(seed)
        for i in range(SWEEP_GRAPHS):
            name = f"g{i}.ug"
            graphs[name] = sweep_graph(rng, i % SWEEP_SINK_EVERY == SWEEP_SINK_EVERY - 1)
            for cmd in ("validate", "lattice", "paths", "analyze", "ck"):
                reqs.append(Request(cmd, name))
            reqs.append(Request("skew", name, ("--window", "2")))
    else:
        raise ValueError(f"unknown workload '{workload}'")
    return graphs, reqs


WORKLOADS = ("algebra", "lattice_ck", "structure", "sweep")


def write_inputs(graphs: Dict[str, Graph], directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name, g in graphs.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(g.text())


def parse_ug(text: str) -> Graph:
    """Minimal reader for the fixtures and the emitted skew product; it
    checks the header and trusts the rest to be well formed."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines or lines[0] != ["ultragraph"]:
        raise ValueError("missing ultragraph header")
    vs: List[str] = []
    edges: List[Edge] = []
    for tok in lines[1:]:
        if tok[0] == "vertex":
            vs.append(tok[1])
        elif tok[0] == "edge":
            edges.append((tok[1], tok[2], tuple(tok[4:-1])))
        else:
            raise ValueError(f"unknown directive '{tok[0]}'")
    return Graph(tuple(vs), tuple(edges))
