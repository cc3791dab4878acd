"""Finite ultragraph model: range-set lattice, emitters, reachability.

An ultragraph is a directed graph whose edges end in nonempty *sets* of
vertices rather than single vertices.  Everything here is exact and
deterministic: vertex sets are frozensets, and every set-valued result is
reported in a canonical order (lexicographic on vertex names).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

Vertex = str
Edge = str
VSet = FrozenSet[Vertex]
# the most entries Ultragraph._adjacency builds: of the derived structures
# it alone grows with the edges times the out-degrees, not with |V|
MAX_ADJACENCY = 2_000_000


class SizeLimitError(RuntimeError):
    """An enumeration outgrew its caller-supplied bound."""


class GraphStructureError(ValueError):
    """The graph violates a structural precondition of the operation."""


def set_key(s: Iterable[str]) -> Tuple[str, ...]:
    """Canonical sort key for a vertex set: the sorted tuple of names."""
    return tuple(sorted(s))


def format_set(s: Iterable[str]) -> str:
    return "{" + " ".join(sorted(s)) + "}"


@dataclass(frozen=True)
class Ultragraph:
    """Vertices, edges, one source vertex per edge, one nonempty range set per edge.

    Never mutate one after construction: its sorted edges and vertices,
    out-edge lists, edge adjacency, edge components, reachability sets and
    lattice are derived on first use and cached on it."""

    vertices: VSet
    edges: FrozenSet[Edge]
    source: Mapping[Edge, Vertex]
    range: Mapping[Edge, VSet]

    @classmethod
    def build(
        cls,
        vertices: Iterable[Vertex],
        edges: Mapping[Edge, Tuple[Vertex, Iterable[Vertex]]],
    ) -> "Ultragraph":
        """Convenience constructor; edges maps name -> (source, range iterable)."""
        return cls(
            vertices=frozenset(vertices),
            edges=frozenset(edges),
            source={e: s for e, (s, _) in edges.items()},
            range={e: frozenset(r) for e, (_, r) in edges.items()},
        )

    def edges_sorted(self) -> Tuple[Edge, ...]:
        return self._edges_sorted

    def vertices_sorted(self) -> Tuple[Vertex, ...]:
        return self._vertices_sorted

    def out_edges(self, v: Vertex) -> Tuple[Edge, ...]:
        return self._out_edges.get(v, ())

    @cached_property
    def _edges_sorted(self) -> Tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def _vertices_sorted(self) -> Tuple[Vertex, ...]:
        return tuple(sorted(self.vertices))

    @cached_property
    def _out_edges(self) -> Dict[Vertex, Tuple[Edge, ...]]:
        out: Dict[Vertex, List[Edge]] = {}
        for e in self.edges_sorted():
            out.setdefault(self.source.get(e), []).append(e)
        return {v: tuple(es) for v, es in out.items()}

    @cached_property
    def _adjacency(self) -> Dict[Edge, Tuple[Edge, ...]]:
        # an edge whose source is not a declared vertex follows no edge; the
        # out-edge lists behind each edge's entries are gathered and counted
        # first, so a graph past the budget builds no entry
        out = {v: es for v, es in self._out_edges.items() if v in self.vertices}
        parts = {e: [out[v] for v in self.range[e] if v in out] for e in self.edges_sorted()}
        entries = sum(len(es) for ps in parts.values() for es in ps)
        if entries > MAX_ADJACENCY:
            raise SizeLimitError(
                f"edge adjacency of {entries} entries exceeded max_entries={MAX_ADJACENCY}"
            )
        return {e: tuple(sorted(chain.from_iterable(ps))) for e, ps in parts.items()}

    @cached_property
    def _components(self) -> Dict[Edge, Tuple[Edge, ...]]:
        # Tarjan's pass with an explicit stack of (edge, successor iterator)
        # frames, so no component size meets the recursion limit
        adj = self._adjacency
        index: Dict[Edge, int] = {}
        low: Dict[Edge, int] = {}
        open_edges: List[Edge] = []
        on_stack = set()
        comp: Dict[Edge, Tuple[Edge, ...]] = {}
        for root in self.edges_sorted():
            if root in index:
                continue
            index[root] = low[root] = len(index)
            open_edges.append(root)
            on_stack.add(root)
            frames = [(root, iter(adj[root]))]
            while frames:
                e, succ = frames[-1]
                for f in succ:
                    if f not in index:
                        index[f] = low[f] = len(index)
                        open_edges.append(f)
                        on_stack.add(f)
                        frames.append((f, iter(adj[f])))
                        break
                    if f in on_stack and index[f] < low[e]:
                        low[e] = index[f]
                else:
                    frames.pop()
                    if frames and low[e] < low[frames[-1][0]]:
                        low[frames[-1][0]] = low[e]
                    if low[e] == index[e]:
                        popped = [open_edges.pop()]
                        while popped[-1] != e:
                            popped.append(open_edges.pop())
                        on_stack.difference_update(popped)
                        members = tuple(sorted(popped))
                        for f in members:
                            comp[f] = members
        return comp

    @cached_property
    def _lattice(self) -> "LatticeG0":
        # read by generate_lattice only, after its size guards
        vs = self.vertices_sorted()
        # subsets in set_key order, built from the last vertex back: with
        # first vertex v the order is the empty set, v prepended to each
        # subset of the later vertices, then the nonempty subsets of the
        # later vertices; each mask gains v's bit where v is prepended
        keys: List[Tuple[Vertex, ...]] = [()]
        masks = [0]
        for k in range(len(vs) - 1, -1, -1):
            v, bit = vs[k], 1 << k
            keys = [()] + [(v,) + s for s in keys] + keys[1:]
            masks = [0] + [bit | m for m in masks] + masks[1:]
        return LatticeG0(sets=tuple(frozenset(k) for k in keys), masks=tuple(masks))

    @cached_property
    def _reachable(self) -> Dict[Vertex, VSet]:
        """Memo filled by reachable_from, one entry per start vertex."""
        return {}


def edge_adjacency(g: Ultragraph) -> Dict[Edge, Tuple[Edge, ...]]:
    """Successor map on edges: f follows e iff source(f) lies in range(e).

    The map is built once per graph and shared by every caller: do not
    mutate it."""
    return g._adjacency


def edge_components(g: Ultragraph) -> Dict[Edge, Tuple[Edge, ...]]:
    """Strongly connected components of edge_adjacency: each edge maps to
    the sorted tuple of its component, one tuple shared by every member.

    A component is cyclic, holding a closed walk, when it has two or more
    edges or its one edge follows itself.  Built once per graph by an
    iterative Tarjan pass, linear in the edges plus adjacency entries, and
    shared by every caller: do not mutate it."""
    return g._components


@dataclass(frozen=True)
class ValidationReport:
    sinks: Tuple[Vertex, ...]
    errors: Tuple[str, ...]
    warnings: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(g: Ultragraph) -> ValidationReport:
    """Structural checks.  Sinks are warnings only: they block groupoid-side
    operations but the graph itself is legal.  On a finite graph no vertex
    set emits infinitely many edges, so the sinks are the singular vertices."""
    errors: List[str] = []
    for e in g.edges_sorted():
        src = g.source.get(e)
        if src is None:
            errors.append(f"edge '{e}': no source vertex recorded")
        elif src not in g.vertices:
            errors.append(f"edge '{e}': source '{src}' is not a declared vertex")
        rng = g.range.get(e)
        if rng is None or not rng:
            errors.append(f"edge '{e}': empty range")
        else:
            for w in sorted(rng):
                if w not in g.vertices:
                    errors.append(f"edge '{e}': range vertex '{w}' is not declared")
    found = sinks(g)
    return ValidationReport(
        sinks=found,
        errors=tuple(errors),
        warnings=tuple(f"sink vertex '{v}'" for v in found),
    )


def sinks(g: Ultragraph) -> Tuple[Vertex, ...]:
    """The declared vertices that emit no edge, in sorted order: the sorted
    vertices minus the declared sources.  An edge whose source is not a
    declared vertex makes no vertex emit."""
    emitting = g.vertices.intersection(g._out_edges)
    if len(emitting) == len(g.vertices):
        return ()
    return tuple(v for v in g.vertices_sorted() if v not in emitting)


def require_no_sinks(g: Ultragraph, operation: str) -> None:
    found = sinks(g)
    if found:
        names = ", ".join(found)
        raise GraphStructureError(
            f"{operation} requires a sink-free ultragraph; sinks: {names}"
        )


@dataclass(frozen=True)
class LatticeG0:
    """The lattice generated by every singleton, every edge range and the
    empty set under pairwise union and intersection: on a finite
    ultragraph, the power set of the vertices.

    The sets are listed in set_key order, so the empty set comes first.
    masks[i] is the vertex mask of sets[i]: bit k is set iff the k-th
    vertex of vertices_sorted lies in it, so a meet or join of two sets
    has the mask of their masks' & or |."""

    sets: Tuple[VSet, ...]
    masks: Tuple[int, ...]

    def __iter__(self):
        return iter(self.sets)

    def __len__(self) -> int:
        return len(self.sets)

    def nonempty(self) -> Tuple[VSet, ...]:
        return self.sets[1:]


def generate_lattice(g: Ultragraph, max_size: int = 4096) -> LatticeG0:
    """The lattice computed directly as the power set of the vertices.

    The generators include every singleton, and unions of singletons give
    every subset, so on a finite ultragraph the closure is the full power
    set.  A max_size below 1 is a usage error (ValueError); a size 2^|V|
    past max_size raises SizeLimitError before any set is built.  The
    lattice is built once per graph and shared by every caller.
    """
    if max_size < 1:
        raise ValueError("max_size must be at least 1")
    if 2 ** len(g.vertices) > max_size:
        raise SizeLimitError(f"lattice closure exceeded max_size={max_size}")
    return g._lattice


def emitted_edges(g: Ultragraph, A: VSet) -> FrozenSet[Edge]:
    """Edges whose source vertex lies in A, read off the out-edge lists."""
    return frozenset(chain.from_iterable(map(g.out_edges, A)))


def reaches(g: Ultragraph, w: Vertex, v: Vertex) -> bool:
    """w >= v: either w == v or some path starting at w has v in its range."""
    if w not in g.vertices or v not in g.vertices:
        raise ValueError("both endpoints must be declared vertices")
    return v in reachable_from(g, w)


def reachable_from(g: Ultragraph, w: Vertex) -> VSet:
    """All vertices v with w >= v, computed once per start vertex."""
    memo = g._reachable
    if w in memo:
        return memo[w]
    out = {w}
    adj = edge_adjacency(g)
    frontier = list(g.out_edges(w))
    seen = set(frontier)
    while frontier:
        e = frontier.pop()
        out.update(g.range[e])
        for f in adj[e]:
            if f not in seen:
                seen.add(f)
                frontier.append(f)
    memo[w] = frozenset(out)
    return memo[w]
