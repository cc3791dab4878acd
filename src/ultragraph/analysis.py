"""Structural criteria over finite ultragraphs.

Condition (K) and cofinality are both read off the strongly connected
components of the edge adjacency, computed once per graph: a vertex's
first-return loop count, capped at 2, follows from the components its
out-edges lie in, and a graph is cofinal when every vertex reaches a
source of every cyclic component.  Both feed a conservative simplicity
verdict.  The pruned first-return walk stays for explicit loop bounds and
for listing loops.  Loop-freeness is decided by peeling the vertex arcs
x -> y, y in the range of an edge from x, without the edge adjacency.  A
windowed skew product by the integers, built level by level, gives the
loop-free cover used to probe AF behaviour.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from .core import (
    Edge,
    SizeLimitError,
    Ultragraph,
    Vertex,
    edge_adjacency,
    edge_components,
    reaches,
    require_no_sinks,
    sinks,
)
from .groupoid import CheckResult


@dataclass(frozen=True)
class Loop:
    """First-return loop: starts and ends at its base, never revisiting the
    base as an interior source."""

    base: Vertex
    word: Tuple[Edge, ...]

    def __str__(self) -> str:
        return f"{self.base}:{''.join(self.word)}"


def loops_at(
    g: Ultragraph, v: Vertex, bound: int, max_count: int = 200_000
) -> Tuple[Loop, ...]:
    """Every first-return loop based at v with length at most bound."""
    words = list(itertools.islice(_first_return_words(g, v, bound), max_count + 1))
    if len(words) > max_count:
        raise SizeLimitError(f"more than {max_count} loops at '{v}'")
    words.sort(key=lambda w: (len(w), w))
    return tuple(Loop(base=v, word=w) for w in words)


def _first_return_words(
    g: Ultragraph, v: Vertex, bound: int
) -> Iterator[Tuple[Edge, ...]]:
    """Every first-return loop word at v of length at most bound, depth
    first.  A branch is pruned unless it returns now or can still complete
    a return inside the bound."""
    if v not in g.vertices:
        raise ValueError(f"unknown vertex '{v}'")
    if bound < 1:
        return
    adj = edge_adjacency(g)
    # need[f]: least length after f that closes a loop, 0 when f closes one
    # (v in its range); one backward BFS from the closing edges, over edges
    # whose source is not v, since v is never an interior source
    pred: Dict[Edge, List[Edge]] = {}
    for e in g.edges:
        if g.source[e] != v:
            for f in adj[e]:
                pred.setdefault(f, []).append(e)
    need = {f: 0 for f in g.edges if g.source[f] != v and v in g.range[f]}
    frontier = list(need)
    while frontier:
        nxt = []
        for f in frontier:
            for e in pred.get(f, ()):
                if e not in need:
                    need[e] = need[f] + 1
                    nxt.append(e)
        frontier = nxt
    # one shared path: an entry (e, depth) puts e at path[depth], and a word
    # is copied only when it closes a loop
    path: List[Edge] = []
    stack: List[Tuple[Edge, int]] = [(e, 0) for e in g.out_edges(v)]
    while stack:
        e, depth = stack.pop()
        del path[depth:]
        path.append(e)
        if v in g.range[e]:
            yield tuple(path)
        budget = bound - len(path) - 1
        stack.extend((f, depth + 1) for f in adj[e] if need.get(f, bound) <= budget)


def count_first_return_loops(g: Ultragraph, v: Vertex, bound: int) -> int:
    """Number of first-return loops at v of length at most bound, capped at
    2: the walk stops at the second loop, so the result equals
    min(true count, 2)."""
    return sum(1 for _ in itertools.islice(_first_return_words(g, v, bound), 2))


@dataclass(frozen=True)
class KReport:
    holds: bool
    counts: Mapping[Vertex, int]
    bound: int

    def offenders(self) -> Tuple[Vertex, ...]:
        return tuple(v for v in sorted(self.counts) if self.counts[v] == 1)


def _cycle_kinds(g: Ultragraph) -> Dict[Edge, bool]:
    """The cyclic components of the edge adjacency, keyed by their least
    edge, each mapped to whether it is a simple cycle: every member has
    exactly one successor inside the component."""
    adj = edge_adjacency(g)
    kinds: Dict[Edge, bool] = {}
    for comp in edge_components(g).values():
        head = comp[0]
        if head in kinds or (len(comp) == 1 and head not in adj[head]):
            continue
        members = set(comp)
        kinds[head] = all(sum(f in members for f in adj[e]) == 1 for e in comp)
    return kinds


def _component_loop_counts(g: Ultragraph) -> Dict[Vertex, int]:
    """min(first-return loops at v within 2|E| edges, 2) for every vertex
    v, from the components of the edge adjacency H alone.

    A loop at v is a word e_1 ... e_n with source(e_1) = v, v in
    range(e_n) and v never an interior source.  Then e_n -> e_1 in H, so
    the loop is a closed walk and e_1 lies in a cyclic component C.
    Conversely a shortest closed walk from such an e_1 has at most |C|
    edges, and cut where v first lies in a range it is a loop.  Hence:

    - No out-edge of v in a cyclic component: 0 loops.
    - Two such out-edges: two loops with different first edges, each of
      length at most |E|, so 2.
    - Exactly one, e in C: every loop starts with e and lies in C, and e
      is the only edge of C with source v.  So the loops at v are exactly
      the closed walks in H from e back to e that do not meet e in
      between.  If C is a simple cycle, the walk from e is forced and
      there is one such walk, of length |C| <= |E|: count 1.  Otherwise
      some x in C has two successors y1 != y2 in C.  Take a shortest path
      P from e to x and shortest paths Q_i from y_i back to e, all inside
      C; each meets e only at its ends.  P, x -> y_i, Q_i for i = 1, 2 are
      two different such walks, each of length at most
      (|C| - 1) + 1 + (|C| - 1) <= 2|E| - 1: the default bound sees the
      second loop, and the count is 2.
    """
    comps = edge_components(g)
    kinds = _cycle_kinds(g)
    counts: Dict[Vertex, int] = {}
    for v in g.vertices_sorted():
        heads = [comps[e][0] for e in g.out_edges(v) if comps[e][0] in kinds]
        if not heads:
            counts[v] = 0
        elif len(heads) == 1 and kinds[heads[0]]:
            counts[v] = 1
        else:
            counts[v] = 2
    return counts


def condition_K(g: Ultragraph, bound: Optional[int] = None) -> KReport:
    """Condition (K): no vertex is the base of exactly one first-return
    loop within the bound (default twice the edge count).

    The default bound is decided from the edge components in linear time;
    an explicit bound runs the pruned walk at every vertex."""
    if bound is None:
        bound = 2 * len(g.edges)
        counts = _component_loop_counts(g)
    else:
        counts = {
            v: count_first_return_loops(g, v, bound) for v in g.vertices_sorted()
        }
    holds = all(c != 1 for c in counts.values())
    return KReport(holds=holds, counts=counts, bound=bound)


def _restricted_cycle(
    g: Ultragraph, allowed: Set[Edge]
) -> Optional[Tuple[Edge, ...]]:
    """A directed cycle of the edge-adjacency relation inside the allowed
    edges, or None."""
    adj = edge_adjacency(g)
    color: Dict[Edge, int] = {}
    for start in sorted(allowed):
        if color.get(start):
            continue
        path: List[Edge] = []
        stack: List[Tuple[Edge, bool]] = [(start, False)]
        while stack:
            e, done = stack.pop()
            if done:
                color[e] = 2
                path.pop()
                continue
            if color.get(e) == 1:
                continue
            color[e] = 1
            path.append(e)
            stack.append((e, True))
            for f in adj[e]:
                if f not in allowed:
                    continue
                c = color.get(f)
                if c == 1:
                    return tuple(path[path.index(f):])
                if c is None:
                    stack.append((f, False))
    return None


def is_loop_free(g: Ultragraph) -> bool:
    """No loop at all, equivalently an acyclic edge-adjacency relation: the
    finite-graph indicator of an AF algebra.

    Decided by peeling the vertex arcs x -> y, one for each edge e whose
    source x = s(e) is declared and each declared y in r(e), in Kahn's
    manner: linear in the range sizes, with no edge adjacency built.  The
    edge adjacency has a cycle iff these arcs do:

    - An edge cycle e_1 -> e_2 -> ... -> e_1 has s(e_(i+1)) in r(e_i),
      every source declared, so s(e_1) -> s(e_2) -> ... -> s(e_1) is a
      vertex cycle.
    - A vertex cycle v_1 -> v_2 -> ... -> v_1 runs through edges e_i with
      s(e_i) = v_i and v_(i+1) in r(e_i); then s(e_(i+1)) = v_(i+1) is a
      declared vertex in r(e_i), so e_i -> e_(i+1), an edge cycle.
    - An edge from an undeclared source follows no edge and gives no arc;
      an undeclared range vertex emits no edge and ends no cycle.

    Every vertex on or after a vertex cycle keeps a positive in-degree, so
    the arcs are acyclic iff the peel reaches every declared vertex.
    """
    vs = g.vertices
    arcs: Dict[Vertex, List[Vertex]] = {}
    for e in g.edges:
        x = g.source.get(e)
        if x in vs:
            arcs.setdefault(x, []).extend(g.range[e] & vs)
    indeg = dict.fromkeys(vs, 0)
    indeg.update(Counter(itertools.chain.from_iterable(arcs.values())))
    ready = [v for v, d in indeg.items() if not d]
    seen = 0
    while ready:
        x = ready.pop()
        seen += 1
        for y in arcs.get(x, ()):
            indeg[y] -= 1
            if not indeg[y]:
                ready.append(y)
    return seen == len(indeg)


@dataclass(frozen=True)
class CofinalityReport:
    cofinal: bool
    counterexample: Optional[Tuple[Vertex, Tuple[Edge, ...]]]


def is_cofinal(g: Ultragraph) -> CofinalityReport:
    """Every vertex reaches every infinite path.

    An infinite path escapes v exactly when it eventually stays inside the
    edges whose sources v cannot reach, which on a finite graph means a
    cycle of such edges, inside one cyclic component of the edge
    adjacency.  The sources of a component all reach one another, so v
    fails exactly when it misses the source of one edge of some cyclic
    component.  One backward search per such source, over "x is the source
    of an edge whose range holds y", finds every vertex that reaches it.
    For the least vertex that misses one, a cycle among the edges it
    cannot reach is returned as the counterexample.
    """
    require_no_sinks(g, "cofinality")
    targets = sorted({g.source[head] for head in _cycle_kinds(g)})
    sources: Dict[Vertex, List[Vertex]] = {}
    for e in g.edges_sorted():
        for y in g.range[e]:
            sources.setdefault(y, []).append(g.source[e])
    missed: Set[Vertex] = set()
    for t in targets:
        seen = {t}
        frontier = [t]
        while frontier:
            for x in sources.get(frontier.pop(), ()):
                if x not in seen:
                    seen.add(x)
                    frontier.append(x)
        missed |= g.vertices - seen
    if not missed:
        return CofinalityReport(cofinal=True, counterexample=None)
    v = min(missed)
    bad = {f for f in g.edges if not reaches(g, v, g.source[f])}
    cyc = _restricted_cycle(g, bad)
    return CofinalityReport(cofinal=False, counterexample=(v, cyc))


def condition_2(g: Ultragraph) -> Tuple[bool, str]:
    """Side condition on infinite emitters; a finite ultragraph has none,
    so it holds vacuously."""
    return True, "holds vacuously: finite ultragraphs have no infinite emitters"


@dataclass(frozen=True)
class StructureReport:
    condition_k: KReport
    cofinality: CofinalityReport
    condition_2_holds: bool
    condition_2_note: str
    essentially_principal: bool
    loop_free: bool
    verdict: str
    reasons: Tuple[str, ...]


def simplicity_verdict(g: Ultragraph, bound: Optional[int] = None) -> StructureReport:
    """Conservative verdict: SimpleByThm when condition (K) and cofinality
    hold, NotCoveredByThm otherwise; the side condition on infinite
    emitters holds vacuously (condition_2), so it adds no reason.  The
    negative verdict never claims non-simplicity, it only lists which
    hypotheses failed."""
    require_no_sinks(g, "simplicity verdict")
    k = condition_K(g, bound)
    cof = is_cofinal(g)
    c2, note = condition_2(g)
    reasons: List[str] = []
    if not k.holds:
        offenders = " ".join(k.offenders())
        reasons.append(f"condition (K) fails at: {offenders}")
    if not cof.cofinal:
        v, cyc = cof.counterexample
        reasons.append(f"not cofinal: vertex {v} misses cycle {''.join(cyc)}")
    verdict = "SimpleByThm" if not reasons else "NotCoveredByThm"
    return StructureReport(
        condition_k=k,
        cofinality=cof,
        condition_2_holds=c2,
        condition_2_note=note,
        essentially_principal=k.holds,
        loop_free=is_loop_free(g),
        verdict=verdict,
        reasons=tuple(reasons),
    )


def _level_tag(n: int) -> str:
    return f"m{-n}" if n < 0 else f"p{n}"


def skew_product(g: Ultragraph, k: int) -> Ultragraph:
    """Window [-k, k] of the skew product by the integers.

    Vertices are (v, n) for |n| <= k, edges (e, n) for -k <= n < k, with
    source (s(e), n) and range r(e) x {n+1}.  Every edge raises the level,
    so the result is always loop-free.  Raises SizeLimitError, before
    building anything, when either count passes 200,000.  The level tags
    are formed once, and each edge's source and range are read once and
    copied to every level.
    """
    if k < 1:
        raise ValueError("window radius must be at least 1")
    max_count = 200_000
    n_vertices = (2 * k + 1) * len(g.vertices)
    n_edges = 2 * k * len(g.edges)
    if max(n_vertices, n_edges) > max_count:
        raise SizeLimitError(
            f"skew window {k} has {n_vertices} vertices and {n_edges} edges, "
            f"past max_count={max_count}"
        )
    # tags[i] names level i - k, so an edge at tags[i] ends at tags[i + 1]
    tags = [f"__{_level_tag(n)}" for n in range(-k, k + 1)]
    levels = list(zip(tags, tags[1:]))
    source: Dict[Edge, Vertex] = {}
    ranges: Dict[Edge, FrozenSet[Vertex]] = {}
    for e in g.edges:
        s, r = g.source[e], g.range[e]
        for tag, up in levels:
            source[e + tag] = s + tag
            ranges[e + tag] = frozenset([w + up for w in r])
    return Ultragraph(
        vertices=frozenset([v + tag for v in g.vertices for tag in tags]),
        edges=frozenset(source),
        source=source,
        range=ranges,
    )


def check_singular_equivalence(
    g: Ultragraph, skew: Ultragraph, k: int
) -> CheckResult:
    """At every interior level of the window the singular vertices of skew,
    the window-k skew product of g, are exactly the singular vertices of g,
    relabeled.  Levels at the window edge are excluded: the top level is
    artificially singular."""
    base_sinks = sinks(g)
    skew_sinks = sinks(skew)
    bad: List[str] = []
    for n in range(-k + 1, k):
        tag = f"__{_level_tag(n)}"
        got = {v for v in skew_sinks if v.endswith(tag)}
        want = {f"{v}{tag}" for v in base_sinks}
        if got != want:
            bad.append(f"level {n}: {sorted(got)} != {sorted(want)}")
    return CheckResult(
        name=f"singular_equivalence_window_{k}",
        passed=not bad,
        details=tuple(bad[:6]),
    )
