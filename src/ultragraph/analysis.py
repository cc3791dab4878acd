"""Structural criteria over finite ultragraphs.

First-return loop counts per base vertex decide condition (K); cofinality
reduces to cycle detection inside the set of edges a vertex cannot reach;
both feed a conservative simplicity verdict.  A windowed skew product by
the integers gives the loop-free cover used to probe AF behaviour.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Set, Tuple

from .core import (
    Edge,
    SizeLimitError,
    Ultragraph,
    Vertex,
    edge_adjacency,
    reaches,
    require_no_sinks,
    validate,
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


def _completion_distance(g: Ultragraph, v: Vertex) -> Dict[Vertex, int]:
    """For each vertex u, the least m >= 1 such that some length-m word from
    u completes a return to v (v in the range of its last edge) without
    using v as an intermediate source."""
    dist: Dict[Vertex, int] = {}
    frontier = {
        u for u in g.vertices if any(v in g.range[e] for e in g.out_edges(u))
    }
    level = 1
    while frontier:
        for u in frontier:
            dist[u] = level
        nxt = set()
        for u in g.vertices:
            if u in dist:
                continue
            for e in g.out_edges(u):
                if any(w != v and dist.get(w) == level for w in g.range[e]):
                    nxt.add(u)
                    break
        frontier = nxt
        level += 1
    return dist


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
    dist = _completion_distance(g, v)
    adj = edge_adjacency(g)
    # need[f]: least length after f that closes a loop, 0 when f closes one;
    # edges out of v are left out, since v is never an interior source
    far = bound + 1
    need: Dict[Edge, int] = {}
    for f in g.edges:
        if g.source[f] != v:
            rest = min((dist.get(w, far) for w in g.range[f] - {v}), default=far)
            need[f] = 0 if v in g.range[f] else rest
    stack: List[Tuple[Edge, ...]] = [(e,) for e in g.out_edges(v)]
    while stack:
        word = stack.pop()
        if v in g.range[word[-1]]:
            yield word
        budget = bound - len(word) - 1
        stack.extend(word + (f,) for f in adj[word[-1]] if need.get(f, far) <= budget)


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


def condition_K(g: Ultragraph, bound: Optional[int] = None) -> KReport:
    """Condition (K): no vertex is the base of exactly one first-return
    loop within the bound (default twice the edge count)."""
    if bound is None:
        bound = 2 * len(g.edges)
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
                if c == 1 and f in path:
                    return tuple(path[path.index(f):])
                if c is None:
                    stack.append((f, False))
    return None


def is_loop_free(g: Ultragraph) -> bool:
    """No loop at all, equivalently an acyclic edge-adjacency relation."""
    return _restricted_cycle(g, set(g.edges)) is None


def af_indicator(g: Ultragraph) -> bool:
    """Loop-freeness, the finite-graph indicator of an AF algebra."""
    return is_loop_free(g)


@dataclass(frozen=True)
class CofinalityReport:
    cofinal: bool
    counterexample: Optional[Tuple[Vertex, Tuple[Edge, ...]]]


def is_cofinal(g: Ultragraph) -> CofinalityReport:
    """Every vertex reaches every infinite path.

    An infinite path escapes v exactly when it eventually stays inside the
    edges whose sources v cannot reach, which on a finite graph means a
    cycle of such edges; a found cycle is returned as the counterexample.
    """
    require_no_sinks(g, "cofinality")
    for v in g.vertices_sorted():
        bad = {f for f in g.edges if not reaches(g, v, g.source[f])}
        cyc = _restricted_cycle(g, bad)
        if cyc is not None:
            return CofinalityReport(cofinal=False, counterexample=(v, cyc))
    return CofinalityReport(cofinal=True, counterexample=None)


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
    """Conservative verdict: SimpleByThm when condition (K), cofinality and
    the vacuous side condition all hold, NotCoveredByThm otherwise.  The
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
    if not c2:
        reasons.append("side condition on infinite emitters fails")
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
    so the result is always loop-free.
    """
    if k < 1:
        raise ValueError("window radius must be at least 1")
    vertices = [
        f"{v}__{_level_tag(n)}"
        for v in g.vertices_sorted()
        for n in range(-k, k + 1)
    ]
    edges: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for e in g.edges_sorted():
        for n in range(-k, k):
            edges[f"{e}__{_level_tag(n)}"] = (
                f"{g.source[e]}__{_level_tag(n)}",
                tuple(f"{w}__{_level_tag(n + 1)}" for w in sorted(g.range[e])),
            )
    return Ultragraph.build(vertices, edges)


def check_singular_equivalence(
    g: Ultragraph, skew: Ultragraph, k: int
) -> CheckResult:
    """At every interior level of the window the singular vertices of skew,
    the window-k skew product of g, are exactly the singular vertices of g,
    relabeled.  Levels at the window edge are excluded: the top level is
    artificially singular."""
    base_sinks = validate(g).sinks
    skew_sinks = validate(skew).sinks
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
