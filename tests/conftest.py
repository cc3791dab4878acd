"""Shared fixtures, random graph generators and independent oracles."""

import itertools
import math
import random
from typing import Dict, List, Optional, Tuple

import pytest

from ultragraph import (
    OMEGA,
    GroupoidElement,
    LassoPath,
    LatticeG0,
    SGElement,
    Ultragraph,
    Ultrapath,
    bisection_member,
    edge_adjacency,
    enumerate_lassos,
    generate_lattice,
    gw,
    gx,
    gy,
    lasso_source,
    reaches,
    shift_n,
    unroll,
    witness,
)


@pytest.fixture
def g_branch() -> Ultragraph:
    return gx()


@pytest.fixture
def g_loop() -> Ultragraph:
    return gy()


@pytest.fixture
def g_split() -> Ultragraph:
    return gw()


@pytest.fixture
def branch_lattice(g_branch) -> LatticeG0:
    return generate_lattice(g_branch)


def random_ultragraph(
    rng: random.Random,
    max_vertices: int = 6,
    max_edges: int = 8,
    sink_free: bool = False,
) -> Ultragraph:
    """Arbitrary small ultragraph; with sink_free every vertex emits."""
    nv = rng.randint(1, max_vertices)
    vs = [f"v{i}" for i in range(nv)]
    edges: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    ne = rng.randint(0 if not sink_free else nv, max_edges)
    ne = max(ne, nv if sink_free else 0)
    for i in range(ne):
        if sink_free and i < nv:
            src = vs[i]
        else:
            src = rng.choice(vs)
        size = rng.randint(1, min(3, nv))
        rng_set = tuple(rng.sample(vs, size))
        edges[f"e{i}"] = (src, rng_set)
    return Ultragraph.build(vs, edges)


def brute_adjacency(g: Ultragraph) -> Dict[str, Tuple[str, ...]]:
    """Edge successor oracle straight from the definition, over all pairs:
    f follows e iff source(f) is a declared vertex lying in range(e)."""
    return {
        e: tuple(
            sorted(
                f
                for f in g.edges
                if g.source.get(f) in g.vertices and g.source.get(f) in g.range[e]
            )
        )
        for e in g.edges
    }


def warshall_reach(g: Ultragraph) -> Dict[str, frozenset]:
    """Vertex reachability oracle by Warshall's closure of the one-step
    relation "w -> v iff some edge from w has v in its range", with every
    vertex reaching itself.  Never looks at the edge adjacency."""
    vs = sorted(g.vertices)
    reach = {w: {w} for w in vs}
    for e in g.edges:
        if g.source[e] in reach:
            reach[g.source[e]].update(g.range[e])
    for k in vs:
        for w in vs:
            if k in reach[w]:
                reach[w] |= reach[k]
    return {w: frozenset(r) for w, r in reach.items()}


def word_count_up_to(g: Ultragraph, bound: int) -> int:
    """Number of edge words of length up to bound, by dynamic programming."""
    adj = edge_adjacency(g)
    counts = {e: 1 for e in g.edges}
    total = sum(counts.values())
    for _ in range(bound - 1):
        counts = {
            f: sum(counts[e] for e in g.edges if f in adj[e]) for f in g.edges
        }
        total += sum(counts.values())
        if total > 10**9:
            break
    return total


def _canonical_shift(x: LassoPath, n: int) -> LassoPath:
    """shift^n(x) rebuilt through the canonicalizing LassoPath constructor."""
    if n <= len(x.prefix):
        return LassoPath(x.prefix[n:], x.cycle)
    k = (n - len(x.prefix)) % len(x.cycle)
    return LassoPath((), x.cycle[k:] + x.cycle[:k])


def search_groupoid_element(
    g: Ultragraph, left: LassoPath, lag: int, right: LassoPath
) -> Tuple[GroupoidElement, Tuple[Ultrapath, Ultrapath, LassoPath]]:
    """Oracle for groupoid_element and witness: tries every strip depth n up
    to the point where both rays are periodic plus lcm of the cycle lengths,
    and returns the element with its witness at the first n with
    shift^n(left) = shift^(n-lag)(right).  Raises ValueError when none
    merges."""
    lo = max(lag, 0)
    settle = max(len(left.prefix), len(right.prefix) + lag, lo)
    hi = settle + math.lcm(len(left.cycle), len(right.cycle))
    for n in range(lo, hi + 1):
        if _canonical_shift(left, n) == _canonical_shift(right, n - lag):
            mu = _canonical_shift(left, n)
            x_word = unroll(left, n)
            y_word = unroll(right, n - lag)
            if x_word and y_word:
                T = g.range[x_word[-1]] & g.range[y_word[-1]]
            else:
                T = frozenset({lasso_source(g, mu)})
            element = GroupoidElement(left=left, lag=lag, right=right)
            return element, (Ultrapath(x_word, T), Ultrapath(y_word, T), mu)
    raise ValueError(f"no shared tail: {left} and {right} at lag {lag}")


def sparse_sink_free(
    rng: random.Random, word_budget: int = 3000, attempts: int = 400
) -> Ultragraph:
    """Sink-free graph kept sparse enough for lasso-based oracles: the
    number of edge words of length up to the edge count stays under the
    budget.  Redraws deterministically until a draw fits."""
    for _ in range(attempts):
        g = random_ultragraph(rng, max_vertices=5, max_edges=6, sink_free=True)
        if word_count_up_to(g, len(g.edges)) <= word_budget:
            return g
    raise AssertionError("no sparse draw within the attempt budget")


def powerset_lattice(g: Ultragraph) -> Tuple[frozenset, ...]:
    """Brute-force oracle for the vertex-set lattice.

    The generators include every singleton, and closing singletons under
    pairwise union already yields every subset, so on a finite ultragraph
    the lattice is the full power set of the vertices.
    """
    vs = sorted(g.vertices)
    out = []
    for mask in itertools.chain.from_iterable(
        itertools.combinations(vs, k) for k in range(len(vs) + 1)
    ):
        out.append(frozenset(mask))
    return tuple(sorted(out, key=lambda s: tuple(sorted(s))))


def closure_lattice(g: Ultragraph) -> Tuple[frozenset, ...]:
    """Worklist oracle for the vertex-set lattice: close the generators
    (every singleton, every edge range and the empty set) under pairwise
    union and intersection, following the definition instead of the
    power-set shortcut."""
    sets = {frozenset({v}) for v in g.vertices}
    sets.update(g.range[e] for e in g.edges)
    sets.add(frozenset())
    frontier = list(sets)
    while frontier:
        fresh = []
        for a in frontier:
            for b in list(sets):
                for c in (a | b, a & b):
                    if c not in sets:
                        sets.add(c)
                        fresh.append(c)
        frontier = fresh
    return tuple(sorted(sets, key=lambda s: tuple(sorted(s))))


def additive_indicator(lattice_sets, A: frozenset) -> bool:
    """Ultraset oracle by exhaustive scan: the indicator chi(B) = [A <= B]
    vanishes on the empty set and satisfies chi(B u C) = chi(B) + chi(C) -
    chi(B n C) for every pair of lattice sets."""

    def chi(B: frozenset) -> int:
        return 1 if A <= B else 0

    if chi(frozenset()) != 0:
        return False
    return all(
        chi(B | C) == chi(B) + chi(C) - chi(B & C)
        for B in lattice_sets
        for C in lattice_sets
    )


def cofinal_by_lassos(g: Ultragraph) -> Tuple[bool, Optional[tuple]]:
    """Cofinality oracle by exhaustive enumeration of pure cycles.

    Pure cycles suffice: the shift sources of a prefixed lasso include the
    sources of its cycle edges, so a vertex failing on some lasso already
    fails on that lasso's cycle alone.  Conversely any infinite path repeats
    an edge, so it contains a cycle of length at most the edge count whose
    sources it keeps visiting; a vertex reaching a source of every such
    cycle therefore reaches every infinite path.
    """
    bound = len(g.edges)
    cycles = enumerate_lassos(g, 0, bound)
    memo = {}

    def can_reach(v: str, w: str) -> bool:
        if (v, w) not in memo:
            memo[(v, w)] = reaches(g, v, w)
        return memo[(v, w)]

    for v in sorted(g.vertices):
        for x in cycles:
            if not any(can_reach(v, g.source[e]) for e in x.cycle):
                return False, (v, x)
    return True, None


def cofinal_by_lassos_full(g: Ultragraph) -> Tuple[bool, Optional[tuple]]:
    """Literal cofinality oracle: every lasso with prefix and cycle bounded
    by the edge count, shift-source membership checked per shift.  Only
    tractable on fixture-sized graphs."""
    bound = len(g.edges)
    lassos = enumerate_lassos(g, bound, bound)
    for v in sorted(g.vertices):
        for x in lassos:
            hits = any(
                reaches(g, v, lasso_source(g, shift_n(x, k)))
                for k in range(2 * bound + 1)
            )
            if not hits:
                return False, (v, x)
    return True, None


def naive_loop_count(g: Ultragraph, v: str, bound: int) -> int:
    """Plain DFS count of first-return loops at v, independent of the
    pruned counter: no distance pruning, no saturation."""
    total = 0
    if bound < 1:
        return total
    stack: List[Tuple[str, ...]] = [(e,) for e in g.edges if g.source[e] == v]
    while stack:
        word = stack.pop()
        if v in g.range[word[-1]]:
            total += 1
        if len(word) < bound:
            for f in g.edges:
                if g.source[f] in g.range[word[-1]] and g.source[f] != v:
                    stack.append(word + (f,))
    return total


def dp_loop_count(g: Ultragraph, v: str, bound: int) -> int:
    """Exact count of first-return loop words at v of length <= bound by
    dynamic programming over edges: weight[e] = number of words of the
    current length ending in e that left v and never used v as an interior
    source.  Polynomial in the bound, so it stays tractable where the DFS
    oracle explodes."""
    weight = {e: 1 for e in g.edges if g.source[e] == v}
    total = 0
    for _ in range(bound):
        total += sum(w for e, w in weight.items() if v in g.range[e])
        nxt: dict = {}
        for e, w in weight.items():
            for f in g.edges:
                if g.source[f] in g.range[e] and g.source[f] != v:
                    nxt[f] = nxt.get(f, 0) + w
        weight = nxt
    return total


def levelled_first_return_words(g: Ultragraph, v: str, bound: int):
    """Oracle for the pruned first-return walk, kept from its first form:
    completion distances per vertex by level-synchronous rescans of every
    vertex, then a depth-first walk that copies the word at every push.
    Yields the same words in the same order as analysis._first_return_words
    must."""
    if v not in g.vertices:
        raise ValueError(f"unknown vertex '{v}'")
    if bound < 1:
        return
    # dist[u]: least m >= 1 such that some length-m word from u completes a
    # return to v without using v as an intermediate source
    dist: Dict[str, int] = {}
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
    adj = edge_adjacency(g)
    far = bound + 1
    need: Dict[str, int] = {}
    for f in g.edges:
        if g.source[f] != v:
            rest = min((dist.get(w, far) for w in g.range[f] - {v}), default=far)
            need[f] = 0 if v in g.range[f] else rest
    stack: List[Tuple[str, ...]] = [(e,) for e in g.out_edges(v)]
    while stack:
        word = stack.pop()
        if v in g.range[word[-1]]:
            yield word
        budget = bound - len(word) - 1
        stack.extend(word + (f,) for f in adj[word[-1]] if need.get(f, far) <= budget)


def product_by_rules(g: Ultragraph, s: SGElement, t: SGElement) -> SGElement:
    """Oracle for semigroup.product: the paper's three rewrite rules on the
    raw edge words and terminal sets, with no initial_segment or concat.

    For s = (w, z) and t = (x, y): if x = z.x' the product is (w.x', y), if
    z = x.z' it is (w, y.z'), and if z and x are overlapping sets it is
    (w.x, y.z).  Here a.b glues the words, and the terminal is b's when b
    has edges, else terminal(a) n b.  Every rule that applies must give the
    same element; none gives the zero."""
    if s.is_omega or t.is_omega:
        return OMEGA

    def remainder(long: Ultrapath, short: Ultrapath):
        # (word, terminal) with long = short.remainder, or None
        n = len(short.word)
        if long.word[:n] != short.word:
            return None
        rest = long.word[n:]
        if rest:
            return (rest, long.terminal) if g.source[rest[0]] in short.terminal else None
        return ((), long.terminal) if long.terminal <= short.terminal else None

    def glue(a: Ultrapath, word, terminal) -> Ultrapath:
        return Ultrapath(a.word + word, terminal if word else a.terminal & terminal)

    w, z = s.left, s.right
    x, y = t.left, t.right
    found = set()
    rest = remainder(x, z)
    if rest is not None:
        found.add(SGElement(glue(w, *rest), y))
    rest = remainder(z, x)
    if rest is not None:
        found.add(SGElement(w, glue(y, *rest)))
    if not z.word and not x.word and z.terminal & x.terminal:
        found.add(SGElement(glue(w, (), x.terminal), glue(y, (), z.terminal)))
    if len(found) > 1:
        raise AssertionError(f"rules disagree on {s} * {t}: {found}")
    return found.pop() if found else OMEGA


def separation_depth(
    g: Ultragraph, a: GroupoidElement, b: GroupoidElement, bound: int
) -> Optional[int]:
    """Oracle for the deepening in check_hausdorff: 0 when a's witness slice
    (x, y) already misses b, else the least k <= bound at which the slice
    (x.u, y.u), u the first k edges of a's tail, misses b; None when none
    does.  The slices are built from raw words, with no concat."""
    x, y, mu = witness(g, a)
    if not bisection_member(g, SGElement(x, y), b):
        return 0
    for k in range(1, bound + 1):
        u = unroll(mu, k)
        T = g.range[u[-1]]
        deeper = SGElement(Ultrapath(x.word + u, T), Ultrapath(y.word + u, T))
        if not bisection_member(g, deeper, b):
            return k
    return None
