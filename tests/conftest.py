"""Shared fixtures, random graph generators and independent oracles."""

import itertools
import math
import random
import re
from typing import Dict, List, Optional, Tuple

import pytest

import ultragraph.groupoid as groupoid_module
from ultragraph import (
    OMEGA,
    CheckReport,
    CheckResult,
    CylinderSet,
    GroupoidElement,
    LassoPath,
    LatticeG0,
    ParseError,
    SGElement,
    SizeLimitError,
    Ultragraph,
    Ultrapath,
    bisection_member,
    compose,
    concat_lasso,
    edge_adjacency,
    emitted_edges,
    enumerate_lassos,
    format_set,
    generate_elements,
    generate_lattice,
    groupoid_element,
    gw,
    gx,
    gy,
    inverse,
    lasso_source,
    product,
    reaches,
    require_no_sinks,
    shift_n,
    unroll,
    witness,
)
from ultragraph.analysis import _restricted_cycle
from ultragraph.cli import _MEET
from ultragraph.groupoid import _cylinder_words
from ultragraph.paths import check_lasso_bounds, concat
from ultragraph.semigroup import (
    glue,
    idempotent_leq,
    idempotent_leq_by_shape,
    is_idempotent,
    rule_remainders,
    star,
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


def ring_ultragraph(n: int, seed: int = 0) -> Ultragraph:
    """The ring family of the ROADMAP: a directed n-cycle of edges
    e_i: v_i -> {v_(i+1 mod n)} plus n extra edges x_j, each drawing its
    source with rng.choice and then its range with rng.sample(vs, min(3, n))
    from one random.Random(seed).  Sink-free."""
    vs = [f"v{i}" for i in range(n)]
    edges: Dict[str, Tuple[str, Tuple[str, ...]]] = {
        f"e{i}": (vs[i], (vs[(i + 1) % n],)) for i in range(n)
    }
    rng = random.Random(seed)
    for j in range(n):
        src = rng.choice(vs)
        edges[f"x{j}"] = (src, tuple(rng.sample(vs, min(3, n))))
    return Ultragraph.build(vs, edges)


_ORACLE_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


def parse_by_splitlines(text: str) -> Ultragraph:
    """The parser as it was before the one-pass rewrite: each check in its
    own loop over the line's tokens, every name matched against the
    pattern, the graph made by Ultragraph.build.  Its lines end only at
    LF, CR LF and CR, as in text-mode universal newlines, where
    str.splitlines would also break at a form feed or U+2028."""

    def check_name(num: int, kind: str, name: str) -> str:
        if not _ORACLE_NAME.match(name):
            raise ParseError(num, f"bad {kind} name '{name}'")
        return name

    vertices: List[str] = []
    seen_vertices: set = set()
    edges: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    header_seen = False
    for num, raw in enumerate(re.split(r"\r\n|\r|\n", text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not header_seen:
            if line != "ultragraph":
                raise ParseError(num, f"expected header 'ultragraph', got '{line}'")
            header_seen = True
            continue
        tokens = line.split()
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise ParseError(num, "vertex lines take exactly one name")
            name = check_name(num, "vertex", tokens[1])
            if name in seen_vertices:
                raise ParseError(num, f"duplicate vertex '{name}'")
            seen_vertices.add(name)
            vertices.append(name)
        elif tokens[0] == "edge":
            if len(tokens) < 5 or tokens[3] != "{" or tokens[-1] != "}":
                raise ParseError(
                    num, "edge lines look like: edge <name> <source> { <vertex>... }"
                )
            name = check_name(num, "edge", tokens[1])
            if name in edges:
                raise ParseError(num, f"duplicate edge '{name}'")
            src = check_name(num, "vertex", tokens[2])
            if src not in seen_vertices:
                raise ParseError(num, f"edge '{name}' has unknown source '{src}'")
            rng = tokens[4:-1]
            if not rng:
                raise ParseError(num, f"edge '{name}' has an empty range")
            for w in rng:
                check_name(num, "vertex", w)
                if w not in seen_vertices:
                    raise ParseError(num, f"edge '{name}' has unknown range vertex '{w}'")
            if len(set(rng)) != len(rng):
                raise ParseError(num, f"edge '{name}' repeats a range vertex")
            edges[name] = (src, tuple(rng))
        else:
            raise ParseError(num, f"unknown directive '{tokens[0]}'")
    if not header_seen:
        raise ParseError(1, "missing header 'ultragraph'")
    if not vertices:
        raise ParseError(1, "an ultragraph needs at least one vertex")
    return Ultragraph.build(vertices, edges)


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


def skew_product_by_build(g: Ultragraph, k: int) -> Ultragraph:
    """Window [-k, k] of the skew product, built the way analysis.skew_product
    built it before it went level by level: every range re-sorted and every
    level tag formatted afresh per name, then one Ultragraph.build.  The
    window and size guards are left to skew_product."""

    def tag(n: int) -> str:
        return f"m{-n}" if n < 0 else f"p{n}"

    vertices = [f"{v}__{tag(n)}" for v in g.vertices_sorted() for n in range(-k, k + 1)]
    edges: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for e in g.edges_sorted():
        for n in range(-k, k):
            edges[f"{e}__{tag(n)}"] = (
                f"{g.source[e]}__{tag(n)}",
                tuple(f"{w}__{tag(n + 1)}" for w in sorted(g.range[e])),
            )
    return Ultragraph.build(vertices, edges)


def sinks_by_sources(g: Ultragraph) -> Tuple[str, ...]:
    """Sink oracle from the definition: the sorted declared vertices that
    are the source of no edge."""
    return tuple(
        v for v in sorted(g.vertices) if all(g.source.get(e) != v for e in g.edges)
    )


def loosely_declared_graph(rng: random.Random) -> Ultragraph:
    """A small graph built through Ultragraph.build whose edges may start
    at, and end in, undeclared vertices, with self-loops and edge-free
    graphs among them.  Edge sources are drawn from below their range
    vertices' indices more often than not, so loop-free graphs are common."""
    pool = [f"v{i}" for i in range(rng.randint(1, 6))]
    declared = [v for v in pool if rng.random() < 0.8] or pool[:1]
    edges: Dict[str, Tuple[str, Tuple[str, ...]]] = {}
    for i in range(rng.randint(0, 7)):
        j = rng.randrange(len(pool))
        ahead = pool[j + 1 :] if rng.random() < 0.7 and j + 1 < len(pool) else pool
        edges[f"e{i}"] = (pool[j], tuple(rng.sample(ahead, rng.randint(1, min(3, len(ahead))))))
    return Ultragraph.build(declared, edges)


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


def lassos_by_dedup(
    g: Ultragraph, prefix_bound: int, cycle_bound: int, max_count: int = 500_000
) -> List[LassoPath]:
    """Lasso oracle, the raw-pair build enumerate_lassos ran before it
    shared count_lassos' route: every (prefix, closed word) pair within the
    bounds, canonicalized by the LassoPath constructor, collected in a set
    and sorted by prefix length, cycle length, prefix, cycle.

    Every raw pair inside the bounds canonicalizes to something still
    inside the bounds, so deduplicating raw pairs is exhaustive.  The words
    up to either bound are counted by word_count_up_to before any is built,
    and the errors are enumerate_lassos' at the same inputs."""
    require_no_sinks(g, "lasso enumeration")
    if cycle_bound < 1:
        raise ValueError("cycle_bound must be positive")
    if prefix_bound < 0:
        raise ValueError("prefix_bound must not be negative")

    def paths_up_to(bound: int) -> List[Tuple[str, ...]]:
        if bound >= 1 and word_count_up_to(g, bound) > max_count:
            raise SizeLimitError(f"lasso enumeration exceeded max_count={max_count}")
        out: List[Tuple[str, ...]] = []
        words = [(e,) for e in g.edges] if bound >= 1 else []
        while words:
            out.extend(words)
            if len(words[0]) == bound:
                break
            words = [w + (f,) for w in words for f in g.edges if g.source[f] in g.range[w[-1]]]
        return out

    cycles = [
        w
        for w in paths_up_to(cycle_bound)
        if g.source[w[0]] in g.range[w[-1]]
    ]
    prefixes: List[Tuple[str, ...]] = [()]
    prefixes.extend(paths_up_to(prefix_bound))
    found = set()
    for c in cycles:
        start = g.source[c[0]]
        for p in prefixes:
            if p and start not in g.range[p[-1]]:
                continue
            found.add(LassoPath(p, c))
            if len(found) > max_count:
                raise SizeLimitError(
                    f"lasso enumeration exceeded max_count={max_count}"
                )
    return sorted(
        found, key=lambda l: (len(l.prefix), len(l.cycle), l.prefix, l.cycle)
    )


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


def cylinder_words_by_levels(g: Ultragraph, cyl, depth: int) -> List[Tuple[str, ...]]:
    """Oracle for groupoid._cylinder_words below a cylinder's base: the
    words of `depth` edges that extend the base, by its first form, which
    appends one edge to every word at each level.  The first edge starts in
    the base terminal outside every excluded set and is not an excluded
    edge; each later edge f follows the one before, source(f) in its range.
    Same words in the same order; copies every word at every level, so it
    is quadratic in the depth."""
    base = cyl.base
    ok = base.terminal - frozenset().union(*cyl.excluded_sets)
    edges = sorted(g.edges)
    words = [
        base.word + (e,)
        for e in edges
        if g.source[e] in ok and e not in cyl.excluded_edges
    ]
    for _ in range(depth - len(base.word) - 1):
        words = [
            w + (f,) for w in words for f in edges if g.source[f] in g.range[w[-1]]
        ]
    return words


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


def lattice_labels(g: Ultragraph) -> Dict[frozenset, str]:
    """Oracle for the lattice subcommand's counts, by labelling each set of
    powerset_lattice: a "singleton" when it has one vertex, else an
    "edge-range" when some edge has it as its range, else "derived"."""
    ranges = {g.range[e] for e in g.edges}
    labels = {}
    for s in powerset_lattice(g):
        if len(s) == 1:
            labels[s] = "singleton"
        elif s in ranges:
            labels[s] = "edge-range"
        else:
            labels[s] = "derived"
    return labels


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


def ck_meet_failures_by_sets(g: Ultragraph, fam) -> List[str]:
    """Oracle for check_family's projection_meets details, the loop it ran
    before it read vertex masks: (A, A)(B, B) must be the family's
    projection of A n B, looked up by the meet as a frozenset, or the zero
    when the meet is empty.  Every pair i <= j of nonempty subsets in
    set_key order; a set with no projection is reported once, as its row
    comes up, and skipped as a column."""
    nonempty = powerset_lattice(g)[1:]
    projs = [fam.projections.get(A) for A in nonempty]
    bad: List[str] = []
    for i, A in enumerate(nonempty):
        pa = projs[i]
        if pa is None:
            bad.append(f"missing projection {format_set(A)}")
            continue
        for j in range(i, len(nonempty)):
            pb = projs[j]
            if pb is None:
                continue
            got = product_by_rules(g, pa, pb)
            B = nonempty[j]
            meet = A & B
            want = fam.projections.get(meet) if meet else OMEGA
            if got != want:
                bad.append(
                    f"{format_set(A)} * {format_set(B)}: got {got}, want {want}"
                )
    return bad


def ck_meet_failures_by_pivots(g: Ultragraph, fam) -> List[str]:
    """Oracle for check_family's projection_meets verdict, the loop it ran
    before it formed one chain pair per set: the diagonal pairs (A, A) and
    every pair of nonempty sets in set_key order with a pivot on either
    side, U, the vertex set, or a U - {v}.  Each pair wants the projection
    of the meet, or the zero when the meet is empty; a set with no
    projection is reported once, as its row comes up, and skipped as a
    column.  Its lines are lines of ck_meet_failures_by_sets."""
    nonempty = powerset_lattice(g)[1:]
    U = frozenset(g.vertices)
    pivots = {U, *(U - {v} for v in U)}
    bad: List[str] = []
    for i, A in enumerate(nonempty):
        pa = fam.projections.get(A)
        if pa is None:
            bad.append(f"missing projection {format_set(A)}")
            continue
        for B in nonempty[i:]:
            pb = fam.projections.get(B)
            if pb is None or not (A == B or A in pivots or B in pivots):
                continue
            got = product_by_rules(g, pa, pb)
            want = fam.projections.get(A & B) if A & B else OMEGA
            if got != want:
                bad.append(f"{format_set(A)} * {format_set(B)}: got {got}, want {want}")
    return bad


def word_masks_by_cylinders(g: Ultragraph, depth: int):
    """Oracle for groupoid._word_masks, the route it took before it read a
    length-zero base on two or more vertices off its vertices' masks: every
    base, whatever its word and set, is refined by _cylinder_words and
    memoised.  It returns words_of and fmt_mask with _word_masks' contract:
    each word gets a bit on first sight, and fmt_mask lists a mask's words
    sorted, at most 12 of them."""
    word_bit: Dict[Tuple[str, ...], int] = {}
    memo: Dict[Ultrapath, int] = {}

    def words_of(base: Ultrapath) -> int:
        if base not in memo:
            mask = 0
            for w in _cylinder_words(g, CylinderSet(base=base), depth):
                mask |= 1 << word_bit.setdefault(w, len(word_bit))
            memo[base] = mask
        return memo[base]

    def fmt_mask(mask: int) -> str:
        listed = list(word_bit)
        words = sorted(listed[i] for i in range(mask.bit_length()) if mask >> i & 1)
        shown = " ".join("".join(w) or "." for w in words[:12])
        return f"[{shown}]" + (f" (+{len(words) - 12} more)" if len(words) > 12 else "")

    return words_of, fmt_mask


def join_failures_by_sets(sets, masks, fmt_mask) -> List[str]:
    """Oracle for groupoid._join_failures, the loop it ran before it read
    vertex masks: mask(A u B) == mask(A) | mask(B) for every pair i <= j of
    sets, the union's mask looked up by the union as a frozenset.  masks[i]
    is the word mask of sets[i], or None when it has none; a pair with a
    None side is skipped, and a union with no mask is reported."""
    mask_of = dict(zip(sets, masks))
    bad: List[str] = []
    for i, A in enumerate(sets):
        wa = masks[i]
        if wa is None:
            continue
        for j in range(i, len(sets)):
            B = sets[j]
            lhs = mask_of.get(A | B)
            if masks[j] is None or lhs is None:
                if lhs is None:
                    bad.append(f"missing projection {format_set(A | B)}")
                continue
            rhs = wa | masks[j]
            if lhs != rhs:
                bad.append(
                    f"{format_set(A)} + {format_set(B)}: "
                    f"{fmt_mask(lhs)} != {fmt_mask(rhs)}"
                )
    return bad


def check_set_identities(g: Ultragraph, depths) -> CheckReport:
    """Oracle of groupoid._word_masks' vertex-OR route and of
    groupoid._split_failures, by the refinement-level laws of the
    unit-space slices, which the semilattice of S_G settles: binary meets
    and joins match set intersection and union of refinements, and a
    set's slice splits over the edges it emits (there are no finite
    boundary points to add on a finite graph).  The meets read the pairs
    (A, U - {v}) for U the vertex set: they give words(A) <= words(U - {v})
    <= words(U), and B = (B + v) n (U - {v}) for v not in B, so by
    induction on |U - B| every pair holds.  The joins read each set's
    split, as check_family.  As _word_masks ORs a length-zero base's
    vertex masks, join_identity holds by construction on those bases;
    meet_identity still tests that the vertex cylinders are disjoint, and
    edge_cover tests the OR route against the edge bases, refined one by
    one.  _word_masks is read off the module, so a test can patch it."""
    lat = generate_lattice(g)
    require_no_sinks(g, "set identity checks")
    cuts = [(g.vertices - {v}, (len(lat) - 1) ^ 1 << k) for k, v in enumerate(g.vertices_sorted())]
    entries: List[CheckResult] = []
    for depth in depths:
        words_of, fmt_mask = groupoid_module._word_masks(g, depth)
        # the word mask of each set, indexed by its vertex mask
        words_at = [0] * len(lat)
        for A, m in zip(lat.sets, lat.masks):
            words_at[m] = words_of(Ultrapath((), A))
        bad_meet = [
            f"{format_set(A)} ^ {format_set(B)}"
            for A, a in zip(lat.sets, lat.masks)
            for B, b in cuts
            if words_at[a & b] != words_at[a] & words_at[b]
        ]
        bad_cover: List[str] = []
        for A, m in zip(lat.sets, lat.masks):
            cover = 0
            for e in sorted(emitted_edges(g, A)):
                cover |= words_of(Ultrapath((e,), g.range[e]))
            if cover != words_at[m]:
                bad_cover.append(format_set(A))
        for name, bad in (
            ("meet_identity", bad_meet),
            ("join_identity", groupoid_module._split_failures(g, words_at, fmt_mask)),
            ("edge_cover", bad_cover),
        ):
            entries.append(CheckResult(f"{name}_depth_{depth}", not bad, tuple(bad[:8])))
    return CheckReport(entries=tuple(entries))


def meet_identity_failures_by_sets(sets, words_of) -> List[str]:
    """Oracle for check_set_identities' meet identity, the loop it ran
    before it read vertex masks: the words of A n B, refined anew from the
    meet as a frozenset, are the words of A & the words of B, for every
    pair i <= j of sets."""
    masks = [words_of(Ultrapath((), A)) for A in sets]
    bad: List[str] = []
    for i, A in enumerate(sets):
        for j in range(i, len(sets)):
            B = sets[j]
            if words_of(Ultrapath((), A & B)) != masks[i] & masks[j]:
                bad.append(f"{format_set(A)} ^ {format_set(B)}")
    return bad


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
    cycles = lassos_by_dedup(g, 0, bound)
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


def cofinal_by_vertex_search(g: Ultragraph) -> Tuple[bool, Optional[tuple]]:
    """Cofinality oracle, the per-vertex loop is_cofinal ran before it read
    the edge components: for each vertex v in sorted order, look for a cycle
    of the edge adjacency among the edges whose sources v cannot reach; the
    first one found, with its v, is the counterexample.  The cycle search
    is analysis._restricted_cycle, so a counterexample compares equal to
    is_cofinal's exactly.  Refuses graphs with sinks, as is_cofinal does."""
    require_no_sinks(g, "cofinality")
    for v in g.vertices_sorted():
        bad = {f for f in g.edges if not reaches(g, v, g.source[f])}
        cyc = _restricted_cycle(g, bad)
        if cyc is not None:
            return False, (v, cyc)
    return True, None


def cofinal_by_lassos_full(g: Ultragraph) -> Tuple[bool, Optional[tuple]]:
    """Literal cofinality oracle: every lasso with prefix and cycle bounded
    by the edge count, shift-source membership checked per shift.  Only
    tractable on fixture-sized graphs."""
    bound = len(g.edges)
    lassos = lassos_by_dedup(g, bound, bound)
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


def idempotent_leq_by_product_shape(g: Ultragraph, e: SGElement, f: SGElement) -> bool:
    """Oracle for semigroup.idempotent_leq_by_shape, the rule it ran before
    it read initial segments: for nonzero idempotents (z, z) and (x, x)
    with a nonzero product, (z, z) <= (x, x) iff z is longer than x, or
    they have equal length and range(z) lies in range(x).  The zero lies
    below everything and nothing nonzero lies below it."""
    if e.is_omega:
        return True
    if f.is_omega or product(g, e, f).is_omega:
        return False
    z, x = e.left, f.left
    return z.length > x.length or (z.length == x.length and z.terminal <= x.terminal)


def eval_path_char_by_product(g: Ultragraph, y: Ultrapath, e: SGElement) -> int:
    """Oracle for semigroup.eval_char on the character of the ultrapath y,
    the rule it ran before it read initial segments: y accepts the
    idempotent (x, x) when (x, x)(y, y) is nonzero and x is shorter than
    y, or equally long with range(x) containing range(y)."""
    if e.is_omega or product(g, e, SGElement(y, y)).is_omega:
        return 0
    x = e.left
    ok = x.length < y.length or (x.length == y.length and x.terminal >= y.terminal)
    return 1 if ok else 0


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


def elements_by_pair_loop(
    g: Ultragraph,
    witness_len: int,
    prefix_bound: int,
    cycle_bound: int,
    max_count: int = 100_000,
) -> Tuple[GroupoidElement, ...]:
    """Oracle for groupoid.build_elements, the loop it ran before each
    coordinate got one point list: every nonzero semigroup pair against
    every lasso, both points concatenated and tail-checked per match."""
    check_lasso_bounds(prefix_bound, cycle_bound)
    if witness_len < 0:
        raise ValueError("witness_len must be nonnegative")
    generate_lattice(g)  # its size guard comes before the sink check
    lassos = enumerate_lassos(g, prefix_bound, cycle_bound)
    out = set()
    for s in generate_elements(g, witness_len):
        if s.is_omega:
            continue
        x, y = s.left, s.right
        for mu in lassos:
            if lasso_source(g, mu) not in x.terminal:
                continue
            left = concat_lasso(g, x, mu)
            right = concat_lasso(g, y, mu)
            out.add(groupoid_element(g, left, x.length - y.length, right))
            if len(out) > max_count:
                raise SizeLimitError(f"element build exceeded max_count={max_count}")

    def key(a: GroupoidElement):
        return (a.left.prefix, a.left.cycle, a.lag, a.right.prefix, a.right.cycle)

    return tuple(sorted(out, key=key))


def groupoid_laws_by_compose(
    g: Ultragraph, elements, max_triples: int = 2_000_000
) -> CheckReport:
    """Oracle for groupoid.check_groupoid_laws, the loop it ran before it
    interned points: every law on the GroupoidElement values themselves,
    through the public compose, with the composable pairs memoised by
    object identity."""
    by_left: Dict[LassoPath, List[GroupoidElement]] = {}
    for a in elements:
        by_left.setdefault(a.left, []).append(a)
    # width[L]: composable pairs (b, c) with b.left == L
    width = {
        L: sum(len(by_left.get(b.right, ())) for b in group)
        for L, group in by_left.items()
    }
    if sum(width.get(a.right, 0) for a in elements) > max_triples:
        raise SizeLimitError("too many composable triples for this sample")
    entries: List[CheckResult] = []

    bad = [str(a) for a in elements if inverse(inverse(a)) != a or inverse(a).lag != -a.lag]
    entries.append(CheckResult("involution", not bad, tuple(bad[:5])))

    bad = []
    for a in elements:
        u = compose(g, a, inverse(a))
        if u is None or u.lag != 0 or u.left != a.left or u.right != a.left:
            bad.append(str(a))
            continue
        if compose(g, u, a) != a or compose(g, a, compose(g, inverse(a), a)) != a:
            bad.append(str(a))
    entries.append(CheckResult("units_and_inverses", not bad, tuple(bad[:5])))

    # every key names members of elements, which outlive the memo
    pair_memo: Dict[Tuple[int, int], Optional[GroupoidElement]] = {}

    def mul(a, b):
        key = (id(a), id(b))
        if key not in pair_memo:
            pair_memo[key] = compose(g, a, b)
        return pair_memo[key]

    bad = []
    for a in elements:
        for b in by_left.get(a.right, ()):
            ab = mul(a, b)
            for c in by_left.get(b.right, ()):
                bc = mul(b, c)
                lhs = None if ab is None else compose(g, ab, c)
                rhs = None if bc is None else compose(g, a, bc)
                if lhs is None or lhs != rhs:
                    bad.append(f"{a} . {b} . {c}")
    entries.append(CheckResult("associativity", not bad, tuple(bad[:5])))
    return CheckReport(entries=tuple(entries))


def remainder_rows_by_all_pairs(g: Ultragraph, elems) -> List[List[object]]:
    """Oracle for cli._RemainderTable.rows, the fill it ran before an index
    chose which entries to read: every one of the |P| x |P| entries (z, x)
    of the list's distinct coordinates, interned in order of first sight,
    as the two remainders from rule_remainders, None when no rule applies,
    or _MEET for two length-zero coordinates whose sets meet.  No budget
    is kept."""
    ids: Dict[Ultrapath, int] = {}
    for w, y in elems:
        if w is not None:
            ids.setdefault(w, len(ids))
            ids.setdefault(y, len(ids))
    paths = list(ids)

    def read(z, x):
        if not z.word and not x.word:
            # listed terminals are nonempty, so only the overlap rule can
            # apply, and it applies iff the sets meet
            return _MEET if z.terminal & x.terminal else None
        rems = rule_remainders(g, z, x)
        return None if rems == (None, None) else rems

    return [[read(z, x) for x in paths] for z in paths]


def semigroup_laws_by_product(g: Ultragraph, elems) -> List[Tuple[str, bool, List[str]]]:
    """Oracle for cli._semigroup_laws, the loop it ran before its remainder
    table answered in interned ids and the star law was settled per
    coordinate pair: (name, pass, first five witnesses) of the involution,
    antimultiplicative-star and idempotent-order checks.

    The (z, x) remainders of rule_remainders are read once per pair of
    distinct coordinates, as values, and every listed product is built as
    an SGElement through glue, with concat memoised per (path, remainder);
    two meeting sets go through product.  s t and t* s* = (y, x)(z, w) are
    compared through star, once per mirror pair, over the pairs whose
    (z, x) or (x, z) entry is not zero, in the loop's visit order.  Where
    star(t) or star(s) is not listed, t* s* is formed by product.  The
    order check forms ef by idempotent_leq.  No pair budget is kept."""
    meet_mark = object()
    # the listed coordinates in order of first sight
    paths = list(dict.fromkeys(p for s in elems if not s.is_omega for p in s))
    entries: Dict[Tuple[Ultrapath, Ultrapath], object] = {}
    grown: Dict[Tuple[Ultrapath, Ultrapath], Optional[Ultrapath]] = {}

    def entry(z, x):
        if (z, x) not in entries:
            if not z.word and not x.word:
                e = meet_mark if z.terminal & x.terminal else None
            else:
                e = rule_remainders(g, z, x)
                e = None if e == (None, None) else e
            entries[z, x] = e
        return entries[z, x]

    def grow(p, rem):
        if (p, rem) not in grown:
            grown[p, rem] = concat(g, p, rem)
        return grown[p, rem]

    def times(s, t):
        if s.is_omega or t.is_omega:
            return OMEGA
        e = entry(s.right, t.left)
        if e is None:
            return OMEGA
        if e is meet_mark:
            return product(g, s, t)
        r1, r2 = e
        return glue(
            s.left,
            t.right,
            r1,
            r2,
            None if r1 is None else grow(s.left, r1),
            None if r2 is None else grow(t.right, r2),
        )

    bad_inv = [str(s) for s in elems if star(star(s)) != s]
    out = [("involution", not bad_inv, bad_inv[:5])]
    index = {s: i for i, s in enumerate(elems)}
    starred = [star(s) for s in elems]
    image = [index.get(s) for s in starred]
    mirror = [k if k is not None and image[k] == i else None for i, k in enumerate(image)]
    tabled = [s.left is not None and starred[i] == (s.right, s.left) for i, s in enumerate(elems)]
    off = [j for j in range(len(elems)) if not tabled[j]]
    by_left: Dict[Ultrapath, List[int]] = {p: [] for p in paths}
    for j, t in enumerate(elems):
        if tabled[j]:
            by_left[t.left].append(j)
    skip_zero = star(OMEGA) == OMEGA
    bad_pairs = []
    for i, s in enumerate(elems):
        mi = mirror[i]
        cols = range(len(elems))
        if tabled[i]:
            # the zero and elements off the involution first, then the
            # blocks of the coordinates x in first-sight order
            live = [
                x
                for x in paths
                if not skip_zero
                or entry(s.right, x) is not None
                or entry(x, s.right) is not None
            ]
            cols = off + [j for x in live for j in by_left[x]]
        for j in cols:
            mj = mirror[j]
            paired = mi is not None and mj is not None
            if paired and (mj, mi) < (i, j):
                continue
            if tabled[i] and tabled[j]:
                st = times(s, elems[j])
                if image[i] is None or image[j] is None:
                    ts = product(g, starred[j], starred[i])
                else:
                    ts = times(elems[image[j]], elems[image[i]])
            else:
                st = product(g, s, elems[j])
                ts = product(g, starred[j], starred[i])
            if star(st) != ts:
                bad_pairs.append((i, j))
            if paired and (mj, mi) != (i, j) and star(ts) != st:
                bad_pairs.append((mj, mi))
    bad_star = [f"{elems[i]} * {elems[j]}" for i, j in sorted(bad_pairs)]
    out.append(("antimultiplicative_star", not bad_star, bad_star[:5]))
    idems = [s for s in elems if not s.is_omega and is_idempotent(s)]
    bad_ord = [
        f"{e} <= {f}"
        for e in idems
        for f in idems
        if idempotent_leq(g, e, f) != idempotent_leq_by_shape(g, e, f)
    ]
    out.append(("idempotent_order_agreement", not bad_ord, bad_ord[:5]))
    return out
