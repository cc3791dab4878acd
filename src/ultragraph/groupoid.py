"""Boundary-path groupoid machinery, symbolically.

On a finite sink-free ultragraph the boundary consists of the infinite
paths alone, represented here by lasso paths.  Groupoid elements are
triples (left tail, lag, right tail); witness derives a germ representative
(x, y, mu) with left = x.mu, right = y.mu and matching ranges.  Each basic
open slice is named by its semigroup element, the zero naming the empty
slice.  Unit-space cylinder sets get an exact normal form by refinement to
a fixed depth, which makes the Cuntz-Krieger relations decidable.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Edge,
    SizeLimitError,
    Ultragraph,
    VSet,
    edge_adjacency,
    emitted_edges,
    format_set,
    generate_lattice,
    reachable_from,
    require_no_sinks,
    set_key,
)
from .paths import (
    LassoPath,
    Ultrapath,
    check_lasso_bounds,
    concat,
    concat_lasso,
    enumerate_lassos,
    initial_segment,
    lasso_source,
    shift_n,
    strip_lasso,
    unroll,
    vertex_path,
    word_levels,
)
from .semigroup import (
    OMEGA,
    SGElement,
    generate_elements,
    idempotent,
    idempotent_leq,
    is_idempotent,
    product,
    star,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    details: Tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckReport:
    entries: Tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(e for e in self.entries if not e.passed)


class GroupoidElement(NamedTuple):
    """Triple (left, lag, right) of boundary points sharing a tail:
    shift^n(left) = shift^(n-lag)(right) for some depth n >= max(lag, 0),
    as an immutable named tuple.  witness(g, a) gives a germ representative."""

    left: LassoPath
    lag: int
    right: LassoPath

    def __str__(self) -> str:
        return f"({self.left}, {self.lag:+d}, {self.right})"


def _check_tail(left: LassoPath, lag: int, right: LassoPath) -> None:
    """Raise ValueError unless left and right share a tail at this lag.
    Past its prefix a lasso's edge j is rep[(j + phase) mod p], so the
    tails meet iff the reps agree and the phases differ by lag mod p."""
    rep, phase = left.signature
    right_rep, right_phase = right.signature
    if rep != right_rep or (right_phase - phase - lag) % len(rep):
        raise ValueError(f"no shared tail: {left} and {right} at lag {lag}")


def groupoid_element(
    g: Ultragraph, left: LassoPath, lag: int, right: LassoPath
) -> GroupoidElement:
    """Validated construction: raises ValueError unless left and right share
    a tail at this lag."""
    _check_tail(left, lag, right)
    return GroupoidElement(left, lag, right)


def witness(
    g: Ultragraph, a: GroupoidElement
) -> Tuple[Ultrapath, Ultrapath, LassoPath]:
    """The germ representative (x, y, mu) of a: left = x.mu, right = y.mu,
    matching ranges and lag = length(x) - length(y), at the least strip
    depth n = length(x), so x is the shortest such prefix.

    From the settle depth, where both rays are purely periodic and so
    agree, the depth walks back one edge at a time while the unrolled
    words still agree on the edge before it.  Raises ValueError when a's
    points share no tail."""
    left, lag, right = a.left, a.lag, a.right
    _check_tail(left, lag, right)
    settle = max(len(left.prefix), len(right.prefix) + lag, lag, 0)
    lw = unroll(left, settle)
    rw = unroll(right, settle - lag)
    n, lo = settle, max(lag, 0)
    while n > lo and lw[n - 1] == rw[n - 1 - lag]:
        n -= 1
    mu = shift_n(left, n)
    x_word = lw[:n]
    y_word = rw[: n - lag]
    if x_word and y_word:
        T = g.range[x_word[-1]] & g.range[y_word[-1]]
    else:
        T = frozenset({lasso_source(g, mu)})
    return Ultrapath(x_word, T), Ultrapath(y_word, T), mu


def compose(g: Ultragraph, a: GroupoidElement, b: GroupoidElement) -> Optional[GroupoidElement]:
    """Defined exactly when a's right point equals b's left point; lags add.
    The shared tail is checked again, since bare triples reach here."""
    if a.right != b.left:
        return None
    lag = a.lag + b.lag
    _check_tail(a.left, lag, b.right)
    return GroupoidElement(a.left, lag, b.right)


def inverse(a: GroupoidElement) -> GroupoidElement:
    return GroupoidElement(a.right, -a.lag, a.left)


def unit_at(g: Ultragraph, point: LassoPath) -> GroupoidElement:
    return GroupoidElement(point, 0, point)


def bisection_member(g: Ultragraph, s: SGElement, a: GroupoidElement) -> bool:
    """Whether a lies in the basic slice of s = (x, y), the elements
    (x.mu, length(x) - length(y), y.mu); the zero names the empty slice.
    Membership needs one shared tail mu stripping both coordinates."""
    if s.is_omega:
        return False
    x, y = s.left, s.right
    if a.lag != x.length - y.length:
        return False
    mu1 = strip_lasso(g, a.left, x)
    if mu1 is None:
        return False
    mu2 = strip_lasso(g, a.right, y)
    return mu2 is not None and mu1 == mu2


@dataclass(frozen=True)
class CylinderSet:
    """D(base) minus the one-edge extensions in K and the terminal
    shrinkings by the sets in Q."""

    base: Ultrapath
    excluded_edges: FrozenSet[Edge] = frozenset()
    excluded_sets: FrozenSet[VSet] = frozenset()


def make_cylinder(
    g: Ultragraph,
    base: Ultrapath,
    excluded_edges: Iterable[Edge] = (),
    excluded_sets: Iterable[VSet] = (),
) -> CylinderSet:
    K = frozenset(excluded_edges)
    Q = frozenset(frozenset(s) for s in excluded_sets)
    allowed = emitted_edges(g, base.terminal)
    for e in K:
        if e not in allowed:
            raise ValueError(f"excluded edge '{e}' is not emitted by the base range")
    for C in Q:
        if not C <= g.vertices:
            raise ValueError(f"excluded set {format_set(C)} is not a lattice set")
        if base.terminal <= C:
            raise ValueError(
                f"excluded set {format_set(C)} contains the base range"
            )
    return CylinderSet(base=base, excluded_edges=K, excluded_sets=Q)


def cylinder_member(g: Ultragraph, x: LassoPath, cyl: CylinderSet) -> bool:
    if strip_lasso(g, x, cyl.base) is None:
        return False
    for e in sorted(cyl.excluded_edges):
        ext = Ultrapath(cyl.base.word + (e,), g.range[e])
        if strip_lasso(g, x, ext) is not None:
            return False
    for C in sorted(cyl.excluded_sets, key=set_key):
        t = cyl.base.terminal & C
        if t and strip_lasso(g, x, Ultrapath(cyl.base.word, t)) is not None:
            return False
    return True


def _cylinder_words(g, cyl: CylinderSet, depth: int) -> List[Tuple[Edge, ...]]:
    base = cyl.base
    n = base.length
    if depth < 1 or depth < n:
        raise ValueError("refinement depth must cover every base")
    exclusions = cyl.excluded_edges or cyl.excluded_sets
    if depth == n:
        maximal = n >= 1 and base.terminal == g.range[base.word[-1]]
        if exclusions or not maximal:
            raise ValueError(
                "depth must exceed the base length unless the base has a "
                "maximal terminal and no exclusions"
            )
        return [base.word]
    blocked = frozenset().union(*cyl.excluded_sets) if cyl.excluded_sets else frozenset()
    ok_sources = base.terminal - blocked
    firsts = [
        e
        for e in g.edges_sorted()
        if g.source[e] in ok_sources and e not in cyl.excluded_edges
    ]
    # levels[k][i] is the last edge of a word k + 1 edges past the base, and
    # parents[k][i] is the index in levels[k] of the word that levels[k + 1][i]
    # extends.  The words one edge short of the depth are read back from
    # these lists once, so no level copies the words before it, and the
    # last edge is appended to each of them.
    adj = edge_adjacency(g)
    levels = [firsts]
    parents = []
    for _ in range(depth - n - 2):
        succ = [adj[e] for e in levels[-1]]
        parents.append([i for i, fs in enumerate(succ) for _ in fs])
        levels.append([f for fs in succ for f in fs])
    rows = range(len(levels[-1]))
    columns = [levels[-1]]
    for k in range(len(parents) - 1, -1, -1):
        rows = list(map(parents[k].__getitem__, rows))
        columns.append(map(levels[k].__getitem__, rows))
    columns.reverse()
    words = zip(*map(itertools.repeat, base.word), *columns)
    if depth == n + 1:
        return list(words)
    return [w + (f,) for w in words for f in adj[w[-1]]]


def refine_words(
    g: Ultragraph, cylinders: Sequence[CylinderSet], depth: int
) -> Tuple[Tuple[Edge, ...], ...]:
    """The union of the cylinders as a sorted tuple of depth-d edge words.

    Each word w stands for the pure cylinder D((w, range of last edge)),
    and on a sink-free graph those cylinders partition the boundary by
    depth-d prefix, so two unions agree iff their word tuples agree.
    Past 200,000 depth-d edge words it raises SizeLimitError first.
    """
    require_no_sinks(g, "cylinder refinement")
    _check_word_budget(g, depth)
    words = set()
    for cyl in cylinders:
        words.update(_cylinder_words(g, cyl, depth))
    return tuple(sorted(words))


@dataclass
class CKFamily:
    """Projections indexed by the nonempty lattice sets, one isometry slice
    per edge, each slice named by its semigroup element."""

    projections: Dict[VSet, SGElement]
    isometries: Dict[Edge, SGElement]


def ck_family(g: Ultragraph, max_size: int = 4096) -> CKFamily:
    nonempty = generate_lattice(g, max_size).nonempty()
    require_no_sinks(g, "Cuntz-Krieger family construction")
    projections = {A: idempotent(vertex_path(A)) for A in nonempty}
    isometries = {
        e: SGElement(Ultrapath((e,), g.range[e]), Ultrapath((), g.range[e]))
        for e in g.edges_sorted()
    }
    return CKFamily(projections=projections, isometries=isometries)


def _check_word_budget(g: Ultragraph, depth: int) -> None:
    """Count the depth-d edge words by their last edge, one level at a
    time, before any word is built; past 200,000 words raise
    SizeLimitError.  The graph has no sinks, so every word extends and no
    level has fewer words than the one before: the count may stop at the
    first level past the limit.  It bounds every cylinder's words too.
    Refinement builds one level per edge of depth, so a depth past the
    limit raises too, even where the words do not multiply."""
    max_count = 200_000
    if depth > max_count:
        raise SizeLimitError(f"depth-{depth} refinement exceeded max_count={max_count} levels")
    for n, level in enumerate(word_levels(g), 1):
        if sum(level.values()) > max_count:
            raise SizeLimitError(
                f"depth-{depth} refinement exceeded max_count={max_count} words"
            )
        if n >= depth:
            break


def _word_masks(g: Ultragraph, depth: int):
    """words_of(base), a cylinder's depth-d words as one int mask, and
    fmt_mask, which decodes a mask to its sorted words.  Each word gets a
    bit on first sight, so joins, meets and decompositions are OR, AND and
    compare.  A length-zero base on two or more vertices is the OR of its
    vertices' masks: its words are those whose first edge is emitted from
    the set, so they split by that edge's source.  Other bases are refined
    by _cylinder_words and memoised."""
    _check_word_budget(g, depth)
    word_bit: Dict[Tuple[Edge, ...], int] = {}
    memo: Dict[Ultrapath, int] = {}

    def refined(base: Ultrapath) -> int:
        if base not in memo:
            mask = 0
            for w in _cylinder_words(g, CylinderSet(base=base), depth):
                mask |= 1 << word_bit.setdefault(w, len(word_bit))
            memo[base] = mask
        return memo[base]

    # reads refined, not words_of, so no closure cycle outlives the call
    vertex_words = functools.cache(lambda v: refined(Ultrapath((), frozenset((v,)))))

    def words_of(base: Ultrapath) -> int:
        if not base.word and len(base.terminal) > 1:
            return functools.reduce(operator.or_, map(vertex_words, base.terminal))
        return refined(base)

    def fmt_mask(mask: int) -> str:
        listed = list(word_bit)
        words = sorted(listed[i] for i in range(mask.bit_length()) if mask >> i & 1)
        shown = " ".join("".join(w) or "." for w in words[:12])
        return f"[{shown}]" + (f" (+{len(words) - 12} more)" if len(words) > 12 else "")

    return words_of, fmt_mask


def _mask_set(g: Ultragraph, m: int) -> str:
    """The set with vertex mask m, formatted."""
    return format_set(v for k, v in enumerate(g.vertices_sorted()) if m >> k & 1)


def _split_failures(g: Ultragraph, words_at: Sequence[Optional[int]], fmt_mask) -> List[str]:
    """words(A u B) == words(A) | words(B) for every pair of sets, where
    words_at[m] holds the words of the set with vertex mask m, or None.
    Each set must read the join of its least vertex, low = m & -m, and the
    rest, m ^ low (the empty set for a singleton); by induction on size
    every pair then holds.  A set with None is missing when it holds a set
    with words and its least vertex, as set_key-ordered pairs find it.  If
    none is, the sets with words are closed under union, and additive iff
    the splits hold once a missing singleton reads the meet of the sets
    with words that hold it and a missing set the join of its split."""

    ext = list(words_at)
    for k in range((len(ext) - 1).bit_length()):
        if ext[1 << k] is None:
            ext[1 << k] = -1
            for m, w in enumerate(words_at):
                if m >> k & 1 and w is not None:
                    ext[1 << k] &= w
    held = [w is not None for w in words_at]
    bad: List[str] = []
    for m in range(1, len(ext)):
        low = m & -m
        rest = m ^ low
        w, want = words_at[m], ext[low] | ext[rest]
        if w is None:
            ext[m] = want
            held[m] = any(held[m ^ 1 << k] for k in range(m.bit_length()) if rest >> k & 1)
            if held[m]:
                bad.append(f"missing projection {_mask_set(g, m)}")
        elif w != want:
            bad.append(
                f"{_mask_set(g, m)} = {_mask_set(g, low)} + {_mask_set(g, rest)}: "
                f"{fmt_mask(w)} != {fmt_mask(want)}"
            )
    return bad


def check_family(
    g: Ultragraph, fam: CKFamily, depth: int, max_size: int = 4096
) -> CheckReport:
    """Decide the Cuntz-Krieger relations for the given family by semigroup
    products and depth-d refinement.

    Depth must be at least 2 so that terminal data one step past an edge is
    visible; all identities are exact, and failures carry the offending
    indices and both refinements.

    projection_meets wants p_A p_B = want(A n B), the projection of A n B
    or the zero when the meet is empty, for every pair of nonempty sets.
    It forms the diagonals of U, the vertex set, and of each nonempty
    U - {v}, and per set A other than U, the empty set included, the
    chain pair p_{A + v} p_{U - v} with v the least vertex outside A,
    whose meet is A (in set_key order: A + v first unless it is U and v
    the last vertex).  Rows go in set_key order: a row forms its set's
    diagonal, then its chain pair, skipping a pair with a side that has
    no projection, then reports its set if it has none.  So every witness
    is a line of the all-pairs loop.  Conversely, let every set have a
    projection and every formed pair hold.  The diagonals make p_U and
    each p_{U - v} idempotent, and idempotents of S_G commute.  By
    induction on |U - A|, p_A = p_U times the p_{U - w} for w outside A:
    the chain pair gives p_A = p_{A + v} p_{U - v}, in either order.  The
    empty set's chain pair makes that product the zero.  So p_A p_B is
    p_U times the p_{U - w} for w outside A n B, which is want(A n B).
    With |V| = 1, U - {v} is empty and U's diagonal is the only pair.  No
    fallback loop is needed: the verdict is the all-pairs loop's.
    """
    lat = generate_lattice(g, max_size)
    require_no_sinks(g, "Cuntz-Krieger verification")
    if depth < 2:
        raise ValueError("verification depth must be at least 2")
    entries: List[CheckResult] = []
    words_of, fmt_mask = _word_masks(g, depth)

    def slice_words(s: SGElement) -> int:
        # the zero names the empty slice, which has no words
        return 0 if s.is_omega else words_of(s.left)

    # shape: projections sit on their own index, a set of the graph's
    # vertices, and isometries sit on an edge of the graph and are squares
    # sort only the offending keys, stably, so a key's messages keep their order
    shape_at: List[Tuple[VSet, str]] = []
    for A, gen in fam.projections.items():
        if not A <= g.vertices:
            shape_at.append((A, f"projection {format_set(A)} is not a lattice set"))
        good = (
            not gen.is_omega
            and gen.left == gen.right
            and gen.left.length == 0
            and gen.left.terminal == A
        )
        if not good:
            shape_at.append((A, f"projection {format_set(A)} carries {gen}"))
    shape_bad = [msg for _, msg in sorted(shape_at, key=lambda am: set_key(am[0]))]
    for e, gen in sorted(fam.isometries.items()):
        if e not in g.edges:
            shape_bad.append(f"isometry {e} is not an edge")
        good = (
            not gen.is_omega
            and gen.left.word == (e,)
            and gen.right.length == 0
            and gen.left.terminal == gen.right.terminal
        )
        if not good:
            shape_bad.append(f"isometry {e} carries {gen}")
    for e in g.edges_sorted():
        if e not in fam.isometries:
            shape_bad.append(f"missing isometry {e}")
    entries.append(
        CheckResult("family_shape", not shape_bad, tuple(shape_bad))
    )

    # the empty set indexes the zero projection, so the family carries none
    zero_ok = frozenset() not in fam.projections
    entries.append(CheckResult("projection_of_empty_set_is_zero", zero_ok))

    # want_of[m] is the projection of the set with vertex mask m, so the
    # meet and join loops below build and hash no set; a set the family has
    # no projection for reads None, never the zero, and only the empty
    # meet, at mask 0, wants the zero, whose slice has no words
    want_of: List[Optional[SGElement]] = [None] * len(lat)
    for A, m in zip(lat.sets, lat.masks):
        want_of[m] = fam.projections.get(A)
    want_of[0] = OMEGA

    full = len(lat) - 1
    bad: List[str] = []
    for m in lat.masks:
        low = ~m & (m + 1)  # v, the least vertex outside the set
        pairs = [(m, m)] if m and not (full ^ m) & (full ^ m) - 1 else []  # U, U - {v}
        if m != full and full ^ low:
            pairs.append((m, full) if m == full >> 1 else (m | low, full ^ low))
        for x, y in pairs:
            if want_of[x] is None or want_of[y] is None:
                continue
            got = product(g, want_of[x], want_of[y])
            want = want_of[x & y]
            if got != want:
                bad.append(f"{_mask_set(g, x)} * {_mask_set(g, y)}: got {got}, want {want}")
        if m and want_of[m] is None:
            bad.append(f"missing projection {_mask_set(g, m)}")
    entries.append(CheckResult("projection_meets", not bad, tuple(bad[:8])))

    words_at = [None if p is None else slice_words(p) for p in want_of]
    bad = _split_failures(g, words_at, fmt_mask)
    entries.append(CheckResult("projection_joins", not bad, tuple(bad[:8])))

    # slices[e] = t_e t_e*, the edge slice, formed once here for the
    # domination check and the vertex decomposition below
    bad, below, slices = [], [], {}
    for e in g.edges_sorted():
        te = fam.isometries.get(e)
        if te is None:
            continue
        got = product(g, star(te), te)
        want = fam.projections.get(g.range[e])
        if got != want:
            bad.append(f"edge {e}: got {got}, want {want}")
        ee = slices[e] = product(g, te, star(te))
        pv = fam.projections.get(frozenset({g.source[e]}))
        if pv is None:
            below.append(f"edge {e}: missing projection at source")
        elif not is_idempotent(pv):
            below.append(f"edge {e}: projection {{{g.source[e]}}} is not idempotent")
        elif not is_idempotent(ee) or not idempotent_leq(g, ee, pv):
            below.append(f"edge {e}: {ee} is not below the source projection")
    entries.append(CheckResult("isometry_range_identity", not bad, tuple(bad[:8])))
    entries.append(CheckResult("isometry_source_domination", not below, tuple(below[:8])))

    # every vertex here emits finitely many and at least one edge, and the
    # boundary has no finite points, so the vertex projection must split
    # exactly into its edge slices
    bad = []
    for v in g.vertices_sorted():
        pv = fam.projections.get(frozenset({v}))
        if pv is None:
            bad.append(f"vertex {v}: missing projection")
            continue
        merged = 0
        overlap = False
        for e in g.out_edges(v):
            ee = slices.get(e)
            if ee is None or ee.is_omega:
                continue
            piece = words_of(ee.left)
            overlap = overlap or bool(merged & piece)
            merged |= piece
        if overlap:
            bad.append(f"vertex {v}: edge slices overlap")
            continue
        lhs = slice_words(pv)
        if lhs != merged:
            bad.append(f"vertex {v}: {fmt_mask(lhs)} != {fmt_mask(merged)}")
    entries.append(CheckResult("vertex_decomposition", not bad, tuple(bad[:8])))

    return CheckReport(entries=tuple(entries))


def verify_ck(g: Ultragraph, depth: int = 2, max_size: int = 4096) -> CheckReport:
    if depth < 2:  # a usage error, reported before ck_family's lattice guard
        raise ValueError("verification depth must be at least 2")
    return check_family(g, ck_family(g, max_size), depth, max_size)


def build_elements(
    g: Ultragraph,
    witness_len: int,
    prefix_bound: int,
    cycle_bound: int,
    max_count: int = 100_000,
) -> Tuple[GroupoidElement, ...]:
    """Groupoid elements generated by semigroup pairs up to witness_len
    acting on all lassos within the bounds: s = (x, y) names
    (x.mu, |x| - |y|, y.mu) for each lasso mu starting in terminal(x).

    The point x.mu depends on x and mu alone, so each listed coordinate z
    gets one point list: z.mu for the lassos mu of each vertex of
    terminal(z), in sorted order.  Range-matched x and y share a terminal,
    so their lists run over the same lassos in the same order, and zipping
    them gives exactly the pair's matches.  Each distinct element then
    needs no tail test, since shift^|x|(x.mu) = mu = shift^|y|(y.mu).  The
    elements come sorted as (left, lag, right) tuples; past max_count it
    raises SizeLimitError."""
    check_lasso_bounds(prefix_bound, cycle_bound)
    if witness_len < 0:
        raise ValueError("witness_len must be nonnegative")
    generate_lattice(g)  # its size guard comes before the sink check
    by_source: Dict[str, List[LassoPath]] = {}
    for mu in enumerate_lassos(g, prefix_bound, cycle_bound):
        by_source.setdefault(lasso_source(g, mu), []).append(mu)
    points: Dict[Ultrapath, List[LassoPath]] = {}
    out = set()
    for s in generate_elements(g, witness_len):
        if s.is_omega:
            continue
        for z in s:
            if z not in points:
                lassos = (mu for v in sorted(z.terminal) for mu in by_source.get(v, ()))
                points[z] = [concat_lasso(g, z, mu) for mu in lassos]
        x, y = s
        out.update(zip(points[x], itertools.repeat(x.length - y.length), points[y]))
        if len(out) > max_count:
            raise SizeLimitError(f"element build exceeded max_count={max_count}")
    return tuple(tuple.__new__(GroupoidElement, t) for t in sorted(out))


class _PointTable:
    """The elements of one sample as (left id, lag, right id) int triples.

    The distinct points are interned once, in order of first sight, and
    each point's tail signature is read once into per-point lists: rep id,
    phase and period.  compose then runs on ints alone and makes the same
    two tests as the public compose."""

    def __init__(self, elements: Sequence[GroupoidElement]):
        ids: Dict[LassoPath, int] = {}
        self.triples = [
            (ids.setdefault(a.left, len(ids)), a.lag, ids.setdefault(a.right, len(ids)))
            for a in elements
        ]
        self.points = list(ids)
        rep_ids: Dict[Tuple[Edge, ...], int] = {}
        self.rep: List[int] = []
        self.phase: List[int] = []
        self.period: List[int] = []
        for x in self.points:
            rep, phase = x.signature
            self.rep.append(rep_ids.setdefault(rep, len(rep_ids)))
            self.phase.append(phase)
            self.period.append(len(rep))

    def compose(self, a: Tuple[int, int, int], b: Tuple[int, int, int]):
        """Defined exactly when a's right point is b's left point; lags add.
        Raises compose's ValueError when the outer points share no tail."""
        left, lag, mid = a
        if mid != b[0]:
            return None
        lag += b[1]
        right = b[2]
        if (
            self.rep[left] != self.rep[right]
            or (self.phase[right] - self.phase[left] - lag) % self.period[left]
        ):
            raise ValueError(
                f"no shared tail: {self.points[left]} and {self.points[right]} at lag {lag}"
            )
        return left, lag, right


def check_groupoid_laws(
    g: Ultragraph, elements: Sequence[GroupoidElement], max_pairs: int = 2_000_000
) -> CheckReport:
    """Involution, lag bookkeeping, units and inverses, and associativity
    on the sample.  The composable pair count is known from the left-point
    groups, so max_pairs is checked before any law runs.  Units and
    associativity run on interned points (_PointTable); strings are built
    only for failure witnesses.

    Associativity is the additivity of the lag cocycle c(x, k, y) = k, and
    is decided by one compose per composable pair:

    - compose(a, b) is defined iff a's right point is b's left point, has
      lag a.lag + b.lag, and raises iff its outer points fail the tail
      test: equal reps and phase[right] - phase[left] - lag = 0 modulo
      the period.
    - The units loop forms mul((left, 0, left), a), which runs a's own
      tail test and raises compose's ValueError on a bad element.  So once
      that loop returns with no witness, every element passes its test.
    - Equal reps have equal periods, and the test is additive in the lag.
      So every composable pair passes its test, and the pair loop checks
      that each product is (a.left, a.lag + b.lag, b.right).
    - For a composable triple, (ab)c and a(bc) then pass by the same
      additivity and both equal (a.left, a.lag + b.lag + c.lag, c.right):
      the triple loop would find no witness.

    A units witness or a pair whose product differs sends the sample to
    the triple loop, so every witness is one of that loop's."""
    table = _PointTable(elements)
    triples, mul = table.triples, table.compose
    # by_left[p]: indices of the elements whose left point has id p
    by_left: List[List[int]] = [[] for _ in table.points]
    for i, (left, _, _) in enumerate(triples):
        by_left[left].append(i)
    if sum(len(by_left[right]) for _, _, right in triples) > max_pairs:
        raise SizeLimitError("too many composable pairs for this sample")
    entries: List[CheckResult] = []

    bad = [str(a) for a in elements if inverse(inverse(a)) != a or inverse(a).lag != -a.lag]
    entries.append(CheckResult("involution", not bad, tuple(bad[:5])))

    bad = []
    for i, a in enumerate(triples):
        left, lag, right = a
        inv = (right, -lag, left)
        if mul(a, inv) != (left, 0, left):
            bad.append(str(elements[i]))
            continue
        if mul((left, 0, left), a) != a or mul(a, mul(inv, a)) != a:
            bad.append(str(elements[i]))
    entries.append(CheckResult("units_and_inverses", not bad, tuple(bad[:5])))

    if not bad and all(
        mul(a, b) == (a[0], a[1] + b[1], b[2])
        for a in triples
        for j in by_left[a[2]]
        for b in [triples[j]]
    ):
        entries.append(CheckResult("associativity", True, ()))
        return CheckReport(entries=tuple(entries))
    bad = []
    for i, a in enumerate(triples):
        for j in by_left[a[2]]:
            b = triples[j]
            ab = mul(a, b)
            for k in by_left[b[2]]:
                c = triples[k]
                bc = mul(b, c)
                lhs = None if ab is None else mul(ab, c)
                rhs = None if bc is None else mul(a, bc)
                if lhs is None or lhs != rhs:
                    bad.append(f"{elements[i]} . {elements[j]} . {elements[k]}")
    entries.append(CheckResult("associativity", not bad, tuple(bad[:5])))
    return CheckReport(entries=tuple(entries))


def _split_through(
    g: Ultragraph, s: SGElement, t: SGElement, c: GroupoidElement
) -> Optional[Tuple[GroupoidElement, GroupoidElement]]:
    """Factor a member of the product slice of s and t into a member of
    each factor slice.  The middle point is the longer inner coordinate
    pushed onto the shared tail."""
    prod = product(g, s, t)
    if prod.is_omega:
        return None
    mu = strip_lasso(g, c.left, prod.left)
    if mu is None:
        return None
    w, z = s.left, s.right
    x, y = t.left, t.right
    if initial_segment(g, x, z) is not None:
        mid = concat_lasso(g, x, mu)
    else:
        mid = concat_lasso(g, z, mu)
    if mid is None:
        return None
    a1 = groupoid_element(g, c.left, w.length - z.length, mid)
    a2 = groupoid_element(g, mid, x.length - y.length, c.right)
    return a1, a2


def check_bisection_homomorphism(
    g: Ultragraph,
    gens: Sequence[SGElement],
    elements: Sequence[GroupoidElement],
) -> CheckReport:
    """The slice of a product is exactly the set of composable products of
    slice members: forward by composing members, backward by splitting."""
    members: Dict[int, List[GroupoidElement]] = {
        id(s): [a for a in elements if bisection_member(g, s, a)] for s in gens
    }
    bad: List[str] = []
    checked = 0
    for s in gens:
        for t in gens:
            st = product(g, s, t)
            for a1 in members[id(s)]:
                for a2 in members[id(t)]:
                    if a1.right != a2.left:
                        continue
                    checked += 1
                    c = compose(g, a1, a2)
                    if not bisection_member(g, st, c):
                        bad.append(f"{s} * {t}: product misses {c}")
            if st.is_omega:
                continue
            for c in elements:
                if not bisection_member(g, st, c):
                    continue
                checked += 1
                got = _split_through(g, s, t, c)
                if got is None:
                    bad.append(f"{s} * {t}: cannot split {c}")
                    continue
                a1, a2 = got
                ok = (
                    bisection_member(g, s, a1)
                    and bisection_member(g, t, a2)
                    and compose(g, a1, a2) == c
                )
                if not ok:
                    bad.append(f"{s} * {t}: bad split of {c}")
    entries = (
        CheckResult(
            "bisection_homomorphism",
            not bad,
            tuple(bad[:5]) + (f"checked {checked} memberships",),
        ),
    )
    return CheckReport(entries=entries)


def check_hausdorff(
    g: Ultragraph,
    pairs: Sequence[Tuple[GroupoidElement, GroupoidElement]],
) -> CheckReport:
    """Separate sampled distinct elements by basic slices.

    Either one element's witness slice already misses the other, or both
    witness slices contain both elements and deepening one witness along
    its tail splits them once the tails diverge."""
    bad: List[str] = []
    for a, b in pairs:
        if a == b:
            continue
        if _separated(g, a, b) or _separated(g, b, a):
            continue
        bad.append(f"{a} vs {b}")
    entries = (CheckResult("hausdorff_separation", not bad, tuple(bad[:5])),)
    return CheckReport(entries=entries)


def _separated(g: Ultragraph, a: GroupoidElement, b: GroupoidElement) -> bool:
    x, y, mu = witness(g, a)
    base = SGElement(x, y)
    if not bisection_member(g, base, a):
        raise RuntimeError(f"{a} is not in its own witness slice")
    if not bisection_member(g, base, b):
        return True
    # Fine-Wilf: past both prefixes, tails with periods p and q that agree
    # on p + q - gcd(p, q) letters agree everywhere
    ra, rb = a.left, b.left
    bound = (
        max(len(ra.prefix), len(rb.prefix))
        + len(ra.cycle) + len(rb.cycle)
        + 1
    )
    for k in range(1, bound + 1):
        u_word = unroll(mu, k)
        u = Ultrapath(u_word, g.range[u_word[-1]])
        deeper_x = concat(g, x, u)
        deeper_y = concat(g, y, u)
        if deeper_x is None or deeper_y is None:
            raise RuntimeError(f"witness of {a} does not extend along its tail")
        deeper = SGElement(deeper_x, deeper_y)
        if not bisection_member(g, deeper, a):
            raise RuntimeError(f"{a} is not in its deepened witness slice")
        if not bisection_member(g, deeper, b):
            return True
    return False


def check_orbit_density(
    g: Ultragraph, lassos: Sequence[LassoPath], prefix_depth: int = 2
) -> CheckResult:
    """Desk-scale echo of minimality: every basic cylinder around any lasso
    meets the orbit of every other lasso, via a connector word from the
    cylinder's range to some shift of the target."""
    bad: List[str] = []
    for delta in lassos:
        for d in range(1, prefix_depth + 1):
            w = unroll(delta, d)
            near = frozenset().union(*(reachable_from(g, t) for t in g.range[w[-1]]))
            for gamma in lassos:
                horizon = len(gamma.prefix) + len(gamma.cycle)
                if not any(
                    lasso_source(g, shift_n(gamma, k)) in near
                    for k in range(horizon + 1)
                ):
                    bad.append(f"{delta} prefix {d} cannot meet orbit of {gamma}")
    return CheckResult("orbit_density", not bad, tuple(bad[:5]))
