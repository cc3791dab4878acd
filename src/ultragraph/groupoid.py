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

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .core import (
    Edge,
    LatticeG0,
    SizeLimitError,
    Ultragraph,
    VSet,
    edge_adjacency,
    emitted_edges,
    format_set,
    reachable_from,
    require_no_sinks,
    set_key,
)
from .paths import (
    LassoPath,
    Ultrapath,
    concat,
    concat_lasso,
    enumerate_lassos,
    initial_segment,
    lasso_source,
    shift_n,
    strip_lasso,
    unroll,
    vertex_path,
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
    lat: LatticeG0,
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
        if C not in lat:
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
    words = [base.word + (e,) for e in firsts]
    adj = edge_adjacency(g)
    for _ in range(depth - n - 1):
        words = [w + (f,) for w in words for f in adj[w[-1]]]
    return words


def refine_words(
    g: Ultragraph, cylinders: Sequence[CylinderSet], depth: int
) -> Tuple[Tuple[Edge, ...], ...]:
    """The union of the cylinders as a sorted tuple of depth-d edge words.

    Each word w stands for the pure cylinder D((w, range of last edge)),
    and on a sink-free graph those cylinders partition the boundary by
    depth-d prefix, so two unions agree iff their word tuples agree.
    """
    require_no_sinks(g, "cylinder refinement")
    words = set()
    for cyl in cylinders:
        words.update(_cylinder_words(g, cyl, depth))
    return tuple(sorted(words))


def refine_to_depth(
    g: Ultragraph, cylinders: Sequence[CylinderSet], depth: int
) -> Tuple[CylinderSet, ...]:
    """Canonical disjoint normal form: pure depth-d cylinders with maximal
    terminals."""
    return tuple(
        CylinderSet(base=Ultrapath(w, g.range[w[-1]]))
        for w in refine_words(g, cylinders, depth)
    )


@dataclass
class CKFamily:
    """Projections indexed by the nonempty lattice sets, one isometry slice
    per edge, each slice named by its semigroup element."""

    projections: Dict[VSet, SGElement]
    isometries: Dict[Edge, SGElement]


def ck_family(g: Ultragraph, lat: LatticeG0) -> CKFamily:
    require_no_sinks(g, "Cuntz-Krieger family construction")
    projections = {A: idempotent(vertex_path(A)) for A in lat.nonempty()}
    isometries = {
        e: SGElement(Ultrapath((e,), g.range[e]), Ultrapath((), g.range[e]))
        for e in g.edges_sorted()
    }
    return CKFamily(projections=projections, isometries=isometries)


def _fmt_words(words, cap: int = 12) -> str:
    shown = [("." if not w else "".join(w)) for w in words[:cap]]
    tail = "" if len(words) <= cap else f" (+{len(words) - cap} more)"
    return "[" + " ".join(shown) + "]" + tail


def _word_masks(g: Ultragraph, depth: int):
    """words_of(base), a cylinder's depth-d words as one int mask, memoised
    per base, and fmt_mask, which decodes a mask to its sorted words.  Each
    word gets a bit on first sight, so joins, meets and decompositions are
    OR, AND and compare."""
    word_bit: Dict[Tuple[Edge, ...], int] = {}
    memo: Dict[Ultrapath, int] = {}

    def words_of(base: Ultrapath) -> int:
        if base not in memo:
            mask = 0
            for w in _cylinder_words(g, CylinderSet(base=base), depth):
                mask |= 1 << word_bit.setdefault(w, len(word_bit))
            memo[base] = mask
        return memo[base]

    def fmt_mask(mask: int) -> str:
        words = list(word_bit)
        return _fmt_words(
            sorted(words[i] for i in range(mask.bit_length()) if mask >> i & 1)
        )

    return words_of, fmt_mask


def check_family(
    g: Ultragraph, lat: LatticeG0, fam: CKFamily, depth: int
) -> CheckReport:
    """Decide the Cuntz-Krieger relations for the given family by semigroup
    products and depth-d refinement.

    Depth must be at least 2 so that terminal data one step past an edge is
    visible; all identities are exact, and failures carry the offending
    indices and both refinements.
    """
    require_no_sinks(g, "Cuntz-Krieger verification")
    if depth < 2:
        raise ValueError("verification depth must be at least 2")
    entries: List[CheckResult] = []
    words_of, fmt_mask = _word_masks(g, depth)

    # shape: projections sit on their own index, isometries are squares
    shape_bad: List[str] = []
    for A, gen in sorted(fam.projections.items(), key=lambda kv: set_key(kv[0])):
        good = (
            not gen.is_omega
            and gen.left == gen.right
            and gen.left.length == 0
            and gen.left.terminal == A
        )
        if not good:
            shape_bad.append(f"projection {format_set(A)} carries {gen}")
    for e, gen in sorted(fam.isometries.items()):
        good = (
            not gen.is_omega
            and gen.left.word == (e,)
            and gen.right.length == 0
            and gen.left.terminal == gen.right.terminal
        )
        if not good:
            shape_bad.append(f"isometry {e} carries {gen}")
    entries.append(
        CheckResult("family_shape", not shape_bad, tuple(shape_bad))
    )

    # the empty set indexes the zero projection: no depth-d words at all
    empty = CylinderSet(Ultrapath((), frozenset()))
    zero_words = _cylinder_words(g, empty, depth)
    zero_ok = not zero_words and frozenset() not in fam.projections
    entries.append(CheckResult("projection_of_empty_set_is_zero", zero_ok))

    # per-set lists, so the all-pairs loops below hash no Ultrapath
    nonempty = lat.nonempty()
    n = len(nonempty)
    projs = [fam.projections.get(A) for A in nonempty]

    bad: List[str] = []
    for i, A in enumerate(nonempty):
        pa = projs[i]
        if pa is None:
            bad.append(f"missing projection {format_set(A)}")
            continue
        for j in range(i, n):
            pb = projs[j]
            if pb is None:
                continue
            got = product(g, pa, pb)
            B = nonempty[j]
            meet = A & B
            want = fam.projections.get(meet) if meet else OMEGA
            if got != want:
                bad.append(
                    f"{format_set(A)} * {format_set(B)}: got {got}, want {want}"
                )
    entries.append(CheckResult("projection_meets", not bad, tuple(bad[:8])))

    masks = [None if p is None else words_of(p.left) for p in projs]
    mask_of = dict(zip(nonempty, masks))
    bad = []
    for i, A in enumerate(nonempty):
        wa = masks[i]
        if wa is None:
            continue
        for j in range(i, n):
            B = nonempty[j]
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
    entries.append(CheckResult("projection_joins", not bad, tuple(bad[:8])))

    bad = []
    for e in g.edges_sorted():
        te = fam.isometries.get(e)
        if te is None:
            continue
        got = product(g, star(te), te)
        want = fam.projections.get(g.range[e])
        if got != want:
            bad.append(f"edge {e}: got {got}, want {want}")
    entries.append(CheckResult("isometry_range_identity", not bad, tuple(bad[:8])))

    bad = []
    for e in g.edges_sorted():
        te = fam.isometries.get(e)
        if te is None:
            continue
        ee = product(g, te, star(te))
        pv = fam.projections.get(frozenset({g.source[e]}))
        if pv is None:
            bad.append(f"edge {e}: missing projection at source")
            continue
        if not is_idempotent(ee) or not idempotent_leq(g, ee, pv):
            bad.append(f"edge {e}: {ee} is not below the source projection")
    entries.append(CheckResult("isometry_source_domination", not bad, tuple(bad[:8])))

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
            te = fam.isometries.get(e)
            if te is None:
                continue
            ee = product(g, te, star(te))
            if ee.is_omega:
                continue
            piece = words_of(ee.left)
            overlap = overlap or bool(merged & piece)
            merged |= piece
        if overlap:
            bad.append(f"vertex {v}: edge slices overlap")
            continue
        lhs = words_of(pv.left)
        if lhs != merged:
            bad.append(f"vertex {v}: {fmt_mask(lhs)} != {fmt_mask(merged)}")
    entries.append(CheckResult("vertex_decomposition", not bad, tuple(bad[:8])))

    return CheckReport(entries=tuple(entries))


def verify_ck(g: Ultragraph, lat: LatticeG0, depth: int = 2) -> CheckReport:
    return check_family(g, lat, ck_family(g, lat), depth)


def check_set_identities(
    g: Ultragraph, lat: LatticeG0, depths: Iterable[int]
) -> CheckReport:
    """Refinement-level laws of the unit-space slices: binary meets and
    joins match set intersection and union of refinements, and a set's
    slice splits over the edges it emits (there are no finite boundary
    points to add on a finite graph)."""
    require_no_sinks(g, "set identity checks")
    entries: List[CheckResult] = []
    for depth in depths:
        words_of, _ = _word_masks(g, depth)
        masks = [words_of(Ultrapath((), A)) for A in lat.sets]
        bad_meet: List[str] = []
        bad_join: List[str] = []
        for i, A in enumerate(lat.sets):
            for j in range(i, len(masks)):
                B = lat.sets[j]
                if words_of(Ultrapath((), A & B)) != masks[i] & masks[j]:
                    bad_meet.append(f"{format_set(A)} ^ {format_set(B)}")
                if words_of(Ultrapath((), A | B)) != masks[i] | masks[j]:
                    bad_join.append(f"{format_set(A)} v {format_set(B)}")
        entries.append(
            CheckResult(f"meet_identity_depth_{depth}", not bad_meet, tuple(bad_meet[:8]))
        )
        entries.append(
            CheckResult(f"join_identity_depth_{depth}", not bad_join, tuple(bad_join[:8]))
        )
        bad_cover: List[str] = []
        for A, mask in zip(lat.sets, masks):
            cover = 0
            for e in sorted(emitted_edges(g, A)):
                cover |= words_of(Ultrapath((e,), g.range[e]))
            if cover != mask:
                bad_cover.append(format_set(A))
        entries.append(
            CheckResult(f"edge_cover_depth_{depth}", not bad_cover, tuple(bad_cover[:8]))
        )
    return CheckReport(entries=tuple(entries))


def build_elements(
    g: Ultragraph,
    lat: LatticeG0,
    witness_len: int,
    prefix_bound: int,
    cycle_bound: int,
    max_count: int = 100_000,
) -> Tuple[GroupoidElement, ...]:
    """Groupoid elements generated by semigroup pairs up to witness_len
    acting on all lassos within the bounds."""
    lassos = enumerate_lassos(g, prefix_bound, cycle_bound)
    out = set()
    for s in generate_elements(g, lat, witness_len):
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
    return tuple(sorted(out, key=_elem_key))


def _elem_key(a: GroupoidElement):
    return (a.left.prefix, a.left.cycle, a.lag, a.right.prefix, a.right.cycle)


def check_groupoid_laws(
    g: Ultragraph, elements: Sequence[GroupoidElement], max_triples: int = 2_000_000
) -> CheckReport:
    """Involution, lag bookkeeping, units, and associativity over every
    composable pair and triple in the sample.  The triple count is known
    from the left-point groups, so max_triples is checked before any law
    runs."""
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


def split_through(
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
                got = split_through(g, s, t, c)
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
