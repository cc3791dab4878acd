"""Ultrapaths and eventually periodic infinite paths.

An ultrapath is either a nonempty lattice set (length zero) or an edge word
with a nonempty terminal set inside the last edge's range.  Infinite paths
at desk scale are lasso paths: a finite prefix followed by a repeating
cycle, kept in a canonical form so equality of values is equality of the
infinite edge words they unroll to.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .core import (
    Edge,
    LatticeG0,
    SizeLimitError,
    Ultragraph,
    VSet,
    edge_adjacency,
    format_set,
    require_no_sinks,
)


class Ultrapath(NamedTuple):
    """Edge word and terminal set, an immutable named tuple: it compares
    and hashes by its fields."""

    word: Tuple[Edge, ...]
    terminal: VSet

    @property
    def length(self) -> int:
        return len(self.word)

    @property
    def range(self) -> VSet:
        return self.terminal

    def __str__(self) -> str:
        if not self.word:
            return format_set(self.terminal)
        return f"({''.join(self.word)}, {format_set(self.terminal)})"


def vertex_path(A: Iterable[str]) -> Ultrapath:
    """Length-zero ultrapath standing for a nonempty vertex set."""
    s = frozenset(A)
    if not s:
        raise ValueError("a length-zero ultrapath needs a nonempty set")
    return Ultrapath(word=(), terminal=s)


def edge_path(g: Ultragraph, e: Edge) -> Ultrapath:
    """The single edge e with its maximal terminal."""
    return Ultrapath(word=(e,), terminal=g.range[e])


def make_path(
    g: Ultragraph,
    word: Iterable[Edge],
    terminal: Iterable[str],
    lat: Optional[LatticeG0] = None,
) -> Ultrapath:
    """Validated construction: consecutive edges must be composable and the
    terminal must be a nonempty subset of the last range (of the vertex set
    for length zero).  When a lattice is supplied the terminal must belong
    to it."""
    w = tuple(word)
    t = frozenset(terminal)
    if not t:
        raise ValueError("terminal set must be nonempty")
    for e in w:
        if e not in g.edges:
            raise ValueError(f"unknown edge '{e}'")
    for a, b in zip(w, w[1:]):
        if g.source[b] not in g.range[a]:
            raise ValueError(f"edges '{a}' and '{b}' do not compose")
    bound = g.range[w[-1]] if w else g.vertices
    if not t <= bound:
        raise ValueError(
            f"terminal {format_set(t)} escapes {format_set(bound)}"
        )
    if lat is not None and t not in lat:
        raise ValueError(f"terminal {format_set(t)} is not a lattice set")
    return Ultrapath(word=w, terminal=t)


def path_source(g: Ultragraph, x: Ultrapath) -> VSet:
    """Source of an ultrapath, as a vertex set.  A length-zero path is its
    own source and range."""
    if not x.word:
        return x.terminal
    return frozenset({g.source[x.word[0]]})


def concat(g: Ultragraph, x: Ultrapath, y: Ultrapath) -> Optional[Ultrapath]:
    """Partial product on ultrapaths; None when undefined.

    Both positive length: defined iff y starts inside x's terminal.  Two
    sets: their intersection if nonempty.  Set then path: the path, if it
    starts in the set.  Path then set: shrink the terminal; the range of
    the result is range(x) n y.
    """
    if x.word and y.word:
        if g.source[y.word[0]] in x.terminal:
            return Ultrapath(x.word + y.word, y.terminal)
        return None
    if not x.word and not y.word:
        t = x.terminal & y.terminal
        return Ultrapath((), t) if t else None
    if not x.word:
        return y if g.source[y.word[0]] in x.terminal else None
    t = x.terminal & y.terminal
    return Ultrapath(x.word, t) if t else None


def initial_segment(g: Ultragraph, x: Ultrapath, y: Ultrapath) -> Optional[Ultrapath]:
    """The remainder x' with x = y . x', or None when y is not an initial
    segment of x.

    When several remainders exist (they differ only in their terminal) the
    canonical one carries terminal(x), the smallest witness.
    """
    if not y.word:
        if not x.word:
            return x if x.terminal <= y.terminal else None
        return x if g.source[x.word[0]] in y.terminal else None
    n = len(y.word)
    if len(x.word) < n or x.word[:n] != y.word:
        return None
    if len(x.word) == n:
        return Ultrapath((), x.terminal) if x.terminal <= y.terminal else None
    rest = Ultrapath(x.word[n:], x.terminal)
    return rest if g.source[rest.word[0]] in y.terminal else None


def comparable(g: Ultragraph, x: Ultrapath, y: Ultrapath) -> bool:
    """Either path is an initial segment of the other."""
    return (
        initial_segment(g, x, y) is not None
        or initial_segment(g, y, x) is not None
    )


def enumerate_paths(
    g: Ultragraph,
    lat: LatticeG0,
    max_len: int,
    max_count: int = 200_000,
) -> List[Ultrapath]:
    """All ultrapaths of length up to max_len, terminals ranging over the
    nonempty lattice sets inside the relevant range.  Ordered by length,
    then edge word, then terminal.

    The order comes out of the construction: each level extends the
    previous one's words, in order, by their sorted successor edges, and
    the lattice lists its sets in set_key order."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    nonempty = lat.nonempty()
    out: List[Ultrapath] = [Ultrapath((), A) for A in nonempty]
    words: List[Tuple[Edge, ...]] = [(e,) for e in g.edges_sorted()]
    adj = edge_adjacency(g)
    for length in range(1, max_len + 1):
        if length > 1:
            words = [w + (f,) for w in words for f in adj[w[-1]]]
        for w in words:
            last_range = g.range[w[-1]]
            for A in nonempty:
                if A <= last_range:
                    out.append(Ultrapath(w, A))
                    if len(out) > max_count:
                        raise SizeLimitError(
                            f"path enumeration exceeded max_count={max_count}"
                        )
    return out


def _primitive(cycle: Tuple[Edge, ...]) -> Tuple[Edge, ...]:
    n = len(cycle)
    for d in range(1, n + 1):
        if n % d == 0 and cycle[:d] * (n // d) == cycle:
            return cycle[:d]
    return cycle


def _canonical(prefix: Tuple[Edge, ...], cycle: Tuple[Edge, ...]):
    if not cycle:
        raise ValueError("lasso cycle must be nonempty")
    c = _primitive(cycle)
    p = prefix
    while p and p[-1] == c[-1]:
        p = p[:-1]
        c = (c[-1],) + c[:-1]
    return p, c


@dataclass(frozen=True)
class LassoPath:
    """Eventually periodic infinite path prefix . cycle^infinity.

    Instances normalize on construction: the cycle is never a proper power
    and the prefix is as short as possible, so two lassos are equal exactly
    when they unroll to the same infinite edge word.
    """

    prefix: Tuple[Edge, ...]
    cycle: Tuple[Edge, ...]

    def __post_init__(self):
        p, c = _canonical(tuple(self.prefix), tuple(self.cycle))
        object.__setattr__(self, "prefix", p)
        object.__setattr__(self, "cycle", c)

    @cached_property
    def signature(self) -> Tuple[Tuple[Edge, ...], int]:
        """Tail signature (rep, phase).  rep is the least rotation of the
        cycle, here the cycle rotated by i; so the cycle is rep rotated by
        k = -i, and phase = (k - len(prefix)) mod p makes edge j, from the
        end of the prefix on, rep[(j + phase) mod p].  The cycle is
        primitive, so its rotations are distinct and the rep is unique."""
        c = self.cycle
        p = len(c)
        rep, i = min((c[i:] + c[:i], i) for i in range(p))
        return rep, (-i - len(self.prefix)) % p

    def __str__(self) -> str:
        head = "".join(self.prefix)
        return f"{head}({''.join(self.cycle)})*"


def make_lasso(g: Ultragraph, prefix: Iterable[Edge], cycle: Iterable[Edge]) -> LassoPath:
    """Validated lasso: edges must chain, including around the cycle and at
    the prefix/cycle seam."""
    p = tuple(prefix)
    c = tuple(cycle)
    if not c:
        raise ValueError("lasso cycle must be nonempty")
    for e in p + c:
        if e not in g.edges:
            raise ValueError(f"unknown edge '{e}'")
    chain = p + c
    for a, b in zip(chain, chain[1:]):
        if g.source[b] not in g.range[a]:
            raise ValueError(f"edges '{a}' and '{b}' do not compose")
    if g.source[c[0]] not in g.range[c[-1]]:
        raise ValueError("cycle does not close up")
    return LassoPath(prefix=p, cycle=c)


def unroll(x: LassoPath, n: int) -> Tuple[Edge, ...]:
    """First n edges of the infinite word."""
    if n <= len(x.prefix):
        return x.prefix[:n]
    need = n - len(x.prefix)
    reps = need // len(x.cycle) + 1
    return (x.prefix + x.cycle * reps)[:n]


def _canonical_lasso(prefix: Tuple[Edge, ...], cycle: Tuple[Edge, ...]) -> LassoPath:
    """A LassoPath from fields already in canonical form, set directly."""
    x = object.__new__(LassoPath)
    object.__setattr__(x, "prefix", prefix)
    object.__setattr__(x, "cycle", cycle)
    return x


def shift(x: LassoPath) -> LassoPath:
    """Drop the first edge.  A suffix of a canonical prefix still ends off
    the cycle and a rotation of a primitive cycle is primitive, so the
    result is canonical as built."""
    if x.prefix:
        return _canonical_lasso(x.prefix[1:], x.cycle)
    return _canonical_lasso((), x.cycle[1:] + x.cycle[:1])


def shift_n(x: LassoPath, n: int) -> LassoPath:
    """Drop the first n edges; canonical as built, like shift."""
    if n < 0:
        raise ValueError("shift distance must be nonnegative")
    if n <= len(x.prefix):
        return _canonical_lasso(x.prefix[n:], x.cycle)
    k = (n - len(x.prefix)) % len(x.cycle)
    return _canonical_lasso((), x.cycle[k:] + x.cycle[:k])


def lasso_source(g: Ultragraph, x: LassoPath) -> str:
    return g.source[unroll(x, 1)[0]]


def strip_lasso(g: Ultragraph, x: LassoPath, y: Ultrapath) -> Optional[LassoPath]:
    """The tail t with x = y . t, or None.

    For a length-zero y the lasso must start inside y's set; otherwise the
    unrolled word must begin with y's word and the continuation must start
    inside y's terminal.
    """
    n = y.length
    if unroll(x, n) != y.word:
        return None
    rest = shift_n(x, n)
    if lasso_source(g, rest) not in y.terminal:
        return None
    return rest


def concat_lasso(g: Ultragraph, y: Ultrapath, x: LassoPath) -> Optional[LassoPath]:
    """y . x when the lasso starts inside y's terminal, else None."""
    if lasso_source(g, x) not in y.terminal:
        return None
    if not y.word:
        return x
    return LassoPath(y.word + x.prefix, x.cycle)


def check_lasso_bounds(prefix_bound: int, cycle_bound: int) -> None:
    """Reject lasso bounds that no enumeration accepts."""
    if cycle_bound < 1:
        raise ValueError("cycle_bound must be positive")
    if prefix_bound < 0:
        raise ValueError("prefix_bound must not be negative")


def enumerate_lassos(
    g: Ultragraph,
    prefix_bound: int,
    cycle_bound: int,
    max_count: int = 500_000,
) -> List[LassoPath]:
    """All canonical lassos with prefix and cycle lengths within the bounds.

    Every raw (prefix, cycle) pair inside the bounds canonicalizes to
    something still inside the bounds, so enumerating raw pairs and
    deduplicating is exhaustive.
    """
    require_no_sinks(g, "lasso enumeration")
    check_lasso_bounds(prefix_bound, cycle_bound)
    adj = edge_adjacency(g)

    def paths_up_to(bound: int) -> List[Tuple[Edge, ...]]:
        acc: List[Tuple[Edge, ...]] = []
        layer: List[Tuple[Edge, ...]] = [(e,) for e in g.edges_sorted()]
        for _ in range(bound):
            if not layer:
                break
            acc.extend(layer)
            if len(acc) > max_count:
                raise SizeLimitError(
                    f"lasso enumeration exceeded max_count={max_count}"
                )
            layer = [w + (f,) for w in layer for f in adj[w[-1]]]
        return acc

    cycles = [
        w
        for w in paths_up_to(cycle_bound)
        if g.source[w[0]] in g.range[w[-1]]
    ]
    prefixes: List[Tuple[Edge, ...]] = [()]
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
