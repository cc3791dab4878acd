"""Ultrapaths and eventually periodic infinite paths.

An ultrapath is either a nonempty lattice set (length zero) or an edge word
with a nonempty terminal set inside the last edge's range.  Infinite paths
at desk scale are lasso paths: a finite prefix followed by a repeating
cycle, kept in a canonical form so equality of values is equality of the
infinite edge words they unroll to.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from .core import (
    Edge,
    SizeLimitError,
    Ultragraph,
    VSet,
    edge_adjacency,
    format_set,
    generate_lattice,
    require_no_sinks,
)

# how many ultrapaths and lassos count_paths and count_lassos build
SAMPLE = 12


class Ultrapath(NamedTuple):
    """Edge word and terminal set, an immutable named tuple: it compares
    and hashes by its fields."""

    word: Tuple[Edge, ...]
    terminal: VSet

    @property
    def length(self) -> int:
        return len(self.word)

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
    g: Ultragraph, word: Iterable[Edge], terminal: Iterable[str]
) -> Ultrapath:
    """Validated construction: consecutive edges must be composable and the
    terminal must be a nonempty subset of the last range (of the vertex set
    for length zero)."""
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
    return Ultrapath(word=w, terminal=t)


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


def word_levels(g: Ultragraph) -> Iterator[Dict[Edge, int]]:
    """How many edge words of each length end in each edge: for n = 1, 2,
    ... one {last edge: count} dict of the n-edge words, zero counts left
    out.

    The successors of a word hang on its last edge alone, so each level
    is the one before pushed once along the edge adjacency (the
    transfer-matrix count).  It stops after the last nonempty level and
    runs on forever on a graph with a cycle: callers bound it."""
    adj = edge_adjacency(g)
    level = dict.fromkeys(g.edges_sorted(), 1)
    while level:
        yield level
        nxt: Dict[Edge, int] = {}
        for e, n in level.items():
            for f in adj[e]:
                nxt[f] = nxt.get(f, 0) + n
        level = nxt


def _word_lists(g: Ultragraph) -> Iterator[List[Tuple[Edge, ...]]]:
    """The edge words of length 1, 2, ..., one sorted list per level: each
    level extends the one before, in order, by the sorted successors of
    each word's last edge.  A level is built only when it is asked for."""
    adj = edge_adjacency(g)
    words = [(e,) for e in g.edges_sorted()]
    while words:
        yield words
        words = [w + (f,) for w in words for f in adj[w[-1]]]


def _counted_paths(
    g: Ultragraph, max_len: int, max_count: int
) -> Tuple[int, Iterator[Ultrapath]]:
    """The number of ultrapaths up to max_len, and an iterator that builds
    them one at a time, ordered by length, then edge word, then terminal.

    The count runs level by level on the words by last edge: the lattice
    is the power set, so a word ending in e has 2^|r(e) n V| - 1
    terminals.  A level that takes it past max_count raises
    SizeLimitError before any path is built.  The iterator lists the
    lattice sets in set_key order, and the terminals inside one range
    once per distinct range."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    nonempty = generate_lattice(g).nonempty()
    count = len(nonempty)
    ends = {e: 2 ** len(g.range[e] & g.vertices) - 1 for e in g.edges}
    for level in itertools.islice(word_levels(g), max_len):
        count += sum(n * ends[e] for e, n in level.items())
        if count > max_count:
            raise SizeLimitError(f"path enumeration exceeded max_count={max_count}")

    def in_order() -> Iterator[Ultrapath]:
        for A in nonempty:
            yield Ultrapath((), A)
        inside: Dict[VSet, List[VSet]] = {}
        for words in itertools.islice(_word_lists(g), max_len):
            for w in words:
                r = g.range[w[-1]]
                if r not in inside:
                    inside[r] = [A for A in nonempty if A <= r]
                for A in inside[r]:
                    yield Ultrapath(w, A)

    return count, in_order()


def count_paths(
    g: Ultragraph, max_len: int, max_count: int = 200_000
) -> Tuple[int, List[Ultrapath]]:
    """len(enumerate_paths(g, max_len, max_count)) and its first SAMPLE
    paths, with the same errors at the same inputs, counted without
    building the rest."""
    count, paths = _counted_paths(g, max_len, max_count)
    return count, list(itertools.islice(paths, SAMPLE))


def enumerate_paths(
    g: Ultragraph, max_len: int, max_count: int = 200_000
) -> List[Ultrapath]:
    """All ultrapaths of length up to max_len, terminals ranging over the
    nonempty lattice sets inside the relevant range.  Ordered by length,
    then edge word, then terminal.

    The paths are counted before any is built, and past max_count the
    count raises SizeLimitError."""
    return list(_counted_paths(g, max_len, max_count)[1])


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


class _LassoFields(NamedTuple):
    prefix: Tuple[Edge, ...]
    cycle: Tuple[Edge, ...]


class LassoPath(_LassoFields):
    """Eventually periodic infinite path prefix . cycle^infinity, an
    immutable named tuple (prefix, cycle): it compares and hashes by its
    fields.

    Instances normalize on construction: the cycle is never a proper power
    and the prefix is as short as possible, so two lassos are equal exactly
    when they unroll to the same infinite edge word.  The subclass keeps an
    instance dict, which holds the cached signature.
    """

    def __new__(cls, prefix: Iterable[Edge], cycle: Iterable[Edge]) -> LassoPath:
        return tuple.__new__(cls, _canonical(tuple(prefix), tuple(cycle)))

    @classmethod
    def _make(cls, iterable: Iterable) -> LassoPath:
        """The named-tuple helper, through the canonicalizing constructor;
        the inherited _replace builds its result with _make."""
        return cls(*iterable)

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
    return tuple.__new__(LassoPath, (prefix, cycle))


def shift_n(x: LassoPath, n: int) -> LassoPath:
    """Drop the first n edges.  A suffix of a canonical prefix still ends
    off the cycle and a rotation of a primitive cycle is primitive, so the
    result is canonical as built."""
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


def _lasso_words(g: Ultragraph, bound: int, max_count: int) -> Dict[Edge, int]:
    """The edge words of length 1 to bound, counted by last edge level by
    level before any word is built; past max_count words in all raise
    SizeLimitError."""
    ending: Dict[Edge, int] = {}
    total = 0
    for level in itertools.islice(word_levels(g), bound):
        total += sum(level.values())
        if total > max_count:
            raise SizeLimitError(f"lasso enumeration exceeded max_count={max_count}")
        for e, n in level.items():
            ending[e] = ending.get(e, 0) + n
    return ending


def _primitive_cycles(g: Ultragraph, cycle_bound: int) -> List[Tuple[Edge, ...]]:
    """The primitive closed edge words of length 1 to cycle_bound, ordered
    by length, then word."""
    return [
        w
        for words in itertools.islice(_word_lists(g), cycle_bound)
        for w in words
        if g.source[w[0]] in g.range[w[-1]] and len(_primitive(w)) == len(w)
    ]


def _lassos_in_order(
    g: Ultragraph, prefix_bound: int, cycles: List[Tuple[Edge, ...]]
) -> Iterator[LassoPath]:
    """The canonical lassos on cycles, ordered by length, then word, with
    a prefix within prefix_bound, in enumerate_lassos' order: by prefix
    length, cycle length, prefix, cycle.  Each is built when it is asked
    for, from levels of prefixes built only as far as that."""
    for c in cycles:
        yield _canonical_lasso((), c)
    by_length = [list(found) for _, found in itertools.groupby(cycles, len)]
    for prefixes in itertools.islice(_word_lists(g), prefix_bound):
        for found in by_length:
            for p in prefixes:
                r, last = g.range[p[-1]], p[-1]
                for c in found:
                    if g.source[c[0]] in r and c[-1] != last:
                        yield _canonical_lasso(p, c)


def _counted_lassos(
    g: Ultragraph, prefix_bound: int, cycle_bound: int, max_count: int
) -> Tuple[int, Iterator[LassoPath]]:
    """The number of canonical lassos within the bounds, and an iterator
    that builds them one at a time, ordered by prefix length, cycle
    length, prefix, cycle.

    A canonical lasso is a primitive closed word c with a prefix p that is
    empty or has s(c_0) in r(p[-1]) and p[-1] != c[-1].  So c counts once
    for its empty prefix, plus the prefixes ending in an edge whose range
    holds its start, less those ending in its own last edge; the prefixes
    are counted by last edge.  Past max_count words up to either bound, or
    max_count lassos, it raises SizeLimitError before any prefixed lasso
    is built."""
    require_no_sinks(g, "lasso enumeration")
    check_lasso_bounds(prefix_bound, cycle_bound)
    _lasso_words(g, cycle_bound, max_count)
    ending = _lasso_words(g, prefix_bound, max_count)
    into = {v: sum(n for e, n in ending.items() if v in g.range[e]) for v in g.vertices}
    cycles = _primitive_cycles(g, cycle_bound)
    count = len(cycles) + sum(into[g.source[c[0]]] - ending.get(c[-1], 0) for c in cycles)
    if count > max_count:
        raise SizeLimitError(f"lasso enumeration exceeded max_count={max_count}")
    return count, _lassos_in_order(g, prefix_bound, cycles)


def count_lassos(
    g: Ultragraph,
    prefix_bound: int,
    cycle_bound: int,
    max_count: int = 500_000,
) -> Tuple[int, List[LassoPath]]:
    """len(enumerate_lassos(g, prefix_bound, cycle_bound, max_count)) and
    its first SAMPLE lassos, with the same errors at the same inputs,
    counted without building the rest."""
    count, lassos = _counted_lassos(g, prefix_bound, cycle_bound, max_count)
    return count, list(itertools.islice(lassos, min(SAMPLE, count)))


def enumerate_lassos(
    g: Ultragraph,
    prefix_bound: int,
    cycle_bound: int,
    max_count: int = 500_000,
) -> List[LassoPath]:
    """All canonical lassos with prefix and cycle lengths within the bounds,
    ordered by prefix length, cycle length, prefix, cycle.

    The lassos are counted before any prefixed one is built, and past
    max_count the count raises SizeLimitError.  The edge words are built
    one level at a time, and only the primitive closed ones are kept."""
    return list(_counted_lassos(g, prefix_bound, cycle_bound, max_count)[1])
