"""Ultrapaths, concatenation, initial segments, lasso paths."""

import itertools
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import (
    GraphStructureError,
    LassoPath,
    SizeLimitError,
    Ultragraph,
    Ultrapath,
    concat,
    concat_lasso,
    count_lassos,
    count_paths,
    edge_adjacency,
    edge_path,
    enumerate_lassos,
    enumerate_paths,
    generate_lattice,
    initial_segment,
    lasso_source,
    make_lasso,
    make_path,
    shift_n,
    strip_lasso,
    unroll,
    vertex_path,
)
from ultragraph.fixtures import gw, gx, gy
from ultragraph.paths import word_levels

from conftest import lassos_by_dedup, random_ultragraph, ring_ultragraph, word_count_up_to


def fz(*names):
    return frozenset(names)


# --- finite ultrapaths ---


def test_make_path_validates(g_branch):
    p = make_path(g_branch, ("e", "f"), fz("v"))
    assert p.length == 2 and p.terminal == fz("v")
    with pytest.raises(ValueError):
        make_path(g_branch, ("f", "e"), fz("v"))  # wrong terminal
    with pytest.raises(ValueError):
        make_path(g_branch, ("f", "g"), fz("w"))  # edges do not chain
    with pytest.raises(ValueError):
        make_path(g_branch, ("e",), frozenset())
    with pytest.raises(ValueError):
        make_path(g_branch, ("zz",), fz("v"))


def test_vertex_and_edge_paths(g_branch):
    a = vertex_path(["w", "v"])
    assert a.length == 0 and a.terminal == fz("v", "w")
    e = edge_path(g_branch, "e")
    assert e.word == ("e",) and e.terminal == fz("w", "u")


def test_concat_cases(g_branch):
    e = edge_path(g_branch, "e")
    f = edge_path(g_branch, "f")
    assert concat(g_branch, e, f) == Ultrapath(("e", "f"), fz("v"))
    assert concat(g_branch, f, f) is None
    both = concat(g_branch, vertex_path("vw"), vertex_path("wu"))
    assert both == vertex_path("w")
    assert concat(g_branch, vertex_path("v"), vertex_path("w")) is None
    assert concat(g_branch, vertex_path("v"), e) == e
    assert concat(g_branch, vertex_path("w"), e) is None
    assert concat(g_branch, e, vertex_path("w")) == Ultrapath(("e",), fz("w"))
    assert concat(g_branch, f, vertex_path("w")) is None


def test_concat_associative_on_samples(g_branch):
    paths = enumerate_paths(g_branch, 2)
    for x in paths:
        for y in paths:
            xy = concat(g_branch, x, y)
            for z in paths:
                yz = concat(g_branch, y, z)
                lhs = None if xy is None else concat(g_branch, xy, z)
                rhs = None if yz is None else concat(g_branch, x, yz)
                assert lhs == rhs


def test_initial_segment_examples(g_branch):
    ef = Ultrapath(("e", "f"), fz("v"))
    e_w = Ultrapath(("e",), fz("w"))
    e_full = Ultrapath(("e",), fz("u", "w"))
    # remainder carries the longer path's terminal
    assert initial_segment(g_branch, ef, e_full) == Ultrapath(("f",), fz("v"))
    assert initial_segment(g_branch, ef, e_w) == Ultrapath(("f",), fz("v"))
    # equal words: a length-zero remainder, if terminals nest
    assert initial_segment(g_branch, e_w, e_full) == vertex_path("w")
    assert initial_segment(g_branch, e_full, e_w) is None
    # length-zero cases
    assert initial_segment(g_branch, ef, vertex_path("v")) == ef
    assert initial_segment(g_branch, ef, vertex_path("w")) is None
    assert initial_segment(g_branch, vertex_path("w"), vertex_path("wu")) == vertex_path("w")


def test_initial_segment_agrees_with_concat(g_branch):
    paths = enumerate_paths(g_branch, 2)
    for x in paths:
        for y in paths:
            rem = initial_segment(g_branch, x, y)
            if rem is not None:
                assert concat(g_branch, y, rem) == x
            else:
                assert all(
                    concat(g_branch, y, r) != x
                    for r in paths
                    if r.length <= x.length
                )


def test_ultrapath_is_an_immutable_value(g_branch):
    x = Ultrapath(("e",), fz("w"))
    with pytest.raises(AttributeError):
        x.word = ("f",)
    with pytest.raises(AttributeError):
        x.terminal = fz("u")
    # a path handed back, possibly one of the operands, is the same value
    # as one built fresh from copies of its fields
    paths = enumerate_paths(g_branch, 2)
    handed = 0
    for a in paths:
        for b in paths:
            for got in (initial_segment(g_branch, a, b), concat(g_branch, a, b)):
                if got is None:
                    continue
                handed += 1
                fresh = Ultrapath(tuple(list(got.word)), frozenset(set(got.terminal)))
                assert got == fresh and hash(got) == hash(fresh)
    assert handed > 0


def test_enumerate_paths_counts_and_order(g_branch):
    p2 = enumerate_paths(g_branch, 2)
    p3 = enumerate_paths(g_branch, 3)
    assert len(p2) == 18
    assert len(p3) == 27
    keys = [(p.length, p.word, tuple(sorted(p.terminal))) for p in p3]
    assert keys == sorted(keys)
    with pytest.raises(SizeLimitError):
        enumerate_paths(g_branch, 3, max_count=10)


def test_enumerate_paths_max_count_boundary(g_branch):
    # 27 paths: the limit is passed only by the 27th, not reached
    assert enumerate_paths(g_branch, 3, max_count=27) == enumerate_paths(g_branch, 3)
    with pytest.raises(SizeLimitError, match="max_count=26"):
        enumerate_paths(g_branch, 3, max_count=26)


def test_enumerate_paths_counts_terminals_per_word():
    # z ends outside the declared vertices, so no word ending in z has a
    # terminal: 1 + n paths up to length n, though 2^n + ... words
    g = Ultragraph.build(["v"], {"e": ("v", ("v",)), "z": ("v", ("q",))})
    assert len(enumerate_paths(g, 3, max_count=4)) == 4
    with pytest.raises(SizeLimitError, match="max_count=3"):
        enumerate_paths(g, 3, max_count=3)
    # with no edges there is no level to check: the vertex sets stand
    bare = Ultragraph.build(["a", "b", "c"], {})
    assert len(enumerate_paths(bare, 2, max_count=1)) == 7


def _wide_graph(n):
    """2n edges on two vertices: n from b to {a} and n from a to {a b}."""
    edges = {f"b{i}": ("b", ("a",)) for i in range(n)}
    edges.update({f"a{i}": ("a", ("a", "b")) for i in range(n)})
    g = Ultragraph.build(["a", "b"], edges)
    edge_adjacency(g)
    generate_lattice(g)
    return g


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
    except SizeLimitError:
        pass
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def test_no_level_is_built_past_the_budget():
    """400 edges: the 120,000 words of length 2 carry 280,000 paths, past
    the default budget, and only cycles of length 1 are asked for; building
    either level of words takes several MB.  GY's one loop has one word of
    each length, so keeping every closed word up to 3,000 edges would take
    tens of MB for its one lasso."""
    g = _wide_graph(200)
    with pytest.raises(SizeLimitError, match="path enumeration"):
        enumerate_paths(g, 2)
    assert len(enumerate_lassos(g, 0, 1)) == 200
    assert _peak_bytes(lambda: enumerate_paths(g, 2)) < 1_000_000
    assert _peak_bytes(lambda: enumerate_lassos(g, 0, 1)) < 1_000_000
    assert [str(x) for x in enumerate_lassos(gy(), 0, 3000)] == ["(e)*"]
    assert _peak_bytes(lambda: enumerate_lassos(gy(), 0, 3000)) < 1_000_000


def _sorted_paths_oracle(g, max_len):
    """Every ultrapath up to max_len straight from the definition: composable
    words over all edge tuples, each with every nonempty subset of its last
    range (the lattice is the power set), sorted by length, word, terminal."""
    out = []
    for n in range(max_len + 1):
        for word in itertools.product(sorted(g.edges), repeat=n):
            if any(g.source[b] not in g.range[a] for a, b in zip(word, word[1:])):
                continue
            bound = sorted(g.range[word[-1]] if word else g.vertices)
            for k in range(1, len(bound) + 1):
                for t in itertools.combinations(bound, k):
                    out.append(Ultrapath(word, frozenset(t)))
    out.sort(key=lambda p: (p.length, p.word, tuple(sorted(p.terminal))))
    return out


def test_enumerate_paths_matches_sorted_oracle():
    rng = random.Random(83)
    graphs = [random_ultragraph(rng, max_edges=12) for _ in range(40)]
    for g in graphs:
        for max_len in range(4):
            assert enumerate_paths(g, max_len) == _sorted_paths_oracle(g, max_len)
    bouquet = Ultragraph.build(["v"], {f"e{i}": ("v", ("v",)) for i in range(8)})
    got = enumerate_paths(bouquet, 5)
    assert len(got) == 1 + 8 + 8**2 + 8**3 + 8**4 + 8**5
    assert got == _sorted_paths_oracle(bouquet, 5)


# --- lasso paths ---


def test_lasso_canonical_form():
    a = LassoPath(("e", "f"), ("e", "f"))
    assert a.prefix == () and a.cycle == ("e", "f")
    b = LassoPath(("g",), ("f", "e", "f", "e"))
    assert b.cycle == ("f", "e")
    assert LassoPath((), ("e", "f")) == a
    assert str(a) == "(ef)*"
    with pytest.raises(ValueError):
        LassoPath(("e",), ())
    # the named-tuple helpers canonicalize as the constructor does
    c = LassoPath((), ("a",))._replace(prefix=("a",))
    assert c == LassoPath((), ("a",)) and str(c) == "(a)*"
    assert LassoPath._make((("g", "e"), ("e",))) == LassoPath(("g",), ("e",))
    with pytest.raises(ValueError):
        c._replace(cycle=())


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(st.sampled_from("ab"), max_size=4).map(tuple),
    cycle=st.lists(st.sampled_from("ab"), min_size=1, max_size=4).map(tuple),
    reps=st.integers(min_value=1, max_value=3),
)
def test_lasso_equality_is_unrolled_equality(prefix, cycle, reps):
    x = LassoPath(prefix, cycle)
    # pushing one period into the prefix or repeating the cycle changes nothing
    assert LassoPath(prefix + cycle, cycle) == x
    assert LassoPath(prefix, cycle * reps) == x
    horizon = len(prefix) + 3 * len(cycle)
    assert unroll(LassoPath(prefix + cycle, cycle * reps), horizon) == unroll(x, horizon)
    assert LassoPath(prefix + cycle, cycle * reps).signature == x.signature


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(st.sampled_from("abc"), max_size=4).map(tuple),
    cycle=st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple),
    n=st.integers(min_value=0, max_value=12),
)
def test_shift_matches_unroll(prefix, cycle, n):
    x = LassoPath(prefix, cycle)
    assert unroll(shift_n(x, 1), n) == unroll(x, n + 1)[1:]
    assert unroll(shift_n(x, n), 5) == unroll(x, n + 5)[n:]
    # shift_n builds its result without canonicalizing: it must already be canonical
    for y in (shift_n(x, 1), shift_n(x, n)):
        again = LassoPath(y.prefix, y.cycle)
        assert (y.prefix, y.cycle) == (again.prefix, again.cycle)
    # the signature: rep is the least rotation, and shifting advances the phase
    rep, phase = x.signature
    p = len(x.cycle)
    assert rep == min(x.cycle[i:] + x.cycle[:i] for i in range(p))
    assert shift_n(x, n).signature == (rep, (phase + n) % p)


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(st.sampled_from("ab"), max_size=4).map(tuple),
    cycle=st.lists(st.sampled_from("ab"), min_size=1, max_size=4).map(tuple),
)
def test_lasso_is_a_named_tuple_of_its_canonical_fields(prefix, cycle):
    x = LassoPath(prefix, cycle)
    # the hash of the frozen dataclass it replaced, so set orders stay put
    assert hash(x) == hash((x.prefix, x.cycle))
    assert x == (x.prefix, x.cycle)
    # canonical: the prefix ends off the cycle, and the cycle is no proper power
    c = x.cycle
    assert not x.prefix or x.prefix[-1] != c[-1]
    assert all(c != c[:d] * (len(c) // d) for d in range(1, len(c)) if len(c) % d == 0)
    for y in (
        LassoPath(prefix=prefix, cycle=cycle),
        LassoPath(prefix, cycle=cycle),
        LassoPath._make((prefix, cycle)),
        LassoPath((), ("c",))._replace(prefix=prefix, cycle=cycle),
        LassoPath(prefix, ("c",))._replace(cycle=cycle),
    ):
        assert (y.prefix, y.cycle) == (x.prefix, x.cycle)
    for field in ("prefix", "cycle"):
        with pytest.raises(AttributeError):
            setattr(x, field, ())


@settings(max_examples=200, deadline=None)
@given(
    prefix=st.lists(st.sampled_from("abc"), max_size=4).map(tuple),
    cycle=st.lists(st.sampled_from("abc"), min_size=1, max_size=4).map(tuple),
    n=st.integers(min_value=0, max_value=12),
)
def test_shifted_lasso_is_the_canonical_lasso(prefix, cycle, n):
    x = LassoPath(prefix, cycle)
    # the shifted infinite word, read as a long raw prefix and one period
    # after it, rebuilt through the canonicalizing constructor
    m, p = len(x.prefix) + len(x.cycle), len(x.cycle)
    word = unroll(x, n + m + p)[n:]
    fresh = LassoPath(word[:m], word[m:])
    y = shift_n(x, n)
    assert y == fresh
    assert hash(y) == hash(fresh)
    assert y.signature == fresh.signature


def test_make_lasso_validates(g_branch):
    x = make_lasso(g_branch, ("e",), ("f", "e"))
    assert x == LassoPath((), ("e", "f"))
    with pytest.raises(ValueError):
        make_lasso(g_branch, (), ("e",))  # does not close up
    with pytest.raises(ValueError):
        make_lasso(g_branch, ("e",), ("e", "f"))  # seam does not chain
    with pytest.raises(ValueError):
        make_lasso(g_branch, (), ("e", "zz"))
    with pytest.raises(ValueError):
        make_lasso(g_branch, ("e",), ())


def test_shift_and_source(g_branch):
    x = make_lasso(g_branch, (), ("e", "f"))
    assert lasso_source(g_branch, x) == "v"
    assert shift_n(x, 1) == LassoPath((), ("f", "e"))
    assert shift_n(x, 4) == x
    with pytest.raises(ValueError):
        shift_n(x, -1)


def test_strip_and_concat_lasso_are_inverse(g_branch):
    x = make_lasso(g_branch, ("g",), ("f", "e"))
    for m in range(5):
        word = unroll(x, m)
        tail = shift_n(x, m)
        start = lasso_source(g_branch, tail)
        terminal = fz(start) if m else fz(start, "u")
        y = Ultrapath(word, terminal)
        assert strip_lasso(g_branch, x, y) == tail
        assert concat_lasso(g_branch, y, tail) == x
    assert strip_lasso(g_branch, x, Ultrapath(("f",), fz("v"))) is None
    assert strip_lasso(g_branch, x, Ultrapath(("g",), fz("v"))) is None
    assert concat_lasso(g_branch, vertex_path("v"), x) is None


def test_enumerate_lassos_branch(g_branch):
    got = {str(x) for x in enumerate_lassos(g_branch, 1, 3)}
    assert got == {"(ef)*", "(fe)*", "(egf)*", "(feg)*", "(gfe)*", "g(fe)*", "e(feg)*"}


def test_enumerate_lassos_other_fixtures(g_loop, g_split):
    assert [str(x) for x in enumerate_lassos(g_loop, 2, 2)] == ["(e)*"]
    assert {str(x) for x in enumerate_lassos(g_split, 1, 1)} == {"(p)*", "(q)*"}


def test_enumerate_lassos_rejects_out_of_range_bounds(g_branch):
    assert {str(x) for x in enumerate_lassos(g_branch, 0, 2)} == {"(ef)*", "(fe)*"}
    with pytest.raises(ValueError, match="prefix_bound"):
        enumerate_lassos(g_branch, -1, 2)
    with pytest.raises(ValueError, match="cycle_bound"):
        enumerate_lassos(g_branch, 0, 0)


def test_enumerate_lassos_max_count_boundary(g_branch):
    # 28 cycle words of length up to 5 outnumber the 3 prefix words and the
    # 14 lassos: the limit is passed only by the 28th word, not reached
    assert enumerate_lassos(g_branch, 1, 5, max_count=28) == enumerate_lassos(
        g_branch, 1, 5
    )
    with pytest.raises(SizeLimitError, match="lasso enumeration exceeded max_count=27"):
        enumerate_lassos(g_branch, 1, 5, max_count=27)


def test_enumerate_lassos_needs_sink_free():
    g = random_ultragraph(random.Random(5), sink_free=False)
    while not any(
        v not in {g.source[e] for e in g.edges} for v in g.vertices
    ):
        g = random_ultragraph(random.Random(6), sink_free=False)
    with pytest.raises(GraphStructureError):
        enumerate_lassos(g, 1, 1)


def test_enumerate_lassos_closed_under_canonical_bounds(g_branch):
    # canonicalization never grows a representative out of its bounds
    for x in enumerate_lassos(g_branch, 2, 3):
        assert len(x.prefix) <= 2 and len(x.cycle) <= 3


# --- counts and samples without the full enumeration ---


def _outcome(fn):
    """fn's result, or the type and text of the error it raises."""
    try:
        return fn()
    except (SizeLimitError, GraphStructureError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def _counted(listed):
    """An enumeration outcome as count_paths and count_lassos report it."""
    return listed if isinstance(listed, tuple) else (len(listed), listed[:12])


def _count_graphs():
    graphs = [gx(), gy(), gw()]
    graphs += [ring_ultragraph(n, seed) for n in range(1, 9) for seed in range(4)]
    return graphs


def _paths_agree(g, max_len):
    full = enumerate_paths(g, max_len)
    assert count_paths(g, max_len) == (len(full), full[:12])
    n = len(full)
    assert count_paths(g, max_len, max_count=n) == (n, full[:12])
    below = _outcome(lambda: count_paths(g, max_len, max_count=n - 1))
    assert below == _counted(_outcome(lambda: enumerate_paths(g, max_len, max_count=n - 1)))
    # one past the budget raises at a nonempty level; with no level to
    # check the vertex sets stand
    if max_len >= 1 and g.edges:
        assert below == ("SizeLimitError", f"path enumeration exceeded max_count={n - 1}")
    else:
        assert below == (n, full[:12])


def _words_up_to(g, bound):
    return word_count_up_to(g, bound) if bound >= 1 else 0


def _lassos_agree(g, prefix_bound, cycle_bound):
    full = lassos_by_dedup(g, prefix_bound, cycle_bound)
    assert enumerate_lassos(g, prefix_bound, cycle_bound) == full
    assert count_lassos(g, prefix_bound, cycle_bound) == (len(full), full[:12])
    # the budget binds on the words of either bound and on the lassos
    need = max(_words_up_to(g, cycle_bound), _words_up_to(g, prefix_bound), len(full))
    for m in {len(full), len(full) - 1, need, need - 1}:
        want = _outcome(lambda: lassos_by_dedup(g, prefix_bound, cycle_bound, max_count=m))
        listed = _outcome(lambda: enumerate_lassos(g, prefix_bound, cycle_bound, max_count=m))
        assert listed == want, (m, listed, want)
        got = _outcome(lambda: count_lassos(g, prefix_bound, cycle_bound, max_count=m))
        assert got == _counted(want), (m, got, want)
        if m < need:
            assert got == ("SizeLimitError", f"lasso enumeration exceeded max_count={m}")
        else:
            assert got == (len(full), full[:12])


def test_count_paths_matches_enumeration():
    for g in _count_graphs():
        for max_len in range(5):
            _paths_agree(g, max_len)


def test_count_paths_matches_sorted_oracle():
    rng = random.Random(89)
    for _ in range(30):
        g = random_ultragraph(rng, max_edges=10)
        for max_len in range(4):
            every = _sorted_paths_oracle(g, max_len)
            assert count_paths(g, max_len) == (len(every), every[:12])


def test_count_lassos_matches_enumeration():
    for g in _count_graphs():
        for prefix_bound in range(3):
            for cycle_bound in range(1, 4):
                _lassos_agree(g, prefix_bound, cycle_bound)


@st.composite
def _loose_graphs(draw):
    """1-4 vertices and 0-6 edges, ranges drawn over the vertices and an
    undeclared vertex zz; edgeless graphs and sinks included."""
    vs = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    edges = {}
    for i in range(draw(st.integers(0, 6))):
        src = draw(st.sampled_from(vs))
        rng = draw(st.sets(st.sampled_from(vs + ["zz"]), min_size=1, max_size=3))
        edges[f"e{i}"] = (src, tuple(sorted(rng)))
    return Ultragraph.build(vs, edges)


@settings(max_examples=150, deadline=None)
@given(_loose_graphs())
def test_counts_match_enumeration_on_drawn_graphs(g):
    for max_len in range(5):
        _paths_agree(g, max_len)
    for prefix_bound in range(3):
        for cycle_bound in range(1, 4):
            got = _outcome(lambda: count_lassos(g, prefix_bound, cycle_bound))
            want = _outcome(lambda: lassos_by_dedup(g, prefix_bound, cycle_bound))
            assert _outcome(lambda: enumerate_lassos(g, prefix_bound, cycle_bound)) == want
            assert got == _counted(want)
            if not isinstance(want, tuple):
                _lassos_agree(g, prefix_bound, cycle_bound)


def test_counts_reject_what_the_enumerations_reject(g_branch):
    assert _outcome(lambda: count_paths(g_branch, -1)) == _outcome(
        lambda: enumerate_paths(g_branch, -1)
    ) == ("ValueError", "max_len must be nonnegative")
    for bounds in ((-1, 2), (0, 0)):
        assert _outcome(lambda: count_lassos(g_branch, *bounds)) == _outcome(
            lambda: enumerate_lassos(g_branch, *bounds)
        ) == _outcome(lambda: lassos_by_dedup(g_branch, *bounds))
    sink = Ultragraph.build(["a", "b"], {"e": ("a", ("b",))})
    with pytest.raises(GraphStructureError):
        count_lassos(sink, 1, 1)


def test_word_levels_count_words_by_last_edge(g_branch):
    adj = edge_adjacency(g_branch)
    words = [(e,) for e in sorted(g_branch.edges)]
    for level in itertools.islice(word_levels(g_branch), 6):
        assert level == {e: n for e, n in Counter(w[-1] for w in words).items()}
        words = [w + (f,) for w in words for f in adj[w[-1]]]
    assert list(word_levels(Ultragraph.build(["a", "b"], {"e": ("a", ("b",))}))) == [{"e": 1}]


def test_counts_build_only_their_samples():
    """A bouquet of 8 loops has 37,449 ultrapaths up to length 5 and tens
    of thousands of lassos within (2, 3); the counts build 12 of each."""
    g = Ultragraph.build(["v"], {f"e{i}": ("v", ("v",)) for i in range(8)})
    assert count_paths(g, 5)[0] == 37_449
    assert _peak_bytes(lambda: count_paths(g, 5)) < 200_000
    assert _peak_bytes(lambda: enumerate_paths(g, 5)) > 2_000_000
    count, sample = count_lassos(g, 2, 3)
    assert count == len(lassos_by_dedup(g, 2, 3)) > 10_000
    assert [str(x) for x in sample[:3]] == ["(e0)*", "(e1)*", "(e2)*"]
    assert _peak_bytes(lambda: count_lassos(g, 2, 3)) < 200_000
