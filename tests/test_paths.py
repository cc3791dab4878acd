"""Ultrapaths, concatenation, initial segments, lasso paths."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ultragraph import (
    GraphStructureError,
    LassoPath,
    SizeLimitError,
    Ultragraph,
    Ultrapath,
    comparable,
    concat,
    concat_lasso,
    edge_path,
    enumerate_lassos,
    enumerate_paths,
    generate_lattice,
    initial_segment,
    lasso_source,
    make_lasso,
    make_path,
    path_source,
    shift,
    shift_n,
    strip_lasso,
    unroll,
    vertex_path,
)

from conftest import random_ultragraph


def fz(*names):
    return frozenset(names)


# --- finite ultrapaths ---


def test_make_path_validates(g_branch, branch_lattice):
    p = make_path(g_branch, ("e", "f"), fz("v"), branch_lattice)
    assert p.length == 2 and p.range == fz("v")
    with pytest.raises(ValueError):
        make_path(g_branch, ("f", "e"), fz("v"), branch_lattice)  # wrong terminal
    with pytest.raises(ValueError):
        make_path(g_branch, ("f", "g"), fz("w"), branch_lattice)  # edges do not chain
    with pytest.raises(ValueError):
        make_path(g_branch, ("e",), frozenset(), branch_lattice)
    with pytest.raises(ValueError):
        make_path(g_branch, ("zz",), fz("v"), branch_lattice)


def test_vertex_and_edge_paths(g_branch):
    a = vertex_path(["w", "v"])
    assert a.length == 0 and a.range == fz("v", "w")
    e = edge_path(g_branch, "e")
    assert e.word == ("e",) and e.range == fz("w", "u")
    assert path_source(g_branch, e) == fz("v")
    assert path_source(g_branch, a) == fz("v", "w")


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


def test_concat_associative_on_samples(g_branch, branch_lattice):
    paths = enumerate_paths(g_branch, branch_lattice, 2)
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


def test_initial_segment_agrees_with_concat(g_branch, branch_lattice):
    paths = enumerate_paths(g_branch, branch_lattice, 2)
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


def test_incomparable_siblings(g_branch):
    # same word, disjoint terminals: neither extends the other
    a = Ultrapath(("e",), fz("w"))
    b = Ultrapath(("e",), fz("u"))
    assert not comparable(g_branch, a, b)
    assert comparable(g_branch, a, Ultrapath(("e",), fz("u", "w")))
    assert comparable(g_branch, a, a)


def test_ultrapath_is_an_immutable_value(g_branch, branch_lattice):
    x = Ultrapath(("e",), fz("w"))
    with pytest.raises(AttributeError):
        x.word = ("f",)
    with pytest.raises(AttributeError):
        x.terminal = fz("u")
    # a path handed back, possibly one of the operands, is the same value
    # as one built fresh from copies of its fields
    paths = enumerate_paths(g_branch, branch_lattice, 2)
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


def test_enumerate_paths_counts_and_order(g_branch, branch_lattice):
    p2 = enumerate_paths(g_branch, branch_lattice, 2)
    p3 = enumerate_paths(g_branch, branch_lattice, 3)
    assert len(p2) == 18
    assert len(p3) == 27
    keys = [(p.length, p.word, tuple(sorted(p.terminal))) for p in p3]
    assert keys == sorted(keys)
    with pytest.raises(SizeLimitError):
        enumerate_paths(g_branch, branch_lattice, 3, max_count=10)


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
        lat = generate_lattice(g)
        for max_len in range(4):
            assert enumerate_paths(g, lat, max_len) == _sorted_paths_oracle(g, max_len)
    bouquet = Ultragraph.build(["v"], {f"e{i}": ("v", ("v",)) for i in range(8)})
    got = enumerate_paths(bouquet, generate_lattice(bouquet), 5)
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
    assert unroll(shift(x), n) == unroll(x, n + 1)[1:]
    assert unroll(shift_n(x, n), 5) == unroll(x, n + 5)[n:]
    # shift builds its result without canonicalizing: it must already be canonical
    for y in (shift(x), shift_n(x, n)):
        again = LassoPath(y.prefix, y.cycle)
        assert (y.prefix, y.cycle) == (again.prefix, again.cycle)
    # the signature: rep is the least rotation, and shifting advances the phase
    rep, phase = x.signature
    p = len(x.cycle)
    assert rep == min(x.cycle[i:] + x.cycle[:i] for i in range(p))
    assert shift_n(x, n).signature == (rep, (phase + n) % p)


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
    assert shift(x) == LassoPath((), ("f", "e"))
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
