"""Graph model, lattice generation, reachability."""

import random
from functools import cached_property

import pytest

import ultragraph.core as core
from ultragraph import (
    GraphStructureError,
    SizeLimitError,
    Ultragraph,
    edge_adjacency,
    emitted_edges,
    generate_lattice,
    reachable_from,
    reaches,
    gw,
    gx,
    gy,
    require_no_sinks,
    sinks,
    validate,
    verify_ck,
)

from ultragraph.core import edge_components

from conftest import (
    additive_indicator,
    brute_adjacency,
    closure_lattice,
    loosely_declared_graph,
    powerset_lattice,
    random_ultragraph,
    sinks_by_sources,
    warshall_reach,
)


def fz(*names):
    return frozenset(names)


def test_validate_accepts_fixture(g_branch):
    rep = validate(g_branch)
    assert rep.ok
    assert rep.sinks == ()
    assert rep.warnings == ()


def test_validate_reports_sinks_as_warnings():
    g = Ultragraph.build(["a", "b"], {"e": ("a", ("b",))})
    rep = validate(g)
    assert rep.ok
    assert rep.sinks == ("b",)
    assert any("sink" in w for w in rep.warnings)
    with pytest.raises(GraphStructureError):
        require_no_sinks(g, "testing")


def test_sinks_match_validate_and_the_source_oracle():
    rng = random.Random(97)
    graphs = [gx(), gy(), gw()]
    graphs += [loosely_declared_graph(rng) for _ in range(300)]
    graphs += [random_ultragraph(rng) for _ in range(100)]
    for g in graphs:
        assert sinks(g) == validate(g).sinks == sinks_by_sources(g)
    # a emits, b is a sink, and the edge from the undeclared zz makes no
    # declared vertex emit, though it brings the sources to |V|
    g = Ultragraph.build(["a", "b"], {"e": ("a", ("b",)), "f": ("zz", ("a",))})
    assert sinks(g) == ("b",)
    with pytest.raises(GraphStructureError, match="sinks: b"):
        require_no_sinks(g, "testing")


def test_validate_flags_structural_errors():
    g = Ultragraph(
        vertices=fz("a"),
        edges=fz("e", "f", "h"),
        source={"e": "zz", "f": "a", "h": "a"},
        range={"e": fz("a"), "f": frozenset(), "h": fz("qq")},
    )
    rep = validate(g)
    assert not rep.ok
    text = " ".join(rep.errors)
    assert "source 'zz'" in text
    assert "empty range" in text
    assert "range vertex 'qq'" in text


def test_edge_adjacency_branch(g_branch):
    adj = edge_adjacency(g_branch)
    assert adj == {"e": ("f", "g"), "f": ("e",), "g": ("f",)}


def test_edge_adjacency_is_built_once_and_skips_undeclared_sources():
    # the graph of test_validate_flags_structural_errors
    g = Ultragraph(
        vertices=fz("a"),
        edges=fz("e", "f", "h"),
        source={"e": "zz", "f": "a", "h": "a"},
        range={"e": fz("a"), "f": frozenset(), "h": fz("qq")},
    )
    assert edge_adjacency(g) == brute_adjacency(g) == {"e": ("f", "h"), "f": (), "h": ()}
    assert edge_adjacency(g) is edge_adjacency(g)
    # f's source lies in range(e) but is undeclared, so f follows no edge
    g = Ultragraph(
        vertices=fz("a"),
        edges=fz("e", "f"),
        source={"e": "a", "f": "zz"},
        range={"e": fz("a", "zz"), "f": fz("a")},
    )
    assert edge_adjacency(g) == brute_adjacency(g) == {"e": ("e",), "f": ("e",)}


def test_adjacency_budget_counts_every_entry_before_building(monkeypatch):
    """The adjacency is refused one entry past its budget and built at it:
    the up-front count is the brute-force entry count, undeclared sources
    and range vertices included."""
    rng = random.Random(67)
    graphs = [
        Ultragraph(
            vertices=fz("a"),
            edges=fz("e", "f"),
            source={"e": "a", "f": "zz"},
            range={"e": fz("a", "zz"), "f": fz("a")},
        )
    ]
    graphs += [random_ultragraph(rng) for _ in range(20)]
    assert core.MAX_ADJACENCY == 2_000_000
    for g in graphs:
        want = brute_adjacency(g)
        entries = sum(map(len, want.values()))
        monkeypatch.setattr(core, "MAX_ADJACENCY", entries - 1)
        with pytest.raises(SizeLimitError, match=f"edge adjacency of {entries} entries"):
            edge_adjacency(g)
        monkeypatch.setattr(core, "MAX_ADJACENCY", entries)
        assert edge_adjacency(g) == want


def test_sorted_edges_and_vertices_are_derived_once():
    g = Ultragraph.build(["w", "v", "u"], {"g": ("u", ("w",)), "e": ("v", ("v", "w"))})
    assert g.edges_sorted() == ("e", "g")
    assert g.vertices_sorted() == ("u", "v", "w")
    assert g.edges_sorted() is g.edges_sorted()
    assert g.vertices_sorted() is g.vertices_sorted()


def test_index_matches_independent_oracles():
    rng = random.Random(59)
    graphs = [random_ultragraph(rng) for _ in range(30)]
    assert sum(1 for g in graphs if validate(g).sinks) >= 5
    for g in graphs:
        assert edge_adjacency(g) == brute_adjacency(g)
        closure = warshall_reach(g)
        for w in sorted(g.vertices):
            assert reachable_from(g, w) == closure[w]
            for v in sorted(g.vertices):
                assert reaches(g, w, v) == (v in closure[w])


def test_edge_components_match_mutual_reachability(g_branch, g_loop, g_split):
    rng = random.Random(61)
    graphs = [g_branch, g_loop, g_split] + [random_ultragraph(rng) for _ in range(40)]
    for g in graphs:
        adj = brute_adjacency(g)
        # Warshall's closure on edges, each edge reaching itself
        reach = {e: {e, *adj[e]} for e in g.edges}
        for k in sorted(g.edges):
            for e in sorted(g.edges):
                if k in reach[e]:
                    reach[e] |= reach[k]
        comps = edge_components(g)
        assert comps is edge_components(g)
        for e in g.edges:
            assert comps[e] == tuple(sorted(f for f in reach[e] if e in reach[f]))
            assert all(comps[f] is comps[e] for f in comps[e])
    assert edge_components(g_branch) == dict.fromkeys("efg", ("e", "f", "g"))
    assert edge_components(g_split) == {"p": ("p",), "q": ("q",)}


def test_edge_components_of_a_long_chain_and_a_long_cycle():
    # far past the recursion limit: the pass keeps its own stack
    n = 5000
    vs = [f"v{i}" for i in range(n + 1)]
    chain = {f"e{i}": (vs[i], (vs[i + 1],)) for i in range(n)}
    comps = edge_components(Ultragraph.build(vs, chain))
    assert all(comps[e] == (e,) for e in chain)
    cycle = {f"e{i}": (vs[i], (vs[(i + 1) % n],)) for i in range(n)}
    comps = edge_components(Ultragraph.build(vs[:n], cycle))
    assert comps["e0"] == tuple(sorted(cycle)) and len(set(map(id, comps.values()))) == 1


def test_lattice_branch_is_full_power_set(g_branch, branch_lattice):
    assert len(branch_lattice) == 8
    assert branch_lattice.sets == powerset_lattice(g_branch)
    assert branch_lattice.sets == closure_lattice(g_branch)
    assert fz("v", "w") in branch_lattice
    assert fz() in branch_lattice
    assert len(branch_lattice.nonempty()) == 7


def test_lattice_sizes_on_fixtures(g_loop, g_split):
    assert len(generate_lattice(g_loop)) == 2
    assert len(generate_lattice(g_split)) == 4


def test_lattice_closure_and_oracle_on_random_graphs():
    rng = random.Random(27)
    for _ in range(20):
        g = random_ultragraph(rng)
        lat = generate_lattice(g)
        assert lat.sets == powerset_lattice(g)
        assert lat.sets == closure_lattice(g)
        for a in lat.sets:
            for b in lat.sets:
                assert (a | b) in lat
                assert (a & b) in lat


def test_lattice_size_guards(g_branch):
    with pytest.raises(ValueError):
        generate_lattice(g_branch, max_size=0)
    for size in (1, 6, 7):
        with pytest.raises(SizeLimitError):
            generate_lattice(g_branch, max_size=size)
    assert len(generate_lattice(g_branch, max_size=8)) == 8


def test_lattice_masks_follow_sorted_vertices():
    rng = random.Random(41)
    for _ in range(20):
        g = random_ultragraph(rng)
        lat = generate_lattice(g)
        vs = g.vertices_sorted()
        assert lat.masks == tuple(sum(1 << vs.index(v) for v in A) for A in lat.sets)
        assert sorted(lat.masks) == list(range(len(lat)))
        assert lat.nonempty() == tuple(A for A in lat.sets if A)


def test_lattice_is_built_once_and_every_call_keeps_its_guards(g_branch, monkeypatch):
    built = []
    build = Ultragraph._lattice.func

    def counting(g):
        built.append(g)
        return build(g)

    prop = cached_property(counting)
    prop.__set_name__(Ultragraph, "_lattice")
    monkeypatch.setattr(Ultragraph, "_lattice", prop)
    assert verify_ck(g_branch).passed
    assert generate_lattice(g_branch) is generate_lattice(g_branch)
    assert built == [g_branch]
    with pytest.raises(ValueError):
        generate_lattice(g_branch, max_size=0)
    for size in (6, 7):
        with pytest.raises(SizeLimitError):
            generate_lattice(g_branch, max_size=size)


def test_emitted_edges(g_branch):
    assert emitted_edges(g_branch, fz("v")) == fz("e")
    assert emitted_edges(g_branch, fz("w", "u")) == fz("f", "g")
    assert emitted_edges(g_branch, frozenset()) == frozenset()
    # an edge whose source is not a declared vertex is emitted by its source
    g = Ultragraph.build("vw", {"e": ("v", "w"), "f": ("w", "v"), "x": ("z", "v")})
    assert emitted_edges(g, fz("z")) == fz("x")
    assert emitted_edges(g, fz("v", "z")) == fz("e", "x")
    assert emitted_edges(g, fz("v", "w")) == fz("e", "f")


def test_ultrasets_are_exactly_singletons(g_branch, branch_lattice):
    for A in branch_lattice.nonempty():
        assert additive_indicator(branch_lattice.sets, A) == (len(A) == 1)
    rng = random.Random(31)
    for _ in range(20):
        g = random_ultragraph(rng, max_vertices=5)
        lat = generate_lattice(g)
        for A in lat.nonempty():
            assert additive_indicator(lat.sets, A) == (len(A) == 1)


def test_reaches_branch(g_branch):
    for a in "vwu":
        for b in "vwu":
            assert reaches(g_branch, a, b)
    assert reachable_from(g_branch, "v") == fz("v", "w", "u")


def test_reaches_split(g_split):
    assert reaches(g_split, "a", "a")
    assert not reaches(g_split, "a", "b")
    assert reachable_from(g_split, "b") == fz("b")
    with pytest.raises(ValueError):
        reaches(g_split, "a", "zz")
