"""Loops, condition (K), cofinality, verdicts, skew products."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultragraph.analysis as analysis_module

from ultragraph import (
    GraphStructureError,
    SizeLimitError,
    Ultragraph,
    check_singular_equivalence,
    condition_2,
    condition_K,
    count_first_return_loops,
    is_cofinal,
    is_loop_free,
    loops_at,
    simplicity_verdict,
    skew_product,
    validate,
)
from ultragraph.analysis import _first_return_words, _restricted_cycle

from conftest import (
    cofinal_by_lassos,
    cofinal_by_vertex_search,
    levelled_first_return_words,
    loosely_declared_graph,
    naive_loop_count,
    random_ultragraph,
    ring_ultragraph,
    skew_product_by_build,
)


def words(loops):
    return ["".join(l.word) for l in loops]


def chain_graph() -> Ultragraph:
    return Ultragraph.build(
        ["a", "b", "c"],
        {"e": ("a", ("b", "c")), "f": ("b", ("c",))},
    )


def sink_graph() -> Ultragraph:
    return Ultragraph.build(["a", "b"], {"e": ("a", ("b",))})


def test_loops_at_fixture_bases(g_branch, g_loop, g_split):
    assert words(loops_at(g_branch, "v", 6)) == ["ef", "egf"]
    assert words(loops_at(g_branch, "w", 6)) == ["fe", "feg"]
    assert words(loops_at(g_branch, "u", 6)) == ["gfe", "gfefe"]
    assert words(loops_at(g_branch, "u", 4)) == ["gfe"]
    assert words(loops_at(g_loop, "v", 2)) == ["e"]
    assert words(loops_at(g_split, "a", 4)) == ["p"]
    with pytest.raises(ValueError):
        loops_at(g_branch, "zz", 3)


def test_pruned_counter_matches_naive(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        for bound in (2 * len(g.edges), 4 * len(g.edges)):
            for v in sorted(g.vertices):
                naive = naive_loop_count(g, v, bound)
                assert count_first_return_loops(g, v, bound) == min(naive, 2)


def test_pruned_counter_matches_naive_on_randoms():
    rng = random.Random(41)
    for _ in range(20):
        g = random_ultragraph(rng, max_vertices=5, max_edges=6)
        bound = 2 * max(len(g.edges), 1)
        for v in sorted(g.vertices):
            naive = naive_loop_count(g, v, bound)
            assert count_first_return_loops(g, v, bound) == min(naive, 2)
            # loops_at lists every loop up to its 200_000 budget, then raises
            if naive > 200_000:
                with pytest.raises(SizeLimitError):
                    loops_at(g, v, bound)
            else:
                assert len(loops_at(g, v, bound)) == naive


def test_walk_matches_levelled_oracle(g_branch, g_loop, g_split):
    # same words in the same order, each run capped so the test stays short
    rng = random.Random(29)
    graphs = [g_branch, g_loop, g_split, chain_graph(), sink_graph()]
    graphs += [random_ultragraph(rng, max_vertices=5, max_edges=7) for _ in range(20)]
    seen = 0
    for g in graphs:
        for v in sorted(g.vertices):
            for bound in range(9):
                got = list(itertools.islice(_first_return_words(g, v, bound), 200))
                want = itertools.islice(levelled_first_return_words(g, v, bound), 200)
                assert got == list(want), (sorted(g.edges), v, bound)
                seen += len(got)
    assert seen > 5000
    for walk in (_first_return_words, levelled_first_return_words):
        with pytest.raises(ValueError):
            next(walk(g_branch, "zz", 3))


def test_condition_k_on_a_long_cycle():
    n = 300
    vs = [f"v{i}" for i in range(n)]
    edges = {f"e{i}": (vs[i], (vs[(i + 1) % n],)) for i in range(n)}
    around = tuple(f"e{i}" for i in range(7, n)) + tuple(f"e{i}" for i in range(7))
    # the only loop at v_i is the way once around, 300 edges long
    cycle = Ultragraph.build(vs, edges)
    k = condition_K(cycle)
    assert not k.holds and k.bound == 2 * n
    assert set(k.counts.values()) == {1} and len(k.offenders()) == n
    assert [l.word for l in loops_at(cycle, "v7", n)] == [around]
    assert loops_at(cycle, "v7", n - 1) == ()
    # a loop x at v0: v0 has x and the way around, and every other base has
    # the way around with x taken at v0 any number of times
    edges["x"] = ("v0", ("v0",))
    looped = Ultragraph.build(vs, edges)
    k = condition_K(looped)
    assert k.holds and k.bound == 2 * (n + 1)
    assert set(k.counts.values()) == {2} and len(k.counts) == n
    assert [l.word for l in loops_at(looped, "v7", n + 1)] == [
        around,
        around[: n - 7] + ("x",) + around[n - 7 :],
    ]
    assert words(loops_at(looped, "v0", 1)) == ["x"]


def test_condition_k_fixtures(g_branch, g_loop, g_split):
    k = condition_K(g_branch)
    assert k.holds and k.bound == 6
    assert dict(k.counts) == {"v": 2, "w": 2, "u": 2}
    assert k.offenders() == ()
    k = condition_K(g_loop)
    assert not k.holds and dict(k.counts) == {"v": 1}
    assert k.offenders() == ("v",)
    k = condition_K(g_split)
    assert not k.holds and k.offenders() == ("a", "b")


def test_bound_below_one_admits_no_loops(g_loop):
    for bound in (0, -3):
        assert loops_at(g_loop, "v", bound) == ()
        assert count_first_return_loops(g_loop, "v", bound) == 0
        assert naive_loop_count(g_loop, "v", bound) == 0
        k = condition_K(g_loop, bound)
        assert dict(k.counts) == {"v": 0} and k.bound == bound
    with pytest.raises(ValueError):
        loops_at(g_loop, "zz", 0)


def test_condition_k_stable_under_longer_bound():
    rng = random.Random(17)
    for _ in range(20):
        g = random_ultragraph(rng, max_vertices=5, max_edges=6)
        ne = max(len(g.edges), 1)
        short = condition_K(g, bound=2 * ne)
        long = condition_K(g, bound=4 * ne)
        assert short.holds == long.holds
        assert dict(short.counts) == dict(long.counts)


def assert_components_match_oracles(g: Ultragraph) -> None:
    # the default bound reads the edge components, an explicit one walks
    assert condition_K(g) == condition_K(g, 2 * len(g.edges))
    if validate(g).sinks:
        for decide in (is_cofinal, cofinal_by_vertex_search):
            with pytest.raises(GraphStructureError):
                decide(g)
    else:
        rep = is_cofinal(g)
        assert (rep.cofinal, rep.counterexample) == cofinal_by_vertex_search(g)


@settings(max_examples=300, deadline=None)
@given(rng=st.randoms(use_true_random=False), sink_free=st.booleans())
def test_components_match_walk_and_vertex_search(rng, sink_free):
    assert_components_match_oracles(
        random_ultragraph(rng, max_vertices=6, max_edges=9, sink_free=sink_free)
    )


@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 60, 200])
def test_components_match_walk_and_vertex_search_on_rings(n):
    assert_components_match_oracles(ring_ultragraph(n))


def test_condition_k_reads_every_out_edge():
    # v's first out-edge a leads off to w and never back; its second, b, is
    # a loop at v, and w has its own loop c
    g = Ultragraph.build(
        ["v", "w"],
        {"a": ("v", ("w",)), "b": ("v", ("v",)), "c": ("w", ("w",))},
    )
    k = condition_K(g)
    assert dict(k.counts) == {"v": 1, "w": 1} and k.offenders() == ("v", "w")
    assert k == condition_K(g, 2 * len(g.edges))


def test_cofinality_searches_every_cyclic_component():
    # every vertex reaches a's loop p, but only c reaches c's loop s
    g = Ultragraph.build(
        ["a", "b", "c"],
        {"p": ("a", ("a",)), "q": ("b", ("a",)), "s": ("c", ("c", "a"))},
    )
    rep = is_cofinal(g)
    assert not rep.cofinal and rep.counterexample == ("a", ("s",))
    assert (rep.cofinal, rep.counterexample) == cofinal_by_vertex_search(g)


def test_cofinality_fixtures(g_branch, g_loop, g_split):
    assert is_cofinal(g_branch).cofinal
    assert is_cofinal(g_loop).cofinal
    rep = is_cofinal(g_split)
    assert not rep.cofinal
    assert rep.counterexample == ("a", ("q",))


def test_cofinality_and_verdict_refuse_sinks():
    # boundary paths through a sink are finite, outside what these report on
    g = sink_graph()
    with pytest.raises(GraphStructureError):
        is_cofinal(g)
    with pytest.raises(GraphStructureError):
        simplicity_verdict(g)


def test_cofinality_matches_lasso_oracle_on_fixtures(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        assert is_cofinal(g).cofinal == cofinal_by_lassos(g)[0]


def test_condition_2_is_vacuous(g_branch):
    holds, note = condition_2(g_branch)
    assert holds and "vacuous" in note


def test_loop_freeness(g_branch, g_loop, g_split):
    assert not is_loop_free(g_branch)
    assert not is_loop_free(g_loop)
    assert not is_loop_free(g_split)
    chain = chain_graph()
    assert is_loop_free(chain)


def test_simplicity_verdicts(g_branch, g_loop, g_split):
    sr = simplicity_verdict(g_branch)
    assert sr.verdict == "SimpleByThm"
    assert sr.reasons == ()
    assert sr.essentially_principal and not sr.loop_free
    sr = simplicity_verdict(g_loop)
    assert sr.verdict == "NotCoveredByThm"
    assert sr.reasons == ("condition (K) fails at: v",)
    assert not sr.essentially_principal
    sr = simplicity_verdict(g_split)
    assert sr.verdict == "NotCoveredByThm"
    assert len(sr.reasons) == 2
    assert "condition (K) fails at: a b" in sr.reasons
    assert any(r.startswith("not cofinal") for r in sr.reasons)


def test_verdict_never_claims_non_simplicity(g_loop, g_split):
    for g in (g_loop, g_split):
        sr = simplicity_verdict(g)
        assert sr.verdict in {"SimpleByThm", "NotCoveredByThm"}
        for r in sr.reasons:
            assert "not simple" not in r.lower()


def test_skew_product_shape(g_loop):
    sk = skew_product(g_loop, 1)
    assert sorted(sk.vertices) == ["v__m1", "v__p0", "v__p1"]
    assert sorted(sk.edges) == ["e__m1", "e__p0"]
    assert sk.source["e__m1"] == "v__m1"
    assert sk.range["e__m1"] == frozenset({"v__p0"})
    assert sk.range["e__p0"] == frozenset({"v__p1"})
    with pytest.raises(ValueError):
        skew_product(g_loop, 0)


def test_skew_product_counts(g_branch):
    for k in (1, 2, 3):
        sk = skew_product(g_branch, k)
        assert len(sk.vertices) == 3 * (2 * k + 1)
        assert len(sk.edges) == 3 * 2 * k
        assert validate(sk).ok


def test_skew_product_size_guard(g_branch, monkeypatch):
    # three vertices and three edges: window 33,333 has 200,001 vertices
    with pytest.raises(SizeLimitError, match="200001 vertices and 199998 edges"):
        skew_product(g_branch, 33_333)

    # window 33,332 has 199,995 vertices and passes the guard; the build is
    # stopped at its first vertex name rather than run to the end
    class Building(Exception):
        pass

    def stop(n):
        raise Building

    monkeypatch.setattr(analysis_module, "_level_tag", stop)
    with pytest.raises(Building):
        skew_product(g_branch, 33_332)


def test_skew_product_always_loop_free(g_branch, g_loop, g_split):
    rng = random.Random(7)
    graphs = [g_branch, g_loop, g_split]
    graphs += [random_ultragraph(rng, max_vertices=5, max_edges=7) for _ in range(10)]
    for g in graphs:
        if not g.edges:
            continue
        for k in (1, 2, 3):
            assert is_loop_free(skew_product(g, k))


def test_loop_free_peel_matches_the_adjacency_search():
    """The vertex-arc peel gives the coloured search's verdict on the edge
    adjacency, also with self-loops and with undeclared sources and range
    vertices."""
    rng = random.Random(89)
    graphs = [loosely_declared_graph(rng) for _ in range(1500)]
    graphs += [random_ultragraph(rng, max_vertices=5, max_edges=6) for _ in range(500)]
    verdicts = []
    for g in graphs:
        want = _restricted_cycle(g, set(g.edges)) is None
        assert is_loop_free(g) == want, {e: (g.source[e], sorted(g.range[e])) for e in g.edges}
        verdicts.append(want)
    assert 500 < sum(verdicts) < len(verdicts) - 500

    def count(test):
        return sum(1 for g in graphs if any(test(g, e) for e in g.edges))

    assert count(lambda g, e: g.source[e] in g.range[e]) > 100
    assert count(lambda g, e: g.source[e] not in g.vertices) > 100
    assert count(lambda g, e: not g.range[e] <= g.vertices) > 100


def test_loop_free_peel_sees_one_self_loop_and_ignores_undeclared_ends():
    # one vertex is left unpeeled: b, whose only way out is its self-loop
    assert not is_loop_free(Ultragraph.build(["a", "b"], {"e": ("a", ("b",)), "f": ("b", ("b",))}))
    # zz is undeclared: its edge into a follows no edge, and a's edge into
    # zz leads nowhere
    g = Ultragraph.build(["a", "b"], {"e": ("zz", ("a",)), "f": ("a", ("b", "zz"))})
    assert is_loop_free(g) and _restricted_cycle(g, set(g.edges)) is None


def test_skew_product_matches_the_build_oracle(g_branch, g_loop, g_split):
    rng = random.Random(83)
    graphs = [g_branch, g_loop, g_split, sink_graph()]
    graphs += [random_ultragraph(rng) for _ in range(200)]
    graphs += [loosely_declared_graph(rng) for _ in range(50)]
    for g in graphs:
        for k in (1, 2, 3):
            got, want = skew_product(g, k), skew_product_by_build(g, k)
            assert got.vertices == want.vertices
            assert got.edges == want.edges
            assert dict(got.source) == dict(want.source)
            assert dict(got.range) == dict(want.range)


def test_skew_checks_build_no_edge_adjacency():
    g = ring_ultragraph(6)
    sk = skew_product(g, 3)
    assert is_loop_free(sk)
    assert check_singular_equivalence(g, sk, 3).passed
    assert "_adjacency" not in vars(sk)
    assert "_adjacency" not in vars(g)


def test_singular_equivalence(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        for k in (1, 2, 3):
            assert check_singular_equivalence(g, skew_product(g, k), k).passed
    g = sink_graph()
    for k in (1, 2, 3):
        assert check_singular_equivalence(g, skew_product(g, k), k).passed
