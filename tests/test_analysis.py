"""Loops, condition (K), cofinality, verdicts, skew products."""

import random

import pytest

from ultragraph import (
    GraphStructureError,
    SizeLimitError,
    Ultragraph,
    af_indicator,
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

from conftest import cofinal_by_lassos, naive_loop_count, random_ultragraph


def words(loops):
    return ["".join(l.word) for l in loops]


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


def test_cofinality_fixtures(g_branch, g_loop, g_split):
    assert is_cofinal(g_branch).cofinal
    assert is_cofinal(g_loop).cofinal
    rep = is_cofinal(g_split)
    assert not rep.cofinal
    v, cyc = rep.counterexample
    assert (v, cyc) in {("a", ("q",)), ("b", ("p",))}


def test_cofinality_and_verdict_refuse_sinks():
    # boundary paths through a sink are finite, outside what these report on
    g = Ultragraph.build(["a", "b"], {"e": ("a", ("b",))})
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
    chain = Ultragraph.build(
        ["a", "b", "c"],
        {"e": ("a", ("b", "c")), "f": ("b", ("c",))},
    )
    assert is_loop_free(chain)
    assert af_indicator(chain)


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


def test_skew_product_always_loop_free(g_branch, g_loop, g_split):
    rng = random.Random(7)
    graphs = [g_branch, g_loop, g_split]
    graphs += [random_ultragraph(rng, max_vertices=5, max_edges=7) for _ in range(10)]
    for g in graphs:
        if not g.edges:
            continue
        for k in (1, 2, 3):
            assert is_loop_free(skew_product(g, k))


def test_singular_equivalence(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        for k in (1, 2, 3):
            assert check_singular_equivalence(g, skew_product(g, k), k).passed
    sink_graph = Ultragraph.build(["a", "b"], {"e": ("a", ("b",))})
    for k in (1, 2, 3):
        assert check_singular_equivalence(
            sink_graph, skew_product(sink_graph, k), k
        ).passed
