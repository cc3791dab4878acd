"""Acceptance battery: one test per criterion, exact checks, stated budgets.

Each test prints a single CRITERION nn PASS line once its assertions hold,
so `pytest -v tests/test_acceptance.py` reads as a per-criterion scorecard.
"""

import itertools
import json
import random
import time

from ultragraph import (
    SGElement,
    Semicharacter,
    Ultragraph,
    Ultrapath,
    build_elements,
    check_bisection_homomorphism,
    check_family,
    check_groupoid_laws,
    check_hausdorff,
    check_orbit_density,
    check_singular_equivalence,
    ck_family,
    condition_K,
    enumerate_lassos,
    enumerate_paths,
    filter_of,
    generate_elements,
    generate_lattice,
    gw,
    gx,
    gy,
    idempotent,
    idempotent_leq,
    idempotent_leq_by_shape,
    is_cofinal,
    is_idempotent,
    is_loop_free,
    loops_at,
    product,
    simplicity_verdict,
    skew_product,
    star,
    validate,
    verify_ck,
)
from ultragraph.cli import main as cli_main

from conftest import (
    check_set_identities,
    closure_lattice,
    cofinal_by_lassos,
    cofinal_by_lassos_full,
    dp_loop_count,
    naive_loop_count,
    powerset_lattice,
    random_ultragraph,
    sparse_sink_free,
)

def fz(*names):
    return frozenset(names)


def _product_table(g, elems):
    memo = {}

    def mul(a, b):
        key = (a, b)
        if key not in memo:
            memo[key] = product(g, a, b)
        return memo[key]

    return mul


def test_criterion_01_inverse_semigroup_laws():
    """Semigroup laws hold on the full bounded element sets.

    The length-2 set has 63 elements, which falls short of a round hundred,
    so the laws also run on the length-3 set (154 elements, associativity
    on a fixed 40-element subsample there); see the decisions ledger.
    """
    start = time.monotonic()
    g = gx()

    elems = generate_elements(g, 2)
    assert len(elems) == 63
    mul = _product_table(g, elems)
    for s in elems:
        assert star(star(s)) == s
        assert mul(mul(s, star(s)), s) == s
        assert mul(mul(star(s), s), star(s)) == star(s)
    for s in elems:
        for t in elems:
            assert star(mul(s, t)) == mul(star(t), star(s))
            # star is the unique generalized inverse
            if mul(mul(s, t), s) == s and mul(mul(t, s), t) == t:
                assert t == star(s)
    for s, t, u in itertools.product(elems, repeat=3):
        assert mul(mul(s, t), u) == mul(s, mul(t, u))

    big = generate_elements(g, 3)
    assert len(big) == 154 >= 100
    mulb = _product_table(g, big)
    for s in big:
        assert star(star(s)) == s
        assert mulb(mulb(s, star(s)), s) == s
    sample = random.Random(0).sample(big, 40)
    for s in sample:
        for t in sample:
            assert star(mulb(s, t)) == mulb(star(t), star(s))
            for u in sample:
                assert mulb(mulb(s, t), u) == mulb(s, mulb(t, u))

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(
        f"CRITERION 01 PASS: inverse semigroup laws on 63 and 154 elements "
        f"({elapsed:.1f}s)"
    )


def test_criterion_02_idempotent_order_two_routes():
    g = gx()
    idems = [s for s in generate_elements(g, 2) if is_idempotent(s)]
    assert len(idems) == 19
    pairs = 0
    for e in idems:
        for f in idems:
            pairs += 1
            assert idempotent_leq(g, e, f) == idempotent_leq_by_shape(g, e, f)
    assert pairs == 361
    # partial order laws via the product route
    for e in idems:
        assert idempotent_leq(g, e, e)
        for f in idems:
            if idempotent_leq(g, e, f) and idempotent_leq(g, f, e):
                assert e == f
            for h in idems:
                if idempotent_leq(g, e, f) and idempotent_leq(g, f, h):
                    assert idempotent_leq(g, e, h)
    print("CRITERION 02 PASS: both order routes agree on all 361 idempotent pairs")


def test_criterion_03_semicharacter_filters_distinguish_points():
    g = gx()
    universe = [idempotent(x) for x in enumerate_paths(g, 3)]
    assert len(universe) == 27
    paths = enumerate_paths(g, 2)
    lassos = enumerate_lassos(g, 1, 3)
    assert len(paths) == 18 and len(lassos) == 7
    chars = [("path", str(x), Semicharacter(path=x)) for x in paths]
    chars += [("ray", str(x), Semicharacter(ray=x)) for x in lassos]
    filters = {}
    for kind, label, chi in chars:
        filters[(kind, label)] = filter_of(g, chi, universe)
    seen = {}
    for key, accepted in filters.items():
        assert accepted not in seen.values(), f"filter collision at {key}"
        seen[key] = accepted
    assert len(seen) == 25
    ray_filters = {k: v for k, v in filters.items() if k[0] == "ray"}
    path_filters = {k: v for k, v in filters.items() if k[0] == "path"}
    assert not set(ray_filters.values()) & set(path_filters.values())
    print("CRITERION 03 PASS: 25 semicharacters yield 25 distinct filters")


def test_criterion_04_lattice_generation_with_oracle():
    assert len(generate_lattice(gx())) == 8
    assert len(generate_lattice(gy())) == 2
    assert len(generate_lattice(gw())) == 4
    rng = random.Random(0)
    graphs = [gx(), gy(), gw()]
    graphs += [random_ultragraph(rng, max_vertices=6, max_edges=8) for _ in range(20)]
    for g in graphs:
        lat = generate_lattice(g)
        assert lat.sets == powerset_lattice(g)
        assert lat.sets == closure_lattice(g)
        for a in lat.sets:
            for b in lat.sets:
                assert (a | b) in lat and (a & b) in lat
    print(
        "CRITERION 04 PASS: lattice matches the closure and power-set "
        "oracles on 23 graphs"
    )


def test_criterion_05_cylinder_set_identities():
    rng = random.Random(1)
    graphs = [gx(), gy(), gw()]
    graphs += [
        random_ultragraph(rng, max_vertices=4, max_edges=5, sink_free=True)
        for _ in range(20)
    ]
    for g in graphs:
        rep = check_set_identities(g, depths=(1, 2, 3))
        assert rep.passed, (g, rep.failures())
    print("CRITERION 05 PASS: meet/join/cover identities at depths 1-3 on 23 graphs")


def test_criterion_06_ck_verification_and_mutations():
    for g in (gx(), gy(), gw()):
        assert verify_ck(g, depth=2).passed

    g = gx()

    fam = ck_family(g)
    del fam.isometries["e"]
    rep = check_family(g, fam, 2)
    assert [e.name for e in rep.failures()] == ["family_shape", "vertex_decomposition"]

    fam = ck_family(g)
    fam.projections[fz("w")] = idempotent(Ultrapath((), fz("v", "w", "u")))
    rep = check_family(g, fam, 2)
    assert "projection_meets" in {e.name for e in rep.failures()}

    other = Ultragraph.build(
        ["v", "w", "u"],
        {"e": ("v", ("v",)), "f": ("w", ("w", "u")), "g": ("u", ("w",))},
    )
    fam = ck_family(other)
    rep = check_family(g, fam, 2)
    assert "isometry_range_identity" in {e.name for e in rep.failures()}

    fam = ck_family(g)
    fam.isometries["e"] = SGElement(Ultrapath(("e",), fz("w")), Ultrapath((), fz("w")))
    rep = check_family(g, fam, 2)
    assert {"isometry_range_identity", "vertex_decomposition"} <= {
        e.name for e in rep.failures()
    }
    print("CRITERION 06 PASS: relations verified, all four mutations detected")


def test_criterion_07_condition_k_pruned_vs_naive():
    k = condition_K(gx())
    assert k.holds and dict(k.counts) == {"v": 2, "w": 2, "u": 2}
    k = condition_K(gy())
    assert not k.holds and dict(k.counts) == {"v": 1}
    k = condition_K(gw())
    assert not k.holds and dict(k.counts) == {"a": 1, "b": 1}
    assert [str(l) for l in loops_at(gx(), "u", 6)] == ["u:gfe", "u:gfefe"]

    rng = random.Random(2)
    fixtures = [gx(), gy(), gw()]
    randoms = [random_ultragraph(rng, max_vertices=5, max_edges=6) for _ in range(20)]
    for g in fixtures:
        for bound in (2 * len(g.edges), 4 * len(g.edges)):
            rep = condition_K(g, bound=bound)
            for v in sorted(g.vertices):
                assert rep.counts[v] == min(naive_loop_count(g, v, bound), 2)
    for g in fixtures + randoms:
        ne = max(len(g.edges), 1)
        low, high = condition_K(g, bound=2 * ne), condition_K(g, bound=4 * ne)
        assert low.holds == high.holds and dict(low.counts) == dict(high.counts)
        # brute verdict at the long bound via DP word counting
        brute_holds = all(
            dp_loop_count(g, v, 4 * ne) != 1 for v in g.vertices
        )
        assert low.holds == brute_holds
        for v in sorted(g.vertices):
            assert high.counts[v] == min(dp_loop_count(g, v, 4 * ne), 2)
    # the DFS oracle is exponential in the bound, so randoms use the low one
    for g in randoms:
        bound = 2 * max(len(g.edges), 1)
        rep = condition_K(g, bound=bound)
        for v in sorted(g.vertices):
            assert rep.counts[v] == min(naive_loop_count(g, v, bound), 2)
    print("CRITERION 07 PASS: pruned verdicts match DFS and DP oracles, 23 graphs")


def test_criterion_08_cofinality_against_lasso_oracle():
    # literal prefixed-lasso oracle on the fixtures, where it is tractable
    for g in (gx(), gy(), gw()):
        assert is_cofinal(g).cofinal == cofinal_by_lassos_full(g)[0]
    rng = random.Random(3)
    graphs = [gx(), gy(), gw()]
    graphs += [sparse_sink_free(rng) for _ in range(20)]
    for g in graphs:
        derived = is_cofinal(g)
        oracle, witness = cofinal_by_lassos(g)
        assert derived.cofinal == oracle, (g, derived, witness)
    rep = is_cofinal(gw())
    v, cyc = rep.counterexample
    assert (v, cyc) in {("a", ("q",)), ("b", ("p",))}
    print("CRITERION 08 PASS: derived cofinality equals lasso oracles on 23 graphs")


def test_criterion_09_structure_verdicts():
    sr = simplicity_verdict(gx())
    assert sr.verdict == "SimpleByThm" and sr.reasons == ()
    assert sr.essentially_principal and sr.condition_2_holds
    sr = simplicity_verdict(gy())
    assert sr.verdict == "NotCoveredByThm"
    assert sr.reasons == ("condition (K) fails at: v",)
    assert not sr.essentially_principal
    sr = simplicity_verdict(gw())
    assert sr.verdict == "NotCoveredByThm"
    assert len(sr.reasons) == 2 and any("not cofinal" in r for r in sr.reasons)
    for g in (gx(), gy(), gw()):
        sr = simplicity_verdict(g)
        assert not sr.loop_free
        assert sr.loop_free == is_loop_free(g)
        for r in sr.reasons:
            assert "not simple" not in r.lower()
    print("CRITERION 09 PASS: verdicts, reasons and AF indicator as derived")


def test_criterion_10_skew_products():
    sk = skew_product(gy(), 1)
    assert len(sk.vertices) == 3 and len(sk.edges) == 2
    sk = skew_product(gx(), 1)
    assert len(sk.vertices) == 9 and len(sk.edges) == 6
    rng = random.Random(5)
    graphs = [gx(), gy(), gw()]
    graphs += [
        random_ultragraph(rng, max_vertices=5, max_edges=6, sink_free=True)
        for _ in range(5)
    ]
    for g in graphs:
        for k in (1, 2, 3):
            s = skew_product(g, k)
            assert validate(s).ok
            assert is_loop_free(s)
    sink_graph = Ultragraph.build(["a", "b"], {"e": ("a", ("b",))})
    for g in graphs + [sink_graph]:
        for k in (2, 3):
            assert check_singular_equivalence(g, skew_product(g, k), k).passed
    print("CRITERION 10 PASS: skew products loop-free, singular sets match inside")


def test_criterion_11_groupoid_laws_and_homomorphism():
    start = time.monotonic()
    g = gx()
    els = build_elements(g, 2, 2, 3)
    assert len(els) >= 100
    laws = check_groupoid_laws(g, els)
    assert laws.passed, laws.failures()

    gens = [s for s in generate_elements(g, 2) if not s.is_omega]
    hom = check_bisection_homomorphism(g, gens, els)
    assert hom.passed, hom.entries[0].details

    rng = random.Random(7)
    pairs = []
    for _ in range(300):
        i, j = rng.sample(range(len(els)), 2)
        pairs.append((els[i], els[j]))
    assert check_hausdorff(g, pairs).passed
    assert check_orbit_density(g, enumerate_lassos(g, 2, 3), 2).passed

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(
        f"CRITERION 11 PASS: groupoid laws, slice homomorphism, separation "
        f"on {len(els)} elements ({elapsed:.1f}s)"
    )


def test_criterion_12_cli_contract(tmp_path, capsys):
    from pathlib import Path

    fixdir = Path(__file__).resolve().parent.parent / "fixtures"
    gx_file = str(fixdir / "GX.ug")

    def run(argv):
        code = cli_main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, out, _ = run(["analyze", gx_file])
    assert code == 0 and "verdict = SimpleByThm" in out
    code, out, _ = run(["analyze", str(fixdir / "GY.ug")])
    assert code == 1 and "NotCoveredByThm" in out
    code, out, _ = run(["analyze", str(fixdir / "GW.ug")])
    assert code == 1 and "NotCoveredByThm" in out

    code, out, _ = run(["lattice", gx_file, "--max-size", "7"])
    assert code == 1 and "size_limit" in out

    bad = tmp_path / "bad.ug"
    bad.write_text("not a header\n")
    code, _, err = run(["validate", str(bad)])
    assert code == 2 and "expected header" in err
    code, _, err = run(["ck", gx_file, "--depth", "0"])
    assert code == 2

    for argv in (
        ["analyze", gx_file, "--format", "json"],
        ["ck", gx_file, "--format", "json"],
        ["groupoid", gx_file, "--format", "json", "--seed", "9"],
    ):
        _, first, _ = run(argv)
        _, second, _ = run(argv)
        assert first == second, argv
        doc = json.loads(first)
        assert doc["timing_ms"] == 0
    print("CRITERION 12 PASS: exit codes, verdict strings, byte-stable JSON")
