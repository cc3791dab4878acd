"""Groupoid elements, slices, cylinder refinement, Cuntz-Krieger checks."""

import math
import random

import pytest

import ultragraph.groupoid as groupoid_module

from ultragraph import (
    OMEGA,
    CylinderSet,
    GraphStructureError,
    GroupoidElement,
    SGElement,
    SizeLimitError,
    Ultragraph,
    Ultrapath,
    bisection_member,
    build_elements,
    check_bisection_homomorphism,
    check_family,
    check_groupoid_laws,
    check_hausdorff,
    check_orbit_density,
    check_set_identities,
    ck_family,
    compose,
    concat_lasso,
    cylinder_member,
    edge_path,
    enumerate_lassos,
    generate_elements,
    generate_lattice,
    groupoid_element,
    idempotent,
    inverse,
    lasso_source,
    make_cylinder,
    make_lasso,
    product,
    refine_to_depth,
    refine_words,
    star,
    strip_lasso,
    unit_at,
    vertex_path,
    verify_ck,
    witness,
)

from conftest import (
    random_ultragraph,
    search_groupoid_element,
    separation_depth,
    sparse_sink_free,
)


def fz(*names):
    return frozenset(names)


def t_edge(g, e):
    p = edge_path(g, e)
    return SGElement(p, Ultrapath((), p.terminal))


# --- boundary paths and groupoid elements ---


def test_groupoid_element_minimal_witness(g_branch):
    ef = make_lasso(g_branch, (), ("e", "f"))
    fe = make_lasso(g_branch, (), ("f", "e"))
    a = groupoid_element(g_branch, ef, 1, fe)
    assert (a.left, a.lag, a.right) == (ef, 1, fe)
    x, y, mu = witness(g_branch, a)
    assert x == Ultrapath(("e",), fz("w"))
    assert y == Ultrapath((), fz("w"))
    assert mu == fe
    unit = unit_at(g_branch, ef)
    assert unit.lag == 0 and unit.left == unit.right
    assert witness(g_branch, unit)[0] == Ultrapath((), fz("v"))


def test_groupoid_element_rejects_disjoint_orbits(g_branch):
    ef = make_lasso(g_branch, (), ("e", "f"))
    egf = make_lasso(g_branch, (), ("e", "g", "f"))
    for lag in (-2, -1, 0, 1, 2):
        with pytest.raises(ValueError):
            groupoid_element(g_branch, ef, lag, egf)
        # a bare triple built without the check has no witness either
        with pytest.raises(ValueError):
            witness(g_branch, GroupoidElement(ef, lag, egf))


def _element_and_witness(g, left, lag, right):
    a = groupoid_element(g, left, lag, right)
    return a, witness(g, a)


def _outcome(build, g, left, lag, right):
    try:
        a, w = build(g, left, lag, right)
    except ValueError as err:
        return ("no tail", str(err))
    return (str(a), w)


def test_groupoid_element_matches_search_oracle():
    rng = random.Random(53)
    cases = merged = graphs = 0
    while graphs < 20:
        g = random_ultragraph(rng, max_vertices=4, max_edges=5, sink_free=True)
        lassos = enumerate_lassos(g, 2, 3)
        if not 4 <= len(lassos) <= 24:
            continue
        graphs += 1
        for left in lassos:
            for right in lassos:
                for lag in range(-4, 5):
                    want = _outcome(search_groupoid_element, g, left, lag, right)
                    got = _outcome(_element_and_witness, g, left, lag, right)
                    assert got == want, (left, lag, right)
                    cases += 1
                    merged += want[0] != "no tail"
    assert merged > 1000 and cases - merged > 1000, (cases, merged)


def test_compose_and_inverse(g_branch):
    ef = make_lasso(g_branch, (), ("e", "f"))
    fe = make_lasso(g_branch, (), ("f", "e"))
    a = groupoid_element(g_branch, ef, 1, fe)
    b = groupoid_element(g_branch, fe, 1, ef)
    ab = compose(g_branch, a, b)
    assert ab == groupoid_element(g_branch, ef, 2, ef)
    assert compose(g_branch, a, a) is None  # right point mismatch
    inv = inverse(a)
    assert inv.lag == -1 and inv.left == a.right and inv.right == a.left
    assert compose(g_branch, a, inv) == unit_at(g_branch, ef)
    assert compose(g_branch, inv, a) == unit_at(g_branch, fe)


def _germ(g, s, xi):
    """The germ [s, xi] of s = (x, y) at xi = y.mu, built from the
    coordinates as (x.mu, length(x) - length(y), y.mu); None when xi lies
    outside the domain of s."""
    if s.is_omega:
        return None
    mu = strip_lasso(g, xi, s.right)
    if mu is None:
        return None
    left = concat_lasso(g, s.left, mu)
    right = concat_lasso(g, s.right, mu)
    return groupoid_element(g, left, s.left.length - s.right.length, right)


def test_compose_matches_germ_product(g_branch):
    """[s, t.xi] . [t, xi] = [st, xi] with st from the semigroup product,
    and a zero st leaves no composable pair of members: the groupoid
    composition is the germ product of the inverse semigroup."""
    rng = random.Random(31)
    graphs = [g_branch]
    while len(graphs) < 6:
        g = random_ultragraph(rng, max_vertices=3, max_edges=4, sink_free=True)
        if len(enumerate_lassos(g, 1, 2)) >= 3:
            graphs.append(g)
    defined = zero = 0
    for g in graphs:
        lat = generate_lattice(g)
        gens = [s for s in generate_elements(g, lat, 1) if not s.is_omega]
        lassos = enumerate_lassos(g, 1, 2)
        for s in gens:
            for t in gens:
                st = product(g, s, t)
                for xi in lassos:
                    b = _germ(g, t, xi)
                    a = None if b is None else _germ(g, s, b.left)
                    if st.is_omega:
                        assert a is None, (s, t, xi)
                        zero += b is not None
                    got = None if a is None else compose(g, a, b)
                    assert got == _germ(g, st, xi), (s, t, xi)
                    defined += got is not None
    assert defined > 1000 and zero > 1000, (defined, zero)


# --- slices, each named by its semigroup element ---


def test_groupoid_element_is_an_immutable_value(g_branch, branch_lattice):
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    with pytest.raises(AttributeError):
        els[0].lag = 1
    with pytest.raises(AttributeError):
        els[0].left = els[0].right
    for a in els:
        for b in els:
            ab = compose(g_branch, a, b)
            if ab is None:
                continue
            fresh = GroupoidElement(
                make_lasso(g_branch, ab.left.prefix, ab.left.cycle),
                ab.lag,
                make_lasso(g_branch, ab.right.prefix, ab.right.cycle),
            )
            assert ab == fresh and hash(ab) == hash(fresh)


def test_bisection_membership(g_branch):
    ef = make_lasso(g_branch, (), ("e", "f"))
    fe = make_lasso(g_branch, (), ("f", "e"))
    a = groupoid_element(g_branch, ef, 1, fe)
    assert bisection_member(g_branch, t_edge(g_branch, "e"), a)
    assert not bisection_member(g_branch, t_edge(g_branch, "f"), a)
    assert not bisection_member(g_branch, star(t_edge(g_branch, "e")), a)
    assert not bisection_member(g_branch, OMEGA, a)


def test_units_bisection_is_diagonal(g_branch, branch_lattice):
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    full = idempotent(vertex_path("vwu"))
    diagonal = {a for a in els if bisection_member(g_branch, full, a)}
    assert diagonal == {a for a in els if a.lag == 0 and a.left == a.right}


def test_bisection_product_and_star(g_branch, branch_lattice):
    te = t_edge(g_branch, "e")
    range_slice = product(g_branch, star(te), te)
    assert range_slice == idempotent(vertex_path(("w", "u")))
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    # the units over the boundary points starting in r(e)
    assert {a for a in els if bisection_member(g_branch, range_slice, a)} == {
        a
        for a in els
        if a.lag == 0 and a.left == a.right and lasso_source(g_branch, a.left) in fz("w", "u")
    }
    assert product(g_branch, te, te).is_omega


# --- cylinder sets ---


def test_make_cylinder_validation(g_branch, branch_lattice):
    base = Ultrapath(("e",), fz("u", "w"))
    make_cylinder(g_branch, branch_lattice, base, ("f",), (fz("w"),))
    with pytest.raises(ValueError):
        make_cylinder(g_branch, branch_lattice, base, ("e",), ())  # e not emitted
    with pytest.raises(ValueError):
        make_cylinder(g_branch, branch_lattice, base, (), (fz("u", "w"),))
    with pytest.raises(ValueError):
        make_cylinder(g_branch, branch_lattice, base, (), (fz("x"),))


def test_cylinder_membership(g_branch, branch_lattice):
    base = Ultrapath(("e",), fz("u", "w"))
    plain = CylinderSet(base=base)
    ef = make_lasso(g_branch, (), ("e", "f"))
    egf = make_lasso(g_branch, (), ("e", "g", "f"))
    fe = make_lasso(g_branch, (), ("f", "e"))
    assert cylinder_member(g_branch, ef, plain)
    assert cylinder_member(g_branch, egf, plain)
    assert not cylinder_member(g_branch, fe, plain)
    no_f = make_cylinder(g_branch, branch_lattice, base, ("f",), ())
    assert not cylinder_member(g_branch, ef, no_f)
    assert cylinder_member(g_branch, egf, no_f)
    not_w = make_cylinder(g_branch, branch_lattice, base, (), (fz("w"),))
    assert not cylinder_member(g_branch, ef, not_w)
    assert cylinder_member(g_branch, egf, not_w)


def test_refinement_words(g_branch):
    d_v = CylinderSet(base=vertex_path("v"))
    assert refine_words(g_branch, [d_v], 1) == (("e",),)
    assert refine_words(g_branch, [d_v], 2) == (("e", "f"), ("e", "g"))
    narrow = CylinderSet(base=Ultrapath(("e",), fz("w")))
    assert refine_words(g_branch, [narrow], 2) == (("e", "f"),)
    pure = refine_to_depth(g_branch, [d_v], 2)
    assert [c.base for c in pure] == [
        Ultrapath(("e", "f"), fz("v")),
        Ultrapath(("e", "g"), fz("w")),
    ]
    assert all(not c.excluded_edges and not c.excluded_sets for c in pure)


def test_refinement_depth_rules(g_branch, branch_lattice):
    maximal = CylinderSet(base=Ultrapath(("e",), fz("u", "w")))
    assert refine_words(g_branch, [maximal], 1) == (("e",),)
    narrow = CylinderSet(base=Ultrapath(("e",), fz("w")))
    with pytest.raises(ValueError):
        refine_words(g_branch, [narrow], 1)
    with pytest.raises(ValueError):
        refine_words(g_branch, [CylinderSet(base=vertex_path("v"))], 0)
    carved = make_cylinder(g_branch, branch_lattice, maximal.base, ("f",), ())
    with pytest.raises(ValueError):
        refine_words(g_branch, [carved], 1)
    assert refine_words(g_branch, [carved], 2) == (("e", "g"),)


def test_refinement_matches_membership(g_branch, branch_lattice):
    """A lasso lies in a cylinder iff its depth-d unrolling is one of the
    refinement words: refinement is sound and complete."""
    lassos = enumerate_lassos(g_branch, 2, 3)
    from ultragraph import unroll

    bases = [
        vertex_path("v"),
        vertex_path("wu"),
        Ultrapath(("e",), fz("u", "w")),
        Ultrapath(("e",), fz("w")),
        Ultrapath(("e", "f"), fz("v")),
    ]
    cyls = [CylinderSet(base=b) for b in bases]
    cyls.append(
        make_cylinder(g_branch, branch_lattice, Ultrapath(("e",), fz("u", "w")), ("f",), ())
    )
    cyls.append(
        make_cylinder(g_branch, branch_lattice, vertex_path("vw"), (), (fz("v"),))
    )
    for cyl in cyls:
        for depth in (3, 4):
            words = set(refine_words(g_branch, [cyl], depth))
            for x in lassos:
                assert (unroll(x, depth) in words) == cylinder_member(
                    g_branch, x, cyl
                ), (cyl, str(x), depth)


def test_refinement_requires_sink_free():
    g = Ultragraph.build(["a", "b"], {"e": ("a", ("b",))})
    with pytest.raises(GraphStructureError):
        refine_words(g, [CylinderSet(base=vertex_path("a"))], 1)


def test_nonempty_refinement_contains_bounded_lasso(g_branch, branch_lattice):
    """A cylinder with a nonempty depth-d refinement contains a canonical
    lasso with prefix at most d plus the edge count and cycle at most the
    edge count: lassos are dense among boundary paths.  The edge-count slack
    on the prefix is necessary, as the chain graph below shows."""
    ne = len(g_branch.edges)
    cyls = [
        CylinderSet(base=vertex_path("v")),
        CylinderSet(base=vertex_path("wu")),
        CylinderSet(base=Ultrapath(("e",), fz("u", "w"))),
        CylinderSet(base=Ultrapath(("e", "f"), fz("v"))),
        make_cylinder(
            g_branch, branch_lattice, Ultrapath(("e",), fz("u", "w")), ("f",), ()
        ),
        make_cylinder(g_branch, branch_lattice, vertex_path("vw"), (), (fz("v"),)),
    ]
    for cyl in cyls:
        for depth in (3, 4):
            if not refine_words(g_branch, [cyl], depth):
                continue
            lassos = enumerate_lassos(g_branch, depth + ne, ne)
            assert any(cylinder_member(g_branch, x, cyl) for x in lassos), (
                cyl,
                depth,
            )

    # three acyclic steps before the loop force prefixes longer than depth 1
    chain = Ultragraph.build(
        ["a", "b", "c", "v"],
        {
            "h1": ("a", ("b",)),
            "h2": ("b", ("c",)),
            "h3": ("c", ("v",)),
            "e": ("v", ("v",)),
        },
    )
    cyl = CylinderSet(base=vertex_path("a"))
    assert refine_words(chain, [cyl], 1)
    k = len(chain.edges)
    assert any(
        cylinder_member(chain, x, cyl) for x in enumerate_lassos(chain, 1 + k, k)
    )
    assert not any(
        cylinder_member(chain, x, cyl) for x in enumerate_lassos(chain, 1, k)
    )


# --- Cuntz-Krieger families ---


def test_verify_ck_fixtures(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        rep = verify_ck(g, generate_lattice(g), depth=2)
        assert rep.passed, rep.failures()
    rep3 = verify_ck(g_branch, generate_lattice(g_branch), depth=3)
    assert rep3.passed


def test_verify_ck_depth_guard(g_branch, branch_lattice):
    with pytest.raises(ValueError):
        verify_ck(g_branch, branch_lattice, depth=1)


def test_mutation_dropped_isometry_fails_at_vertex(g_branch, branch_lattice):
    fam = ck_family(g_branch, branch_lattice)
    del fam.isometries["e"]
    rep = check_family(g_branch, branch_lattice, fam, 2)
    assert not rep.passed
    names = [e.name for e in rep.failures()]
    assert names == ["vertex_decomposition"]
    assert any("vertex v" in d for d in rep.failures()[0].details)


def test_mutation_corrupted_meet_projection(g_branch, branch_lattice):
    fam = ck_family(g_branch, branch_lattice)
    fam.projections[fz("w")] = idempotent(vertex_path("vwu"))
    rep = check_family(g_branch, branch_lattice, fam, 2)
    failed = {e.name for e in rep.failures()}
    assert "projection_meets" in failed


def test_mutation_swapped_ranges_fails_range_identity(g_branch, branch_lattice):
    other = Ultragraph.build(
        ["v", "w", "u"],
        {"e": ("v", ("v",)), "f": ("w", ("w", "u")), "g": ("u", ("w",))},
    )
    fam = ck_family(other, generate_lattice(other))
    rep = check_family(g_branch, branch_lattice, fam, 2)
    failed = {e.name for e in rep.failures()}
    assert "isometry_range_identity" in failed


def test_mutation_shrunk_terminal_fails_at_depth_two(g_branch, branch_lattice):
    fam = ck_family(g_branch, branch_lattice)
    shrunk = Ultrapath(("e",), fz("w"))
    fam.isometries["e"] = SGElement(shrunk, Ultrapath((), fz("w")))
    rep = check_family(g_branch, branch_lattice, fam, 2)
    failed = {e.name for e in rep.failures()}
    assert {"isometry_range_identity", "vertex_decomposition"} <= failed


def test_mutation_shrunk_join_projection(g_branch, branch_lattice):
    fam = ck_family(g_branch, branch_lattice)
    fam.projections[fz("v", "w")] = fam.projections[fz("v")]
    rep = check_family(g_branch, branch_lattice, fam, 2)
    joins = {e.name: e for e in rep.failures()}["projection_joins"]
    assert joins.details == (
        "{u} + {v w}: [ef eg fe gf] != [ef eg gf]",
        "{u v} + {v w}: [ef eg fe gf] != [ef eg gf]",
        "{v} + {w}: [ef eg] != [ef eg fe]",
        "{v w} + {w}: [ef eg] != [ef eg fe]",
    )


def test_mutation_overlapping_edge_slices_fail_vertex_decomposition():
    g = Ultragraph.build(
        ["v", "w"], {"a": ("v", ("v",)), "b": ("v", ("w",)), "c": ("w", ("v",))}
    )
    lat = generate_lattice(g)
    fam = ck_family(g, lat)
    fam.isometries["b"] = fam.isometries["a"]
    rep = check_family(g, lat, fam, 2)
    vertex = {e.name: e for e in rep.entries}["vertex_decomposition"]
    assert vertex.details == ("vertex v: edge slices overlap",)


def test_set_identities_fixtures(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        rep = check_set_identities(g, generate_lattice(g), depths=(1, 2, 3))
        assert rep.passed, rep.failures()


# --- groupoid-level check batteries ---


def test_groupoid_laws_on_fixtures(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        lat = generate_lattice(g)
        els = build_elements(g, lat, 1, 1, 2)
        rep = check_groupoid_laws(g, els)
        assert rep.passed, rep.failures()


def test_build_elements_deterministic(g_branch, branch_lattice):
    a = build_elements(g_branch, branch_lattice, 1, 1, 2)
    b = build_elements(g_branch, branch_lattice, 1, 1, 2)
    assert a == b
    assert len(a) == len(set(a))


def test_element_budgets_raise_size_limit(g_branch, branch_lattice):
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    with pytest.raises(SizeLimitError, match="max_count=3"):
        build_elements(g_branch, branch_lattice, 1, 1, 2, max_count=3)
    assert check_groupoid_laws(g_branch, els).passed
    with pytest.raises(SizeLimitError, match="composable triples"):
        check_groupoid_laws(g_branch, els, max_triples=5)


def test_triple_budget_fires_before_any_compose(g_branch, branch_lattice, monkeypatch):
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    triples = sum(
        1
        for a in els
        for b in els
        for c in els
        if a.right == b.left and b.right == c.left
    )
    calls = []
    real = groupoid_module.compose

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groupoid_module, "compose", counting)
    with pytest.raises(SizeLimitError, match="composable triples"):
        check_groupoid_laws(g_branch, els, max_triples=triples - 1)
    assert calls == []
    assert check_groupoid_laws(g_branch, els, max_triples=triples).passed
    assert calls


def test_units_and_inverses_checks_the_right_unit_law(g_branch, branch_lattice, monkeypatch):
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    real = groupoid_module.compose

    def is_unit(a):
        return a.lag == 0 and a.left == a.right

    def broken(g, a, b):
        # a . d(a) goes missing for every non-unit a
        if not is_unit(a) and is_unit(b) and b.left == a.right:
            return None
        return real(g, a, b)

    assert any(not is_unit(a) for a in els)
    monkeypatch.setattr(groupoid_module, "compose", broken)
    failed = [e.name for e in check_groupoid_laws(g_branch, els).failures()]
    assert "units_and_inverses" in failed


def test_groupoid_laws_make_no_shift(g_branch, branch_lattice, monkeypatch):
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    calls = []
    real = groupoid_module.shift_n

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(groupoid_module, "shift_n", counting)
    assert check_groupoid_laws(g_branch, els).passed
    assert calls == []


def test_compose_rejects_bare_triples_without_shared_tail(g_branch):
    ef = make_lasso(g_branch, (), ("e", "f"))
    fe = make_lasso(g_branch, (), ("f", "e"))
    egf = make_lasso(g_branch, (), ("e", "g", "f"))
    assert ef.signature[0] == fe.signature[0] != egf.signature[0]
    # equal reps at the wrong phase, then different reps
    for right in (fe, egf):
        a = GroupoidElement(ef, 0, right)
        with pytest.raises(ValueError) as err:
            compose(g_branch, a, unit_at(g_branch, right))
        assert str(err.value) == f"no shared tail: {ef} and {right} at lag 0"


def test_bisection_homomorphism_small(g_branch, branch_lattice):
    els = build_elements(g_branch, branch_lattice, 1, 1, 2)
    gens = [s for s in generate_elements(g_branch, branch_lattice, 1) if not s.is_omega]
    rep = check_bisection_homomorphism(g_branch, gens, els)
    assert rep.passed, rep.entries[0].details


def test_hausdorff_separation_cases(g_branch, branch_lattice):
    ef = make_lasso(g_branch, (), ("e", "f"))
    egf = make_lasso(g_branch, (), ("e", "g", "f"))
    a = unit_at(g_branch, ef)
    b = unit_at(g_branch, egf)
    # both units start at v with lag zero, so the shallow witness slices
    # contain both and separation must deepen along the tails
    rep = check_hausdorff(g_branch, [(a, b)])
    assert rep.passed
    els = build_elements(g_branch, branch_lattice, 2, 2, 3)
    rng = random.Random(0)
    pairs = []
    for _ in range(150):
        i, j = rng.sample(range(len(els)), 2)
        pairs.append((els[i], els[j]))
    assert check_hausdorff(g_branch, pairs).passed


def test_separation_bound_keeps_hausdorff_verdicts(g_branch, g_loop, g_split):
    """The deepening in check_hausdorff stops after the longer prefix plus
    p + q edges, p and q the cycle lengths (Fine-Wilf).  The lcm(p, q)
    bound, also enough, finds the same separating depth on every ordered
    pair."""
    graphs = [g_branch, g_loop, g_split]
    graphs += [sparse_sink_free(random.Random(seed), 600) for seed in (7, 10)]
    deepened = 0
    for g in graphs:
        els = build_elements(g, generate_lattice(g), 1, 1, 3)
        pairs = [(a, b) for a in els for b in els if a != b]
        assert check_hausdorff(g, pairs).passed
        for a, b in pairs:
            reach = max(len(a.left.prefix), len(b.left.prefix)) + 1
            p, q = len(a.left.cycle), len(b.left.cycle)
            depth = separation_depth(g, a, b, reach + p + q)
            assert depth == separation_depth(g, a, b, reach + math.lcm(p, q))
            deepened += bool(depth)
    assert deepened > 0


def test_orbit_density(g_branch, g_loop, g_split):
    assert check_orbit_density(
        g_branch, enumerate_lassos(g_branch, 2, 3), 2
    ).passed
    assert check_orbit_density(g_loop, enumerate_lassos(g_loop, 1, 1), 2).passed
    # the two disjoint loops cannot see each other
    res = check_orbit_density(g_split, enumerate_lassos(g_split, 1, 1), 1)
    assert not res.passed


def test_random_graphs_pass_ck_and_identities():
    rng = random.Random(99)
    for _ in range(10):
        g = random_ultragraph(rng, max_vertices=4, max_edges=5, sink_free=True)
        lat = generate_lattice(g)
        assert verify_ck(g, lat, depth=2).passed
        assert check_set_identities(g, lat, depths=(1, 2)).passed
