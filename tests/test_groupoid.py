"""Groupoid elements, slices, cylinder refinement, Cuntz-Krieger checks."""

import gc
import math
import random

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ultragraph.groupoid as groupoid_module
import ultragraph.semigroup as semigroup_module

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
    ck_family,
    compose,
    concat_lasso,
    cylinder_member,
    edge_path,
    enumerate_lassos,
    enumerate_paths,
    generate_elements,
    groupoid_element,
    gx,
    idempotent,
    inverse,
    lasso_source,
    make_cylinder,
    make_lasso,
    product,
    refine_words,
    star,
    strip_lasso,
    unit_at,
    vertex_path,
    verify_ck,
    witness,
)

from conftest import (
    check_set_identities,
    ck_meet_failures_by_pivots,
    ck_meet_failures_by_sets,
    cylinder_words_by_levels,
    elements_by_pair_loop,
    groupoid_laws_by_compose,
    join_failures_by_sets,
    meet_identity_failures_by_sets,
    powerset_lattice,
    random_ultragraph,
    ring_ultragraph,
    search_groupoid_element,
    separation_depth,
    sparse_sink_free,
    word_count_up_to,
    word_masks_by_cylinders,
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
        gens = [s for s in generate_elements(g, 1) if not s.is_omega]
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


def test_groupoid_element_is_an_immutable_value(g_branch):
    els = build_elements(g_branch, 1, 1, 2)
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


def test_units_bisection_is_diagonal(g_branch):
    els = build_elements(g_branch, 1, 1, 2)
    full = idempotent(vertex_path("vwu"))
    diagonal = {a for a in els if bisection_member(g_branch, full, a)}
    assert diagonal == {a for a in els if a.lag == 0 and a.left == a.right}


def test_bisection_product_and_star(g_branch):
    te = t_edge(g_branch, "e")
    range_slice = product(g_branch, star(te), te)
    assert range_slice == idempotent(vertex_path(("w", "u")))
    els = build_elements(g_branch, 1, 1, 2)
    # the units over the boundary points starting in r(e)
    assert {a for a in els if bisection_member(g_branch, range_slice, a)} == {
        a
        for a in els
        if a.lag == 0 and a.left == a.right and lasso_source(g_branch, a.left) in fz("w", "u")
    }
    assert product(g_branch, te, te).is_omega


# --- cylinder sets ---


def test_make_cylinder_validation(g_branch):
    base = Ultrapath(("e",), fz("u", "w"))
    make_cylinder(g_branch, base, ("f",), (fz("w"),))
    with pytest.raises(ValueError):
        make_cylinder(g_branch, base, ("e",), ())  # e not emitted
    with pytest.raises(ValueError):
        make_cylinder(g_branch, base, (), (fz("u", "w"),))
    with pytest.raises(ValueError):
        make_cylinder(g_branch, base, (), (fz("x"),))


def test_cylinder_membership(g_branch):
    base = Ultrapath(("e",), fz("u", "w"))
    plain = CylinderSet(base=base)
    ef = make_lasso(g_branch, (), ("e", "f"))
    egf = make_lasso(g_branch, (), ("e", "g", "f"))
    fe = make_lasso(g_branch, (), ("f", "e"))
    assert cylinder_member(g_branch, ef, plain)
    assert cylinder_member(g_branch, egf, plain)
    assert not cylinder_member(g_branch, fe, plain)
    no_f = make_cylinder(g_branch, base, ("f",), ())
    assert not cylinder_member(g_branch, ef, no_f)
    assert cylinder_member(g_branch, egf, no_f)
    not_w = make_cylinder(g_branch, base, (), (fz("w"),))
    assert not cylinder_member(g_branch, ef, not_w)
    assert cylinder_member(g_branch, egf, not_w)


def test_refinement_words(g_branch):
    d_v = CylinderSet(base=vertex_path("v"))
    assert refine_words(g_branch, [d_v], 1) == (("e",),)
    assert refine_words(g_branch, [d_v], 2) == (("e", "f"), ("e", "g"))
    narrow = CylinderSet(base=Ultrapath(("e",), fz("w")))
    assert refine_words(g_branch, [narrow], 2) == (("e", "f"),)


def test_cylinder_words_match_level_oracle(g_branch, g_loop, g_split):
    rng = random.Random(13)
    graphs = [g_branch, g_loop, g_split]
    graphs += [random_ultragraph(rng, 4, 6, sink_free=True) for _ in range(8)]
    seen = 0
    for g in graphs:
        for base in enumerate_paths(g, 2):
            emitted = [e for e in sorted(g.edges) if g.source[e] in base.terminal]
            cylinders = [CylinderSet(base=base)]
            cylinders.append(make_cylinder(g, base, emitted[:1], ()))
            if len(base.terminal) > 1:
                one = frozenset(sorted(base.terminal)[:1])
                cylinders.append(make_cylinder(g, base, (), (one,)))
            for cyl in cylinders:
                for depth in range(base.length + 1, base.length + 5):
                    got = groupoid_module._cylinder_words(g, cyl, depth)
                    assert got == cylinder_words_by_levels(g, cyl, depth)
                    seen += len(got)
    assert seen > 10_000
    # GY keeps one word per level: at depth 20,000 it is e repeated
    d_v = CylinderSet(base=vertex_path("v"))
    assert groupoid_module._cylinder_words(g_loop, d_v, 20_000) == [("e",) * 20_000]


def test_refinement_depth_rules(g_branch):
    maximal = CylinderSet(base=Ultrapath(("e",), fz("u", "w")))
    assert refine_words(g_branch, [maximal], 1) == (("e",),)
    narrow = CylinderSet(base=Ultrapath(("e",), fz("w")))
    with pytest.raises(ValueError):
        refine_words(g_branch, [narrow], 1)
    with pytest.raises(ValueError):
        refine_words(g_branch, [CylinderSet(base=vertex_path("v"))], 0)
    carved = make_cylinder(g_branch, maximal.base, ("f",), ())
    with pytest.raises(ValueError):
        refine_words(g_branch, [carved], 1)
    assert refine_words(g_branch, [carved], 2) == (("e", "g"),)


def test_refinement_matches_membership(g_branch):
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
        make_cylinder(g_branch, Ultrapath(("e",), fz("u", "w")), ("f",), ())
    )
    cyls.append(
        make_cylinder(g_branch, vertex_path("vw"), (), (fz("v"),))
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


def test_nonempty_refinement_contains_bounded_lasso(g_branch):
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
            g_branch, Ultrapath(("e",), fz("u", "w")), ("f",), ()
        ),
        make_cylinder(g_branch, vertex_path("vw"), (), (fz("v"),)),
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
        rep = verify_ck(g, depth=2)
        assert rep.passed, rep.failures()
    rep3 = verify_ck(g_branch, depth=3)
    assert rep3.passed


def test_verify_ck_depth_guard(g_branch):
    with pytest.raises(ValueError):
        verify_ck(g_branch, depth=1)


def test_mutation_dropped_isometry_fails_at_vertex(g_branch):
    fam = ck_family(g_branch)
    del fam.isometries["e"]
    rep = check_family(g_branch, fam, 2)
    assert not rep.passed
    failed = {e.name: e.details for e in rep.failures()}
    assert list(failed) == ["family_shape", "vertex_decomposition"]
    assert failed["family_shape"] == ("missing isometry e",)
    assert any("vertex v" in d for d in failed["vertex_decomposition"])


def test_mutation_corrupted_meet_projection(g_branch):
    fam = ck_family(g_branch)
    fam.projections[fz("w")] = idempotent(vertex_path("vwu"))
    rep = check_family(g_branch, fam, 2)
    failed = {e.name for e in rep.failures()}
    assert "projection_meets" in failed


def test_mutation_swapped_ranges_fails_range_identity(g_branch):
    other = Ultragraph.build(
        ["v", "w", "u"],
        {"e": ("v", ("v",)), "f": ("w", ("w", "u")), "g": ("u", ("w",))},
    )
    fam = ck_family(other)
    rep = check_family(g_branch, fam, 2)
    failed = {e.name for e in rep.failures()}
    assert "isometry_range_identity" in failed


def test_mutation_shrunk_terminal_fails_at_depth_two(g_branch):
    fam = ck_family(g_branch)
    shrunk = Ultrapath(("e",), fz("w"))
    fam.isometries["e"] = SGElement(shrunk, Ultrapath((), fz("w")))
    rep = check_family(g_branch, fam, 2)
    failed = {e.name for e in rep.failures()}
    assert {"isometry_range_identity", "vertex_decomposition"} <= failed


def test_mutation_shrunk_join_projection(g_branch):
    fam = ck_family(g_branch)
    fam.projections[fz("v", "w")] = fam.projections[fz("v")]
    rep = check_family(g_branch, fam, 2)
    joins = {e.name: e for e in rep.failures()}["projection_joins"]
    # each set splits into its least vertex and the rest, in mask order
    assert joins.details == (
        "{v w} = {v} + {w}: [ef eg] != [ef eg fe]",
        "{u v w} = {u} + {v w}: [ef eg fe gf] != [ef eg gf]",
    )


def test_mutation_missing_projection_fails_meets_and_joins(g_branch):
    fam = ck_family(g_branch)
    del fam.projections[fz("v", "w")]
    rep = check_family(g_branch, fam, 2)
    failed = {e.name: e.details for e in rep.failures()}
    assert failed["projection_meets"] == ("missing projection {v w}",)
    # {v w} holds {v}, its least vertex, which has a projection
    assert failed["projection_joins"] == ("missing projection {v w}",)


def test_mutation_missing_meet_projection_reads_missing_not_zero(g_branch):
    fam = ck_family(g_branch)
    del fam.projections[fz("v")]
    rep = check_family(g_branch, fam, 2)
    meets = {e.name: e for e in rep.entries}["projection_meets"]
    # {u v} ^ {v w} = {v}, whose projection is missing: it wants None
    assert meets.details == (
        "{u v} * {v w}: got [{v} | {v}], want None",
        "missing projection {v}",
    )


def test_zero_projection_is_checked_as_the_empty_slice(g_branch):
    fam = ck_family(g_branch)
    fam.projections[fz("v")] = OMEGA
    rep = check_family(g_branch, fam, 2)
    failed = {e.name: e.details for e in rep.failures()}
    assert failed["family_shape"] == ("projection {v} carries omega",)
    assert failed["projection_meets"] == (
        "{u v} * {v w}: got [{v} | {v}], want omega",
    )
    assert failed["projection_joins"] == (
        "{u v} = {u} + {v}: [ef eg gf] != [gf]",
        "{v w} = {v} + {w}: [ef eg fe] != [fe]",
    )
    assert failed["vertex_decomposition"] == ("vertex v: [] != [ef eg]",)


DAMAGES = ("delete", "swap", "zero", "foreign", "delete_least")


def _damaged_family(g, damage, pick):
    """ck_family(g) with one projection deleted, two swapped, one mapped to
    the zero, or one more key holding a vertex outside the graph; or with
    the singleton of a vertex that is the least vertex of a larger set
    deleted, so that set's split reads no words for its least vertex."""
    fam = ck_family(g)
    sets = powerset_lattice(g)[1:]
    A = sets[pick % len(sets)]
    B = sets[pick // len(sets) % len(sets)]
    if damage == "delete":
        del fam.projections[A]
    elif damage == "swap":
        fam.projections[A], fam.projections[B] = fam.projections[B], fam.projections[A]
    elif damage == "zero":
        fam.projections[A] = OMEGA
    elif damage == "foreign":
        fam.projections[A | {"outside"}] = fam.projections[B]
    else:
        names = g.vertices_sorted()
        del fam.projections[frozenset({names[pick % max(1, len(names) - 1)]})]
    return fam


def _pair_key(line, sep):
    """A witness 'M = A + B: tail' or an oracle line 'A + B: tail' as the
    unordered pair {A, B} and its tail; any other line as itself."""
    head, _, tail = line.partition(": ")
    if sep not in head:
        return line
    left, right = head.split(" = ")[-1].split(sep)
    return frozenset((left, right)), tail


def _assert_witnesses_fail_in_oracle(entry, oracle, sep=" + "):
    """The entry's verdict is the oracle's, and each of its witnesses is a
    pair, or a missing set, that the oracle reports failing."""
    assert entry.passed == (not oracle)
    failing = {_pair_key(line, sep) for line in oracle}
    assert {_pair_key(line, sep) for line in entry.details} <= failing


def _family_word_masks(g, fam, depth):
    """The word mask of each nonempty lattice set's projection, None when
    the family has none, beside the sets and the mask formatter, read by
    the cylinder oracle rather than the route check_family takes."""
    sets = powerset_lattice(g)[1:]
    words_of, fmt_mask = word_masks_by_cylinders(g, depth)
    masks = []
    for A in sets:
        p = fam.projections.get(A)
        masks.append(None if p is None else 0 if p.is_omega else words_of(p.left))
    return sets, masks, fmt_mask


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    damage=st.sampled_from(DAMAGES),
    pick=st.integers(0, 10**6),
    depth=st.sampled_from((2, 3)),
)
def test_ck_mask_loops_match_set_oracles(seed, damage, pick, depth):
    """projection_meets reads one chain pair per set and the diagonals of
    U and each U - {v}, and projection_joins one split per set; each gives
    the verdict of the frozenset all-pairs loop and of the diagonal and
    pivot loop, and each witness is a line of the all-pairs loop."""
    g = random_ultragraph(random.Random(seed), max_vertices=5, max_edges=7, sink_free=True)
    fam = _damaged_family(g, damage, pick)
    got = {e.name: e for e in check_family(g, fam, depth).entries}

    want_meets = ck_meet_failures_by_sets(g, fam)
    _assert_witnesses_fail_in_oracle(got["projection_meets"], want_meets, " * ")
    assert (not ck_meet_failures_by_pivots(g, fam)) == (not want_meets)

    want_joins = join_failures_by_sets(*_family_word_masks(g, fam, depth))
    _assert_witnesses_fail_in_oracle(got["projection_joins"], want_joins)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    picks=st.lists(st.tuples(st.integers(0, 63), st.integers(0, 10**6)), min_size=1, max_size=2),
)
def test_pivot_meets_give_the_all_pairs_verdict_on_any_elements(seed, picks):
    """Any S_G elements in place of projections, not only damaged ones:
    check_family runs to the end, and projection_meets gives the verdict
    of the all-pairs loop and of the diagonal and pivot loop, each witness
    a line of the all-pairs loop."""
    g = random_ultragraph(random.Random(seed), max_vertices=4, max_edges=5, sink_free=True)
    elems = generate_elements(g, 1)
    fam = ck_family(g)
    sets = powerset_lattice(g)[1:]
    for at, pick in picks:
        fam.projections[sets[at % len(sets)]] = elems[pick % len(elems)]
    got = {e.name: e for e in check_family(g, fam, 2).entries}
    want_meets = ck_meet_failures_by_sets(g, fam)
    _assert_witnesses_fail_in_oracle(got["projection_meets"], want_meets, " * ")
    assert (not ck_meet_failures_by_pivots(g, fam)) == (not want_meets)


def test_non_idempotent_source_projection_fails_domination():
    """A vertex projection that is no idempotent has no order to read: the
    domination check names the edge and the set instead of raising.  The
    meets fail first at the empty set's chain pair, {u} against U - {u},
    a line of the all-pairs loop."""
    g = gx()
    fam = ck_family(g)
    fam.projections[fz("u")] = fam.isometries["e"]
    failed = {e.name: e.details for e in check_family(g, fam, 2).failures()}
    assert failed["isometry_source_domination"] == ("edge g: projection {u} is not idempotent",)
    first = failed["projection_meets"][0]
    assert first == "{u} * {v w}: got [(e, {w}) | {w}], want omega"
    assert first in ck_meet_failures_by_sets(g, fam)


def test_each_kind_of_chain_loop_pair_can_fail_alone():
    """Families that fail the all-pairs meet loop at one pair only, each a
    kind of pair the chain loop forms: U's diagonal with one vertex, a
    U - {v} diagonal at either vertex, the empty set's chain pair, and the
    last vertex's chain pair (U - {v}, U).  The chain loop reports that
    pair and nothing else."""
    one = Ultragraph.build(["a"], {"e": ("a", ("a",))})
    two = Ultragraph.build(["a", "b"], {"e": ("a", ("a",)), "f": ("b", ("a",))})
    cases = [
        (one, "a", lambda fam: fam.isometries["e"], "{a} * {a}"),
        (two, "a", lambda fam: fam.isometries["e"], "{a} * {a}"),
        (two, "b", lambda fam: fam.isometries["f"], "{b} * {b}"),
        (two, "a", lambda fam: fam.projections[fz("a", "b")], "{a} * {b}"),
        (two, "ab", lambda fam: fam.projections[fz("b")], "{a} * {a b}"),
    ]
    for g, key, value, pair in cases:
        fam = ck_family(g)
        fam.projections[frozenset(key)] = value(fam)
        oracle = ck_meet_failures_by_sets(g, fam)
        assert len(oracle) == 1 and oracle[0].startswith(pair + ": got "), oracle
        meets = {e.name: e for e in check_family(g, fam, 2).entries}["projection_meets"]
        assert meets.details == tuple(oracle)


@pytest.mark.parametrize("n", range(1, 15))
def test_verify_ck_products_are_the_diagonal_and_pivot_pairs(n):
    """verify_ck calls product once per diagonal of a pivot, U or a
    U - {v}, once per set other than U for its chain pair, one side of
    which is a pivot, and three times per edge: t_e* t_e, t_e t_e* and the
    domination order.  That is 2^n + n meets, not one per pair of sets;
    with one vertex U - {v} is empty, and U's diagonal is the one meet."""
    g = ring_ultragraph(n)
    calls = []

    def counted(*args):
        calls.append(None)
        return product(*args)

    with mock.patch.object(groupoid_module, "product", counted), mock.patch.object(
        semigroup_module, "product", counted
    ):
        rep = verify_ck(g, 2, max_size=2**n)
    assert len(calls) == (2**n + n if n > 1 else 1) + 3 * len(g.edges)
    assert rep.passed


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=st.integers(1, 4),
    singles=st.lists(st.integers(0, 31), min_size=4, max_size=4),
    missing=st.integers(0, 2**16 - 1),
    flips=st.lists(st.tuples(st.integers(1, 15), st.integers(0, 5)), max_size=3),
)
def test_split_failures_give_the_all_pairs_verdict(n, singles, missing, flips):
    """Any word masks, not only a family's: an additive map damaged by
    missing sets and flipped bits.  The split check's verdict is the
    all-pairs loop's, whichever sets are missing."""
    names = list("abcd"[:n])
    size = 1 << n
    words_at = [0] * size
    for m in range(1, size):
        low = m & -m
        words_at[m] = words_at[m ^ low] | singles[low.bit_length() - 1]
    for m, bit in flips:
        words_at[m % size] ^= 1 << bit
    words_at[0] = 0
    for m in range(1, size):
        if missing >> m & 1:
            words_at[m] = None

    sets = sorted(
        (frozenset(v for k, v in enumerate(names) if m >> k & 1) for m in range(1, size)),
        key=lambda s: tuple(sorted(s)),
    )
    masks = [words_at[sum(1 << names.index(v) for v in A)] for A in sets]
    got = groupoid_module._split_failures(Ultragraph.build(names, {}), words_at, bin)
    assert (not got) == (not join_failures_by_sets(sets, masks, bin))


@pytest.mark.parametrize("n", range(3, 8))
def test_undamaged_ring_families_match_the_set_oracles(n):
    """On ring_ultragraph(n) every verify_ck entry passes, as do the
    frozenset meet and all-pairs join loops, and a length-zero meet is the
    same element as one built anew."""
    g = ring_ultragraph(n)
    got = {e.name: e for e in verify_ck(g, 2).entries}
    assert all(e.passed for e in got.values()), got
    fam = ck_family(g)
    assert not ck_meet_failures_by_sets(g, fam)
    assert not join_failures_by_sets(*_family_word_masks(g, fam, 2))
    A, B = frozenset({"v0", "v1"}), frozenset({"v1", "v2"})
    C = A & B
    meet = product(g, fam.projections[A], fam.projections[B])
    assert meet == SGElement(Ultrapath((), C), Ultrapath((), C))
    assert meet == fam.projections[C]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    pick=st.integers(0, 10**6),
    depth=st.sampled_from((1, 2, 3)),
)
def test_set_identity_mask_loops_match_set_oracles(seed, pick, depth):
    """check_set_identities' meet and join identities, with the word mask
    of one lattice set, the empty set included, bent by one bit so that
    both can fail, give the verdicts of the frozenset all-pairs loops, and
    each witness is a pair those loops report failing."""
    g = random_ultragraph(random.Random(seed), max_vertices=5, max_edges=7, sink_free=True)
    sets = powerset_lattice(g)
    bent_set = sets[pick % len(sets)]
    real = word_masks_by_cylinders

    def bent_word_masks(g, depth):
        words_of, fmt_mask = real(g, depth)

        def bent(base):
            mask = words_of(base)
            return mask ^ 1 if not base.word and base.terminal == bent_set else mask

        return bent, fmt_mask

    with mock.patch.object(groupoid_module, "_word_masks", bent_word_masks):
        got = {e.name: e for e in check_set_identities(g, [depth]).entries}
        words_of, fmt_mask = groupoid_module._word_masks(g, depth)
    want_meets = meet_identity_failures_by_sets(sets, words_of)
    masks = [words_of(Ultrapath((), A)) for A in sets]
    want_joins = join_failures_by_sets(sets, masks, fmt_mask)
    _assert_witnesses_fail_in_oracle(got[f"meet_identity_depth_{depth}"], want_meets, " ^ ")
    _assert_witnesses_fail_in_oracle(got[f"join_identity_depth_{depth}"], want_joins)


def test_verify_ck_leaves_no_reference_cycle():
    """The word-mask closures hold no cycle, so a check's memo tables are
    freed when it returns, not at the next full collection."""
    g = ring_ultragraph(6)
    verify_ck(g, 2)
    gc.collect()
    gc.disable()
    try:
        verify_ck(g, 2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _mask_words(fmt_mask, mask):
    """Every word of the mask, one formatted bit at a time."""
    return sorted(fmt_mask(1 << i) for i in range(mask.bit_length()) if mask >> i & 1)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), depth=st.sampled_from((2, 3)))
def test_word_masks_match_the_cylinder_oracle(seed, depth):
    """_word_masks reads a length-zero base on two or more vertices off
    its vertices' masks.  On every lattice set, the empty set included,
    and every edge base, asked for in a seeded order, it gives the words
    that refining each base by _cylinder_words gives."""
    rng = random.Random(seed)
    g = random_ultragraph(rng, max_vertices=5, max_edges=7, sink_free=True)
    bases = [Ultrapath((), A) for A in powerset_lattice(g)]
    bases += [Ultrapath((e,), g.range[e]) for e in sorted(g.edges)]
    rng.shuffle(bases)
    words_of, fmt_mask = groupoid_module._word_masks(g, depth)
    want_of, want_fmt = word_masks_by_cylinders(g, depth)
    for base in bases:
        got, want = words_of(base), want_of(base)
        assert _mask_words(fmt_mask, got) == _mask_words(want_fmt, want), base
        assert fmt_mask(got) == want_fmt(want)


def test_mutation_missing_isometry_fails_family_shape(g_branch):
    fam = ck_family(g_branch)
    del fam.isometries["g"]
    rep = check_family(g_branch, fam, 2)
    shape = {e.name: e for e in rep.entries}["family_shape"]
    assert not shape.passed
    assert shape.details == ("missing isometry g",)


def test_projection_keyed_outside_the_vertex_set_fails_family_shape():
    g = gx()
    fam = ck_family(g)
    A = frozenset({"v", "zz"})
    fam.projections[A] = idempotent(Ultrapath((), A))
    rep = check_family(g, fam, 2)
    failed = {e.name: e.details for e in rep.failures()}
    assert failed == {"family_shape": ("projection {v zz} is not a lattice set",)}


def test_family_shape_lists_bad_projection_keys_in_set_order():
    """Keys outside the vertex set, interleaved in set_key order with
    lattice keys that carry the wrong element and added in no order, are
    reported in set_key order, a key's two messages together."""
    g = gx()
    fam = ck_family(g)
    v = frozenset({"v"})
    for names, gen in [
        ("w zz", idempotent(Ultrapath((), frozenset({"w", "zz"})))),
        ("u", OMEGA),
        ("zz", idempotent(Ultrapath((), frozenset({"zz"})))),
        ("v w", idempotent(Ultrapath((), v))),
        ("u zz", OMEGA),
        ("a", idempotent(Ultrapath((), frozenset({"a"})))),
    ]:
        fam.projections[frozenset(names.split())] = gen
    shape = {e.name: e for e in check_family(g, fam, 2).entries}["family_shape"]
    assert shape.details == (
        "projection {a} is not a lattice set",
        "projection {u} carries omega",
        "projection {u zz} is not a lattice set",
        "projection {u zz} carries omega",
        "projection {v w} carries [{v} | {v}]",
        "projection {w zz} is not a lattice set",
        "projection {zz} is not a lattice set",
    )


def test_projection_at_the_empty_set_fails_its_check():
    g = gx()
    fam = ck_family(g)
    names = [e.name for e in check_family(g, fam, 2).entries]
    assert "projection_of_empty_set_is_zero" in names
    fam.projections[frozenset()] = OMEGA
    failed = {e.name: e.details for e in check_family(g, fam, 2).failures()}
    assert failed == {
        "family_shape": ("projection {} carries omega",),
        "projection_of_empty_set_is_zero": (),
    }


def test_isometry_keyed_at_an_unknown_edge_fails_family_shape():
    g = gx()
    fam = ck_family(g)
    u = frozenset({"u"})
    fam.isometries["q"] = SGElement(Ultrapath(("q",), u), Ultrapath((), u))
    rep = check_family(g, fam, 2)
    failed = {e.name: e.details for e in rep.failures()}
    assert failed == {"family_shape": ("isometry q is not an edge",)}


def test_mutation_overlapping_edge_slices_fail_vertex_decomposition():
    g = Ultragraph.build(
        ["v", "w"], {"a": ("v", ("v",)), "b": ("v", ("w",)), "c": ("w", ("v",))}
    )
    fam = ck_family(g)
    fam.isometries["b"] = fam.isometries["a"]
    rep = check_family(g, fam, 2)
    vertex = {e.name: e for e in rep.entries}["vertex_decomposition"]
    assert vertex.details == ("vertex v: edge slices overlap",)


def test_set_identities_fixtures(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        rep = check_set_identities(g, depths=(1, 2, 3))
        assert rep.passed, rep.failures()


# --- groupoid-level check batteries ---


def test_groupoid_laws_on_fixtures(g_branch, g_loop, g_split):
    for g in (g_branch, g_loop, g_split):
        els = build_elements(g, 1, 1, 2)
        rep = check_groupoid_laws(g, els)
        assert rep.passed, rep.failures()


def test_build_elements_deterministic(g_branch):
    a = build_elements(g_branch, 1, 1, 2)
    b = build_elements(g_branch, 1, 1, 2)
    assert a == b
    assert len(a) == len(set(a))


def _build_outcome(build, g, *args):
    try:
        return build(g, *args)
    except (ValueError, SizeLimitError, GraphStructureError) as exc:
        return (type(exc).__name__, str(exc))


BUILD_BOUNDS = ((1, 1, 1), (1, 1, 2), (2, 1, 2), (1, 0, 3))


def _plain_ring(n):
    """The directed n-cycle e_i: v_i -> {v_(i+1 mod n)} alone."""
    return Ultragraph.build(
        [f"v{i}" for i in range(n)],
        {f"e{i}": (f"v{i}", (f"v{(i + 1) % n}",)) for i in range(n)},
    )


def test_build_elements_match_the_pair_oracle(g_branch, g_loop, g_split):
    """build_elements returns the pair loop's tuple (g_branch, g_loop and
    g_split are GX, GY and GW) and raises its errors, type and text, in
    its order.  Witness length 2 runs ring(2..4) at seed 0 only: the pair
    loop scans every lasso per pair (2,347 pairs times 60 lassos on
    ring(3)), and on all 24 rings it would take most of the suite's time."""
    graphs = [(g, BUILD_BOUNDS) for g in (g_branch, g_loop, g_split)]
    short = tuple(b for b in BUILD_BOUNDS if b[0] == 1)
    graphs += [
        (ring_ultragraph(n, seed), short if seed or n > 4 else BUILD_BOUNDS)
        for n in range(2, 8)
        for seed in range(4)
    ]
    graphs += [
        (random_ultragraph(random.Random(seed), 3, 4, sink_free=seed % 3 > 0), BUILD_BOUNDS)
        for seed in range(9)
    ]
    built = 0
    for g, bounds in graphs:
        for b in bounds:
            got = _build_outcome(build_elements, g, *b)
            assert got == _build_outcome(elements_by_pair_loop, g, *b), (g.edges, b)
            built += bool(got) and isinstance(got[0], GroupoidElement)
    assert built > 100

    sink = Ultragraph.build(["v", "w"], {"a": ("v", ("w",))})
    ring13 = _plain_ring(13)
    bad = [
        (sink, (1, 1, 2)),
        (g_branch, (1, 1, 0)),
        (g_branch, (1, -1, 2)),
        (g_branch, (-1, 1, 2)),
        (ring13, (1, 1, 2)),
        (sink, (-1, 1, 2)),
        (ring13, (-1, 1, 0)),
    ]
    for g, b in bad:
        got = _build_outcome(build_elements, g, *b)
        assert isinstance(got[0], str), (g.edges, b)
        assert got == _build_outcome(elements_by_pair_loop, g, *b), (g.edges, b)
    assert _build_outcome(build_elements, g_branch, -1, 1, 2) == (
        "ValueError",
        "witness_len must be nonnegative",
    )

    for g in (g_branch, ring_ultragraph(3)):
        els = build_elements(g, 1, 1, 2)
        for build in (build_elements, elements_by_pair_loop):
            assert build(g, 1, 1, 2, max_count=len(els)) == els
            with pytest.raises(SizeLimitError) as exc:
                build(g, 1, 1, 2, max_count=len(els) - 1)
            assert str(exc.value) == f"element build exceeded max_count={len(els) - 1}"


def test_element_build_concatenates_once_per_point(g_branch, monkeypatch):
    """One concat_lasso per listed coordinate and lasso in its terminal,
    and no groupoid_element, whose tail test cannot fail on a built
    element; the pair loop made 64 and 8,760 concat_lasso calls on these
    two samples."""
    calls = {"concat_lasso": 0, "groupoid_element": 0}

    def counted(name):
        original = getattr(groupoid_module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(groupoid_module, name, wrapper)

    counted("concat_lasso")
    counted("groupoid_element")
    for g, concats, size in ((g_branch, 18, 14), (ring_ultragraph(3), 1_020, 1_440)):
        calls.update(dict.fromkeys(calls, 0))
        els = build_elements(g, 1, 1, 2)
        assert (calls["concat_lasso"], calls["groupoid_element"]) == (concats, 0)
        assert len(els) == size
        assert all(type(a) is GroupoidElement for a in els)


def test_element_budgets_raise_size_limit(g_branch):
    els = build_elements(g_branch, 1, 1, 2)
    with pytest.raises(SizeLimitError, match="max_count=3"):
        build_elements(g_branch, 1, 1, 2, max_count=3)
    assert check_groupoid_laws(g_branch, els).passed
    with pytest.raises(SizeLimitError, match="composable pairs"):
        check_groupoid_laws(g_branch, els, max_pairs=5)


def test_lattice_budget_raises_size_limit_on_thirteen_vertices():
    ring = _plain_ring(13)
    with pytest.raises(SizeLimitError):
        enumerate_paths(ring, 1)
    with pytest.raises(SizeLimitError):
        build_elements(ring, 1, 1, 2)
    with pytest.raises(SizeLimitError):
        verify_ck(ring)


def test_word_budget_fires_before_any_word_is_built(g_branch, monkeypatch):
    # GX has 170,625 words of length 40 and 226,030 of length 41
    assert word_count_up_to(g_branch, 41) - word_count_up_to(g_branch, 40) > 200_000
    assert word_count_up_to(g_branch, 40) - word_count_up_to(g_branch, 39) <= 200_000
    built = []
    real = groupoid_module._cylinder_words

    def counting(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(groupoid_module, "_cylinder_words", counting)
    with pytest.raises(SizeLimitError, match="depth-41 .* max_count=200000 words"):
        groupoid_module._word_masks(g_branch, 41)
    groupoid_module._word_masks(g_branch, 40)
    assert built == []
    # the words the masks are built from are the ones the guard counts
    words_of, _ = groupoid_module._word_masks(g_branch, 12)
    full = words_of(Ultrapath((), g_branch.vertices))
    assert bin(full).count("1") == word_count_up_to(g_branch, 12) - word_count_up_to(
        g_branch, 11
    )
    # past the budget both public routes refuse before any word
    built.clear()
    with pytest.raises(SizeLimitError, match="depth-60 refinement"):
        verify_ck(g_branch, 60)
    with pytest.raises(SizeLimitError, match="depth-60 refinement"):
        check_set_identities(g_branch, [60])
    assert built == []


def test_depth_budget_fires_before_any_level(g_loop, g_split, monkeypatch):
    """On GY and GW the words do not multiply, so no level passes the word
    budget; but refinement builds one level per edge of depth, so a depth
    past 200,000 refuses before any level is counted, and 200,000 itself
    is let through."""
    real = groupoid_module.word_levels
    walked = []
    monkeypatch.setattr(groupoid_module, "word_levels", lambda g: walked.append(g) or real(g))
    for g in (g_loop, g_split):
        with pytest.raises(SizeLimitError, match="max_count=200000 levels"):
            groupoid_module._word_masks(g, 200_001)
        with pytest.raises(SizeLimitError, match="^depth-200001 refinement exceeded"):
            verify_ck(g, 200_001)
        d = CylinderSet(base=vertex_path(g.vertices))
        with pytest.raises(SizeLimitError, match="depth-200001 refinement"):
            refine_words(g, [d], 200_001)
    assert walked == []
    groupoid_module._check_word_budget(g_loop, 200_000)
    assert walked == [g_loop]


def test_refine_words_keeps_the_word_budget(g_branch, monkeypatch):
    d_v = CylinderSet(base=vertex_path("v"))
    real = groupoid_module._cylinder_words
    for depth in range(1, 7):
        assert refine_words(g_branch, [d_v], depth) == tuple(
            sorted(set(real(g_branch, d_v, depth)))
        )
    built = []
    monkeypatch.setattr(
        groupoid_module, "_cylinder_words", lambda *args: built.append(args) or []
    )
    with pytest.raises(SizeLimitError, match="depth-41 .* max_count=200000 words"):
        refine_words(g_branch, [d_v], 41)
    assert built == []


def _counting_compose(monkeypatch):
    """Patch _PointTable.compose to record its (a, b) calls."""
    calls = []
    real = groupoid_module._PointTable.compose

    def counting(table, a, b):
        calls.append((a, b))
        return real(table, a, b)

    monkeypatch.setattr(groupoid_module._PointTable, "compose", counting)
    return calls


def test_pair_budget_fires_before_any_compose(g_branch, monkeypatch):
    els = build_elements(g_branch, 1, 1, 2)
    pairs = sum(1 for a in els for b in els if a.right == b.left)
    calls = _counting_compose(monkeypatch)
    with pytest.raises(SizeLimitError, match="composable pairs"):
        check_groupoid_laws(g_branch, els, max_pairs=pairs - 1)
    assert calls == []
    assert check_groupoid_laws(g_branch, els, max_pairs=pairs).passed
    assert calls


@pytest.mark.parametrize("graph", [gx, lambda: ring_ultragraph(3)], ids=["GX", "ring(3)"])
def test_groupoid_laws_compose_four_times_per_element_and_once_per_pair(graph, monkeypatch):
    """On a passing sample the units loop forms four products per element
    and associativity one per composable pair; a visit to the triples
    would add at least one more per pair."""
    g = graph()
    els = build_elements(g, 1, 1, 2)
    pairs = sum(1 for a in els for b in els if a.right == b.left)
    assert pairs > len(els)
    calls = _counting_compose(monkeypatch)
    assert check_groupoid_laws(g, els).passed
    assert len(calls) == 4 * len(els) + pairs


def test_units_and_inverses_checks_the_right_unit_law(g_branch, monkeypatch):
    els = build_elements(g_branch, 1, 1, 2)
    real = groupoid_module._PointTable.compose

    def is_unit(a):
        return a[1] == 0 and a[0] == a[2]

    def broken(table, a, b):
        # a . d(a) goes missing for every non-unit a
        if not is_unit(a) and is_unit(b) and b[0] == a[2]:
            return None
        return real(table, a, b)

    assert any(a.lag != 0 or a.left != a.right for a in els)
    monkeypatch.setattr(groupoid_module._PointTable, "compose", broken)
    failed = [e.name for e in check_groupoid_laws(g_branch, els).failures()]
    assert "units_and_inverses" in failed


def test_associativity_compares_both_bracketings(g_branch, monkeypatch):
    """A compose that weighs the right factor's lag twice is not
    associative: (ab)c and a(bc) differ whenever c's lag is not zero."""
    els = build_elements(g_branch, 1, 1, 2)

    def lopsided(table, a, b):
        return None if a[2] != b[0] else (a[0], a[1] + 2 * b[1], b[2])

    monkeypatch.setattr(groupoid_module._PointTable, "compose", lopsided)
    rep = {e.name: e for e in check_groupoid_laws(g_branch, els).entries}
    want = [
        f"{a} . {b} . {c}"
        for a in els
        for b in els
        if b.left == a.right
        for c in els
        if c.left == b.right and c.lag != 0
    ]
    assert want
    assert rep["associativity"].details == tuple(want[:5])


@pytest.mark.parametrize("fault", ["pair", "units"])
def test_associativity_falls_back_to_the_triples(g_branch, monkeypatch, fault):
    """Two composes that add one to the lag: on two positive lags
    ("pair"), which the pair loop forms and the units loop never does;
    and, with the units left out of the sample, whenever the left factor
    is not a sample element ("units"), which the units loop forms and the
    pair loop never does.  Either fault sends the check to the triple
    loop, which names the triples whose bracketings differ."""
    els = build_elements(g_branch, 1, 1, 2)
    if fault == "units":
        els = [a for a in els if a.lag != 0 or a.left != a.right]
    members = set(els)
    ids = set(groupoid_module._PointTable(els).triples)

    def damaged(table, a, b):
        if a[2] != b[0]:
            return None
        extra = a[1] > 0 and b[1] > 0 if fault == "pair" else a not in ids
        return (a[0], a[1] + b[1] + extra, b[2])

    def mul(a, b):
        extra = a.lag > 0 and b.lag > 0 if fault == "pair" else a not in members
        return GroupoidElement(a.left, a.lag + b.lag + extra, b.right)

    want = [
        f"{a} . {b} . {c}"
        for a in els
        for b in els
        if b.left == a.right
        for c in els
        if c.left == b.right and mul(mul(a, b), c) != mul(a, mul(b, c))
    ]
    assert want
    monkeypatch.setattr(groupoid_module._PointTable, "compose", damaged)
    rep = {e.name: e for e in check_groupoid_laws(g_branch, els).entries}
    assert rep["units_and_inverses"].passed == (fault == "pair")
    assert not rep["associativity"].passed
    assert rep["associativity"].details == tuple(want[:5])


def test_point_table_compose_matches_compose_on_every_pair(g_branch):
    for g, bounds in ((g_branch, (2, 1, 3)), (ring_ultragraph(2), (1, 1, 1))):
        els = build_elements(g, *bounds)
        table = groupoid_module._PointTable(els)
        points = table.points
        assert len({x.signature[0] for x in points}) > 1
        defined = 0
        for a, ta in zip(els, table.triples):
            for b, tb in zip(els, table.triples):
                got = table.compose(ta, tb)
                if got is not None:
                    got = GroupoidElement(points[got[0]], got[1], points[got[2]])
                    defined += 1
                assert got == compose(g, a, b), (a, b)
        assert defined > len(els)


def _law_outcome(check, g, els):
    try:
        rep = check(g, els)
    except (ValueError, SizeLimitError) as exc:
        return (type(exc).__name__, str(exc))
    return [(e.name, e.passed, e.details) for e in rep.entries]


def _bare_triple(els, pick):
    """A bare triple whose points have different reps, at the lag that
    passes the phase test, so only the rep test can refuse it; None when
    every point of els has one rep."""
    points = sorted({x for a in els for x in (a.left, a.right)})
    pairs = [(p, q) for p in points for q in points if p.signature[0] != q.signature[0]]
    if not pairs:
        return None
    p, q = pairs[pick % len(pairs)]
    return GroupoidElement(p, q.signature[1] - p.signature[1], q)


LAW_DAMAGES = ("none", "duplicate", "drop", "lag+1", "lag-1", "bare")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    damage=st.sampled_from(LAW_DAMAGES),
    pick=st.integers(0, 10**6),
    bounds=st.sampled_from(((1, 1, 1), (1, 1, 2), (1, 0, 3))),
)
def test_groupoid_laws_match_the_compose_oracle(seed, damage, pick, bounds):
    """check_groupoid_laws gives the oracle's report, entry for entry, on
    build_elements samples and on damaged ones; where one raises, both
    raise the same ValueError text."""
    g = random_ultragraph(random.Random(seed), max_vertices=3, max_edges=4, sink_free=True)
    els = list(build_elements(g, *bounds))
    i = pick % len(els)
    if damage == "duplicate":
        els.insert(pick % (len(els) + 1), els[i])
    elif damage == "drop":
        del els[i]
    elif damage in ("lag+1", "lag-1"):
        a = els[i]
        els[i] = GroupoidElement(a.left, a.lag + (1 if damage == "lag+1" else -1), a.right)
    elif damage == "bare":
        bare = _bare_triple(els, pick)
        if bare is not None:
            els.insert(i, bare)
    got = _law_outcome(check_groupoid_laws, g, els)
    assert got == _law_outcome(groupoid_laws_by_compose, g, els)


def test_groupoid_laws_make_no_shift(g_branch, monkeypatch):
    els = build_elements(g_branch, 1, 1, 2)
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
    assert ef.signature[1] == egf.signature[1]
    # equal reps at the wrong phase, then different reps at a lag that
    # passes the phase test; the law check refuses both with compose's text
    for right in (fe, egf):
        a = GroupoidElement(ef, 0, right)
        want = f"no shared tail: {ef} and {right} at lag 0"
        with pytest.raises(ValueError) as err:
            compose(g_branch, a, unit_at(g_branch, right))
        assert str(err.value) == want
        with pytest.raises(ValueError) as err:
            check_groupoid_laws(g_branch, [a])
        assert str(err.value) == want


def test_bisection_homomorphism_small(g_branch):
    els = build_elements(g_branch, 1, 1, 2)
    gens = [s for s in generate_elements(g_branch, 1) if not s.is_omega]
    rep = check_bisection_homomorphism(g_branch, gens, els)
    assert rep.passed, rep.entries[0].details


def test_hausdorff_separation_cases(g_branch):
    ef = make_lasso(g_branch, (), ("e", "f"))
    egf = make_lasso(g_branch, (), ("e", "g", "f"))
    a = unit_at(g_branch, ef)
    b = unit_at(g_branch, egf)
    # both units start at v with lag zero, so the shallow witness slices
    # contain both and separation must deepen along the tails
    rep = check_hausdorff(g_branch, [(a, b)])
    assert rep.passed
    els = build_elements(g_branch, 2, 2, 3)
    rng = random.Random(0)
    pairs = []
    for _ in range(150):
        i, j = rng.sample(range(len(els)), 2)
        pairs.append((els[i], els[j]))
    assert check_hausdorff(g_branch, pairs).passed


def test_hausdorff_deepens_past_the_longer_period():
    # abaaba has periods 3 and 5 (Fine-Wilf extremal, 3 + 5 - 2 letters),
    # so the units on (aba)* and (abaab)* first differ at edge 7: one
    # cycle length, either one, is not enough depth to split them
    g = Ultragraph.build(["v", "w"], {"a": ("v", ("v", "w")), "b": ("w", ("v",))})
    a = unit_at(g, make_lasso(g, (), ("a", "b", "a")))
    b = unit_at(g, make_lasso(g, (), ("a", "b", "a", "a", "b")))
    assert separation_depth(g, a, b, 20) == separation_depth(g, b, a, 20) == 7
    assert check_hausdorff(g, [(a, b)]).passed


def test_separation_bound_keeps_hausdorff_verdicts(g_branch, g_loop, g_split):
    """The deepening in check_hausdorff stops after the longer prefix plus
    p + q edges, p and q the cycle lengths (Fine-Wilf).  The lcm(p, q)
    bound, also enough, finds the same separating depth on every ordered
    pair."""
    graphs = [g_branch, g_loop, g_split]
    graphs += [sparse_sink_free(random.Random(seed), 600) for seed in (7, 10)]
    deepened = 0
    for g in graphs:
        els = build_elements(g, 1, 1, 3)
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
        assert verify_ck(g, depth=2).passed
        assert check_set_identities(g, depths=(1, 2)).passed
