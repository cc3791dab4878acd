"""Inverse semigroup of ultrapath pairs, idempotent order, semicharacters."""

import itertools
import random

import pytest

from ultragraph import (
    OMEGA,
    OMEGA_CHARACTER,
    SGElement,
    Semicharacter,
    SizeLimitError,
    Ultrapath,
    edge_path,
    enumerate_lassos,
    enumerate_paths,
    eval_char,
    filter_of,
    generate_elements,
    generate_lattice,
    idempotent,
    idempotent_leq,
    idempotent_leq_by_shape,
    is_idempotent,
    pair,
    product,
    star,
    vertex_path,
)

from conftest import product_by_rules, random_ultragraph


def fz(*names):
    return frozenset(names)


def t_edge(g, e):
    p = edge_path(g, e)
    return SGElement(p, Ultrapath((), p.terminal))


def test_pair_requires_matching_ranges(g_branch):
    with pytest.raises(ValueError):
        pair(edge_path(g_branch, "e"), edge_path(g_branch, "f"))
    s = pair(edge_path(g_branch, "f"), vertex_path("v"))
    assert s.left.word == ("f",) and s.right.length == 0


def test_product_extension_rules(g_branch):
    te = t_edge(g_branch, "e")
    q_v = idempotent(vertex_path("v"))
    q_range = idempotent(vertex_path(("w", "u")))
    # source projection absorbs on the left, range projection on the right
    assert product(g_branch, q_v, te) == te
    assert product(g_branch, te, q_range) == te
    # conjugates
    assert product(g_branch, star(te), te) == q_range
    ee = product(g_branch, te, star(te))
    assert ee == SGElement(edge_path(g_branch, "e"), edge_path(g_branch, "e"))
    # an isometry squares to zero when its range misses its source
    assert product(g_branch, te, te) == OMEGA


def test_product_set_overlap_rule(g_branch):
    a = idempotent(vertex_path("vw"))
    b = idempotent(vertex_path("wu"))
    assert product(g_branch, a, b) == idempotent(vertex_path("w"))
    assert product(g_branch, idempotent(vertex_path("v")), b) == OMEGA


def test_omega_absorbs(g_branch):
    te = t_edge(g_branch, "e")
    assert product(g_branch, te, OMEGA) == OMEGA
    assert product(g_branch, OMEGA, te) == OMEGA
    assert star(OMEGA) == OMEGA
    assert OMEGA.is_omega and not te.is_omega


def test_full_vertex_projection_is_identity(g_branch, branch_lattice):
    one = idempotent(vertex_path("vwu"))
    for s in generate_elements(g_branch, branch_lattice, 2):
        assert product(g_branch, one, s) == s
        assert product(g_branch, s, one) == s


def test_generate_elements_count_and_shape(g_branch, branch_lattice):
    els = generate_elements(g_branch, branch_lattice, 2)
    assert len(els) == 63
    assert OMEGA in els
    for s in els:
        if not s.is_omega:
            assert s.left.terminal == s.right.terminal
    assert len(set(els)) == len(els)
    # 18 paths fit the budget, their 62 pairs do not
    with pytest.raises(SizeLimitError, match="element generation"):
        generate_elements(g_branch, branch_lattice, 2, max_count=30)


def test_involution_laws(g_branch, branch_lattice):
    els = generate_elements(g_branch, branch_lattice, 2)
    for s in els:
        assert star(star(s)) == s
        # s s* s = s on a sample of the elements
    rng = random.Random(11)
    sample = rng.sample(els, 20)
    for s in sample:
        sss = product(g_branch, product(g_branch, s, star(s)), s)
        assert sss == s
        for t in sample:
            assert star(product(g_branch, s, t)) == product(
                g_branch, star(t), star(s)
            )


def test_associativity_sampled(g_branch, branch_lattice):
    els = generate_elements(g_branch, branch_lattice, 2)
    sample = random.Random(3).sample(els, 18)
    for s, t, u in itertools.product(sample, repeat=3):
        lhs = product(g_branch, product(g_branch, s, t), u)
        rhs = product(g_branch, s, product(g_branch, t, u))
        assert lhs == rhs


def test_idempotents_commute_and_order_routes_agree(g_branch, branch_lattice):
    els = generate_elements(g_branch, branch_lattice, 2)
    idems = [s for s in els if is_idempotent(s)]
    assert len(idems) == 19  # 18 path idempotents plus the zero
    for e in idems:
        for f in idems:
            ef = product(g_branch, e, f)
            assert ef == product(g_branch, f, e)
            assert is_idempotent(ef)
            assert idempotent_leq(g_branch, e, f) == idempotent_leq_by_shape(
                g_branch, e, f
            )
    with pytest.raises(ValueError):
        idempotent_leq(g_branch, t_edge(g_branch, "e"), idems[0])


def test_idempotent_order_examples(g_branch):
    deep = idempotent(Ultrapath(("e", "f"), fz("v")))
    shallow = idempotent(vertex_path("v"))
    narrow = idempotent(Ultrapath(("e",), fz("w")))
    wide = idempotent(Ultrapath(("e",), fz("u", "w")))
    assert idempotent_leq(g_branch, deep, shallow)
    assert not idempotent_leq(g_branch, shallow, deep)
    assert idempotent_leq(g_branch, narrow, wide)
    assert not idempotent_leq(g_branch, wide, narrow)
    assert idempotent_leq(g_branch, OMEGA, wide)
    assert not idempotent_leq(g_branch, wide, OMEGA)


# --- semicharacters and filters ---


def test_semicharacter_construction_guards(g_branch):
    x = Ultrapath(("e",), fz("w"))
    lasso = enumerate_lassos(g_branch, 1, 2)[0]
    Semicharacter(path=x)
    Semicharacter(ray=lasso)
    with pytest.raises(ValueError):
        Semicharacter(path=x, ray=lasso)
    assert OMEGA_CHARACTER.is_constant_one


def test_eval_char_on_paths(g_branch):
    chi = Semicharacter(path=Ultrapath(("e", "f"), fz("v")))
    assert eval_char(g_branch, chi, idempotent(vertex_path("v"))) == 1
    assert eval_char(g_branch, chi, idempotent(Ultrapath(("e",), fz("u", "w")))) == 1
    assert eval_char(g_branch, chi, idempotent(Ultrapath(("e",), fz("u")))) == 0
    assert eval_char(g_branch, chi, idempotent(vertex_path("w"))) == 0
    assert eval_char(g_branch, chi, OMEGA) == 0
    with pytest.raises(ValueError):
        eval_char(g_branch, chi, t_edge(g_branch, "e"))


def test_eval_char_on_rays(g_branch):
    ray = enumerate_lassos(g_branch, 0, 2)[0]  # (ef)*
    chi = Semicharacter(ray=ray)
    assert eval_char(g_branch, chi, idempotent(Ultrapath(("e", "f"), fz("v")))) == 1
    assert eval_char(g_branch, chi, idempotent(Ultrapath(("e",), fz("w")))) == 1
    assert eval_char(g_branch, chi, idempotent(Ultrapath(("e",), fz("u")))) == 0


def test_filters_are_proper_filters(g_branch, branch_lattice):
    paths = enumerate_paths(g_branch, branch_lattice, 2)
    universe = [idempotent(x) for x in enumerate_paths(g_branch, branch_lattice, 3)]
    chars = [Semicharacter(path=x) for x in paths]
    chars += [Semicharacter(ray=x) for x in enumerate_lassos(g_branch, 1, 3)]
    for chi in chars:
        accepted = set(filter_of(g_branch, chi, universe))
        assert accepted  # a vertex projection always evaluates to one
        assert OMEGA not in accepted
        for e in accepted:
            for f in universe:
                if idempotent_leq(g_branch, e, f):
                    assert f in accepted
        for e in accepted:
            for f in accepted:
                assert product(g_branch, e, f) in accepted


def test_product_matches_rule_oracle(g_branch, branch_lattice):
    cases = [(g_branch, generate_elements(g_branch, branch_lattice, 2))]
    # two, four and two vertices, with 82, 220 and 28 elements
    for seed in (4, 9, 8):
        g = random_ultragraph(random.Random(seed), max_vertices=4, max_edges=4)
        cases.append((g, generate_elements(g, generate_lattice(g), 2)))
    for g, els in cases:
        nonzero = 0
        for s in els:
            for t in els:
                got = product(g, s, t)
                assert got == product_by_rules(g, s, t), (s, t)
                nonzero += not got.is_omega
        assert 0 < nonzero < len(els) ** 2


def copied(x):
    """An ultrapath equal to x that shares no field object with it."""
    return Ultrapath(tuple(list(x.word)), frozenset(set(x.terminal)))


def test_sgelement_is_an_immutable_value(g_branch, branch_lattice):
    s = idempotent(vertex_path("v"))
    with pytest.raises(AttributeError):
        s.left = vertex_path("w")
    with pytest.raises(AttributeError):
        OMEGA.right = vertex_path("w")
    # the zero comes back as the OMEGA object itself, which _agree tests
    # by identity
    assert star(OMEGA) is OMEGA and star(SGElement(None, None)) is OMEGA
    els = generate_elements(g_branch, branch_lattice, 2)
    zeros = 0
    for a in els:
        for b in els:
            got = product(g_branch, a, b)
            if got.is_omega:
                zeros += 1
                assert got is OMEGA
            else:
                fresh = SGElement(copied(got.left), copied(got.right))
                assert got == fresh and hash(got) == hash(fresh)
    assert zeros > 0
