"""Command-line interface: exit codes, report shapes, byte stability."""

import contextlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ultragraph.cli as cli
import ultragraph.core as core
import ultragraph.groupoid as groupoid_module
import ultragraph.semigroup as semigroup
from ultragraph import (
    OMEGA,
    SGElement,
    Ultrapath,
    build_elements,
    concat,
    emit,
    emit_file,
    generate_elements,
    gw,
    gx,
    gy,
    parse_file,
    product,
    skew_product,
    star,
)
from ultragraph.cli import main
from ultragraph.semigroup import glue, rule_remainders

import conftest
from conftest import (
    lattice_labels,
    product_by_rules,
    random_ultragraph,
    remainder_rows_by_all_pairs,
    ring_ultragraph,
    semigroup_laws_by_product,
)

REPO = Path(__file__).resolve().parent.parent
FIXDIR = REPO / "fixtures"
GX = str(FIXDIR / "GX.ug")
GY = str(FIXDIR / "GY.ug")
GW = str(FIXDIR / "GW.ug")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_every_subcommand_passes_on_branch_fixture(capsys):
    for argv in (
        ["validate", GX],
        ["lattice", GX],
        ["paths", GX],
        ["semigroup", GX],
        ["groupoid", GX],
        ["ck", GX],
        ["analyze", GX],
        ["skew", GX, "--window", "2"],
    ):
        code, out, err = run(argv, capsys)
        assert code == 0, (argv, out, err)
        assert "[result]" in out
        assert "failed = 0" in out


def test_analyze_verdicts_and_exit_codes(capsys):
    code, out, _ = run(["analyze", GX], capsys)
    assert code == 0
    assert "verdict = SimpleByThm" in out
    assert "loop_free = false" in out  # informational, does not gate

    code, out, _ = run(["analyze", GY], capsys)
    assert code == 1
    assert "verdict = NotCoveredByThm" in out
    assert "condition (K) fails at: v" in out

    code, out, _ = run(["analyze", GW], capsys)
    assert code == 1
    assert "verdict = NotCoveredByThm" in out
    assert "not cofinal" in out


def test_analyze_bound_below_one_exits_two(capsys):
    for bound in ("0", "-3"):
        code, out, err = run(["analyze", GX, "--bound", bound], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "--bound" in err


def test_analyze_default_bound_prints_as_the_explicit_one(capsys, tmp_path):
    # the default bound is decided from the edge components, --bound N by
    # the pruned walk; with N = 2|E| the reports are the same bytes
    ring = tmp_path / "ring20.ug"
    ring.write_text(emit(ring_ultragraph(20)))
    graphs = [(GX, gx()), (GY, gy()), (GW, gw()), (str(ring), ring_ultragraph(20))]
    for path, g in graphs:
        argv = ["analyze", path, "--bound", str(2 * len(g.edges))]
        for fmt in ("json", "text"):
            default = run(argv[:2] + ["--format", fmt], capsys)
            assert run(argv + ["--format", fmt], capsys) == default


def test_negative_bounds_and_pairs_exit_two(capsys, tmp_path):
    # paths skips the lassos on a graph with a sink, but not the bound check;
    # groupoid checks its flags before it rejects the sink
    sink = tmp_path / "sink.ug"
    sink.write_text("ultragraph\nvertex a\nvertex b\nedge e a { b }\n")
    for argv, flag in (
        (["paths", GX, "--prefix-bound", "-2"], "prefix_bound"),
        (["groupoid", GX, "--prefix-bound", "-2"], "prefix_bound"),
        (["groupoid", GX, "--pairs", "-3"], "--pairs"),
        (["paths", str(sink), "--prefix-bound", "-2"], "prefix_bound"),
        (["paths", str(sink), "--cycle-bound", "0"], "cycle_bound"),
        (["paths", str(sink), "--prefix-bound", "-2", "--cycle-bound", "0"], "cycle_bound"),
        (["groupoid", str(sink), "--prefix-bound", "-2"], "prefix_bound"),
        (["groupoid", str(sink), "--cycle-bound", "0"], "cycle_bound"),
        (["groupoid", str(sink), "--witness-len", "-1"], "witness_len"),
    ):
        code, out, err = run(argv, capsys)
        assert code == 2 and out == "", argv
        assert err.startswith("error: ") and flag in err, argv
    code, out, _ = run(["paths", str(sink), "--format", "json"], capsys)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["lassos"]["details"] == {"skipped": "graph has sinks"}
    code, out, _ = run(["groupoid", GX, "--pairs", "0", "--format", "json"], capsys)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["hausdorff_separation"]["details"]["pairs"] == 0


def test_groupoid_pairs_past_the_pair_count_take_every_pair(monkeypatch, capsys):
    """GX has 14 elements at the defaults, so 91 pairs: from --pairs 91 up
    the sample is every pair in sorted order, the set the random draws
    would reach, and the report is the same."""
    seen = []
    real = cli.check_hausdorff

    def recording(g, pairs):
        seen.append(list(pairs))
        return real(g, pairs)

    monkeypatch.setattr(cli, "check_hausdorff", recording)
    outs = {run(["groupoid", GX, "--pairs", p, "--format", "json"], capsys) for p in ("91", "1000000")}
    assert len(outs) == 1
    code, out, _ = outs.pop()
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["hausdorff_separation"]["details"]["pairs"] == 91
    els = build_elements(gx(), 1, 1, 2)
    every = [(els[i], els[j]) for i in range(len(els)) for j in range(i + 1, len(els))]
    assert len(every) == 91 and seen == [every, every]


def test_flag_errors_come_before_the_lattice_guard(tmp_path, capsys):
    """ring(13) has 8,192 vertex sets, past the lattice's 4,096-set guard:
    a bad --max-len, --depth, lasso bound or --witness-len still exits 2,
    as on ring(6), and good flags still fail as size_limit."""
    bad = (
        (["paths", "--max-len", "-1"], "error: max_len must be nonnegative"),
        (["semigroup", "--max-len", "-1"], "error: max_len must be nonnegative"),
        (["ck", "--depth", "1"], "error: verification depth must be at least 2"),
        (["groupoid", "--cycle-bound", "0"], "error: cycle_bound must be positive"),
        (["groupoid", "--prefix-bound", "-1"], "error: prefix_bound must not be negative"),
        (["groupoid", "--witness-len", "-1"], "error: witness_len must be nonnegative"),
    )
    for n in (6, 13):
        path = tmp_path / f"ring{n}.ug"
        path.write_text(emit(ring_ultragraph(n)))
        for (command, *flags), message in bad:
            code, out, err = run([command, str(path), *flags], capsys)
            assert (code, out, err.strip()) == (2, "", message), (n, command)
    for command in ("paths", "semigroup", "ck", "groupoid"):
        code, out, err = run([command, str(path), "--format", "json"], capsys)
        checks = json.loads(out)["checks"]
        assert code == 1, err
        assert checks[0]["witnesses"] == ["lattice closure exceeded max_size=4096"]


def test_groupoid_pair_budget_fails_before_any_separation(tmp_path, monkeypatch, capsys):
    """ring(4) has 1,042 elements at the defaults, 542,361 pairs: --pairs
    1000000 passes the 100,000-pair budget, so the command reports
    size_limit before it samples, separates or checks a law."""
    path = tmp_path / "ring4.ug"
    path.write_text(emit(ring_ultragraph(4)))
    called = []

    def forbidden(*args):
        called.append(args)
        raise AssertionError("the sample was used")

    monkeypatch.setattr(groupoid_module, "_separated", forbidden)
    monkeypatch.setattr(cli, "check_groupoid_laws", forbidden)
    code, out, err = run(["groupoid", str(path), "--pairs", "1000000", "--format", "json"], capsys)
    assert code == 1, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("size_limit", False)]
    assert checks[0]["witnesses"] == [
        "hausdorff sample of 542361 pairs exceeded max_pairs=100000"
    ]
    assert not called


def test_parser_is_built_once_and_keeps_no_state(capsys, tmp_path, monkeypatch):
    assert cli._build_parser() is cli._build_parser()
    target = tmp_path / "skew.ug"
    code, _, _ = run(["skew", GX, "--window", "2", "--out", str(target)], capsys)
    assert code == 0 and target.exists()
    target.unlink()
    code, out, _ = run(["skew", GX, "--format", "json"], capsys)
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert checks["loop_free"]["details"]["window"] == 1
    assert "emitted" not in checks
    assert list(tmp_path.iterdir()) == []
    code, out, _ = run(["groupoid", GX, "--pairs", "3", "--format", "json"], capsys)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 0 and checks["hausdorff_separation"]["details"]["pairs"] == 3
    code, out, _ = run(["groupoid", GX, "--format", "json"], capsys)
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert code == 0 and checks["hausdorff_separation"]["details"]["pairs"] == 50
    # a usage error leaves nothing behind for the next call
    monkeypatch.chdir(REPO)
    with pytest.raises(SystemExit) as exc:
        main(["skew", "fixtures/GX.ug", "--window", "2", "--no-such-flag"])
    assert exc.value.code == 2
    code, out, _ = run(["skew", "fixtures/GX.ug", "--format", "json"], capsys)
    assert code == 0
    assert out == (REPO / "tests" / "golden" / "GX_skew.json").read_text()


def test_shared_parser_sizes_help_when_it_prints(capsys, monkeypatch):
    widths = []
    for columns in ("40", "140", "40"):
        monkeypatch.setenv("COLUMNS", columns)
        with pytest.raises(SystemExit) as exc:
            main(["paths", "--help"])
        assert exc.value.code == 0
        widths.append(max(len(line) for line in capsys.readouterr().out.splitlines()))
    assert widths[0] == widths[2] < widths[1]


def test_json_reports_are_byte_stable(capsys):
    for argv in (["analyze", GW, "--format", "json"], ["ck", GX, "--format", "json"]):
        _, first, _ = run(argv, capsys)
        _, second, _ = run(argv, capsys)
        assert first == second
        doc = json.loads(first)
        assert doc["timing_ms"] == 0
        assert set(doc) >= {"checks", "command", "graph", "seed", "timing_ms"}
        for check in doc["checks"]:
            assert set(check) == {"name", "pass", "witnesses", "details"}


def test_json_analyze_summary(capsys):
    code, out, _ = run(["analyze", GX, "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["summary"]["verdict"] == "SimpleByThm"
    assert doc["summary"]["loop_free"] is False
    assert doc["summary"]["essentially_principal"] is True


def test_text_reports_are_stable(capsys):
    _, first, _ = run(["groupoid", GX, "--seed", "4"], capsys)
    _, second, _ = run(["groupoid", GX, "--seed", "4"], capsys)
    assert first == second


def test_parse_error_exits_two(tmp_path, capsys):
    bad = tmp_path / "bad.ug"
    bad.write_text("ultragraph\nvertex a\nedge e b { a }\n")
    code, out, err = run(["validate", str(bad)], capsys)
    assert code == 2
    assert "unknown source" in err
    assert out == ""


def test_file_encodings(tmp_path, capsys):
    """A leading byte order mark is dropped; bytes that are not UTF-8 exit 2."""
    path = tmp_path / "g.ug"
    path.write_bytes(b"\xef\xbb\xbf" + Path(GX).read_bytes())
    code, out, err = run(["validate", GX], capsys)
    assert run(["validate", str(path)], capsys) == (code, out.replace(GX, str(path)), err)
    path.write_bytes("ultragraph\nvertex caf\xe9\n".encode("latin-1"))
    code, out, err = run(["validate", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xe9 in position 21")


def test_missing_file_exits_two(capsys):
    code, _, err = run(["validate", "no/such/file.ug"], capsys)
    assert code == 2
    assert err


def test_size_limit_exits_one(capsys):
    code, out, _ = run(["lattice", GX, "--max-size", "7"], capsys)
    assert code == 1
    assert "size_limit" in out


def test_ck_takes_the_lattice_cap(tmp_path, capsys):
    """ck takes lattice's --max-size: GX's 8 sets fail a cap of 7 as
    size_limit, the default and an explicit 4096 print the same bytes, and
    ring(13)'s 8,192 sets, past the default, pass under a cap of 8192."""
    code, out, _ = run(["ck", GX, "--max-size", "7", "--format", "json"], capsys)
    assert code == 1
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["witnesses"]) for c in checks] == [
        ("size_limit", ["lattice closure exceeded max_size=7"])
    ]
    default = run(["ck", GX, "--format", "json"], capsys)
    assert default[0] == 0
    assert run(["ck", GX, "--max-size", "4096", "--format", "json"], capsys) == default
    ring13 = tmp_path / "ring13.ug"
    ring13.write_text(emit(ring_ultragraph(13)))
    code, out, _ = run(["ck", str(ring13), "--format", "json"], capsys)
    assert code == 1 and "size_limit" in out and "max_size=4096" in out
    code, out, err = run(["ck", str(ring13), "--max-size", "8192", "--format", "json"], capsys)
    assert code == 0, err
    assert all(c["pass"] for c in json.loads(out)["checks"])


def test_lattice_size_guard_comes_before_the_sink_check(tmp_path, capsys):
    # a 13-vertex chain ending in a sink: 2^13 lattice sets pass the 4096 cap
    chain = tmp_path / "chain.ug"
    chain.write_text(
        "ultragraph\n"
        + "".join(f"vertex v{i}\n" for i in range(13))
        + "".join(f"edge e{i} v{i} {{ v{i + 1} }}\n" for i in range(12))
    )
    for command in ("paths", "semigroup", "groupoid", "ck"):
        code, out, err = run([command, str(chain), "--format", "json"], capsys)
        assert code == 1, (command, err)
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["pass"]) for c in checks] == [("size_limit", False)]


def test_lattice_counts_match_the_labelling_oracle(tmp_path, capsys):
    rng = random.Random(71)
    graphs = [gx(), gy(), gw()] + [random_ultragraph(rng) for _ in range(40)]
    path = str(tmp_path / "g.ug")
    for g in graphs:
        emit_file(g, path)
        code, out, _ = run(["lattice", path, "--format", "json"], capsys)
        assert code == 0
        details = json.loads(out)["checks"][0]["details"]
        labels = Counter(lattice_labels(g).values())
        assert details["size"] == 2 ** len(g.vertices)
        assert details["singletons"] == labels["singleton"]
        assert details["edge_ranges"] == labels["edge-range"]
        assert details["derived"] == labels["derived"]


def test_wide_graph_keeps_its_lattice_and_fails_fast_on_adjacency(
    tmp_path, capsys, monkeypatch
):
    """Two vertices and 4,100 edges: the lattice has 4 sets, while the
    edge adjacency would hold 12,607,500 entries.  Every subcommand that
    reads the adjacency fails as size_limit before building one entry;
    skew reads none, and answers."""
    wide = tmp_path / "wide.ug"
    wide.write_text(
        "ultragraph\nvertex a\nvertex b\n"
        + "".join(f"edge p{i} b {{ a }}\n" for i in range(2050))
        + "".join(f"edge q{i} a {{ a b }}\n" for i in range(2050))
    )
    code, out, err = run(["lattice", str(wide), "--format", "json"], capsys)
    assert code == 0, err
    assert json.loads(out)["checks"][0]["details"]["size"] == 4
    # each adjacency entry list is one chain.from_iterable in core
    joined = []

    class CountingChain:
        @staticmethod
        def from_iterable(parts):
            joined.append(parts)
            return itertools.chain.from_iterable(parts)

    monkeypatch.setattr(core, "chain", CountingChain)
    for command in ("paths", "ck", "analyze"):
        code, out, err = run([command, str(wide), "--format", "json"], capsys)
        assert code == 1, (command, err)
        checks = json.loads(out)["checks"]
        assert [(c["name"], c["pass"]) for c in checks] == [("size_limit", False)]
        assert checks[0]["witnesses"] == [
            "edge adjacency of 12607500 entries exceeded max_entries=2000000"
        ]
    assert joined == []
    # the window-1 skew product's adjacency would hold 12,607,500 entries
    # too; its loop-freeness is decided without one
    code, out, err = run(["skew", str(wide), "--format", "json"], capsys)
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [
        ("loop_free", True),
        ("singular_equivalence_window_1", True),
    ]
    assert checks[0]["details"] == {"window": 1, "vertices": 6, "edges": 8200}
    assert joined == []
    # the spy sees the entries of an adjacency within the budget
    run(["paths", GX], capsys)
    assert len(joined) == 3


def test_element_overflow_is_a_failed_size_limit_check(tmp_path, capsys):
    # one vertex with 8 loops: 585 ultrapaths of length <= 3, so 585^2
    # range-matched pairs, past generate_elements' default max_count
    bouquet = tmp_path / "bouquet.ug"
    bouquet.write_text(
        "ultragraph\nvertex v\n" + "".join(f"edge e{i} v {{ v }}\n" for i in range(8))
    )
    code, out, err = run(
        ["semigroup", str(bouquet), "--max-len", "3", "--format", "json"], capsys
    )
    assert code == 1, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("size_limit", False)]
    assert "max_count=200000" in checks[0]["witnesses"][0]


@pytest.mark.parametrize(
    "argv",
    [
        ["ck", GX, "--depth", "60"],
        ["skew", GX, "--window", "300000"],
        ["ck", GY, "--depth", "200001"],
        ["semigroup", GY, "--max-len", "8000"],
        ["groupoid", GY, "--witness-len", "8000"],
    ],
    ids=["ck depth", "skew window", "ck depth on one loop", "semigroup length", "witness length"],
)
def test_depth_and_window_guards_fail_fast(argv, capsys):
    code, out, err = run(argv + ["--format", "json"], capsys)
    assert code == 1, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("size_limit", False)]
    assert "max_count=200000" in checks[0]["witnesses"][0]


def _semigroup_checks(capsys):
    code, out, _ = run(["semigroup", GX, "--max-len", "2", "--format", "json"], capsys)
    return code, {c["name"]: c for c in json.loads(out)["checks"]}


def _all_pairs_star_witnesses(g, elems, prod, inv):
    """The antimultiplicative law asked of every ordered pair, in (i, j) order."""
    bad = [
        f"{s} * {t}"
        for s in elems
        for t in elems
        if inv(prod(g, s, t)) != prod(g, inv(t), inv(s))
    ]
    return bad[:5]


def _zero_block(g, z, x):
    """Whether the (z, x) block is zero: s t = 0 for every s = (w, z) and
    t = (x, y), read off the rule oracle on the idempotents (z, z), (x, x)."""
    return product_by_rules(g, SGElement(z, z), SGElement(x, x)) == OMEGA


def _glued(s, t):
    """Whether product forms s t by glue on remainders rather than by its
    length-zero branch: both are nonzero and the inner pair is not two
    sets.  Where no rule applies the product is the zero either way."""
    return not (s.is_omega or t.is_omega) and bool(s.right.word or t.left.word)


def _related(g, z, x):
    """Whether a product with inner pair (z, x) can be nonzero by the shape
    of z and x alone: one word is a prefix of the other, a set holds the
    first source of a path with edges, or two sets meet or one is empty."""
    if z.word and x.word:
        n = min(len(z.word), len(x.word))
        return z.word[:n] == x.word[:n]
    if z.word or x.word:
        a, p = (x, z) if z.word else (z, x)
        return g.source[p.word[0]] in a.terminal
    return bool(z.terminal & x.terminal) or not (z.terminal and x.terminal)


def _index_reads(g, paths):
    """The ordered pairs of coordinates, not both sets, that _related
    relates: the entries the remainder table reads through rule_remainders."""
    return sum(1 for z in paths for x in paths if (z.word or x.word) and _related(g, z, x))


def _index_charge(g, paths):
    """What the remainder table charges its budget: the entries it reads
    through rule_remainders and |S|^2 for the pairs of its S sets."""
    return _index_reads(g, paths) + sum(1 for p in paths if not p.word) ** 2


def _glued_entries(g, paths):
    """The ordered pairs of coordinates, not both sets, whose entry holds
    remainders: the idempotent pairs the order check hands to glue."""
    return sum(
        1 for z in paths for x in paths if (z.word or x.word) and not _zero_block(g, z, x)
    )


def _send_every_block_back(monkeypatch):
    """Settle no block per coordinate pair, so the star law visits the
    element pairs of every block whose two entries are not both zero."""
    monkeypatch.setattr(cli._RemainderTable, "settled", lambda table, z, x: False)


def _meeting_sets(paths):
    """The ordered pairs of length-zero coordinates whose sets meet: the
    idempotent pairs whose order-check product goes through product."""
    sets = [p for p in paths if not p.word]
    return sum(1 for p in sets for q in sets if p.terminal & q.terminal)


def _count_star_law_concats(monkeypatch, calls):
    """Count in calls["star law concat"] the concat calls cli makes while
    _star_failures runs, outside the table fill and the order check."""
    star_failures, concat_ = cli._star_failures, cli.concat
    inside = []

    def running(*args):
        inside.append(True)
        try:
            return star_failures(*args)
        finally:
            inside.pop()

    def counted(*args):
        calls["star law concat"] += bool(inside)
        return concat_(*args)

    calls["star law concat"] = 0
    monkeypatch.setattr(cli, "_star_failures", running)
    monkeypatch.setattr(cli, "concat", counted)


def _assert_settled_is_symmetric(table):
    """settled answers block (z, x) as it answers block (x, z), so the star
    law asks it once per unordered coordinate pair."""
    n = table.size
    for z in range(n):
        for x in range(z, n):
            assert table.settled(z, x) == table.settled(x, z), (table.paths[z], table.paths[x])


def test_semigroup_forms_one_product_per_mirror_pair(monkeypatch, capsys):
    """With every block sent back to its element pairs, the star law
    forms the two products of each asked pair through product, once per
    mirror pair, and the order check one glue or product call per
    idempotent pair whose entry is not zero.  The table reads 131 of the
    324 entries through rule_remainders: for the words of the coordinates
    with edges, counted with multiplicity, each word's strict prefixes both
    ways and the word against itself, and each set against each path that
    starts in it, both ways."""
    g = parse_file(GX)
    elems = generate_elements(g, 2)
    index = {s: i for i, s in enumerate(elems)}
    paths = list(dict.fromkeys(s.left for s in elems[1:]))
    sets = [p for p in paths if not p.word]
    # a pair is asked in the loop when its block or the mirror block is
    # nonzero, once per mirror pair, and never with the zero, whose pairs
    # hold by absorption
    asked = set()
    for s in elems[1:]:
        for t in elems[1:]:
            if not _zero_block(g, s.right, t.left):
                asked.add(min((index[s], index[t]), (index[star(t)], index[star(s)])))
    meets = _meeting_sets(paths)
    words = Counter(p.word for p in paths if p.word)
    prefix = sum(
        2 * n * words[w[:k]] for w, n in words.items() for k in range(1, len(w))
    ) + sum(n * n for n in words.values())
    starts = sum(1 for a in sets for p in paths if p.word and g.source[p.word[0]] in a.terminal)
    assert prefix + 2 * starts == _index_reads(g, paths) == 131
    calls = {"entries": 0, "glue": 0, "product": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(cli, "rule_remainders", counting("entries", rule_remainders))
    monkeypatch.setattr(cli, "glue", counting("glue", glue))
    monkeypatch.setattr(cli, "product", counting("product", product))
    _send_every_block_back(monkeypatch)
    code, checks = _semigroup_checks(capsys)
    assert code == 0
    assert checks["antimultiplicative_star"]["pass"]
    sizes = (len(elems), len(paths), len(sets), len(asked), meets)
    assert sizes == (63, 18, 7, 754, 37)
    assert calls == {
        "entries": prefix + 2 * starts,
        "glue": _glued_entries(g, paths),
        "product": 2 * len(asked) + meets,
    }


def test_semigroup_order_check_forms_one_product_per_idempotent_pair(monkeypatch, capsys):
    """GX at --max-len 2 has 18 nonzero idempotents.  The order check reads
    ef off the remainder table, with one glue call on an entry's remainders
    or, for two meeting sets, one product call, and asks the unchecked
    shape order, which forms none and asks no is_idempotent, on each of
    the 168 of their 324 ordered pairs the table relates.  A zero entry
    forms nothing, and an unrelated pair is not asked.  idempotent_leq
    is not asked, and the star law settles every block of GX with no
    product."""
    g = parse_file(GX)
    paths = list(dict.fromkeys(s.left for s in generate_elements(g, 2)[1:]))
    formed = []

    def glued(w, y, *args):
        formed.append((SGElement(w, w), SGElement(y, y)))
        return glue(w, y, *args)

    def counted(g, e, f):
        formed.append((e, f))
        return product(g, e, f)

    def forbidden(*args):
        raise AssertionError("idempotent_leq formed a product")

    def unasked(*args):
        raise AssertionError("the order check asked is_idempotent")

    monkeypatch.setattr(cli, "glue", glued)
    monkeypatch.setattr(cli, "product", counted)
    monkeypatch.setattr(semigroup, "product", forbidden)
    monkeypatch.setattr(semigroup, "is_idempotent", unasked)
    code, checks = _semigroup_checks(capsys)
    assert code == 0
    assert checks["idempotent_order_agreement"]["details"]["idempotents"] == 18
    nonzero = 18 * 18 - sum(1 for z in paths for x in paths if _zero_block(g, z, x))
    assert (len(formed), len(set(formed))) == (nonzero, nonzero) == (160, 160)
    assert sum(1 for z in paths for x in paths if _related(g, z, x)) == 168


def test_semigroup_star_law_forms_no_product_on_gx(monkeypatch, capsys):
    """GX at --max-len 3: 154 elements on 27 coordinates, 7 of them sets.
    The table relates 321 of the 27^2 entries, and reads the 284 not of two
    sets through rule_remainders; the 37 meeting pairs of the 7 sets are
    read off the sets.  The star law settles every block by a symmetric settled,
    growing no path; the only products are the order check's, one glue
    call per pair of its 27 idempotents whose entry holds remainders and
    one product per pair of meeting sets."""
    g = parse_file(GX)
    elems = generate_elements(g, 3)
    _assert_settled_is_symmetric(cli._RemainderTable(g, elems))
    paths = list(dict.fromkeys(s.left for s in elems[1:]))
    sets = [p for p in paths if not p.word]
    meets = _meeting_sets(paths)
    calls = {"entries": 0, "glue": 0, "product": 0}

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(cli, "rule_remainders", counting("entries", rule_remainders))
    monkeypatch.setattr(cli, "glue", counting("glue", glue))
    monkeypatch.setattr(cli, "product", counting("product", product))
    _count_star_law_concats(monkeypatch, calls)
    code, out, err = run(["semigroup", GX, "--max-len", "3", "--format", "json"], capsys)
    assert code == 0, err
    assert json.loads(out)["checks"][0]["details"]["count"] == 154
    assert (len(paths), len(sets), meets) == (27, 7, 37)
    assert _index_reads(g, paths) + meets == 321
    assert calls == {
        "entries": _index_reads(g, paths),
        "glue": _glued_entries(g, paths),
        "product": meets,
        "star law concat": 0,
    }


def test_remainder_table_settles_a_meet_entry_only_against_a_meet():
    """Two sets that meet read _MEET both ways, so a _MEET entry whose
    mirror is a pair of remainder ids, or the zero, settles neither block."""
    g = gx()
    table = cli._RemainderTable(g, generate_elements(g, 2))
    n, rows = table.size, table.rows
    z, x = next((z, x) for z in range(n) for x in rows[z] if z != x and rows[z][x] is cli._MEET)
    ids = next(e for row in rows for e in row.values() if isinstance(e, tuple))
    assert table.settled(z, x) and table.settled(x, z)
    for damaged in (ids, None):
        rows[x][z] = damaged
        assert not table.settled(z, x) and not table.settled(x, z)


def test_semigroup_never_answers_a_diagonal_block_whole(monkeypatch, capsys):
    """A product that is wrongly zero whenever w is (e, {u}) makes the
    idempotent (e, {u}) times itself zero, and must not hide the rest of
    the diagonal block ((e, {u}), (e, {u})) from the witness list."""
    g = parse_file(GX)
    elems = generate_elements(g, 2)
    eu = Ultrapath(("e",), frozenset({"u"}))

    def faulty(g, s, t):
        return OMEGA if _glued(s, t) and s.left == eu else product(g, s, t)

    want = _all_pairs_star_witnesses(g, elems, faulty, star)
    assert want[0] == "[{u} | (e, {u})] * [(e, {u}) | (e, {u})]"
    monkeypatch.setattr(cli, "product", faulty)
    _send_every_block_back(monkeypatch)
    code, checks = _semigroup_checks(capsys)
    assert code == 1
    assert checks["antimultiplicative_star"]["witnesses"] == want


@pytest.mark.parametrize("turned", [False, True], ids=["block", "mirror block"])
def test_semigroup_reports_a_nonzero_incomparable_block(turned, monkeypatch, capsys):
    """A remainder entry that is wrongly nonzero on one orientation of a
    zero block the table reads, (e, {u}) against (ef, {v}), whose word
    extends e by an edge starting outside {u}, in the table and in product
    alike, is visited, and its mirror block is asked too."""
    g = parse_file(GX)
    elems = generate_elements(g, 2)
    paths = list(dict.fromkeys(s.left for s in elems[1:]))
    z0, x0 = next(
        (z, x)
        for z in paths
        for x in paths
        if z.word and x.word and _related(g, z, x) and _zero_block(g, z, x)
    )
    if turned:
        z0, x0 = x0, z0
    # a set remainder on range(z0) leaves every w of a (w, z0) as it is
    fake = Ultrapath((), z0.terminal)

    def faulty_remainders(g, z, x):
        return (fake, None) if (z, x) == (z0, x0) else rule_remainders(g, z, x)

    def faulty(g, s, t):
        if not s.is_omega and not t.is_omega and (s.right, t.left) == (z0, x0):
            return SGElement(s.left, t.right)
        return product(g, s, t)

    want = _all_pairs_star_witnesses(g, elems, faulty, star)
    assert len(want) == 5
    monkeypatch.setattr(cli, "rule_remainders", faulty_remainders)
    monkeypatch.setattr(semigroup, "rule_remainders", faulty_remainders)
    code, checks = _semigroup_checks(capsys)
    assert code == 1
    assert checks["antimultiplicative_star"]["witnesses"] == want


@pytest.mark.parametrize("zeroed", ["one pair", "one row"])
def test_semigroup_mirror_pairs_report_faults_in_pair_order(zeroed, monkeypatch, capsys):
    """A product that is wrongly zero on what glue would see for one
    product, or on every product whose left coordinate is one w, is
    reported at every pair it touches, in (i, j) order."""
    g = parse_file(GX)
    elems = generate_elements(g, 2)
    nonzero = [
        (s, t) for s in elems for t in elems if _glued(s, t) and product(g, s, t) != OMEGA
    ]
    s0, t0 = nonzero[len(nonzero) // 2]

    def glue_args(s, t):
        # what glue sees for s t, the remainders down to whether they exist
        rem1, rem2 = rule_remainders(g, s.right, t.left)
        grown_w = None if rem1 is None else concat(g, s.left, rem1)
        grown_y = None if rem2 is None else concat(g, t.right, rem2)
        return s.left, t.right, rem1 is None, rem2 is None, grown_w, grown_y

    key = glue_args(s0, t0)

    def hit(args):
        return args == key if zeroed == "one pair" else args[0] == key[0]

    def faulty(g, s, t):
        return OMEGA if _glued(s, t) and hit(glue_args(s, t)) else product(g, s, t)

    want = _all_pairs_star_witnesses(g, elems, faulty, star)
    assert len(want) >= 2
    monkeypatch.setattr(cli, "product", faulty)
    _send_every_block_back(monkeypatch)
    code, checks = _semigroup_checks(capsys)
    assert code == 1
    assert not checks["antimultiplicative_star"]["pass"]
    assert checks["antimultiplicative_star"]["witnesses"] == want


def test_semigroup_pairs_off_an_involution_are_all_computed(monkeypatch, capsys):
    g = parse_file(GX)
    elems = generate_elements(g, 2)
    e0 = next(s for s in elems[1:] if star(s) != s)

    def broken_star(s):
        return OMEGA if s == e0 else star(s)

    calls = []

    def recording(*args):
        calls.append(args[1:])
        return product(*args)

    want = _all_pairs_star_witnesses(g, elems, product, broken_star)
    assert want
    monkeypatch.setattr(cli, "star", broken_star)
    monkeypatch.setattr(cli, "product", recording)
    code, checks = _semigroup_checks(capsys)
    assert code == 1
    assert not checks["involution"]["pass"]
    assert checks["antimultiplicative_star"]["witnesses"] == want
    # products come two per computed pair, the pair's own product first
    computed = set(calls[::2])
    for t in elems:
        assert (e0, t) in computed and (t, e0) in computed


def test_semigroup_star_law_moving_the_zero_asks_every_pair(monkeypatch):
    """A star that moves the zero settles no block, not even one the table
    does not relate: the star law fails at exactly the pairs the all-pairs
    loop finds."""
    g = gx()
    elems = generate_elements(g, 2)

    def moving(s):
        return elems[1] if s.is_omega else star(s)

    monkeypatch.setattr(cli, "star", moving)
    starred = [moving(s) for s in elems]
    tabled = [s.left is not None and t == (s.right, s.left) for s, t in zip(elems, starred)]
    want = [
        (i, j)
        for i, s in enumerate(elems)
        for j, t in enumerate(elems)
        if moving(product(g, s, t)) != product(g, starred[j], starred[i])
    ]
    assert len(want) > len(elems)
    assert cli._star_failures(g, elems, tabled, cli._RemainderTable(g, elems)) == want


def test_semigroup_order_check_puts_an_empty_set_under_every_set():
    """A hand-built idempotent on the empty set: initial_segment puts it
    under every set, but no rule gives ef = e, so the order check reports
    it against each listed set, itself included."""
    g = gx()
    empty, u = _path("", ""), _path("", "u")
    checks = cli._semigroup_laws(g, [OMEGA, SGElement(empty, empty), SGElement(u, u)])
    assert [(c["name"], c["pass"], c["witnesses"]) for c in checks] == [
        ("involution", True, []),
        ("antimultiplicative_star", True, []),
        (
            "idempotent_order_agreement",
            False,
            ["[{} | {}] <= [{} | {}]", "[{} | {}] <= [{u} | {u}]"],
        ),
    ]


def _table_products_match(g, elems):
    """ef as the order check reads it off the remainder table is product's
    and the rule oracle's on every ordered pair of listed idempotents the
    table relates, and every such pair is read once, e before f in list
    order.  On every other pair ef is the zero by the rule oracle and the
    shape order is false."""
    table = cli._RemainderTable(g, elems)
    ids = [(s, c[0]) for s, c in zip(elems, table.coords) if c is not None and c[0] == c[1]]
    idems = [s for s in elems if not s.is_omega and s.left == s.right]
    assert [e for e, _ in ids] == idems
    read = []
    for e, f, ef in cli._idempotent_products(g, table, ids):
        assert ef == product(g, e, f) == product_by_rules(g, e, f), (e, f)
        read.append((e, f))
    assert read == [(e, f) for e in idems for f in idems if _related(g, e.left, f.left)]
    for e in idems:
        for f in idems:
            if not _related(g, e.left, f.left):
                assert product_by_rules(g, e, f) == OMEGA, (e, f)
                assert not semigroup.idempotent_leq_by_shape(g, e, f), (e, f)


@pytest.mark.parametrize(
    "graph, max_len, size",
    [(gx, 3, 154), (lambda: ring_ultragraph(2), 2, 420)],
    ids=["GX", "ring(2)"],
)
def test_remainder_table_matches_product_on_every_pair(graph, max_len, size):
    g = graph()
    elems = generate_elements(g, max_len)
    assert len(elems) == size
    _table_products_match(g, elems)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_remainder_table_matches_product_on_random_graphs(seed):
    g = random_ultragraph(random.Random(seed), max_vertices=4, max_edges=5, sink_free=True)
    # paths of length 2 where the graph is small enough to pair them all
    elems = generate_elements(g, 2 if len(g.edges) <= 2 else 1)
    _table_products_match(g, elems)


def _law_outcomes(g, elems):
    """The law checks on one list, from cli and from the SGElement-level
    oracle: (name, pass, witnesses) per check, or the RuntimeError text."""
    out = []
    for laws in (
        lambda: [(c["name"], c["pass"], c["witnesses"]) for c in cli._semigroup_laws(g, elems)],
        lambda: semigroup_laws_by_product(g, elems),
    ):
        try:
            out.append(laws())
        except RuntimeError as exc:
            out.append(f"RuntimeError: {exc}")
    return out


@pytest.mark.parametrize("max_len", [1, 2, 3])
@pytest.mark.parametrize("graph", [gx, gy, gw], ids=["GX", "GY", "GW"])
def test_semigroup_laws_match_the_product_oracle(graph, max_len):
    g = graph()
    got, want = _law_outcomes(g, generate_elements(g, max_len))
    assert got == want
    assert [(name, ok) for name, ok, _ in got] == [
        ("involution", True),
        ("antimultiplicative_star", True),
        ("idempotent_order_agreement", True),
    ]


@settings(max_examples=30, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1))
def test_semigroup_laws_match_the_product_oracle_on_random_graphs(seed):
    g = random_ultragraph(random.Random(seed), max_vertices=4, max_edges=5, sink_free=True)
    elems = generate_elements(g, 2 if len(g.edges) <= 2 else 1)
    got, want = _law_outcomes(g, elems)
    assert got == want


def _path(word, terminal):
    return Ultrapath(tuple(word), frozenset(terminal))


# hand-built pairs on GX whose coordinates end in different sets, each
# with an idempotent or a partner its product with it fails on: rules 1
# and 2 both apply and disagree, rule 1's remainder does not extend w,
# rule 2's does not extend y, and two meeting sets whose meet misses w;
# and a pair whose coordinates both end in the empty set, on which the
# diagonal remainder, the empty set, extends nothing
_MISMATCHED = {
    "meet": [
        SGElement(_path("", "v"), _path("", "u")),
        SGElement(_path("", "u"), _path("", "u")),
    ],
    "disagree": [
        SGElement(_path("e", "wu"), _path("e", "u")),
        SGElement(_path("e", "u"), _path("e", "u")),
    ],
    "x": [
        SGElement(_path("", "v"), _path("", "u")),
        SGElement(_path("g", "w"), _path("g", "w")),
    ],
    "z": [
        SGElement(_path("g", "w"), _path("g", "w")),
        SGElement(_path("", "u"), _path("", "v")),
    ],
    "empty": [SGElement(_path("g", ""), _path("e", ""))],
}


def _damaged_lists(g):
    """Lists generate_elements never makes, by name: an element dropped, so
    star leaves the list, an element listed twice, and hand-built pairs
    with mismatched or empty terminals, alone, with their stars, and after
    GX's list."""
    elems = generate_elements(g, 2)
    k = next(i for i, s in enumerate(elems) if s.left is not None and s.left != s.right)
    e = next(i for i, s in enumerate(elems) if s.left is not None and s.left == s.right)
    cases = {
        "dropped": elems[:k] + elems[k + 1 :],
        "dropped idempotent": elems[:e] + elems[e + 1 :],
        "duplicated": elems + [elems[k]],
    }
    for name, pairs in _MISMATCHED.items():
        cases[name] = pairs
        cases[f"{name} with stars"] = pairs + [star(s) for s in pairs]
        cases[f"GX then {name}"] = elems + pairs
    return cases


def test_semigroup_laws_match_the_product_oracle_on_damaged_lists():
    """The damaged lists: the mismatched pairs raise each of glue's three
    errors somewhere, and two sets of a meet block raise one through
    product's length-zero branch.  On each list settled is symmetric."""
    g = gx()
    raised = set()
    for name, case in _damaged_lists(g).items():
        _assert_settled_is_symmetric(cli._RemainderTable(g, case))
        got, want = _law_outcomes(g, case)
        assert got == want, name
        if isinstance(got, str):
            raised.add(got)
    assert raised == {
        "RuntimeError: overlapping rules disagree",
        "RuntimeError: remainder of x does not extend w",
        "RuntimeError: remainder of z does not extend y",
    }


def _assert_rows_match_the_oracle(g, elems):
    """Every entry (z, x) the remainder table holds is the all-pairs
    fill's, and every pair it leaves out is the zero there."""
    table = cli._RemainderTable(g, elems)
    dense = remainder_rows_by_all_pairs(g, elems)
    assert len(dense) == table.size
    for z, row in enumerate(table.rows):
        for x, want in enumerate(dense[z]):
            if x in row:
                assert row[x] == want, (table.paths[z], table.paths[x])
            else:
                assert want is None, (table.paths[z], table.paths[x])


@pytest.mark.parametrize("max_len", [1, 2, 3])
@pytest.mark.parametrize("graph", [gx, gy, gw], ids=["GX", "GY", "GW"])
def test_remainder_rows_match_the_all_pairs_oracle(graph, max_len):
    g = graph()
    _assert_rows_match_the_oracle(g, generate_elements(g, max_len))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_remainder_rows_match_the_all_pairs_oracle_on_rings(n):
    for seed in range(3):
        g = ring_ultragraph(n, seed)
        _assert_rows_match_the_oracle(g, generate_elements(g, 2))


def test_remainder_rows_match_the_all_pairs_oracle_on_damaged_lists():
    g = gx()
    for case in _damaged_lists(g).values():
        _assert_rows_match_the_oracle(g, case)


def _damaged_entries(g, paths):
    """One entry (z, x) of GX's list and remainders for it that no longer
    mirror entry (x, z), by name: an entry with one set remainder read as
    the zero, an entry with both rules swapped into the wrong slots, a zero
    entry given a set remainder on the range of z, and a diagonal entry of
    a path with edges losing its rule 2."""
    words = [p for p in paths if p.word]
    entries = {
        (z, x): rule_remainders(g, z, x) for z in words for x in paths if z != x
    }
    # one rule, whose remainder is a set, so that it glues onto every path
    one = next(
        k
        for k, e in entries.items()
        if (e[0] is None) != (e[1] is None) and not (e[0] or e[1]).word
    )
    # a zero entry the table reads: a word and a longer word whose next
    # edge starts outside the shorter one's terminal
    zero = next(k for k, e in entries.items() if e == (None, None) and _related(g, *k))
    diag = words[0]
    r1, r2 = rule_remainders(g, diag, diag)
    return {
        "one rule dropped": (one, (None, None)),
        "rules swapped": (one, entries[one][::-1]),
        "zero made nonzero": (zero, (Ultrapath((), zero[0].terminal), None)),
        "diagonal rule 2 dropped": ((diag, diag), (r1, None)),
    }


def _reading(key, value):
    """rule_remainders with entry key read as value."""

    def remainders(g, z, x):
        return value if (z, x) == key else rule_remainders(g, z, x)

    return remainders


def test_semigroup_damaged_entries_fall_back_to_the_oracle(monkeypatch):
    """An entry that stops mirroring its transpose sends both blocks back
    to their element pairs: the law checks answer as the product oracle
    does over the same damaged remainders, word for word."""
    g = gx()
    elems = generate_elements(g, 2)
    paths = list(dict.fromkeys(s.left for s in elems[1:]))
    failed = []
    for name, (key, value) in _damaged_entries(g, paths).items():
        for module in (cli, conftest, semigroup):
            monkeypatch.setattr(module, "rule_remainders", _reading(key, value))
        got, want = _law_outcomes(g, elems)
        monkeypatch.undo()
        assert got == want, name
        if isinstance(got, str) or not got[1][1]:
            failed.append(name)
    assert failed == ["one rule dropped", "rules swapped", "zero made nonzero"]


def test_semigroup_budget_charges_the_pairs_of_blocks_sent_back(monkeypatch):
    """With one entry broken, the budget charges the index of GX's list at
    --max-len 2, its 131 entries read through rule_remainders and the 7^2
    pairs of its sets, and the element pairs of the two blocks sent back,
    (w, z)(x, y) and (y, x)(z, w), before any product: one unit less and
    the check stops before forming one."""
    g = gx()
    elems = generate_elements(g, 2)
    paths = list(dict.fromkeys(s.left for s in elems[1:]))
    (z, x), value = _damaged_entries(g, paths)["one rule dropped"]
    for module in (cli, semigroup):
        monkeypatch.setattr(module, "rule_remainders", _reading((z, x), value))

    def with_right(p):
        return sum(1 for s in elems[1:] if s.right == p)

    def with_left(p):
        return sum(1 for s in elems[1:] if s.left == p)

    pairs = with_right(z) * with_left(x) + with_right(x) * with_left(z)
    tabled = [s.left is not None and star(s) == (s.right, s.left) for s in elems]
    assert _index_charge(g, paths) == 131 + 7**2
    monkeypatch.setattr(cli._RemainderTable, "max_pairs", _index_charge(g, paths) + pairs)
    assert cli._star_failures(g, elems, tabled, cli._RemainderTable(g, elems))

    def forbidden(*args):
        raise AssertionError("a product was formed")

    monkeypatch.setattr(cli, "product", forbidden)
    monkeypatch.setattr(cli._RemainderTable, "max_pairs", _index_charge(g, paths) + pairs - 1)
    with pytest.raises(core.SizeLimitError):
        cli._star_failures(g, elems, tabled, cli._RemainderTable(g, elems))


def test_semigroup_pair_budget_fails_before_any_product(tmp_path, monkeypatch, capsys):
    """ring(11) at --max-len 2 lists 9,534 elements on 2,501 coordinates,
    2,047 of them sets: the 2,047^2 = 4,190,209 pairs of sets are past the
    budget, which the law check charges before it relates a pair, reads
    an entry or forms a product."""
    path = tmp_path / "ring11.ug"
    path.write_text(emit(ring_ultragraph(11)))
    formed = []

    def forbidden(*args):
        formed.append(args)
        raise AssertionError("a product was formed or an entry read")

    monkeypatch.setattr(cli, "product", forbidden)
    monkeypatch.setattr(cli, "rule_remainders", forbidden)
    monkeypatch.setattr(cli, "glue", forbidden)
    code, out, err = run(["semigroup", str(path), "--max-len", "2", "--format", "json"], capsys)
    assert code == 1, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [("size_limit", False)]
    assert checks[0]["witnesses"] == [
        "semigroup law check exceeded max_pairs=2000000 entries and pairs"
    ]
    assert not formed


def _semigroup_json(capsys, path, max_len):
    code, out, err = run(["semigroup", path, "--max-len", str(max_len), "--format", "json"], capsys)
    assert code == 0, err
    checks = json.loads(out)["checks"]
    assert [(c["name"], c["pass"]) for c in checks] == [
        ("involution", True),
        ("antimultiplicative_star", True),
        ("idempotent_order_agreement", True),
    ]
    return [c["details"] for c in checks]


def test_semigroup_pair_budget_admits_ring3(tmp_path, monkeypatch, capsys):
    """ring(3) at --max-len 2 has 2,348 elements on 127 coordinates: the
    2,803 entries the index lists of the 16,129 pairs settle every block,
    inside the budget, and the star law grows no path."""
    path = tmp_path / "ring3.ug"
    path.write_text(emit(ring_ultragraph(3)))
    calls = {}
    _count_star_law_concats(monkeypatch, calls)
    details = _semigroup_json(capsys, str(path), 2)
    assert (details[0]["count"], details[2]["idempotents"]) == (2348, 127)
    assert calls == {"star law concat": 0}


def test_semigroup_pair_budget_admits_ring3_at_length_three(tmp_path, monkeypatch, capsys):
    """ring(3) at --max-len 3: 38,060 elements, 1.45e9 ordered pairs, on
    511 coordinates, so 261,121 pairs of them, of which the index lists
    16,723, inside the budget.  It reads 16,686 entries through
    rule_remainders, and the check makes 50,095 initial_segment calls,
    from 783,265 when it read every pair: a return of an all-pairs pass
    fails here."""
    path = tmp_path / "ring3.ug"
    path.write_text(emit(ring_ultragraph(3)))
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)

        return counted

    monkeypatch.setattr(cli, "rule_remainders", counting("entries", rule_remainders))
    monkeypatch.setattr(
        semigroup, "initial_segment", counting("initial_segment", semigroup.initial_segment)
    )
    details = _semigroup_json(capsys, str(path), 3)
    assert (details[0]["count"], details[2]["idempotents"]) == (38060, 511)
    assert calls["entries"] < 20_000 and calls["initial_segment"] < 150_000, calls


def test_semigroup_answers_ring7_at_length_three(tmp_path, capsys):
    """ring(7) at --max-len 3: 94,365 elements on 1,452 coordinates, whose
    2,108,304 pairs were past the budget; the index charges 220,206, and
    every check passes."""
    path = tmp_path / "ring7.ug"
    path.write_text(emit(ring_ultragraph(7)))
    details = _semigroup_json(capsys, str(path), 3)
    assert (details[0]["count"], details[2]["idempotents"]) == (94365, 1452)


def test_semigroup_pair_budget_admits_gx_at_length_twelve(capsys):
    """GX at --max-len 12: 48,046 elements, about 2.3e9 ordered pairs, on
    429 coordinates, so 184,041 pairs of them, of which the index lists
    17,009, inside the budget."""
    details = _semigroup_json(capsys, GX, 12)
    assert (details[0]["count"], details[2]["idempotents"]) == (48046, 429)


def test_precondition_violations_exit_two(tmp_path, capsys):
    code, _, err = run(["ck", GX, "--depth", "1"], capsys)
    assert code == 2 and "depth" in err
    sink = tmp_path / "sink.ug"
    sink.write_text("ultragraph\nvertex a\nvertex b\nedge e a { b }\n")
    code, _, err = run(["groupoid", str(sink)], capsys)
    assert code == 2 and "sink" in err
    code, _, err = run(["ck", str(sink)], capsys)
    assert code == 2 and "sink" in err
    code, _, err = run(["analyze", str(sink)], capsys)
    assert code == 2 and "sink" in err


# each subcommand's flags, with small values and values just past a guard
_FUZZ_FLAGS = {
    "validate": {},
    "lattice": {"--max-size": (0, 1, 2, 7, 8)},
    "paths": {"--max-len": (0, 1, 2), "--prefix-bound": (-1, 0, 1), "--cycle-bound": (0, 1, 2)},
    "semigroup": {"--max-len": (0, 1)},
    "groupoid": {
        "--witness-len": (0, 1),
        "--prefix-bound": (-1, 0, 1),
        "--cycle-bound": (0, 1, 2),
        "--pairs": (-1, 0, 3),
    },
    "ck": {"--depth": (1, 2, 3), "--max-size": (0, 1, 2, 7, 8)},
    "analyze": {"--bound": (0, 1, 2)},
    "skew": {"--window": (-1, 0, 1)},
}

_DAMAGED_LINES = (
    "edge",
    "edge d v0 v0",
    "edge d v0 { }",
    "edge d zz { v0 }",
    "edge d v0 { zz }",
    "edge d v0 { v0 v0 }",
    "vertex",
    "vertex v0",
    "vertex a b",
    "frobnicate v0",
)


def json_oracle(obj):
    return json.dumps(obj, indent=2, sort_keys=True)


# the value types a report may hold, and so all that cli._json renders
_REPORT_TYPES = (dict, list, tuple, str, bool, int, type(None))


def _assert_renderable(obj):
    assert type(obj) in _REPORT_TYPES, type(obj)
    if type(obj) is dict:
        for k, v in obj.items():
            assert type(k) is str, type(k)
            _assert_renderable(v)
    elif type(obj) in (list, tuple):
        for v in obj:
            _assert_renderable(v)


_AWKWARD_CHARACTERS = st.sampled_from(
    ['"', "\\", "/", "\x00", "\x1f", "\x7f", "\n", "\r", "\t", "\x85", "\u2028", "\ufeff"]
    + ["\ud800", "\udbff", "\udc00", "\udfff", "\u00e9", "\u4e2d", "\U0001f600"]
)
_TEXT = st.text(_AWKWARD_CHARACTERS | st.characters(), max_size=8)
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([0, -1, 2**63, -(2**63) - 1, -(10**40)])
    | _TEXT,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(obj=_JSON_VALUES)
@example({})
@example([[], (), {}])
@example({"a": {}, "b": [], "c": [{}, [[]], ()]})
@example(["\ud800", "\udfff\ud800", "\x00\x1f\x7f", '"\\/', "caf\u00e9 \u2028 \U0001f600"])
@example({"": None, "\u00e9": True, "\ud834": False, "B": -(10**30), "a": 0})
@example([True, False, 1, 0, -1])
def test_render_matches_json_dumps(obj):
    assert cli._json(obj) == json_oracle(obj)


@pytest.mark.parametrize(
    "obj",
    [1.5, float("nan"), {1, 2}, b"x", object(), {"a": [0.0]}, {1: "a"}, {None: 1}, 1j],
    ids=["float", "nan", "set", "bytes", "object", "nested float", "int key", "None key", "complex"],
)
def test_render_refuses_every_other_type(obj):
    with pytest.raises(TypeError):
        cli._json(obj)


@st.composite
def _cli_requests(draw):
    """A small graph file, with or without sinks and one time in four with
    one line damaged, and a subcommand with some of its flags."""
    nv = draw(st.integers(1, 3))
    vs = [f"v{i}" for i in range(nv)]
    sink_free = draw(st.booleans())
    lines = ["ultragraph"] + [f"vertex {v}" for v in vs]
    for i in range(draw(st.integers(nv if sink_free else 0, 4))):
        src = vs[i] if sink_free and i < nv else draw(st.sampled_from(vs))
        rng = draw(st.lists(st.sampled_from(vs), min_size=1, max_size=nv, unique=True))
        lines.append(f"edge e{i} {src} {{ {' '.join(rng)} }}")
    if draw(st.integers(0, 3)) == 0:
        lines[draw(st.integers(0, len(lines) - 1))] = draw(st.sampled_from(_DAMAGED_LINES))
    command = draw(st.sampled_from(sorted(_FUZZ_FLAGS)))
    flags = []
    for flag, values in _FUZZ_FLAGS[command].items():
        value = draw(st.none() | st.sampled_from(values))
        if value is not None:
            flags += [flag, str(value)]
    return "\n".join(lines) + "\n", command, flags


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(request=_cli_requests())
def test_cli_contract_holds_on_small_inputs(request, tmp_path_factory):
    """Exit 0 when every check passes, 1 when one fails, 2 with an error on
    stderr and nothing on stdout; the JSON report is pinned to timing_ms 0,
    holds only the renderer's types, prints as json.dumps prints it, and a
    second run prints the same bytes."""
    text, command, flags = request
    path = tmp_path_factory.getbasetemp() / "cli_contract.ug"
    path.write_text(text)
    argv = [command, str(path), "--format", "json"] + flags
    render = cli._json
    reports = []

    def spy(obj, pad="\n"):
        if pad == "\n":
            reports.append(obj)
        return render(obj, pad)

    with mock.patch.object(cli, "_json", spy):
        first = _run_quiet(argv)
    code, out, err = first
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and err.startswith("error: ")
        assert reports == []
    else:
        assert err == ""
        doc = json.loads(out)
        assert doc["command"] == command and doc["timing_ms"] == 0
        assert doc["checks"]
        assert code == (0 if all(c["pass"] for c in doc["checks"]) else 1)
        (report,) = reports
        _assert_renderable(report)
        assert out == json_oracle(report) + "\n"
    assert _run_quiet(argv) == first


def test_skew_out_writes_parseable_graph(tmp_path, capsys):
    target = tmp_path / "skew.ug"
    code, out, _ = run(["skew", GY, "--window", "1", "--out", str(target)], capsys)
    assert code == 0
    assert parse_file(str(target)) == skew_product(gy(), 1)


def test_console_script_entry_point():
    """The `ultragraph` script declared in pyproject.toml works as its own
    process.  The declared `module:attr` target runs in a fresh interpreter
    the way a console-script wrapper runs it, so no install is needed; an
    installed wrapper found on PATH is run as well."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(REPO / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert "ultragraph" in scripts
    module, attr = scripts["ultragraph"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    commands = [[sys.executable, "-c", wrapper]]
    installed = shutil.which("ultragraph")
    if installed:
        commands.append([installed])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(REPO / "src"), env.get("PYTHONPATH")))
    )
    cases = ((GX, 0, "SimpleByThm"), (GY, 1, "NotCoveredByThm"))
    for command in commands:
        for graph, code, verdict in cases:
            proc = subprocess.run(
                command + ["analyze", graph],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == code, (command, graph, proc.stderr)
            assert verdict in proc.stdout
