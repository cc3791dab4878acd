"""Text format: parsing, canonical emission, diagnostics."""

import random
import re
import sys
from pathlib import Path

import pytest

from ultragraph import ParseError, Ultragraph, emit, parse, parse_file, validate
from ultragraph import gw, gx, gy

from conftest import parse_by_splitlines, random_ultragraph

REPO = Path(__file__).resolve().parent.parent
FIXDIR = REPO / "fixtures"
sys.path.insert(0, str(REPO / "ugbench"))

import workloads  # noqa: E402


def test_parse_fixture_files():
    assert parse_file(str(FIXDIR / "GX.ug")) == gx()
    assert parse_file(str(FIXDIR / "GY.ug")) == gy()
    assert parse_file(str(FIXDIR / "GW.ug")) == gw()


def test_round_trip_fixtures():
    for g in (gx(), gy(), gw()):
        assert parse(emit(g)) == g
        assert emit(parse(emit(g))) == emit(g)


def test_round_trip_random_graphs():
    rng = random.Random(13)
    for _ in range(20):
        g = random_ultragraph(rng)
        assert parse(emit(g)) == g


def test_comments_and_blank_lines_anywhere():
    text = """
# leading comment before the header

ultragraph
  # indented comment
vertex a   # trailing comment

vertex b
edge e a { b a }  # range order is free
"""
    g = parse(text)
    assert g.vertices == frozenset({"a", "b"})
    assert g.range["e"] == frozenset({"a", "b"})


def test_vertices_only_graph_parses():
    g = parse("ultragraph\nvertex solo\n")
    assert g.edges == frozenset()
    assert validate(g).sinks == ("solo",)


def expect_error(text, line, message):
    with pytest.raises(ParseError) as info:
        parse(text)
    assert info.value.line == line
    assert str(info.value) == f"line {line}: {message}"


def test_parse_diagnostics():
    expect_error("vertex a\n", 1, "expected header 'ultragraph', got 'vertex a'")
    expect_error("  ultragraph x  # c\n", 1, "expected header 'ultragraph', got 'ultragraph x'")
    expect_error("", 1, "missing header 'ultragraph'")
    expect_error("# only a comment\n", 1, "missing header 'ultragraph'")
    expect_error("ultragraph\n", 1, "an ultragraph needs at least one vertex")
    expect_error("ultragraph\nvertex a\nvertex a\n", 3, "duplicate vertex 'a'")
    expect_error(
        "ultragraph\nvertex a\nedge e a { a }\nedge e a { a }\n", 4, "duplicate edge 'e'"
    )
    expect_error("ultragraph\nvertex a\nedge e b { a }\n", 3, "edge 'e' has unknown source 'b'")
    expect_error("ultragraph\nvertex a\nedge e a { }\n", 3, "edge 'e' has an empty range")
    expect_error(
        "ultragraph\nvertex a\nedge e a { b }\n", 3, "edge 'e' has unknown range vertex 'b'"
    )
    expect_error(
        "ultragraph\nvertex a\nedge e a { a a }\n", 3, "edge 'e' repeats a range vertex"
    )
    expect_error("ultragraph\nvertex 3x\n", 2, "bad vertex name '3x'")
    expect_error("ultragraph\nvertex a b\n", 2, "vertex lines take exactly one name")
    expect_error("ultragraph\nvertex\n", 2, "vertex lines take exactly one name")
    expect_error(
        "ultragraph\nvertex a\nedge e a a\n",
        3,
        "edge lines look like: edge <name> <source> { <vertex>... }",
    )
    expect_error("ultragraph\nvertex a\nloop e a\n", 3, "unknown directive 'loop'")
    expect_error("ultragraph\nvertex a\nultragraph\n", 3, "unknown directive 'ultragraph'")


def test_parse_diagnostics_keep_their_precedence():
    """A line fails at its first fault as it reads: a bad name before an
    unknown one, a duplicate edge before its references, the source before
    the range, an unknown range vertex before a repeated one."""
    expect_error("ultragraph\nvertex a\nedge e a { 3x }\n", 3, "bad vertex name '3x'")
    expect_error("ultragraph\nvertex a\nedge e a { a 3x }\n", 3, "bad vertex name '3x'")
    expect_error("ultragraph\nvertex a\nedge 3e b { a }\n", 3, "bad edge name '3e'")
    expect_error("ultragraph\nvertex a\nedge e 3x { a }\n", 3, "bad vertex name '3x'")
    expect_error(
        "ultragraph\nvertex a\nedge e a { a }\nedge e 3x { 3y }\n", 4, "duplicate edge 'e'"
    )
    expect_error(
        "ultragraph\nvertex a\nedge e b { 3x }\n", 3, "edge 'e' has unknown source 'b'"
    )
    expect_error(
        "ultragraph\nvertex a\nedge e a { a a b }\n", 3, "edge 'e' has unknown range vertex 'b'"
    )
    expect_error(
        "ultragraph\nvertex a\nedge e a { b 3x }\n", 3, "edge 'e' has unknown range vertex 'b'"
    )
    expect_error("ultragraph\nvertex a\nedge e a { a } }\n", 3, "bad vertex name '}'")
    expect_error("ultragraph\nvertex 3x y\n", 2, "vertex lines take exactly one name")
    expect_error("ultragraph\nvertex a\nvertex b\nvertex a\n", 4, "duplicate vertex 'a'")


# str.splitlines also breaks at these; a file's lines do not
SPLITLINES_ONLY_BREAKS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


@pytest.mark.parametrize("brk", SPLITLINES_ONLY_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_a_comment_runs_to_the_line_end(brk):
    g = parse(f"ultragraph\n# old: {brk}vertex ghost\nvertex a\nedge e a {{ a }}\n")
    assert g.vertices == frozenset({"a"})
    assert validate(g).sinks == ()
    g = parse(f"ultragraph\n# note{brk}oops\nvertex a\n")
    assert g.vertices == frozenset({"a"})
    # outside a comment the character is whitespace, and numbers no line
    expect_error(f"ultragraph\nvertex a{brk}vertex b\n", 2, "vertex lines take exactly one name")
    expect_error(f"ultragraph\n{brk}\nvertex 3x\n", 3, "bad vertex name '3x'")


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_line_ends_number_the_lines(end):
    text = end.join(["ultragraph", "vertex a", "", "vertex 3x", ""])
    expect_error(text, 4, "bad vertex name '3x'")
    assert parse(end.join(["ultragraph", "vertex a", "edge e a { a }"])) == parse(
        "ultragraph\nvertex a\nedge e a { a }\n"
    )
    expect_error("ultragraph\r\nvertex a\rvertex 3x\n", 3, "bad vertex name '3x'")


def test_parse_file_drops_a_leading_byte_order_mark(tmp_path):
    p = tmp_path / "bom.ug"
    p.write_bytes(b"\xef\xbb\xbf" + (FIXDIR / "GX.ug").read_bytes())
    assert parse_file(str(p)) == gx()
    p.write_bytes(b"\xef\xbb\xbfultragraph\r\nvertex a\r\n")
    assert parse_file(str(p)) == Ultragraph.build(["a"], {})


def test_parse_file_keeps_a_later_byte_order_mark(tmp_path):
    p = tmp_path / "bom.ug"
    p.write_bytes(b"ultragraph\n\xef\xbb\xbfvertex a\n")
    with pytest.raises(ParseError) as info:
        parse_file(str(p))
    assert str(info.value) == "line 2: unknown directive '\ufeffvertex'"
    p.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfultragraph\nvertex a\n")
    with pytest.raises(ParseError) as info:
        parse_file(str(p))
    assert str(info.value) == "line 1: expected header 'ultragraph', got '\ufeffultragraph'"
    with pytest.raises(ParseError):
        parse("\ufeffultragraph\nvertex a\n")


def test_parse_file_refuses_bytes_that_are_not_utf8(tmp_path):
    p = tmp_path / "latin1.ug"
    p.write_bytes("ultragraph\nvertex caf\xe9\n".encode("latin-1"))
    with pytest.raises(UnicodeDecodeError):
        parse_file(str(p))


def _outcome(parser, text):
    try:
        g = parser(text)
    except ParseError as exc:
        return ("error", exc.line, str(exc))
    # the field dicts keep the file's edge order
    return ("graph", g, list(g.source.items()), list(g.range.items()))


def assert_parses_like_the_oracle(text):
    assert _outcome(parse, text) == _outcome(parse_by_splitlines, text), repr(text)


def _valid_files():
    texts = [p.read_text() for p in sorted(FIXDIR.glob("*.ug"))]
    texts += [workloads.ring(n, seed).text() for n in range(2, 9) for seed in range(3)]
    graphs, _ = workloads.build("sweep", 1, str(REPO))
    texts += [g.text() for g in graphs.values()]
    rng = random.Random(34)
    texts += [emit(random_ultragraph(rng)) for _ in range(200)]
    return texts


def test_parse_matches_the_oracle_on_valid_files():
    texts = _valid_files()
    assert len(texts) == 3 + 21 + 300 + 200
    for text in texts:
        assert_parses_like_the_oracle(text)
        assert _outcome(parse, text)[0] == "graph"


def _token_damages(tok, names):
    """What one token of a valid line may become; names are the file's
    declared vertex and edge names."""
    return [
        ["3x"],
        [tok + "-"],
        ["zz"],
        [],
        [tok, tok],
        ["#" + tok],
        [tok + "#"],
        ["\t" + tok + "\t"],
        ["\u2028" + tok],
        ["\ufeff" + tok],
        ["{"],
        ["}"],
        ["vertex"],
        ["edge"],
        ["ultragraph"],
    ] + [[name] for name in names[:3]]


def _damaged(text):
    """Each file with one token of one line damaged, plus the file with a
    line dropped, repeated, moved to the end or commented out, and with
    CR LF, CR or tab separators."""
    lines = text.split("\n")
    names = sorted({t for line in lines for t in line.split("#")[0].split()[1:2]})
    out = []
    for i, line in enumerate(lines):
        tokens = line.split()
        for j, tok in enumerate(tokens):
            for damage in _token_damages(tok, names):
                new = tokens[:j] + damage + tokens[j + 1 :]
                out.append("\n".join(lines[:i] + [" ".join(new)] + lines[i + 1 :]))
        out.append("\n".join(lines[:i] + lines[i + 1 :]))
        out.append("\n".join(lines[: i + 1] + lines[i:]))
        out.append("\n".join(lines[:i] + lines[i + 1 :] + [line]))
        out.append("\n".join(lines[:i] + ["# " + line] + lines[i + 1 :]))
    out += [text.replace("\n", "\r\n"), text.replace("\n", "\r"), text.replace(" ", "\t")]
    return out


def test_parse_matches_the_oracle_on_damaged_files():
    bases = [p.read_text() for p in sorted(FIXDIR.glob("*.ug"))]
    bases += [workloads.ring(n, 0).text() for n in (2, 3)]
    graphs, _ = workloads.build("sweep", 1, str(REPO))
    bases += [g.text() for g in list(graphs.values())[:5]]
    rng = random.Random(35)
    bases += [emit(random_ultragraph(rng)) for _ in range(5)]
    bases.append("ultragraph\nvertex a\n")
    kinds = set()
    for base in bases:
        for text in _damaged(base):
            assert_parses_like_the_oracle(text)
            outcome = _outcome(parse, text)
            if outcome[0] == "error":
                kinds.add(re.sub(r"'[^']*'", "'x'", outcome[2].split(": ", 1)[1]))
    # every diagnostic but the missing header, which needs a file of comments
    assert kinds == {
        "an ultragraph needs at least one vertex",
        "bad edge name 'x'",
        "bad vertex name 'x'",
        "duplicate edge 'x'",
        "duplicate vertex 'x'",
        "edge 'x' has an empty range",
        "edge 'x' has unknown range vertex 'x'",
        "edge 'x' has unknown source 'x'",
        "edge 'x' repeats a range vertex",
        "edge lines look like: edge <name> <source> { <vertex>... }",
        "expected header 'x', got 'x'",
        "unknown directive 'x'",
        "vertex lines take exactly one name",
    }


def test_emit_is_canonical():
    scrambled = Ultragraph.build(
        ["b", "a"], {"f": ("b", ("a", "b")), "e": ("a", ("b",))}
    )
    text = emit(scrambled)
    assert text.splitlines() == [
        "ultragraph",
        "vertex a",
        "vertex b",
        "edge e a { b }",
        "edge f b { a b }",
    ]


def test_emit_file_and_parse_file_round_trip(tmp_path):
    from ultragraph import emit_file

    p = tmp_path / "g.ug"
    emit_file(gx(), str(p))
    assert parse_file(str(p)) == gx()
