"""Mutation check for the kernel rules: does the test suite notice a
one-line change to a rule it is meant to pin?

Each mutant replaces one exact piece of text in one module of
src/ultragraph.  The script copies src/, tests/, fixtures/, ugbench/ and
pyproject.toml to a temporary directory, checks that the covering tests
pass there unmutated, then applies each mutant in turn, runs its covering
test files with pytest -x and restores the module.  A mutant is killed
when the tests fail, and survives when they pass.  A survivor is a test
gap, closed by a test, never by deleting the mutant.

The file name keeps pytest from collecting it.  Run it from anywhere:

    python3 tests/mutants.py                 # every mutant
    python3 tests/mutants.py "remainder"     # only names containing it

It exits 0 when every mutant run is killed, 1 when one survives, and 2
when no mutant's name contains the substring, a mutant run no longer
matches the source, or the unmutated copy fails.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Tuple

REPO = Path(__file__).resolve().parent.parent

PATHS_TESTS = ("tests/test_paths.py", "tests/test_semigroup.py")
PRODUCT_TESTS = ("tests/test_semigroup.py", "tests/test_groupoid.py")
SEMIGROUP_TESTS = ("tests/test_semigroup.py",)
GROUPOID_TESTS = ("tests/test_groupoid.py", "tests/test_acceptance.py")
ANALYSIS_TESTS = ("tests/test_analysis.py",)
CLI_TESTS = ("tests/test_cli.py",)
FILEFORMAT_TESTS = ("tests/test_fileformat.py",)


class Mutant(NamedTuple):
    name: str
    module: str
    old: str  # must occur exactly once in the module
    new: str
    tests: Tuple[str, ...]


MUTANTS = (
    Mutant(
        "product: the union in place of the meet",
        "semigroup.py",
        "meet = zt & xt",
        "meet = zt | xt",
        PRODUCT_TESTS,
    ),
    Mutant(
        "product: skip the containment-agreement check",
        "semigroup.py",
        "if (rule1 and right_t != yt) or (rule2 and left_t != wt):",
        "if False:",
        PRODUCT_TESTS,
    ),
    Mutant(
        "product: keep w uncut",
        "semigroup.py",
        "return SGElement(Ultrapath(w.word, left_t), Ultrapath(y.word, right_t))",
        "return SGElement(w, Ultrapath(y.word, right_t))",
        PRODUCT_TESTS,
    ),
    Mutant(
        "product: take the meet as w's cut",
        "semigroup.py",
        "left_t = meet if wt is zt else wt & xt",
        "left_t = meet",
        PRODUCT_TESTS,
    ),
    Mutant(
        "product: share the length-zero idempotent whatever the words",
        "semigroup.py",
        "if right_t is left_t and not w.word and not y.word:",
        "if right_t is left_t:",
        PRODUCT_TESTS,
    ),
    Mutant(
        "product: flip the first containment",
        "semigroup.py",
        "return initial_segment(g, x, z), initial_segment(g, z, x)",
        "return initial_segment(g, z, x), initial_segment(g, z, x)",
        PRODUCT_TESTS,
    ),
    Mutant(
        "idempotent_leq_by_shape: swap the initial segment's arguments",
        "semigroup.py",
        "return initial_segment(g, e.left, f.left) is not None",
        "return initial_segment(g, f.left, e.left) is not None",
        SEMIGROUP_TESTS,
    ),
    Mutant(
        "idempotent_leq_by_shape: put the zero above everything",
        "semigroup.py",
        "return e.is_omega",
        "return True",
        SEMIGROUP_TESTS,
    ),
    Mutant(
        "eval_char: swap the initial segment's arguments",
        "semigroup.py",
        "initial_segment(g, chi.path, e.left)",
        "initial_segment(g, e.left, chi.path)",
        SEMIGROUP_TESTS,
    ),
    Mutant(
        "initial_segment: flip the length-zero containment",
        "paths.py",
        "return x if x.terminal <= y.terminal else None",
        "return x if x.terminal >= y.terminal else None",
        PATHS_TESTS,
    ),
    Mutant(
        "initial_segment: drop the remainder's start test",
        "paths.py",
        "return rest if g.source[rest.word[0]] in y.terminal else None",
        "return rest",
        PATHS_TESTS,
    ),
    Mutant(
        "concat: drop the start test of two words",
        "paths.py",
        "if g.source[y.word[0]] in x.terminal:\n            return Ultrapath(x.word + y.word",
        "if True:\n            return Ultrapath(x.word + y.word",
        PATHS_TESTS,
    ),
    Mutant(
        "concat: keep the terminal of a path then a set",
        "paths.py",
        "return Ultrapath(x.word, t) if t else None",
        "return Ultrapath(x.word, x.terminal)",
        PATHS_TESTS,
    ),
    Mutant(
        "_check_tail: flip the phase sign",
        "groupoid.py",
        "(right_phase - phase - lag) % len(rep)",
        "(phase - right_phase - lag) % len(rep)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_check_tail: ignore the lag",
        "groupoid.py",
        "(right_phase - phase - lag) % len(rep)",
        "(right_phase - phase) % len(rep)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "compose: drop the second lag",
        "groupoid.py",
        "lag = a.lag + b.lag",
        "lag = a.lag",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_PointTable.compose: drop the second lag",
        "groupoid.py",
        "lag += b[1]",
        "lag += 0",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_PointTable.compose: drop the rep test",
        "groupoid.py",
        "self.rep[left] != self.rep[right]",
        "False",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_PointTable.compose: flip the phase sign",
        "groupoid.py",
        "(self.phase[right] - self.phase[left] - lag)",
        "(self.phase[left] - self.phase[right] - lag)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_groupoid_laws: compare lhs with itself",
        "groupoid.py",
        "if lhs is None or lhs != rhs:",
        "if lhs is None or lhs != lhs:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_groupoid_laws: drop the right-unit clause",
        "groupoid.py",
        "if mul((left, 0, left), a) != a or mul(a, mul(inv, a)) != a:",
        "if mul((left, 0, left), a) != a:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_PointTable.compose: break lag additivity",
        "groupoid.py",
        "lag += b[1]",
        "lag += b[1] + (lag > 0 and b[1] > 0)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_groupoid_laws: skip the pair check",
        "groupoid.py",
        "mul(a, b) == (a[0], a[1] + b[1], b[2])",
        "True",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_groupoid_laws: compare the pair product with itself",
        "groupoid.py",
        "mul(a, b) == (a[0], a[1] + b[1], b[2])",
        "mul(a, b) == mul(a, b)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_groupoid_laws: decide by pairs after a units witness",
        "groupoid.py",
        "if not bad and all(",
        "if all(",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_first_return_words: drop the terminal test",
        "analysis.py",
        "        if v in g.range[e]:\n            yield tuple(path)",
        "        if True:\n            yield tuple(path)",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "_separated: cut the bound to one period",
        "groupoid.py",
        "+ len(ra.cycle) + len(rb.cycle)",
        "+ len(ra.cycle)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_split_failures: skip the identity",
        "groupoid.py",
        "        elif w != want:\n",
        "        elif False:\n",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_split_failures: drop the missing-set report",
        "groupoid.py",
        "            if held[m]:\n",
        "            if False:\n",
        GROUPOID_TESTS,
    ),
    Mutant(
        "enumerate_paths: drop the maximal terminal from the per-range list",
        "paths.py",
        "if A <= r]",
        "if A < r]",
        PATHS_TESTS,
    ),
    Mutant(
        "word_levels: count each successor once",
        "paths.py",
        "nxt[f] = nxt.get(f, 0) + n",
        "nxt[f] = nxt.get(f, 0) + 1",
        PATHS_TESTS,
    ),
    Mutant(
        "_counted_paths: raise on reaching max_count",
        "paths.py",
        "        if count > max_count:\n            raise SizeLimitError(f\"path",
        "        if count >= max_count:\n            raise SizeLimitError(f\"path",
        PATHS_TESTS,
    ),
    Mutant(
        "_counted_paths: drop the level guard",
        "paths.py",
        "        if count > max_count:\n            raise SizeLimitError(f\"path",
        "        if False:\n            raise SizeLimitError(f\"path",
        PATHS_TESTS,
    ),
    Mutant(
        "_counted_paths: count 2^|r| terminals in place of 2^|r n V| - 1",
        "paths.py",
        "2 ** len(g.range[e] & g.vertices) - 1",
        "2 ** len(g.range[e])",
        PATHS_TESTS,
    ),
    Mutant(
        "_counted_paths: count one level past max_len",
        "paths.py",
        "itertools.islice(word_levels(g), max_len)",
        "itertools.islice(word_levels(g), max_len + 1)",
        PATHS_TESTS,
    ),
    Mutant(
        "_lasso_words: raise on reaching max_count words",
        "paths.py",
        "if total > max_count:",
        "if total >= max_count:",
        PATHS_TESTS,
    ),
    Mutant(
        "_lasso_words: drop the level guard",
        "paths.py",
        "if total > max_count:",
        "if False:",
        PATHS_TESTS,
    ),
    Mutant(
        "_counted_lassos: drop the p[-1] != c[-1] test",
        "paths.py",
        "into[g.source[c[0]]] - ending.get(c[-1], 0)",
        "into[g.source[c[0]]]",
        PATHS_TESTS,
    ),
    Mutant(
        "_primitive_cycles: drop the primitivity filter",
        "paths.py",
        " and len(_primitive(w)) == len(w)",
        "",
        PATHS_TESTS,
    ),
    Mutant(
        "_primitive_cycles: build closed words one level short",
        "paths.py",
        "itertools.islice(_word_lists(g), cycle_bound)",
        "itertools.islice(_word_lists(g), cycle_bound - 1)",
        PATHS_TESTS,
    ),
    Mutant(
        "_lassos_in_order: drop the p[-1] != c[-1] test",
        "paths.py",
        "if g.source[c[0]] in r and c[-1] != last:",
        "if g.source[c[0]] in r:",
        PATHS_TESTS,
    ),
    Mutant(
        "_lassos_in_order: order by prefix before cycle length",
        "paths.py",
        "        for found in by_length:\n            for p in prefixes:",
        "        for p in prefixes:\n            for found in by_length:",
        PATHS_TESTS,
    ),
    Mutant(
        "count_lassos: sort the sample by cycle length before prefix length",
        "paths.py",
        "list(itertools.islice(lassos, min(SAMPLE, count)))",
        "sorted(itertools.islice(lassos, min(SAMPLE, count)), "
        "key=lambda l: (len(l.cycle), len(l.prefix), l.prefix, l.cycle))",
        PATHS_TESTS,
    ),
    Mutant(
        "_counted_lassos: drop the lasso count guard",
        "paths.py",
        "    if count > max_count:\n        raise SizeLimitError(f\"lasso",
        "    if False:\n        raise SizeLimitError(f\"lasso",
        PATHS_TESTS,
    ),
    Mutant(
        "_counted_lassos: raise on reaching max_count lassos",
        "paths.py",
        "    if count > max_count:\n        raise SizeLimitError(f\"lasso",
        "    if count >= max_count:\n        raise SizeLimitError(f\"lasso",
        PATHS_TESTS,
    ),
    Mutant(
        "_word_masks: drop the word budget",
        "groupoid.py",
        "if sum(level.values()) > max_count:",
        "if False:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_check_word_budget: drop the depth guard",
        "groupoid.py",
        "if depth > max_count:",
        "if False:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_check_word_budget: refuse a depth at the limit",
        "groupoid.py",
        "if depth > max_count:",
        "if depth >= max_count:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_word_masks: count words one edge short",
        "groupoid.py",
        "if n >= depth:",
        "if n >= depth - 1:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_word_masks: OR all but one vertex of a length-zero base",
        "groupoid.py",
        "map(vertex_words, base.terminal)",
        "map(vertex_words, sorted(base.terminal)[1:])",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_word_masks: let the vertex cache read words_of, a closure cycle",
        "groupoid.py",
        "lambda v: refined(",
        "lambda v: words_of(",
        GROUPOID_TESTS,
    ),
    Mutant(
        "build_elements: take both points from the left coordinate",
        "groupoid.py",
        "itertools.repeat(x.length - y.length), points[y])",
        "itertools.repeat(x.length - y.length), points[x])",
        GROUPOID_TESTS,
    ),
    Mutant(
        "build_elements: flip the lag",
        "groupoid.py",
        "itertools.repeat(x.length - y.length)",
        "itertools.repeat(y.length - x.length)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "build_elements: list only the lassos of the terminal's least vertex",
        "groupoid.py",
        "for v in sorted(z.terminal)",
        "for v in sorted(z.terminal)[:1]",
        GROUPOID_TESTS,
    ),
    Mutant(
        "build_elements: raise on reaching max_count elements",
        "groupoid.py",
        "if len(out) > max_count:",
        "if len(out) >= max_count:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_cycle_kinds: count every cyclic component as a simple cycle",
        "analysis.py",
        "kinds[head] = all(sum(f in members for f in adj[e]) == 1 for e in comp)",
        "kinds[head] = True",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "_cycle_kinds: take a one-edge component that follows itself as acyclic",
        "analysis.py",
        "if head in kinds or (len(comp) == 1 and head not in adj[head]):",
        "if head in kinds or len(comp) == 1:",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "_component_loop_counts: read only the first out-edge of each vertex",
        "analysis.py",
        "for e in g.out_edges(v) if comps[e][0] in kinds]",
        "for e in g.out_edges(v)[:1] if comps[e][0] in kinds]",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "is_cofinal: search back from the first cyclic component only",
        "analysis.py",
        "    for t in targets:\n",
        "    for t in targets[:1]:\n",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "skew_product: drop the size guard",
        "analysis.py",
        "if max(n_vertices, n_edges) > max_count:",
        "if False:",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "skew_product: put the range at level n instead of n+1",
        "analysis.py",
        "ranges[e + tag] = frozenset([w + up for w in r])",
        "ranges[e + tag] = frozenset([w + tag for w in r])",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "is_loop_free: the peel skips one in-degree decrement",
        "analysis.py",
        "for y in arcs.get(x, ()):",
        "for y in arcs.get(x, ())[1:]:",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "is_loop_free: the peel counts arcs from undeclared sources",
        "analysis.py",
        "        if x in vs:\n",
        "        if True:\n",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "is_loop_free: the peel compares seen with one less than the vertex count",
        "analysis.py",
        "return seen == len(indeg)",
        "return seen >= len(indeg) - 1",
        ANALYSIS_TESTS,
    ),
    Mutant(
        "check_family: no zero for an empty meet",
        "groupoid.py",
        "want_of[0] = OMEGA",
        "want_of[0] = None",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: read the meet's projection at the union's mask",
        "groupoid.py",
        "want = want_of[x & y]",
        "want = want_of[x | y]",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: drop the diagonals",
        "groupoid.py",
        "pairs = [(m, m)] if m and not (full ^ m) & (full ^ m) - 1 else []",
        "pairs = []",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: drop U's diagonal",
        "groupoid.py",
        "pairs = [(m, m)] if m and not",
        "pairs = [(m, m)] if m and m != full and not",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: drop the first vertex's U - {v} diagonal",
        "groupoid.py",
        "pairs = [(m, m)] if m and not",
        "pairs = [(m, m)] if m and m != full ^ 1 and not",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: drop the empty-meet pair",
        "groupoid.py",
        "if m != full and full ^ low:",
        "if m and m != full and full ^ low:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: drop the chain pairs with U on a side",
        "groupoid.py",
        "if m != full and full ^ low:",
        "if m | low != full and full ^ low:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: skip the last vertex's chain pair",
        "groupoid.py",
        "if m != full and full ^ low:",
        "if m != full and full ^ low and m != full >> 1:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: form chain pairs in the pivot rows only",
        "groupoid.py",
        "if m != full and full ^ low:",
        "if pairs and m != full and full ^ low:",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: take the pivot at the least vertex inside A",
        "groupoid.py",
        "low = ~m & (m + 1)",
        "low = m & -m or 1",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: store a missing projection as the zero",
        "groupoid.py",
        "want_of[m] = fam.projections.get(A)\n",
        "want_of[m] = fam.projections.get(A, OMEGA)\n",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_split_failures: read the set's words at its split's meet",
        "groupoid.py",
        "w, want = words_at[m],",
        "w, want = words_at[low & rest],",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_word_masks: meet the vertex masks of a length-zero base",
        "groupoid.py",
        "functools.reduce(operator.or_, map(vertex_words",
        "functools.reduce(operator.and_, map(vertex_words",
        GROUPOID_TESTS,
    ),
    Mutant(
        "generate_elements: count 2k pairs, not 2k + 1, per drawn path",
        "semigroup.py",
        "count += 2 * len(group) + 1",
        "count += 2 * len(group)",
        SEMIGROUP_TESTS,
    ),
    Mutant(
        "generate_elements: count the pairs from zero, leaving the zero out",
        "semigroup.py",
        "    count = 1\n",
        "    count = 0\n",
        SEMIGROUP_TESTS,
    ),
    Mutant(
        "product: key the shared idempotent on w's set",
        "semigroup.py",
        "return _set_idempotent(left_t)",
        "return _set_idempotent(wt)",
        PRODUCT_TESTS,
    ),
    Mutant(
        "_split_failures: read the set's own words for its rest",
        "groupoid.py",
        "ext[low] | ext[rest]",
        "ext[low] | words_at[m]",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_split_failures: split every set as a singleton",
        "groupoid.py",
        "ext[low] | ext[rest]",
        "ext[low] | ext[0]",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_split_failures: a missing singleton reads no words",
        "groupoid.py",
        "ext[1 << k] = -1",
        "ext[1 << k] = 0",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_split_failures: hold a missing set by a set without its least vertex",
        "groupoid.py",
        "if rest >> k & 1)",
        "if m >> k & 1)",
        GROUPOID_TESTS,
    ),
    Mutant(
        "_cylinder_words: let the first edge leave any vertex",
        "groupoid.py",
        "ok_sources = base.terminal - blocked",
        "ok_sources = g.vertices - blocked",
        GROUPOID_TESTS,
    ),
    Mutant(
        "generate_lattice: number the vertex bits from the last vertex",
        "core.py",
        "v, bit = vs[k], 1 << k",
        "v, bit = vs[k], 1 << (len(vs) - 1 - k)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "edge adjacency: drop the entry budget",
        "core.py",
        "if entries > MAX_ADJACENCY:",
        "if False:",
        ("tests/test_core.py",),
    ),
    Mutant(
        "edge adjacency: refuse a graph at its entry budget",
        "core.py",
        "if entries > MAX_ADJACENCY:",
        "if entries >= MAX_ADJACENCY:",
        ("tests/test_core.py",),
    ),
    Mutant(
        "edge adjacency: leave the first edge out of the entry count",
        "core.py",
        "entries = sum(len(es) for ps in parts.values() for es in ps)",
        "entries = sum(len(es) for ps in list(parts.values())[1:] for es in ps)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "emitted_edges: skip edges from undeclared sources",
        "core.py",
        "chain.from_iterable(map(g.out_edges, A))",
        "chain.from_iterable(map(g.out_edges, A & g.vertices))",
        ("tests/test_core.py",),
    ),
    Mutant(
        "sinks: treat an undeclared source as emitting",
        "core.py",
        "emitting = g.vertices.intersection(g._out_edges)",
        "emitting = set(g._out_edges)",
        ("tests/test_core.py",),
    ),
    Mutant(
        "lattice subcommand: derived off by one",
        "cli.py",
        "derived=len(lat) - singletons - edge_ranges,",
        "derived=len(lat) - singletons - edge_ranges - 1,",
        CLI_TESTS,
    ),
    Mutant(
        "lattice subcommand: count singleton ranges as edge ranges",
        "cli.py",
        "if len(r) != 1 and r <= g.vertices",
        "if r <= g.vertices",
        CLI_TESTS,
    ),
    Mutant(
        "refine_words: drop the word budget",
        "groupoid.py",
        "    _check_word_budget(g, depth)\n    words = set()\n",
        "    words = set()\n",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: never flag overlapping edge slices",
        "groupoid.py",
        "overlap = overlap or bool(merged & piece)",
        "overlap = False",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: list offending projection keys unsorted",
        "groupoid.py",
        "for _, msg in sorted(shape_at, key=lambda am: set_key(am[0]))]",
        "for _, msg in shape_at]",
        GROUPOID_TESTS,
    ),
    Mutant(
        "check_family: drop the missing-isometry report",
        "groupoid.py",
        "        if e not in fam.isometries:\n",
        "        if False:\n",
        GROUPOID_TESTS,
    ),
    Mutant(
        "semigroup law loop: decide a block from s t alone",
        "cli.py",
        "            if row.get(x) is None and rows[x].get(z) is None:\n",
        "            if row.get(x) is None:\n",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup law loop: drop the swap guard",
        "cli.py",
        "s.left is not None and t.left == s.right and t.right == s.left",
        "s.left is not None",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup law loop: a live block does not add its columns",
        "cli.py",
        "cols = itertools.chain(off, *(by_left[x] for x in live[coords[i][1]]))",
        "cols = itertools.chain(off)",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup law loop: skip the diagonal block",
        "cli.py",
        "            if x < z:\n",
        "            if x <= z:\n",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: store an entry's two remainders swapped",
        "cli.py",
        "return None if rems == (None, None) else rems",
        "return None if rems == (None, None) else rems[::-1]",
        CLI_TESTS,
    ),
    Mutant(
        "order-check read: grow y by rule 1's remainder",
        "cli.py",
        "grown_w = None if r1 is None else concat(g, w, r1)",
        "grown_w = None if r1 is None else concat(g, f.left, r1)",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: read two meeting sets as the zero",
        "cli.py",
        "return _MEET if z.terminal & x.terminal else None",
        "return None",
        CLI_TESTS,
    ),
    Mutant(
        "glue: drop rule 2",
        "semigroup.py",
        "    if rule2 is not None:\n",
        "    if False:\n",
        CLI_TESTS,
    ),
    Mutant(
        "glue: drop the disagreement check",
        "semigroup.py",
        "    if later != first:\n",
        "    if False:\n",
        CLI_TESTS,
    ),
    Mutant(
        "order-check read: grow w by rule 2's remainder",
        "cli.py",
        "grown_y = None if r2 is None else concat(g, f.left, r2)",
        "grown_y = None if r2 is None else concat(g, w, r2)",
        CLI_TESTS,
    ),
    Mutant(
        "order-check read: read entry (x, z) for (z, x)",
        "cli.py",
        "            entry = row[x]\n",
        "            entry = rows[x][z]\n",
        CLI_TESTS,
    ),
    Mutant(
        "order-check read: pass r1 and r2 to glue swapped",
        "cli.py",
        "glue(w, f.left, r1, r2, grown_w, grown_y)",
        "glue(w, f.left, r2, r1, grown_w, grown_y)",
        CLI_TESTS,
    ),
    Mutant(
        "order-check read: read a None entry as _MEET",
        "cli.py",
        "yield e, f, OMEGA",
        "yield e, f, product(g, e, f)",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup law loop: compare s t with t* s* unswapped",
        "cli.py",
        "if star(st) != ts:",
        "if st != ts:",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup law loop: settle blocks when a listed element is off the involution",
        "cli.py",
        "loose = not skip_zero or any(coords[j] is not None for j in off)",
        "loose = not skip_zero",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup rule_remainders: drop rule 2 onto a set, breaking the symmetry",
        "semigroup.py",
        "return initial_segment(g, x, z), initial_segment(g, z, x)",
        "return initial_segment(g, x, z), (initial_segment(g, z, x) if x.word else None)",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: settle a block whose entries do not mirror",
        "cli.py",
        "return e is not None and m == (e[1], e[0])",
        "return e is not None",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: settle a block with bent coordinates",
        "cli.py",
        "        if z in self.bent or x in self.bent:\n",
        "        if False:\n",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: test only z for bent",
        "cli.py",
        "        if z in self.bent or x in self.bent:\n",
        "        if z in self.bent:\n",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: count an empty terminal as matched",
        "cli.py",
        "w.terminal != y.terminal or not w.terminal",
        "w.terminal != y.terminal",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: treat _MEET against a non-meet entry as mirrored",
        "cli.py",
        "return e is m",
        "return True",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: charge one unit per set, not per pair of sets",
        "cli.py",
        "self.charge(len(sets) ** 2)",
        "self.charge(len(sets))",
        CLI_TESTS,
    ),
    Mutant(
        "remainder table: charge none of the prefix and source entries",
        "cli.py",
        "self.charge(sum(map(len, related)) + 2 * sum(len(b) for _, b in starts))",
        "self.charge(0)",
        CLI_TESTS,
    ),
    Mutant(
        "remainder index: drop the set-source bucket",
        "cli.py",
        "        for a, bucket in starts:\n",
        "        for a, bucket in ():\n",
        CLI_TESTS,
    ),
    Mutant(
        "remainder index: relate a set to the paths starting in it one way only",
        "cli.py",
        "            related[a].update(bucket)\n",
        "",
        CLI_TESTS,
    ),
    Mutant(
        "remainder index: stop the prefix walk one edge short",
        "cli.py",
        "for k in range(1, len(p.word) + 1):",
        "for k in range(1, len(p.word)):",
        CLI_TESTS,
    ),
    Mutant(
        "remainder index: relate a word to its prefixes one way only",
        "cli.py",
        "                    related[x].add(z)\n",
        "",
        CLI_TESTS,
    ),
    Mutant(
        "remainder index: drop the set-set meet bucket",
        "cli.py",
        "if at & bt or not (at and bt):",
        "if not (at and bt):",
        CLI_TESTS,
    ),
    Mutant(
        "remainder index: leave an empty set unrelated",
        "cli.py",
        "if at & bt or not (at and bt):",
        "if at & bt:",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup law loop: a star moving the zero visits only related blocks",
        "cli.py",
        "for x in row if skip_zero else range(n):",
        "for x in row:",
        CLI_TESTS,
    ),
    Mutant(
        "order-check read: visit every idempotent of a row's coordinates unsorted",
        "cli.py",
        "sorted(k for x in row if x in at for k in at[x])",
        "[k for x in row if x in at for k in at[x]][::-1]",
        CLI_TESTS,
    ),
    Mutant(
        "semigroup law loop: charge no element pair",
        "cli.py",
        "table.charge(visits)",
        "table.charge(0)",
        CLI_TESTS,
    ),
    Mutant(
        "render: drop the key sort",
        "cli.py",
        "_json(obj[k], inner) for k in sorted(obj)",
        "_json(obj[k], inner) for k in obj",
        CLI_TESTS,
    ),
    Mutant(
        "render: an empty dict as an open pair of braces",
        "cli.py",
        'return "{}"',
        'return "{" + pad + "}"',
        CLI_TESTS,
    ),
    Mutant(
        "render: let bools reach int.__repr__",
        "cli.py",
        'if obj is True:\n        return "true"\n    if obj is False:\n'
        '        return "false"\n    if type(obj) is int:',
        "if isinstance(obj, int):",
        CLI_TESTS,
    ),
    Mutant(
        "render: indent every level by the same pad",
        "cli.py",
        'inner = pad + "  "',
        'inner = "\\n  "',
        CLI_TESTS,
    ),
    Mutant(
        "parse: skip the name check on an undeclared range vertex",
        "fileformat.py",
        '_check_name(num, "vertex", w)',
        "pass",
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse: skip the name check on an undeclared source",
        "fileformat.py",
        '_check_name(num, "vertex", src)',
        "pass",
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse: skip the edge name check",
        "fileformat.py",
        '_check_name(num, "edge", name)',
        "pass",
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse: accept a header line with trailing tokens",
        "fileformat.py",
        "if tokens != [HEADER]:",
        "if tokens[0] != HEADER:",
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse: drop the repeat test",
        "fileformat.py",
        "if len(members) != len(rng):",
        "if False:",
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse: trust a range without walking it",
        "fileformat.py",
        "if not seen.issuperset(rng):",
        "if False:",
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse: split on splitlines() again",
        "fileformat.py",
        'enumerate(text.split("\\n"), start=1)',
        "enumerate(text.splitlines(), start=1)",
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse: leave a lone CR inside its line",
        "fileformat.py",
        'text.replace("\\r\\n", "\\n").replace("\\r", "\\n")',
        'text.replace("\\r\\n", "\\n")',
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "parse_file: keep a leading byte order mark",
        "fileformat.py",
        'data.decode("utf-8-sig")',
        'data.decode("utf-8")',
        FILEFORMAT_TESTS,
    ),
    Mutant(
        "LassoPath: skip canonicalization",
        "paths.py",
        "tuple.__new__(cls, _canonical(tuple(prefix), tuple(cycle)))",
        "tuple.__new__(cls, (tuple(prefix), tuple(cycle)))",
        PATHS_TESTS,
    ),
    Mutant(
        "shift_n: rotate the cycle one step too far",
        "paths.py",
        "k = (n - len(x.prefix)) % len(x.cycle)",
        "k = (n - len(x.prefix) + 1) % len(x.cycle)",
        ("tests/test_paths.py", "tests/test_groupoid.py"),
    ),
)


def _run_tests(root: Path, tests: Tuple[str, ...]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
        cwd=root,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return proc.returncode == 0


def main(argv: Tuple[str, ...]) -> int:
    substring = argv[0] if argv else ""
    chosen = [m for m in MUTANTS if substring in m.name]
    if not chosen:
        print(f"error: no mutant name contains {substring!r}")
        return 2
    with tempfile.TemporaryDirectory(prefix="ug-mutants-") as tmp:
        root = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests", "fixtures", "ugbench"):
            shutil.copytree(REPO / name, root / name, ignore=ignore)
        shutil.copy2(REPO / "pyproject.toml", root / "pyproject.toml")
        pkg = root / "src" / "ultragraph"

        for m in chosen:
            count = (pkg / m.module).read_text().count(m.old)
            if count != 1:
                print(f"error: mutant '{m.name}' matches {count} times in {m.module}")
                return 2
        covering = tuple(sorted({t for m in chosen for t in m.tests}))
        if not _run_tests(root, covering):
            print("error: the covering tests fail on the unmutated copy")
            return 2

        survivors = []
        for m in chosen:
            path = pkg / m.module
            original = path.read_text()
            path.write_text(original.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                killed = not _run_tests(root, m.tests)
            finally:
                path.write_text(original)
            verdict = "killed" if killed else "SURVIVED"
            print(f"{verdict:8}  {m.name}  ({time.perf_counter() - start:.1f} s)")
            if not killed:
                survivors.append(m.name)

    print(f"{len(chosen) - len(survivors)} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    if len(sys.argv) > 2:
        print("usage: python3 tests/mutants.py [SUBSTRING]")
        sys.exit(2)
    sys.exit(main(tuple(sys.argv[1:])))
