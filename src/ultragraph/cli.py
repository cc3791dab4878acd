"""Command-line interface.

Every subcommand reads one ultragraph file, runs a fixed battery of checks
and prints a report, grouped key=value text by default or canonical JSON
with --format json.  Exit status: 0 all checks passed, 1 some check failed
(including blown size limits), 2 for parse, precondition or usage errors.
Output is deterministic for a given file, flags and seed; the timing field
is pinned to zero to keep reports byte-stable.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import random
import sys
from json.encoder import encode_basestring_ascii
from typing import Dict, List, Optional, Sequence, Tuple

from .analysis import (
    check_singular_equivalence,
    is_loop_free,
    simplicity_verdict,
    skew_product,
)
from .core import (
    GraphStructureError,
    SizeLimitError,
    Ultragraph,
    format_set,
    generate_lattice,
    sinks,
    validate,
)
from .fileformat import ParseError, emit_file, parse_file
from .groupoid import (
    build_elements,
    check_groupoid_laws,
    check_hausdorff,
    verify_ck,
)
from .paths import (
    Ultrapath,
    check_lasso_bounds,
    concat,
    count_lassos,
    count_paths,
)
from .semigroup import (
    OMEGA,
    SGElement,
    _leq_by_shape,
    generate_elements,
    glue,
    product,
    rule_remainders,
    star,
)


def _check(name: str, passed: bool, witnesses: Sequence[str] = (), **details) -> Dict:
    clean = {}
    for k, v in details.items():
        clean[k] = v if isinstance(v, (bool, int, str)) else str(v)
    return {
        "name": name,
        "pass": bool(passed),
        "witnesses": [str(w) for w in witnesses],
        "details": clean,
    }


def _cmd_validate(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    rep = validate(g)
    check = _check(
        "structure",
        rep.ok,
        witnesses=tuple(rep.errors) + tuple(rep.warnings),
        vertices=len(g.vertices),
        edges=len(g.edges),
        sinks=" ".join(sorted(rep.sinks)) if rep.sinks else "none",
    )
    return [check], None


def _cmd_lattice(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    lat = generate_lattice(g, max_size=args.max_size)
    # the power set: singletons, edge ranges of other sizes, the rest derived
    singletons = len(g.vertices)
    edge_ranges = sum(1 for r in set(g.range.values()) if len(r) != 1 and r <= g.vertices)
    check = _check(
        "lattice",
        True,
        size=len(lat),
        singletons=singletons,
        edge_ranges=edge_ranges,
        derived=len(lat) - singletons - edge_ranges,
        sets=" ".join(map(format_set, lat.sets[:64])) + (" ..." if len(lat) > 64 else ""),
    )
    return [check], None


def _cmd_paths(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    check_lasso_bounds(args.prefix_bound, args.cycle_bound)
    count, sample = count_paths(g, args.max_len)
    checks = [
        _check(
            "paths",
            True,
            count=count,
            max_len=args.max_len,
            sample=" ".join(map(str, sample)),
        )
    ]
    if sinks(g):
        checks.append(_check("lassos", True, skipped="graph has sinks"))
    else:
        count, sample = count_lassos(g, args.prefix_bound, args.cycle_bound)
        checks.append(
            _check(
                "lassos",
                True,
                count=count,
                prefix_bound=args.prefix_bound,
                cycle_bound=args.cycle_bound,
                sample=" ".join(map(str, sample)),
            )
        )
    return checks, None


_MEET = object()


class _RemainderTable:
    """The remainder entries of one element list, on interned coordinates,
    read only where a prefix index says they can be nonzero.

    Whether and how (w, z)(x, y) rewrites hangs on the inner pair (z, x)
    alone; w and y are only glued onto its remainders.  So the |P|
    distinct coordinates of the list are interned as ids 0..|P|-1, and
    entry (z, x) holds the two remainders from rule_remainders, None when
    no rule applies (every product with inner coordinates (z, x) is zero),
    or _MEET for two overlapping length-zero coordinates, whose products
    go through product's length-zero branch.  rows[z] maps each x related
    to z, in ascending order, to entry (z, x).  z and x are related when

    - both have edges and one word is a prefix of the other;
    - one is a set A and the other a path with edges that starts in A;
    - both are sets, and they meet or one is empty.

    An unrelated entry is None and is not read, and _leq_by_shape is false
    there: rules 1 and 2 and _leq_by_shape need initial_segment to find a
    remainder, so one word must be a prefix of the other, a path with
    edges must start in the set it follows, a set never follows a path
    with edges, and of two sets one must lie in the other, so they meet or
    one is empty; the overlap rule needs two meeting sets.  The relation
    is symmetric.  The index finds it with no all-pairs pass: each word's
    prefixes, its own last, are looked up in a map of words to ids; each
    set takes the paths bucketed under each of its vertices by the source
    of their first edge; and the pairs of sets are tested one by one.

    Before any entry is read the budget of max_pairs entries and element
    pairs is charged |S|^2 for the S listed sets, the pairs the set-set
    part tests, before that part is built, and then the entries of the
    prefix part and of the source part, counted from its buckets.
    """

    max_pairs = 2_000_000

    def __init__(self, g: Ultragraph, elems: Sequence[Tuple[Optional[Ultrapath], ...]]):
        self.g, self.spent = g, 0
        ids: Dict[Ultrapath, int] = {}
        # (left id, right id) per element, None for the zero
        self.coords = [
            None if w is None else (ids.setdefault(w, len(ids)), ids.setdefault(y, len(ids)))
            for w, y in elems
        ]
        self.paths = paths = list(ids)
        self.size = n = len(paths)
        sets: List[int] = []
        by_word: Dict[Tuple[str, ...], List[int]] = {}
        by_source: Dict[str, List[int]] = {}
        for k, p in enumerate(paths):
            if p.word:
                by_word.setdefault(p.word, []).append(k)
                by_source.setdefault(g.source[p.word[0]], []).append(k)
            else:
                sets.append(k)
        self.charge(len(sets) ** 2)
        related = [set() for _ in range(n)]
        for z, p in enumerate(paths):
            for k in range(1, len(p.word) + 1):
                for x in by_word.get(p.word[:k], ()):
                    related[z].add(x)
                    related[x].add(z)
        starts = [(a, by_source.get(v, ())) for a in sets for v in paths[a].terminal]
        self.charge(sum(map(len, related)) + 2 * sum(len(b) for _, b in starts))
        for a, bucket in starts:
            related[a].update(bucket)
            for x in bucket:
                related[x].add(a)
        for a in sets:
            at = paths[a].terminal
            for b in sets:
                bt = paths[b].terminal
                if at & bt or not (at and bt):
                    related[a].add(b)
        self.rows = [
            {x: self._read(paths[z], paths[x]) for x in sorted(r)} for z, r in enumerate(related)
        ]
        self.bent = set()  # the coordinates of elements whose ranges differ or are empty
        for w, y in elems:
            if w is not None and (w.terminal != y.terminal or not w.terminal):
                self.bent.update((ids[w], ids[y]))

    def charge(self, count: int) -> None:
        """Count entries or element pairs against max_pairs."""
        self.spent += count
        if self.spent > self.max_pairs:
            raise SizeLimitError(
                f"semigroup law check exceeded max_pairs={self.max_pairs} entries and pairs"
            )

    def _read(self, z: Ultrapath, x: Ultrapath):
        if not z.word and not x.word:
            # listed terminals are nonempty, so only the overlap rule can
            # apply, and it applies iff the sets meet
            return _MEET if z.terminal & x.terminal else None
        rems = rule_remainders(self.g, z, x)
        return None if rems == (None, None) else rems

    def settled(self, z: int, x: int) -> bool:
        """Whether every product of block (z, x) is the swap of its mirror
        product and raises nothing, read off entries (z, x) and (x, z) and
        the bent coordinates alone, so symmetric in z and x (the proof is
        _star_failures')."""
        if z in self.bent or x in self.bent:
            return False
        e, m = self.rows[z].get(x), self.rows[x].get(z)
        if e is _MEET or m is _MEET:
            return e is m
        return e is not None and m == (e[1], e[0])


def _cmd_semigroup(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    return _semigroup_laws(g, generate_elements(g, args.max_len)), None


def _semigroup_laws(g: Ultragraph, elems: Sequence[SGElement]) -> List[Dict]:
    """The involution, antimultiplicative-star and idempotent-order checks
    on one element list.  The order check reads ef off the remainder table
    and compares it with the order read off initial segments, on the pairs
    the table relates (_idempotent_products settles the rest)."""
    # star once on each element and once on its image: the involution,
    # and whether star swaps the element's two coordinates
    bad_inv, tabled = [], []
    for s in elems:
        t = star(s)
        if star(t) != s:
            bad_inv.append(str(s))
        tabled.append(s.left is not None and t.left == s.right and t.right == s.left)
    table = _RemainderTable(g, elems)
    bad_star = _star_failures(g, elems, tabled, table)
    idems = [(s, c[0]) for s, c in zip(elems, table.coords) if c is not None and c[0] == c[1]]
    bad_ord = [
        f"{e} <= {f}"
        for e, f, ef in _idempotent_products(g, table, idems)
        if (ef == e) != _leq_by_shape(g, e, f)
    ]
    star_witnesses = [f"{elems[i]} * {elems[j]}" for i, j in bad_star[:5]]
    return [
        _check("involution", not bad_inv, bad_inv[:5], count=len(elems)),
        _check("antimultiplicative_star", not bad_star, star_witnesses),
        _check("idempotent_order_agreement", not bad_ord, bad_ord[:5], idempotents=len(idems)),
    ]


def _idempotent_products(g: Ultragraph, table: _RemainderTable, idems):
    """(e, f, ef) for every ordered pair of listed idempotents e = (z, z)
    and f = (x, x) whose coordinates the table relates, given with the id
    of z and x, in list order, with ef read off entry (z, x): the zero
    where no rule applies, product for two meeting sets, and otherwise
    glue on the entry's remainders, as product does after rule_remainders.

    The pairs left out are settled: there no rule applies, so ef = 0,
    which is not the nonzero e, and z does not extend x, so
    _leq_by_shape(e, f) is false too (_RemainderTable's index argument)."""
    rows = table.rows
    at: Dict[int, List[int]] = {}  # the positions in idems of each coordinate id
    for k, (_, x) in enumerate(idems):
        at.setdefault(x, []).append(k)
    for e, z in idems:
        row, w = rows[z], e.left
        for k in sorted(k for x in row if x in at for k in at[x]):
            f, x = idems[k]
            entry = row[x]
            if entry is None:
                yield e, f, OMEGA
            elif entry is _MEET:
                yield e, f, product(g, e, f)
            else:
                r1, r2 = entry
                grown_w = None if r1 is None else concat(g, w, r1)
                grown_y = None if r2 is None else concat(g, f.left, r2)
                yield e, f, glue(w, f.left, r1, r2, grown_w, grown_y)


def _star_failures(
    g: Ultragraph,
    elems: Sequence[SGElement],
    tabled: Sequence[bool],
    table: _RemainderTable,
) -> List[Tuple[int, int]]:
    """The pairs (i, j) with star(s t) != t* s* for s = elems[i] and
    t = elems[j], in (i, j) order, given tabled[i]: whether elems[i] is
    nonzero and star swaps its coordinates.

    Where star fixes the zero and swaps the coordinates of every listed
    nonzero element, it is taken to swap every product too, as star does.
    Then a pair with the zero holds by absorption, and the law is decided
    per block (z, x), the products of s = (w, z) and t = (x, y).
    A block holds, with no product formed, when both entries (z, x) and
    (x, z) are zero, s t = 0 = t* s*, as on every pair the table does not
    relate, so only related blocks are visited; or when
    table.settled(z, x): neither z nor x is bent (a coordinate of a listed
    element whose two ranges differ or are empty), so range(w) = range(z)
    and range(y) = range(x) are nonempty, and

    - entry (z, x) holds remainder ids (r1, r2) and entry (x, z) mirrors
      it as (r2, r1), so t* s* = (y, x)(z, w) glues y . r2 and w . r1 into
      the slots where s t glues w . r1 and y . r2.  r1 starts at a vertex
      of range(z) or is a nonempty set inside it, so w . r1 is defined, as
      is y . r2.  Both rules apply only when x and z extend each other,
      x = z; then r1 = r2 = range(z) gives w and y back, and they agree.
    - both entries are _MEET, so z and x are sets Z and X meeting in a
      nonempty C, range(w) = Z and range(y) = X.  product's length-zero
      branch then cuts w and y to C and raises nothing: both cuts are C,
      and a rule that applies has X = C or Z = C, where the cut keeps y
      or w.  So s t = (w', y') for w and y cut to C, and t* s* = (y', w').

    Every other block goes back to its element pairs, and so does every
    related block when star is not the swap on a listed element, whose
    pairs all go back too, and every block, related or not, when star
    moves the zero; their pairs go through product and star.  (s, t) and
    its mirror (t*, s*) ask one equation, so the products are formed for
    the first of each mirror pair in the loop's order, which keeps the
    first error raised.  The pairs are charged to the table's budget
    before any product."""
    coords, n = table.coords, table.size
    off = [j for j in range(len(elems)) if not tabled[j]]
    skip_zero = star(OMEGA) == OMEGA
    loose = not skip_zero or any(coords[j] is not None for j in off)
    if not loose:
        off = []  # the zero alone, whose pairs hold by absorption
    # the blocks sent back to element pairs, x ascending in live[z]
    rows, settled = table.rows, table.settled
    live: List[List[int]] = [[] for _ in range(n)]
    for z in range(n):
        row = rows[z]
        for x in row if skip_zero else range(n):
            if x < z:
                continue
            if row.get(x) is None and rows[x].get(z) is None:
                back = not skip_zero
            else:
                back = loose or not settled(z, x)
            if back:
                live[z].append(x)
                if x != z:
                    live[x].append(z)
    by_left: List[List[int]] = [[] for _ in range(n)]
    rights = [0] * n
    for j, c in enumerate(coords):
        if tabled[j]:
            by_left[c[0]].append(j)
            rights[c[1]] += 1
    visits = len(off) * len(elems)
    for z in range(n):
        visits += rights[z] * (len(off) + sum(len(by_left[x]) for x in live[z]))
    table.charge(visits)
    if not visits:
        return []

    # mirror[i] is set where star maps elems[i] into the list and back
    starred = [star(s) for s in elems]
    index = {s: i for i, s in enumerate(elems)}
    image = [index.get(s) for s in starred]
    mirror = [k if k is not None and image[k] == i else None for i, k in enumerate(image)]
    bad_pairs = []
    for i, s in enumerate(elems):
        mi = mirror[i]
        if tabled[i]:
            cols = itertools.chain(off, *(by_left[x] for x in live[coords[i][1]]))
        else:
            cols = range(len(elems)) if loose else ()
        for j in cols:
            mj = mirror[j]
            paired = mi is not None and mj is not None
            if paired and (mj, mi) < (i, j):
                continue
            st = product(g, s, elems[j])
            ts = product(g, starred[j], starred[i])
            if star(st) != ts:
                bad_pairs.append((i, j))
            if paired and (mj, mi) != (i, j) and star(ts) != st:
                bad_pairs.append((mj, mi))
    return sorted(bad_pairs)


def _cmd_groupoid(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    max_pairs = 100_000
    if args.pairs < 0:
        raise ValueError("--pairs must not be negative")
    elements = build_elements(g, args.witness_len, args.prefix_bound, args.cycle_bound)
    n = len(elements)
    total = n * (n - 1) // 2
    wanted = min(args.pairs, total)
    if wanted > max_pairs:
        raise SizeLimitError(
            f"hausdorff sample of {wanted} pairs exceeded max_pairs={max_pairs}"
        )
    checks = [_check("elements", True, count=n)]
    laws = check_groupoid_laws(g, elements)
    for entry in laws.entries:
        checks.append(_check(entry.name, entry.passed, entry.details))
    if n >= 2:
        if wanted == total:
            # every pair: the sorted pairs the draws below would reach
            pairs = itertools.combinations(range(n), 2)
        else:
            rng = random.Random(args.seed)
            drawn = set()
            while len(drawn) < wanted:
                i, j = rng.sample(range(n), 2)
                drawn.add((min(i, j), max(i, j)))
            pairs = sorted(drawn)
        sample = [(elements[i], elements[j]) for i, j in pairs]
        hd = check_hausdorff(g, sample)
        for entry in hd.entries:
            checks.append(
                _check(entry.name, entry.passed, entry.details, pairs=len(sample))
            )
    return checks, None


def _cmd_ck(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    rep = verify_ck(g, depth=args.depth, max_size=args.max_size)
    checks = [
        _check(entry.name, entry.passed, entry.details, depth=args.depth)
        for entry in rep.entries
    ]
    return checks, None


def _cmd_analyze(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    if args.bound is not None and args.bound < 1:
        raise ValueError("--bound must be at least 1")
    sr = simplicity_verdict(g, bound=args.bound)
    counts = " ".join(f"{v}={c}" for v, c in sorted(sr.condition_k.counts.items()))
    checks = [
        _check(
            "condition_K",
            sr.condition_k.holds,
            sr.condition_k.offenders(),
            bound=sr.condition_k.bound,
            loop_counts=counts,
        )
    ]
    cex = sr.cofinality.counterexample
    checks.append(
        _check(
            "cofinality",
            sr.cofinality.cofinal,
            () if cex is None else (f"vertex {cex[0]} misses cycle {''.join(cex[1])}",),
        )
    )
    checks.append(_check("condition_2", sr.condition_2_holds, note=sr.condition_2_note))
    checks.append(
        _check(
            "simplicity",
            sr.verdict == "SimpleByThm",
            sr.reasons,
            verdict=sr.verdict,
        )
    )
    checks.append(_check("af_indicator", True, loop_free=sr.loop_free))
    summary = {
        "verdict": sr.verdict,
        "reasons": list(sr.reasons),
        "essentially_principal": sr.essentially_principal,
        "loop_free": sr.loop_free,
    }
    return checks, summary


def _cmd_skew(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    sk = skew_product(g, args.window)
    checks = [
        _check(
            "loop_free",
            is_loop_free(sk),
            window=args.window,
            vertices=len(sk.vertices),
            edges=len(sk.edges),
        )
    ]
    eq = check_singular_equivalence(g, sk, args.window)
    checks.append(_check(eq.name, eq.passed, eq.details))
    if args.out:
        emit_file(sk, args.out)
        checks.append(_check("emitted", True, path=args.out))
    return checks, None


_COMMANDS = {
    "validate": _cmd_validate,
    "lattice": _cmd_lattice,
    "paths": _cmd_paths,
    "semigroup": _cmd_semigroup,
    "groupoid": _cmd_groupoid,
    "ck": _cmd_ck,
    "analyze": _cmd_analyze,
    "skew": _cmd_skew,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared by every
    later one: parse_args keeps no state on it, so main can run many times
    in one process."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("graph", help="ultragraph file to read")
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="report format"
    )
    common.add_argument("--seed", type=int, default=0, help="sampling seed")

    parser = argparse.ArgumentParser(
        prog="ultragraph",
        description="combinatorial checks for finite ultragraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", parents=[common], help="structural validation")

    # the lattice cap of every subcommand that builds the lattice on demand
    lattice_cap = argparse.ArgumentParser(add_help=False)
    lattice_cap.add_argument(
        "--max-size", type=int, default=4096, help="most lattice sets to build"
    )

    p = sub.add_parser("lattice", parents=[common, lattice_cap], help="vertex-set lattice")

    p = sub.add_parser("paths", parents=[common], help="ultrapaths and lassos")
    p.add_argument("--max-len", type=int, default=3)
    p.add_argument("--prefix-bound", type=int, default=1)
    p.add_argument("--cycle-bound", type=int, default=2)

    p = sub.add_parser("semigroup", parents=[common], help="inverse semigroup laws")
    p.add_argument("--max-len", type=int, default=2)

    p = sub.add_parser("groupoid", parents=[common], help="groupoid laws")
    p.add_argument("--witness-len", type=int, default=1)
    p.add_argument("--prefix-bound", type=int, default=1)
    p.add_argument("--cycle-bound", type=int, default=2)
    p.add_argument("--pairs", type=int, default=50, help="separation sample size")

    p = sub.add_parser("ck", parents=[common, lattice_cap], help="Cuntz-Krieger relations")
    p.add_argument("--depth", type=int, default=2)

    p = sub.add_parser("analyze", parents=[common], help="structural criteria")
    p.add_argument("--bound", type=int, default=None, help="loop length bound")

    p = sub.add_parser("skew", parents=[common], help="windowed skew product")
    p.add_argument("--window", type=int, default=1)
    p.add_argument("--out", default=None, help="write the skew product here")

    return parser


def _render_text(report: Dict) -> str:
    lines = ["[command]"]
    lines.append(f"command = {report['command']}")
    lines.append(f"graph = {report['graph']}")
    lines.append(f"seed = {report['seed']}")
    if report.get("summary") is not None:
        lines.append("")
        lines.append("[summary]")
        for k in sorted(report["summary"]):
            v = report["summary"][k]
            v = " ".join(v) if isinstance(v, list) else v
            lines.append(f"{k} = {_scalar(v)}")
    for check in report["checks"]:
        lines.append("")
        lines.append(f"[{check['name']}]")
        lines.append(f"pass = {_scalar(check['pass'])}")
        for w in check["witnesses"]:
            lines.append(f"witness = {w}")
        for k in sorted(check["details"]):
            lines.append(f"{k} = {_scalar(check['details'][k])}")
    failed = sum(1 for c in report["checks"] if not c["pass"])
    lines.append("")
    lines.append("[result]")
    lines.append(f"checks = {len(report['checks'])}")
    lines.append(f"failed = {failed}")
    return "\n".join(lines)


def _json(obj, pad: str = "\n") -> str:
    """The text of json.dumps(obj, indent=2, sort_keys=True), byte for byte,
    for the values a report holds: dicts with str keys, lists, tuples, str,
    bool, None and int.  Any other type raises TypeError, as json.dumps
    does; _check turns every other detail value into a string.  The
    standard encoder falls back to its pure-Python loop whenever it
    indents, so this renders directly, with strings and keys escaped by
    the C encode_basestring_ascii.  pad is the newline and indent of the
    enclosing level."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if type(obj) is int:
        return int.__repr__(obj)
    inner = pad + "  "
    if type(obj) is dict:
        if not obj:
            return "{}"
        items = [
            encode_basestring_ascii(k) + ": " + _json(obj[k], inner) for k in sorted(obj)
        ]
        return "{" + inner + ("," + inner).join(items) + pad + "}"
    if type(obj) is list or type(obj) is tuple:
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + pad + "]"
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        g = parse_file(args.graph)
        checks, summary = _COMMANDS[args.command](g, args)
    except SizeLimitError as exc:
        checks = [_check("size_limit", False, witnesses=(str(exc),))]
        summary = None
    except (ParseError, GraphStructureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "graph": args.graph,
        "seed": args.seed,
        "checks": checks,
        "timing_ms": 0,
    }
    if summary is not None:
        report["summary"] = summary
    if args.format == "json":
        print(_json(report))
    else:
        print(_render_text(report))
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
