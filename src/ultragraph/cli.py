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
import json
import random
import sys
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
    validate,
)
from .fileformat import ParseError, emit_file, parse_file
from .groupoid import (
    build_elements,
    check_groupoid_laws,
    check_hausdorff,
    verify_ck,
)
from .paths import check_lasso_bounds, enumerate_lassos, enumerate_paths
from .semigroup import (
    OMEGA,
    SGElement,
    generate_elements,
    idempotent_leq,
    idempotent_leq_by_shape,
    is_idempotent,
    product,
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
    flags = list(lat.generator_flags.values())
    listed = [format_set(A) for A in lat.sets]
    shown = " ".join(listed[:64]) + (" ..." if len(listed) > 64 else "")
    check = _check(
        "lattice",
        True,
        size=len(lat),
        singletons=flags.count("singleton"),
        edge_ranges=flags.count("edge-range"),
        derived=flags.count("derived"),
        sets=shown,
    )
    return [check], None


def _cmd_paths(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    check_lasso_bounds(args.prefix_bound, args.cycle_bound)
    ps = enumerate_paths(g, args.max_len)
    checks = [
        _check(
            "paths",
            True,
            count=len(ps),
            max_len=args.max_len,
            sample=" ".join(str(p) for p in ps[:12]),
        )
    ]
    if validate(g).sinks:
        checks.append(_check("lassos", True, skipped="graph has sinks"))
    else:
        ls = enumerate_lassos(g, args.prefix_bound, args.cycle_bound)
        checks.append(
            _check(
                "lassos",
                True,
                count=len(ls),
                prefix_bound=args.prefix_bound,
                cycle_bound=args.cycle_bound,
                sample=" ".join(str(x) for x in ls[:12]),
            )
        )
    return checks, None


def _cmd_semigroup(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    elems = generate_elements(g, args.max_len)
    bad_inv = [str(s) for s in elems if star(star(s)) != s]
    checks = [_check("involution", not bad_inv, bad_inv[:5], count=len(elems))]
    # (s, t) and its mirror (t*, s*) ask one equation, so the products are
    # formed for the first of each mirror pair in (i, j) order only; mirror[i]
    # is set where star maps elems[i] into the list and back
    index = {s: i for i, s in enumerate(elems)}
    starred = [star(s) for s in elems]
    mirror = [index.get(s) for s in starred]
    mirror = [k if k is not None and mirror[k] == i else None for i, k in enumerate(mirror)]
    # For s = (w, z) and t = (x, y) whether s t is zero hangs on z and x
    # alone, and t* s* has inner coordinates (x, z).  So where star swaps
    # the coordinates of s and t, the pairs fall into (z, x) blocks, and the
    # idempotent pair ((z, z), (x, x)) answers its block and the mirror
    # block (x, z) when both its products are zero and star fixes the zero.
    # The diagonal block (z, z) is never answered whole: (z, z) is
    # idempotent, so a correct product is nonzero there anyway, and a faulty
    # zero must not hide the block.  Rows and columns of the zero and of
    # elements off the involution, and every other block, run through the
    # loop pair by pair.
    on = [s.left is not None and starred[i] == (s.right, s.left) for i, s in enumerate(elems)]
    by_left = {}
    for j, t in enumerate(elems):
        if on[j]:
            by_left.setdefault(t.left, []).append(j)
    off = [j for j in range(len(elems)) if not on[j]]
    star_fixes_zero = star(OMEGA) == OMEGA
    answered = {}

    def live_columns(z) -> List[int]:
        cols = list(off)
        for x, js in by_left.items():
            zero = False if x == z else answered.get((z, x))
            if zero is None:
                ez, ex = SGElement(z, z), SGElement(x, x)
                st, ts = product(g, ez, ex), product(g, ex, ez)
                zero = star_fixes_zero and st == OMEGA and ts == OMEGA
                answered[z, x] = answered[x, z] = zero
            if not zero:
                cols.extend(js)
        return cols

    live = {}
    every = range(len(elems))
    bad_pairs = []
    for i, s in enumerate(elems):
        mi = mirror[i]
        cols = every
        if on[i]:
            cols = live.get(s.right)
            if cols is None:
                cols = live[s.right] = live_columns(s.right)
        for j in cols:
            t = elems[j]
            mj = mirror[j]
            paired = mi is not None and mj is not None
            if paired and (mj, mi) < (i, j):
                continue
            st = product(g, s, t)
            ts = product(g, starred[j], starred[i])
            if star(st) != ts:
                bad_pairs.append((i, j))
            if paired and (mj, mi) != (i, j) and star(ts) != st:
                bad_pairs.append((mj, mi))
    bad_star = [f"{elems[i]} * {elems[j]}" for i, j in sorted(bad_pairs)]
    checks.append(_check("antimultiplicative_star", not bad_star, bad_star[:5]))
    idems = [s for s in elems if not s.is_omega and is_idempotent(s)]
    bad_ord = []
    for e in idems:
        for f in idems:
            if idempotent_leq(g, e, f) != idempotent_leq_by_shape(g, e, f):
                bad_ord.append(f"{e} <= {f}")
    checks.append(
        _check(
            "idempotent_order_agreement",
            not bad_ord,
            bad_ord[:5],
            idempotents=len(idems),
        )
    )
    return checks, None


def _cmd_groupoid(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    if args.pairs < 0:
        raise ValueError("--pairs must not be negative")
    elements = build_elements(g, args.witness_len, args.prefix_bound, args.cycle_bound)
    checks = [_check("elements", True, count=len(elements))]
    laws = check_groupoid_laws(g, elements)
    for entry in laws.entries:
        checks.append(_check(entry.name, entry.passed, entry.details))
    if len(elements) >= 2:
        rng = random.Random(args.seed)
        wanted = min(args.pairs, len(elements) * (len(elements) - 1) // 2)
        pairs = set()
        while len(pairs) < wanted:
            i, j = rng.sample(range(len(elements)), 2)
            pairs.add((min(i, j), max(i, j)))
        sample = [(elements[i], elements[j]) for i, j in sorted(pairs)]
        hd = check_hausdorff(g, sample)
        for entry in hd.entries:
            checks.append(
                _check(entry.name, entry.passed, entry.details, pairs=len(sample))
            )
    return checks, None


def _cmd_ck(g: Ultragraph, args) -> Tuple[List[Dict], Optional[Dict]]:
    rep = verify_ck(g, depth=args.depth)
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

    p = sub.add_parser("lattice", parents=[common], help="vertex-set lattice")
    p.add_argument("--max-size", type=int, default=4096)

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

    p = sub.add_parser("ck", parents=[common], help="Cuntz-Krieger relations")
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
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_render_text(report))
    return 0 if all(c["pass"] for c in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
