"""Independent oracles and the reply checker.

Nothing here imports `ultragraph`: every expected value comes from the
benchmark's own graph tuples, by brute force or by a textbook algorithm.
Replies are compared on named fields (exit code, each check's pass flag,
`count`, `size`, `verdict` and similar), never on a digest of the whole
output, so new fields in the JSON do not register as failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from workloads import Graph, Request

# ---------------------------------------------------------------- oracles


def sinks(g: Graph) -> List[str]:
    emitting = {s for _, s, _ in g.edges}
    return sorted(v for v in g.vertices if v not in emitting)


def _successors(g: Graph, forbid_source: Optional[str] = None) -> List[List[int]]:
    """succ[i]: indices of edges f with source(f) in range(edge i)."""
    out: Dict[str, List[int]] = {v: [] for v in g.vertices}
    for j, (_, s, _) in enumerate(g.edges):
        if s != forbid_source:
            out[s].append(j)
    return [[j for w in r for j in out[w]] for _, _, r in g.edges]


def edge_words(g: Graph, max_len: int) -> List[Tuple[int, ...]]:
    """Every composable edge word of length 1..max_len, by brute force."""
    succ = _successors(g)
    layer = [(i,) for i in range(len(g.edges))]
    out: List[Tuple[int, ...]] = []
    for _ in range(max_len):
        out.extend(layer)
        layer = [w + (j,) for w in layer for j in succ[w[-1]]]
    return out


def ultrapath_count(g: Graph, max_len: int) -> int:
    """Ultrapaths of length <= max_len.  On a finite graph the lattice is the
    power set, so each word carries one path per nonempty subset of its last
    range, and each nonempty vertex set is a length-zero path."""
    total = 2 ** len(g.vertices) - 1
    for w in edge_words(g, max_len):
        total += 2 ** len(g.edges[w[-1]][2]) - 1
    return total


def semigroup_size(g: Graph, max_len: int) -> int:
    """Pairs (x, y) of ultrapaths of length <= max_len with one terminal set,
    plus the zero."""
    by_terminal: Dict[frozenset, int] = {}

    def add_subsets(vs: Tuple[str, ...]) -> None:
        for mask in range(1, 2 ** len(vs)):
            key = frozenset(v for i, v in enumerate(vs) if mask >> i & 1)
            by_terminal[key] = by_terminal.get(key, 0) + 1

    add_subsets(g.vertices)
    for w in edge_words(g, max_len):
        add_subsets(g.edges[w[-1]][2])
    return 1 + sum(n * n for n in by_terminal.values())


def lasso_count(g: Graph, prefix_bound: int, cycle_bound: int) -> int:
    """Distinct eventually periodic words p c c c ... with |p| <= prefix_bound
    and |c| <= cycle_bound.  By the Fine-Wilf theorem two such words are equal
    iff their first prefix_bound + 2 * cycle_bound edges agree."""
    words = edge_words(g, max(prefix_bound, cycle_bound))
    src = [s for _, s, _ in g.edges]
    rng = [r for _, _, r in g.edges]
    cycles = [w for w in words if len(w) <= cycle_bound and src[w[0]] in rng[w[-1]]]
    prefixes = [()] + [w for w in words if len(w) <= prefix_bound]
    span = prefix_bound + 2 * cycle_bound
    keys = set()
    for c in cycles:
        for p in prefixes:
            if p and src[c[0]] not in rng[p[-1]]:
                continue
            keys.add((p + c * span)[:span])
    return len(keys)


def first_return_loops(g: Graph, v: str, bound: int) -> int:
    """min(2, number of first-return loop words at v of length <= bound),
    by a capped count over lengths in the edge graph with v barred as an
    interior source."""
    succ = _successors(g, forbid_source=v)
    cnt = {i: 1 for i, (_, s, _) in enumerate(g.edges) if s == v}
    total = 0
    for length in range(1, bound + 1):
        total += sum(c for i, c in cnt.items() if v in g.edges[i][2])
        if total >= 2:
            return 2
        nxt: Dict[int, int] = {}
        for i, c in cnt.items():
            for j in succ[i]:
                nxt[j] = min(2, nxt.get(j, 0) + c)
        cnt = nxt
        if not cnt:
            break
    return total


def condition_k(g: Graph) -> bool:
    bound = 2 * len(g.edges)
    return all(first_return_loops(g, v, bound) != 1 for v in g.vertices)


def _has_cycle(g: Graph, allowed: Set[int]) -> bool:
    """Kahn's algorithm on the edge graph restricted to `allowed`."""
    succ = _successors(g)
    indeg = {i: 0 for i in allowed}
    for i in allowed:
        for j in succ[i]:
            if j in allowed:
                indeg[j] += 1
    ready = [i for i, d in indeg.items() if d == 0]
    removed = 0
    while ready:
        i = ready.pop()
        removed += 1
        for j in succ[i]:
            if j in allowed:
                indeg[j] -= 1
                if indeg[j] == 0:
                    ready.append(j)
    return removed < len(allowed)


def reachable(g: Graph, v: str) -> Set[str]:
    seen = {v}
    frontier = [v]
    while frontier:
        u = frontier.pop()
        for _, s, r in g.edges:
            if s == u:
                for w in r:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
    return seen


def cofinal(g: Graph) -> bool:
    """Every vertex reaches a source on every cycle: no cycle of the edge
    graph lies among the edges whose sources a vertex cannot reach."""
    for v in g.vertices:
        seen = reachable(g, v)
        missed = {i for i, (_, s, _) in enumerate(g.edges) if s not in seen}
        if _has_cycle(g, missed):
            return False
    return True


def loop_free(g: Graph) -> bool:
    return not _has_cycle(g, set(range(len(g.edges))))


def verdict(g: Graph) -> str:
    return "SimpleByThm" if condition_k(g) and cofinal(g) else "NotCoveredByThm"


# ---------------------------------------------------------- expectations


@dataclass
class Expected:
    exit: int
    checks: Dict[str, bool] = field(default_factory=dict)  # name -> pass
    all_pass: bool = False
    details: Dict[Tuple[str, str], object] = field(default_factory=dict)
    summary: Dict[str, object] = field(default_factory=dict)
    emitted: Optional[Tuple[int, int]] = None  # (vertices, edges) of --out


def expect(req: Request, g: Graph) -> Expected:
    """What a correct program replies to `req` on graph `g`."""
    sink_free = not sinks(g)
    nv, ne = len(g.vertices), len(g.edges)
    cmd = req.command
    if cmd == "validate":
        return Expected(
            0,
            {"structure": True},
            details={
                ("structure", "vertices"): nv,
                ("structure", "edges"): ne,
                ("structure", "sinks"): " ".join(sinks(g)) or "none",
            },
        )
    if cmd == "lattice":
        wide = len({frozenset(r) for _, _, r in g.edges if len(r) > 1})
        return Expected(
            0,
            {"lattice": True},
            details={
                ("lattice", "size"): 2**nv,
                ("lattice", "singletons"): nv,
                ("lattice", "edge_ranges"): wide,
                ("lattice", "derived"): 2**nv - nv - wide,
            },
        )
    if cmd == "paths":
        exp = Expected(0, {"paths": True, "lassos": True})
        exp.details[("paths", "count")] = ultrapath_count(g, 3)
        if sink_free:
            exp.details[("lassos", "count")] = lasso_count(g, 1, 2)
        else:
            exp.details[("lassos", "skipped")] = "graph has sinks"
        return exp
    if cmd in ("analyze", "ck") and not sink_free:
        return Expected(2)
    if cmd == "analyze":
        k, cof = condition_k(g), cofinal(g)
        simple = k and cof
        return Expected(
            0 if simple else 1,
            {
                "condition_K": k,
                "cofinality": cof,
                "condition_2": True,
                "simplicity": simple,
                "af_indicator": True,
            },
            summary={
                "verdict": "SimpleByThm" if simple else "NotCoveredByThm",
                "loop_free": loop_free(g),
                "essentially_principal": k,
            },
        )
    if cmd == "ck":
        return Expected(0, all_pass=True)
    if cmd == "skew":
        k = int(req.options[req.options.index("--window") + 1])
        exp = Expected(
            0,
            {"loop_free": True, f"singular_equivalence_window_{k}": True},
            details={
                ("loop_free", "vertices"): nv * (2 * k + 1),
                ("loop_free", "edges"): ne * 2 * k,
            },
        )
        if req.out:
            exp.checks["emitted"] = True
            exp.emitted = (nv * (2 * k + 1), ne * 2 * k)
        return exp
    if cmd == "semigroup":
        max_len = int(req.options[req.options.index("--max-len") + 1])
        return Expected(
            0, all_pass=True, details={("involution", "count"): semigroup_size(g, max_len)}
        )
    if cmd == "groupoid":
        return Expected(0, {"elements": True}, all_pass=True)
    raise ValueError(f"no oracle for '{cmd}'")


def check_reply(
    req: Request, exp: Expected, code: int, stdout: str, emitted: Optional[Graph]
) -> List[str]:
    """Problems with one reply; an empty list means it is correct."""
    if code != exp.exit:
        return [f"exit {code}, expected {exp.exit}"]
    if exp.exit == 2:
        return []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"reply is not JSON: {exc}"]
    problems: List[str] = []
    if report.get("command") != req.command:
        problems.append(f"command {report.get('command')!r}")
    checks = {c["name"]: c for c in report.get("checks", [])}
    for name, passed in exp.checks.items():
        if name not in checks:
            problems.append(f"check {name} missing")
        elif checks[name]["pass"] is not passed:
            problems.append(f"check {name} pass={checks[name]['pass']}")
    if exp.all_pass:
        problems.extend(f"check {n} failed" for n, c in checks.items() if not c["pass"])
    for (name, key), want in exp.details.items():
        got = checks.get(name, {}).get("details", {}).get(key)
        if got != want:
            problems.append(f"{name}.{key} = {got!r}, expected {want!r}")
    for key, want in exp.summary.items():
        got = report.get("summary", {}).get(key)
        if got != want:
            problems.append(f"summary.{key} = {got!r}, expected {want!r}")
    if exp.emitted is not None:
        if emitted is None:
            problems.append("no emitted file")
        else:
            shape = (len(emitted.vertices), len(emitted.edges))
            if shape != exp.emitted:
                problems.append(f"emitted shape {shape}, expected {exp.emitted}")
            elif not loop_free(emitted):
                problems.append("emitted skew product has a loop")
    return problems
