"""Self-tests of the benchmark's generators, oracles, checker and tracer.

    python3 ugbench/selftest.py          # or: python3 -m pytest ugbench/selftest.py
"""

from __future__ import annotations

import os
import random
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
SCRATCH = os.path.join(ROOT, ".ugbench_tmp")

import oracle  # noqa: E402
from run import Runner  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    SWEEP_GRAPHS,
    SWEEP_SINK_EVERY,
    Request,
    build,
    read_fixture,
    ring,
    sweep_graph,
)


def test_oracles_reproduce_readme_fixture_values():
    gx, gy, gw = (read_fixture(ROOT, f) for f in ("GX.ug", "GY.ug", "GW.ug"))
    assert oracle.ultrapath_count(gx, 2) == 18
    assert oracle.semigroup_size(gx, 2) == 63
    assert oracle.verdict(gx) == "SimpleByThm"
    assert oracle.verdict(gy) == "NotCoveredByThm"
    assert oracle.verdict(gw) == "NotCoveredByThm"
    # GY has exactly one first-return loop; GW fails (K) and cofinality
    assert not oracle.condition_k(gy) and oracle.cofinal(gy)
    assert not oracle.condition_k(gw) and not oracle.cofinal(gw)


def test_ring_keeps_the_roadmap_draw_order():
    # ring(n, 0) is the graph behind the ROADMAP baseline table
    assert ring(4, 0).text() == (
        "ultragraph\n"
        "vertex v0\nvertex v1\nvertex v2\nvertex v3\n"
        "edge e0 v0 { v1 }\nedge e1 v1 { v2 }\nedge e2 v2 { v3 }\nedge e3 v3 { v0 }\n"
        "edge x0 v3 { v3 v0 v1 }\nedge x1 v3 { v3 v1 v2 }\n"
        "edge x2 v2 { v1 v2 v0 }\nedge x3 v2 { v1 v0 v3 }\n"
    )
    assert ring(6, 5) == ring(6, 5) and ring(6, 5) != ring(6, 6)


def test_sweep_inputs_are_seeded_with_a_fixed_sink_share():
    graphs, reqs = build("sweep", 7, ROOT)
    again, _ = build("sweep", 7, ROOT)
    assert graphs == again
    assert len(graphs) == SWEEP_GRAPHS and len(reqs) == 6 * SWEEP_GRAPHS
    with_sink = [g for g in graphs.values() if oracle.sinks(g)]
    assert len(with_sink) == SWEEP_GRAPHS // SWEEP_SINK_EVERY
    for g in graphs.values():
        assert 2 <= len(g.vertices) <= 5
        assert all(1 <= len(r) <= 3 for _, _, r in g.edges)
        assert len(oracle.sinks(g)) <= 1


def test_checker_rejects_wrong_replies():
    g = ring(3, 0)
    req = Request("lattice", "ring3.ug")
    exp = oracle.expect(req, g)
    good = (
        '{"command": "lattice", "checks": [{"name": "lattice", "pass": true, '
        '"details": {"size": 8, "singletons": 3, "edge_ranges": 1, "derived": 4, '
        '"examined": 64}}]}'
    )
    assert oracle.check_reply(req, exp, 0, good, None) == []
    assert oracle.check_reply(req, exp, 0, good.replace('"size": 8', '"size": 7'), None)
    assert oracle.check_reply(req, exp, 1, good, None)
    assert oracle.check_reply(req, exp, 0, good.replace("true", "false"), None)


def test_lasso_oracle_matches_brute_force_unrolling():
    rng = random.Random(11)
    for _ in range(30):
        g = sweep_graph(rng, sink=False)
        keys = set()
        words = oracle.edge_words(g, 2)
        src = {i: s for i, (_, s, _) in enumerate(g.edges)}
        rngs = {i: r for i, (_, _, r) in enumerate(g.edges)}
        for c in (w for w in words if src[w[0]] in rngs[w[-1]]):
            for p in [()] + [w for w in words if len(w) == 1]:
                if p and src[c[0]] not in rngs[p[-1]]:
                    continue
                keys.add((p + c * 40)[:40])
        assert oracle.lasso_count(g, 1, 2) == len(keys)


def _small_runner(workload: str, seed: int, keep: int, inputs: str) -> Runner:
    runner = Runner(workload, seed, inputs)
    runner.requests = runner.requests[:keep]
    runner.expected = runner.expected[:keep]
    runner.argvs = runner.argvs[:keep]
    return runner


def test_program_replies_pass_the_checker():
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        runner = _small_runner("sweep", 3, 120, tmp)
        runner.run_pass()
    assert runner.attempted == 120 and runner.failed == 0


def test_traced_counts_repeat_exactly():
    os.makedirs(SCRATCH, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        runner = _small_runner("sweep", 5, 90, tmp)
        counts = []
        for _ in range(2):
            tracer = Tracer()
            tracer.install()
            try:
                runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            counts.append({k: v for k, v in tracer.metrics().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert counts[0]["fileformat.calls"] > 0 and counts[0]["core.reaches_calls"] > 0
    assert runner.failed == 0


def test_tracer_catches_intra_module_calls_and_restores():
    from ultragraph import cli, core, groupoid, semigroup

    original = core.edge_adjacency
    tracer = Tracer()
    tracer.install()
    try:
        assert core.edge_adjacency is not original
        assert cli.product is semigroup.product is groupoid.product
        tracer.begin(0)
        core.reaches(core.Ultragraph.build(["a", "b"], {"e": ("a", ["b"])}), "a", "b")
        tracer.end(0)
    finally:
        tracer.uninstall()
    assert core.edge_adjacency is original
    m = tracer.metrics()
    assert m["core.reaches_calls"] == 1 and m["core.edge_adjacency_calls"] == 1


if __name__ == "__main__":
    tests = [(n, f) for n, f in sorted(globals().items()) if n.startswith("test_")]
    for name, fn in tests:
        fn()
        print(f"ok {name}")
    print(f"{len(tests)} self-tests passed")
