"""The benchmark's reply oracle, run in tier-1.

`ugbench/oracle.py` computes every expected reply by brute force from the
benchmark's own graph tuples and imports nothing from `ultragraph`, so it
shares no code with what it checks.  Here the CLI runs in-process on
seeded `sweep` graphs and on `ring(2..6)`, all written by
`ugbench/workloads.py`, and each reply goes through `oracle.check_reply`.
The ugbench modules are only read, through `sys.path`.
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from ultragraph.cli import main

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "ugbench"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SWEEP_GRAPHS = 100  # of the 300 in one sweep pass, each with 6 requests
SWEEP_SEED = 3

# every subcommand the oracle answers, on each ring
RING_REQUESTS = (
    ("validate", ()),
    ("lattice", ()),
    ("paths", ()),
    ("semigroup", ("--max-len", "2")),
    ("groupoid", ("--cycle-bound", "1")),
    ("ck", ()),
    ("analyze", ()),
    ("skew", ("--window", "2")),
)


def _sweep():
    graphs, reqs = workloads.build("sweep", SWEEP_SEED, str(REPO))
    reqs = reqs[: SWEEP_GRAPHS * 6]
    return {r.graph: graphs[r.graph] for r in reqs}, reqs


def _rings():
    graphs, reqs = {}, []
    for n in range(2, 7):
        name = f"ring{n}.ug"
        graphs[name] = workloads.ring(n, 0)
        for command, options in RING_REQUESTS:
            out = f"skew_{n}.ug" if command == "skew" else ""
            reqs.append(workloads.Request(command, name, options, out))
    return graphs, reqs


def _problems(graphs, reqs, inputs):
    """Each request's argv and what the oracle finds wrong with its reply,
    for the replies it finds fault with."""
    workloads.write_inputs(graphs, inputs)
    found = []
    for req in reqs:
        argv = [req.command, os.path.join(inputs, req.graph), *req.options]
        if req.out:
            argv += ["--out", os.path.join(inputs, req.out)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv + ["--format", "json"])
        emitted = None
        if req.out and code == 0:
            with open(os.path.join(inputs, req.out), encoding="utf-8") as fh:
                emitted = workloads.parse_ug(fh.read())
        g = graphs[req.graph]
        problems = oracle.check_reply(req, oracle.expect(req, g), code, out.getvalue(), emitted)
        if req.command == "semigroup" and code == 0:
            # one idempotent (x, x) per listed ultrapath x
            max_len = int(req.options[req.options.index("--max-len") + 1])
            checks = {c["name"]: c for c in json.loads(out.getvalue())["checks"]}
            got = checks["idempotent_order_agreement"]["details"]["idempotents"]
            if got != oracle.ultrapath_count(g, max_len):
                problems.append(f"idempotents = {got}")
        if problems:
            found.append((" ".join(argv[:1] + argv[2:]), req.graph, problems))
    return found


@pytest.mark.parametrize("family", [_sweep, _rings], ids=["sweep", "ring(2..6)"])
def test_replies_match_the_benchmark_oracle(family, tmp_path):
    graphs, reqs = family()
    assert _problems(graphs, reqs, str(tmp_path)) == []
