#!/usr/bin/env python3
"""Benchmark of the ultragraph CLI: four seeded workloads, run in-process.

    python3 ugbench/run.py --workload sweep --seed 3 --seconds 25 --trace 0
    python3 ugbench/run.py --workload all                  # every workload

Run from anywhere inside a checkout of the repository; the package is
imported from its `src/` directory.  The inputs of a seed are written as
`.ug` files before timing starts, then the workload's request list is sent
through `ultragraph.cli.main(argv)` with `--format json`, one request after
the other, for as many whole passes as fit in `--seconds`.  Every reply is
checked against the oracles in `oracle.py`.

The host this runs on is shared, and its speed moves by a factor of two
over seconds to minutes.  So the end-to-end times are paced: a fixed
slice of pure-Python work (`reference`) is timed right before and after every
segment of about `SEGMENT_S` seconds of requests, and each request's time
is scaled by `REF_SECONDS` over the mean of the two reference times around
it.  A paced time reads as the time on a host that runs the reference in
`REF_SECONDS`; a change to the program moves it as it moves the raw time,
while a change in the host's speed cancels out.  The interpreter runs with
PYTHONHASHSEED=0, because the hash seed alone moves the program's time by
up to 4%: the same seed gives the same inputs and the same set orders.

With `--trace 0` the end-to-end metrics are printed; with `--trace 1`
untraced and traced passes alternate and the per-layer metrics of
`spans.py` are printed, and the spans of the first traced pass are written
to `.ugbench_out/`.  The last line of stdout is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".ugbench_tmp")
OUT = os.path.join(ROOT, ".ugbench_out")
SETUP_SAMPLES = 7
REF_KEYS = 1500
REF_SECONDS = 0.0017  # `reference()` on a quiet host of the baseline machine
SEGMENT_S = 0.02

sys.path.insert(0, HERE)
from oracle import check_reply, expect  # noqa: E402
from workloads import WORKLOADS, build, parse_ug, write_inputs  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "req_p50_ms": "ms",
    "req_p99_ms": "ms",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-into", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def reference() -> float:
    """Seconds for a fixed slice of the work the CLI does (dicts keyed by
    frozensets, tuples, strings, a JSON render): the host's speed right now.
    It is the benchmark's own code, so no change to the program moves it.
    A plain arithmetic loop tracks the program less well: with two
    competing processes on a 2-vCPU virtual machine, `sweep` slowed by
    1.83x, an arithmetic loop by 1.46x and this slice by 1.75x."""
    t0 = perf_counter()
    table = {}
    for i in range(REF_KEYS):
        key = frozenset((i % 7, i % 11, i % 13))
        table[key] = table.get(key, ()) + (str(i),)
    json.dumps([sorted(v) for v in table.values()])
    return perf_counter() - t0


def write_setup(workload: str, seed: int, directory: str) -> None:
    """What set-up costs a user: import the CLI, then make and write the inputs."""
    import ultragraph.cli  # noqa: F401

    graphs, _ = build(workload, seed, ROOT)
    write_inputs(graphs, directory)


def time_setup(workload: str, seed: int, target: str) -> float:
    """Paced wall time of a fresh interpreter doing `write_setup` into
    `target`.  The files are overwritten in place: deleting and recreating
    hundreds of files per sample slows this file system down from one sample
    to the next."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-into", target]
    before = reference()
    t0 = perf_counter()
    # no timeout: with one, wait() polls in sleeps of up to 50 ms
    subprocess.run(cmd, check=True)
    took = perf_counter() - t0
    return took * 2 * REF_SECONDS / (before + reference())


class Runner:
    """One workload's inputs, requests and expected replies."""

    def __init__(self, workload: str, seed: int, inputs: str):
        self.workload, self.seed = workload, seed
        graphs, self.requests = build(workload, seed, ROOT)
        write_inputs(graphs, inputs)
        self.expected = [expect(r, graphs[r.graph]) for r in self.requests]
        self.argvs = []
        for r in self.requests:
            argv = [r.command, os.path.join(inputs, r.graph), *r.options]
            if r.out:
                argv += ["--out", os.path.join(inputs, r.out)]
            self.argvs.append(argv + ["--format", "json"])
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0

    def run_pass(self, tracer=None, paced=False) -> list:
        """Send every request once; returns per-request seconds, paced
        (see the module docstring) when `paced` is set."""
        from ultragraph import cli

        times = []
        segment_start, segment_s = 0, 0.0
        ref_before = reference() if paced else 0.0
        for i, (req, argv) in enumerate(zip(self.requests, self.argvs)):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is not None:
                    tracer.begin(i)
                t0 = perf_counter()
                try:
                    code = cli.main(argv)
                except SystemExit as exc:
                    code = exc.code if isinstance(exc.code, int) else 2
                except Exception:  # a crash is a failed request, not a dead run
                    code = -1
                    traceback.print_exc()
                times.append(perf_counter() - t0)
                if tracer is not None:
                    tracer.end(len(out.getvalue()))
            emitted = None
            if req.out and code == 0:
                with open(os.path.join(self.inputs, req.out), encoding="utf-8") as fh:
                    emitted = parse_ug(fh.read())
            problems = check_reply(req, self.expected[i], code, out.getvalue(), emitted)
            self.attempted += 1
            if problems:
                self.failed += 1
                print(f"FAILED {' '.join(argv[:1] + argv[2:])} on {req.graph}: "
                      f"{'; '.join(problems[:3])} {err.getvalue()[-300:]}", file=sys.stderr)
            segment_s += times[-1]
            if paced and (segment_s >= SEGMENT_S or i == len(self.requests) - 1):
                ref_after = reference()
                scale = 2 * REF_SECONDS / (ref_before + ref_after)
                times[segment_start:] = [t * scale for t in times[segment_start:]]
                segment_start, segment_s, ref_before = i + 1, 0.0, ref_after
        return times


def _percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(runner: Runner, seconds: float, setup_dir: str) -> dict:
    """A warm-up pass, then whole paced passes until `seconds` would be
    exceeded, with `SETUP_SAMPLES` set-ups spread evenly between them.
    Each request counts at the median of its paced times, set-up at the
    median of its samples."""
    runner.run_pass()
    passes, setups = [], []
    began = perf_counter()
    while True:
        passes.append(runner.run_pass(paced=True))
        elapsed = perf_counter() - began
        if len(setups) < SETUP_SAMPLES * elapsed / seconds:
            setups.append(time_setup(runner.workload, runner.seed, setup_dir))
            elapsed = perf_counter() - began
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            break
    while len(setups) < SETUP_SAMPLES:
        setups.append(time_setup(runner.workload, runner.seed, setup_dir))
    per_request = [statistics.median(ts) for ts in zip(*passes)]
    print(f"{len(passes)} passes of {len(per_request)} requests; latency percentiles "
          f"over {len(per_request)} per-request medians; {len(setups)} set-ups")
    return {
        "wall_s": sum(per_request),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "req_p50_ms": 1000 * _percentile(per_request, 50),
        "req_p99_ms": 1000 * _percentile(per_request, 99),
    }


def measure_traced(runner: Runner, seconds: float, spans_path: str) -> tuple:
    """Alternate untraced and traced passes; per-layer metrics, and whether
    every traced pass counted the same work."""
    from spans import LAYERS, Tracer

    plain, traced, per_pass = [], [], []
    began = perf_counter()
    while True:
        plain.append(sum(runner.run_pass()))
        tracer = Tracer()
        tracer.install()
        try:
            traced.append(sum(runner.run_pass(tracer)))
        finally:
            tracer.uninstall()
        per_pass.append(tracer.metrics())
        if len(per_pass) == 1:
            tracer.dump(spans_path)
        elapsed = perf_counter() - began
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    metrics = {}
    steady = True
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith("_s"):
            metrics[key] = statistics.median(values)
        else:
            steady &= all(v == values[0] for v in values)
            metrics[key] = values[0]
    metrics["trace.overhead_ratio"] = min(traced) / min(plain)
    print(f"{len(plain)} untraced and {len(traced)} traced passes; spans in {spans_path}")
    selfs = {layer: metrics[f"{layer}.self_s"] for layer in LAYERS}
    total = sum(selfs.values()) or 1.0
    print("self-time share: " + ", ".join(f"{k} {v / total:.1%}" for k, v in selfs.items()))
    return metrics, steady


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cli.bytes_out":
        return "bytes"
    return "count"


def run_one(args) -> int:
    scratch = os.path.join(TMP, str(os.getpid()))
    os.makedirs(scratch, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, os.path.join(scratch, "inputs"))
        if args.trace:
            os.makedirs(OUT, exist_ok=True)
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl")
            metrics, steady = measure_traced(runner, args.seconds, spans)
        else:
            setup_dir = os.path.join(scratch, "setup")
            metrics, steady = measure(runner, args.seconds, setup_dir), True
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(TMP)
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit_of(name)}")
    if not steady:
        print("traced passes counted different work", file=sys.stderr)
    result = {
        "correct": runner.failed == 0 and steady,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, one after the other."""
    status = 0
    for w in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", w, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    if not os.path.isfile(os.path.join(SRC, "ultragraph", "cli.py")):
        print(f"error: no ultragraph package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_into:
        write_setup(args.workload, args.seed, args.setup_into)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
