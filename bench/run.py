"""Benchmark of the groupoids package: end-to-end metrics, or per-layer ones traced.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-pair-ladder --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --seed 1          # all three workloads, about two minutes

The package is imported from ``src/`` of the checkout; nothing needs to be
installed.  One run builds the workload's inputs from ``--seed`` (set-up is
repeated and its median reported as ``setup_s``), then runs closed-loop
passes over a fixed list of operations, at least three, for about
``--seconds``; a pass of the CLI workload takes about a third of the
default 36 s.  Every operation passes through its correctness gate; a
failure is counted, never fatal.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each workload runs in a fresh interpreter.  ``peak_rss_mb`` is the largest
child process for the CLI workload and the run's own process otherwise.
Before the JSON line the run prints every metric with its unit, and
``failed_frac`` (failed / attempted).

``correct`` is false when some operation failed its gate: it raised, exited
with an unexpected code, gave a wrong verdict, omitted the witness, made
mode ``both`` disagree or gave output that changed between passes.  The one
exception is the known crash of the outside-carrier mutants (see
``workloads.KNOWN_DEFECT_KIND``): it is counted in ``failed`` without making
the run incorrect.

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json.
With ``--trace 1`` the run alternates untraced and traced passes, CLI
commands replayed in-process, and prints the per-layer metrics of the first
traced pass; the excess of the traced median over the untraced median is
``trace.overhead_frac``.  A result file
``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json`` records every value
with nproc, the Python version and the seed; traced runs also write their
spans to ``bench/out/spans_<workload>_seed<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
MIN_PASSES = 3
TRACE_PASSES = 5  # untraced, traced, untraced, traced, untraced


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def tail_quantile(n: int) -> float:
    """0.9, or the highest whole percent that still leaves ten samples above it."""
    if n * 0.1 >= 10:
        return 0.9
    return max(0.5, math.floor(100 * (1 - 10 / n)) / 100) if n > 10 else 0.5


def startup_split(cli) -> dict:
    """Median wall time of a bare interpreter and of ``groupoids --help``."""
    bare, helped = [], []
    for _ in range(STARTUP_REPEATS):
        for argv, into in (([sys.executable, "-s", "-c", "pass"], bare),
                           (cli.argv(["--help"]), helped)):
            t0 = time.perf_counter()
            subprocess.run(argv, cwd=cli.workdir, env=cli.env, stdout=subprocess.DEVNULL,
                           stderr=subprocess.DEVNULL, check=True)
            into.append(time.perf_counter() - t0)
    bare_ms, help_ms = statistics.median(bare) * 1e3, statistics.median(helped) * 1e3
    return {"bare_python_ms": bare_ms, "help_ms": help_ms, "startup_ms": help_ms - bare_ms}


class Workload:
    """Builds the operations of one workload from a seed."""

    def __init__(self, name: str, seed: int, tiny: bool, in_process: bool):
        import workloads as W

        self.W = W
        self.name = name
        self.seed = seed
        self.tiny = tiny
        self.in_process = in_process
        self.workdir = os.path.join(OUT, f"work-{name}-{os.getpid()}")
        self.cli = W.SubprocessCli(ROOT, self.workdir)

    def setup(self) -> list:
        W, rng = self.W, random.Random(self.seed)
        if self.name == "cli-pair-ladder":
            shutil.rmtree(self.workdir, ignore_errors=True)
            os.makedirs(self.workdir)
            # one start-up so the timed passes find compiled bytecode
            subprocess.run(self.cli.argv(["--help"]), cwd=self.workdir, env=self.cli.env,
                           stdout=subprocess.DEVNULL, check=True)
            runner = W.InProcessCli() if self.in_process else self.cli
            return W.ladder_ops(runner, self.workdir, rng, self.tiny)
        if self.name == "dense-loops":
            return W.dense_ops(W.dense_setup(rng, self.tiny))
        return W.mutant_ops(W.mutants_setup(rng, self.tiny))

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


class Tally:
    """Latencies, failures and output digests over all passes of a run."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0
        self.problems: dict[str, str] = {}

    @property
    def correct(self) -> bool:
        return self.incorrect == 0

    def add(self, res) -> None:
        self.attempted += 1
        self.latencies.append(res.seconds)
        problem = res.problem
        if problem is None and self.digests.setdefault(res.name, res.digest) != res.digest:
            problem = "output digest changed between passes"
        if problem is not None:
            self.failed += 1
            self.incorrect += not res.known_defect
            self.problems.setdefault(res.name, problem)


def run_pass(W, ops: list, tally: Tally, tracer=None) -> float:
    ctxs: dict[str, dict] = {}
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.name
        tally.add(W.run_op(op, ctxs.setdefault(op.label, {}), time.perf_counter))
    return time.perf_counter() - t0


def measure(wl: Workload, seconds: float) -> tuple[dict, Tally, dict]:
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = wl.setup()
        setup_times.append(time.perf_counter() - t0)
    extra: dict = {"setup_times_s": setup_times}
    if wl.name == "cli-pair-ladder":
        extra["startup_split"] = startup_split(wl.cli)
    tally = Tally()
    passes: list[float] = []
    started = time.perf_counter()
    while True:
        passes.append(run_pass(wl.W, ops, tally))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + statistics.mean(passes) > seconds:
            break
    lat = sorted(tally.latencies)
    q = tail_quantile(len(lat))
    if wl.name == "cli-pair-ladder":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pass_s": (statistics.median(passes), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": (percentile(lat, q) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    extra.update(pass_times_s=passes, op_samples=len(lat), op_p90_quantile_used=q,
                 ops_per_pass=len(ops))
    return metrics, tally, extra


def measure_traced(wl: Workload, spans_path: str) -> tuple[dict, Tally, dict]:
    import spans as S

    ops = wl.setup()
    startup = startup_split(wl.cli)["startup_ms"] if wl.name == "cli-pair-ladder" else 0.0
    tally = Tally()
    # untraced and traced passes alternate, so warm-up and drift do not show
    # up as tracing overhead; the layer metrics come from the first traced pass
    untraced, traced, tracers = [], [], []
    for k in range(TRACE_PASSES):
        if k % 2 == 0:
            untraced.append(run_pass(wl.W, ops, tally))
            continue
        with S.Tracer() as tracer:
            traced.append(run_pass(wl.W, ops, tally, tracer))
        tracers.append(tracer)
    tracer = tracers[0]
    tracer.write(spans_path)
    kinds = {op.name: op.kind for op in ops}
    labels = {op.name: op.label for op in ops}
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    table = S.by_label(tracer.spans, labels)
    metrics = S.layer_metrics(tracer.spans, kinds, table, startup, overhead)
    extra = {"untraced_pass_s": untraced, "traced_pass_s": traced, "spans": len(tracer.spans),
             "by_label": table, "ops_per_pass": len(ops)}
    return metrics, tally, extra


def run_one(args) -> int:
    if not os.path.isdir(os.path.join(SRC, "groupoids")):
        print(f"error: no groupoids package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    wl = Workload(args.workload, args.seed, args.tiny, in_process=bool(args.trace))
    try:
        if args.trace:
            spans_path = os.path.join(OUT, f"spans_{args.workload}_seed{args.seed}.jsonl")
            metrics, tally, extra = measure_traced(wl, spans_path)
        else:
            metrics, tally, extra = measure(wl, args.seconds)
    finally:
        wl.close()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "nproc": os.cpu_count(),
        "python": platform.python_version(), "platform": platform.platform(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "correct": tally.correct, "attempted": tally.attempted, "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted, "problems": tally.problems, **extra,
    }
    path = os.path.join(OUT, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} failed_frac {record['failed_frac']:.6g} ratio "
          f"({tally.failed}/{tally.attempted})")
    for label, row in extra.get("by_label", {}).items():
        scan = row.get("largest_scan", {}).get("useful_ratio", 0.0)
        costs = " ".join(f"{name}={row[name]['ns_per_instance']:.0f}ns"
                         for name in row if name != "largest_scan")
        print(f"{args.workload} label {label} largest-scan useful_ratio {scan:.6g} {costs}")
    for name, problem in sorted(tally.problems.items())[:10]:
        print(f"{args.workload} problem {name}: {problem}")
    print(json.dumps({"correct": record["correct"], "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": record["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, one after the other."""
    results, status = {}, 0
    for name in ("cli-pair-ladder", "dense-loops", "mutants"):
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps(results))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", default="all",
                        choices=("all", "cli-pair-ladder", "dense-loops", "mutants"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the smoke test of the benchmark itself")
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
