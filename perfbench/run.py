"""Benchmark of the gradedrings verifier: time to a checked verdict.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

One client in one thread runs the workload's task list in a closed loop:
each task starts when the previous verdict has been checked.  Passes over
the list repeat until --seconds have elapsed, at least three passes and
100 tasks have run; before every pass two cold set-ups are timed, each in
a fresh interpreter.  With --trace 0 the run prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes, prints
the per-layer metrics and runs the trace self-test.  The last line of
output is one JSON object with the keys correct, attempted, failed and
metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("search", "certify", "rewrite", "repro")
MIN_PASSES = 3
MIN_TASKS = 100   # so that at least ten task times lie beyond the 90th percentile
SETUPS_PER_PASS = 2
TRACED_PASSES = 2
END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("task_p50_ms", "ms"),
              ("task_p90_ms", "ms"), ("largest_task_s", "s"),
              ("peak_rss_mb", "MB")]


@dataclass
class PassResult:
    wall: float
    times: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (task index, message)
    largest: float = 0.0


def run_pass(tasks, tracer=None) -> PassResult:
    """Run every task once, in order, checking each verdict."""
    gc.collect()   # garbage of the previous pass is not this one's cost
    res = PassResult(0.0)
    start = perf_counter()
    for i, task in enumerate(tasks):
        t0 = perf_counter()
        try:
            if tracer is None:
                verdict, evidence_ok, digest = task.run(None)
            else:
                verdict, evidence_ok, digest = tracer.task_span(
                    i, f"task.{task.kind}", lambda: task.run(tracer.counts))
            if verdict != task.expected:
                res.failures.append((i, f"verdict {verdict}, expected {task.expected}"))
            elif not evidence_ok:
                res.failures.append((i, "evidence failed its re-check"))
        except Exception as exc:   # counted as a failed task; the run goes on
            verdict, digest = f"error {type(exc).__name__}", ""
            res.failures.append((i, f"{type(exc).__name__}: {exc}"))
        dt = perf_counter() - t0
        res.times.append(dt)
        res.verdicts.append((verdict, digest))
        if task.largest:
            res.largest = dt
    res.wall = perf_counter() - start
    return res


def setup_time(name: str, seed: int) -> float:
    """One cold set-up in a fresh interpreter, so that every import is paid
    as a user pays it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(proc.stdout.split()[-1])


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = ROOT / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def end_to_end(setup_s: float, passes: list) -> dict:
    """Pass times are medians over passes; task percentiles are taken over
    every task of the run."""
    times = [t for p in passes for t in p.times]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "task_p50_ms": 1000 * statistics.median(times),
        "task_p90_ms": 1000 * statistics.quantiles(times, n=10)[8],
        "largest_task_s": statistics.median(p.largest for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def seed_selftest(workloads, lib, name: str, seed: int) -> list:
    """Same seed, same task list; another seed, another list with the same
    size tiers and verdict mix."""
    a = workloads.build(name, lib, seed)
    b = workloads.build(name, lib, seed)
    c = workloads.build(name, lib, seed + 1)
    problems = []
    if workloads.fingerprint(a) != workloads.fingerprint(b):
        problems.append("the same seed gave two different task lists")
    if workloads.fingerprint(a) == workloads.fingerprint(c):
        problems.append(f"seeds {seed} and {seed + 1} gave the same task list")
    if workloads.shape(a) != workloads.shape(c):
        problems.append(f"seeds {seed} and {seed + 1} differ in size tiers "
                        "or verdict mix")
    return problems


def declared_metrics() -> tuple:
    """Metric names listed in BENCHMARK.json, if the checkout has one."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None, None
    spec = json.loads(path.read_text())
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def traced_run(workloads, tracing, lib, name, seed, seconds, t_run):
    """Alternate untraced and traced passes; returns (plain passes, traced
    passes, per-pass trace summaries)."""
    plain, traced, summaries = [], [], []

    def one_traced():
        tasks = workloads.build(name, lib, seed)
        tracer = tracing.Tracer(lib)
        tracer.install()
        try:
            traced.append(run_pass(tasks, tracer))
        finally:
            tracer.uninstall()
        summaries.append(tracer.summary())

    tasks = workloads.build(name, lib, seed)
    plain.append(run_pass(tasks))
    for _ in range(TRACED_PASSES):
        one_traced()
    while perf_counter() - t_run < seconds:
        plain.append(run_pass(tasks))
        one_traced()
    return plain, traced, summaries


def trace_selftest(tracing, name, plain, traced, summaries, values) -> list:
    problems = []
    want = plain[0].verdicts
    for k, p in enumerate(traced):
        if p.verdicts != want:
            diff = sum(1 for a, b in zip(p.verdicts, want) if a != b)
            problems.append(f"traced pass {k + 1}: {diff} verdicts differ "
                            "from the untraced pass")
    for metric in tracing.repeat_mismatches(summaries):
        problems.append(f"{metric} differs between traced passes of one seed")
    for metric, _, _, nonzero_on, _ in tracing.LAYER_METRICS:
        if name in nonzero_on and not values[metric] > 0:
            problems.append(f"{metric} is 0 on {name}; a wrapper missed its "
                            "binding")
    declared_e2e, declared_layer = declared_metrics()
    if declared_layer is not None:
        ours = [m[0] for m in tracing.LAYER_METRICS] + [tracing.OVERHEAD_METRIC[0]]
        if sorted(declared_layer) != sorted(ours):
            problems.append("per_layer metrics in BENCHMARK.json differ from "
                            "perfbench/tracing.py")
        if sorted(declared_e2e) != sorted(m for m, _ in END_TO_END):
            problems.append("end_to_end metrics in BENCHMARK.json differ from "
                            "perfbench/run.py")
    return problems


def run_all(args) -> int:
    """Run every workload in its own process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "gradedrings" / "__init__.py").is_file():
        print(f"error: no gradedrings package under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    import tracing
    import workloads

    name, seed = args.workload, args.seed
    lib = workloads.load_library()
    tasks = workloads.build(name, lib, seed)
    t_run = perf_counter()
    if args.trace:
        problems = seed_selftest(workloads, lib, name, seed)
        plain, traced, summaries = traced_run(workloads, tracing, lib, name, seed,
                                              args.seconds, t_run)
        values = tracing.layer_values(summaries)
        overhead = (statistics.median(p.wall for p in traced)
                    / statistics.median(p.wall for p in plain) - 1)
        values[tracing.OVERHEAD_METRIC[0]] = overhead
        problems += trace_selftest(tracing, name, plain, traced, summaries, values)
        units = {m[0]: m[1] for m in tracing.LAYER_METRICS}
        units[tracing.OVERHEAD_METRIC[0]] = tracing.OVERHEAD_METRIC[1]
        passes = plain + traced
    else:
        # Two set-ups are timed before every pass, so that they sample the
        # machine's speed across the run.
        problems = []
        setups, passes = [], []
        min_passes = max(MIN_PASSES, -(-MIN_TASKS // len(tasks)))
        while len(passes) < min_passes or perf_counter() - t_run < args.seconds:
            setups += [setup_time(name, seed) for _ in range(SETUPS_PER_PASS)]
            passes.append(run_pass(tasks))
        values = end_to_end(statistics.median(setups), passes)
        units = dict(END_TO_END)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    meta = {"workload": name, "seed": seed, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform(), "commit": git_commit(),
            "tasks_per_pass": len(tasks), "passes": len(passes),
            "setups_timed": 0 if args.trace else len(setups),
            "tasks_attempted": attempted}
    print("# meta " + json.dumps(meta, sort_keys=True))
    for metric, val in values.items():
        print(f"{metric:48s} {val:14.6f} {units[metric]}")
    print(f"{'failed_frac':48s} {failed / attempted:14.6f} ratio "
          f"({failed} of {attempted} tasks)")
    if args.trace:
        top = sorted(summaries[0]["layers"].items(),
                     key=lambda kv: -kv[1]["self_s"])[:12]
        print("# top self time in the first traced pass:")
        for layer, row in top:
            print(f"#   {layer:44s} {row['self_s']:10.4f} s in {row['calls']} calls")
    for p in passes:
        for i, msg in p.failures[:5]:
            print(f"# FAILED task {i} ({tasks[i].kind} {tasks[i].tier}): {msg}")
    for msg in problems:
        print(f"# SELF-TEST FAILED: {msg}")
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
