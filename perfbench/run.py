#!/usr/bin/env python3
"""glomkit benchmark: seeded closed-loop workloads, one client, one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload from BENCHMARK.json, or `all` to run each of them in
turn in a child process.  Run from anywhere; the package is imported from
`src/` next to this directory.

--trace 0 sets up SETUP_REPEATS times (setup_s is the median), then
repeats one round of ops until the summed op time reaches about --seconds,
and reports the end-to-end metrics with every time scaled to a reference
machine speed by the probe in speed.py.  --trace 1 runs cycle 0 once
plainly and once with every traced binding wrapped (see tracing.py), and
reports the per-layer metrics plus the tracing overhead on identical ops.
Every result is checked after the timed region; the digest covers the
canonical results of cycle 0, so it depends on the seed and the code, never
on timing.

The last stdout line is one JSON object: correct, attempted, failed and
metrics (names and units from BENCHMARK.json).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 11
MAX_FAILURE_LINES = 10


def harrell_davis(sorted_values: list[float], q: float, steps: int = 32) -> float:
    """Harrell-Davis estimate of the q-quantile.

    A mean of all order statistics weighted by the Beta(q(n+1), (1-q)(n+1))
    mass of each rank's interval (integrated by the midpoint rule).  Unlike
    a single order statistic it does not jump when noise reorders the ops
    around the quantile, which matters where a run holds few ops or a few
    op types of very different cost.
    """
    n = len(sorted_values)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    h = 1.0 / (n * steps)
    weights = []
    for i in range(n):
        mass = 0.0
        for j in range(steps):
            x = (i * steps + j + 0.5) * h
            mass += math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, sorted_values)) / sum(weights)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def purge_glomkit() -> None:
    for name in [n for n in sys.modules if n == "glomkit" or n.startswith("glomkit.")]:
        del sys.modules[name]


def run_ops(ops, probe=None, busy: float = 0.0) -> tuple[list, float]:
    """Execute ops back to back; returns [(label, result, error, seconds)]
    and the busy time, counted on from `busy`.  With a probe, a speed
    reading is taken before each op that finds one due."""
    records = []
    clock = time.perf_counter
    for op in ops:
        if probe is not None and probe.due(busy):
            probe.read(busy)
        start = clock()
        try:
            result, error = op.call(), None
        except Exception as exc:  # a failing op is counted, the run goes on
            result, error = None, exc
        elapsed = clock() - start
        busy += elapsed
        records.append((op.label, result, error, elapsed))
    return records, busy


def check_records(workload, records, failures: list[str]) -> tuple[str, int]:
    """Check every result; returns the digest of the canonical results and
    the number of failed ops, and appends a line per failure."""
    parts = []
    failed = 0
    for label, result, error, _ in records:
        if error is None:
            try:
                text = workload.check(label, result)
            except Exception as exc:  # an oracle mismatch or malformed result
                error = exc
        if error is not None:
            failed += 1
            failures.append(f"{label}: {type(error).__name__}: {error}")
            text = f"failed: {type(error).__name__}"
        parts.append(f"{label}\n{text}\n")
    digest = hashlib.sha256()
    for part in sorted(parts):
        digest.update(part.encode("utf-8"))
    return digest.hexdigest(), failed


def emit(values: dict, wanted: list, correct: bool, attempted: int, failed: int) -> None:
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']} {values[m['name']]!r} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


def run_plain(workload, seconds: float, failures: list[str]) -> tuple[dict, int, int, str]:
    """Rounds of the same ops until the summed op time reaches about `seconds`.

    A round is cycles 0..round_cycles-1.  After the first round the run stops
    before any round that would end more than half a round past `seconds`.
    Op times are scaled to the reference machine speed (speed.py).
    """
    from speed import SpeedProbe

    cycles = [workload.cycle(i) for i in range(workload.round_cycles)]
    ops = [op for cycle in cycles for op in cycle]
    probe = SpeedProbe()
    rounds: list[list] = []
    busy = 0.0
    while not rounds or busy + 0.5 * busy / len(rounds) < seconds:
        records, busy = run_ops(ops, probe, busy)
        rounds.append(records)
    probe.read(busy)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = len(cycles[0])
    digest, failed = check_records(workload, rounds[0][:first], failures)
    for records in [rounds[0][first:]] + rounds[1:]:
        failed += check_records(workload, records, failures)[1]
    # one latency per input: the mean of its repeats, so the quantiles do
    # not shift with the number of rounds that fit in the run
    scale = probe.scale()
    latencies = sorted(statistics.fmean(r[i][3] for r in rounds) * scale for i in range(len(ops)))
    print(f"ops {len(ops)} x {len(rounds)} rounds over {busy:.3f} s of op time "
          f"(latency samples: {len(latencies)} inputs, each the mean of {len(rounds)}); "
          f"speed probe: {len(probe.times)} timings, mean {statistics.fmean(probe.times) * 1000:.3f} ms, "
          f"scale {scale!r}")
    values = {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": harrell_davis(latencies, 0.50) * 1000,
        "op_p95_ms": harrell_davis(latencies, 0.95) * 1000,
        "peak_rss_mb": peak_rss_mb,
    }
    return values, len(ops) * len(rounds), failed, digest


def run_traced(workload, failures: list[str]) -> tuple[dict, int, int, str]:
    """Cycles 0..n-1 each run plainly, then again under the tracer.

    n is fixed per workload, so the trace's counts repeat exactly for a
    seed; alternating the two sides cycle by cycle keeps slow drift of the
    machine out of the overhead ratio.
    """
    from tracing import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    ops = failed = bindings = 0
    digest = ""
    for index in range(workload.trace_cycles):
        records, spent = run_ops(workload.cycle(index))
        plain_s += spent
        plain_digest, plain_failed = check_records(workload, records, failures)
        bindings = tracer.install()
        try:
            records, spent = run_ops(workload.cycle(index))
        finally:
            tracer.uninstall()
        traced_s += spent
        ops += len(records)
        traced_digest, traced_failed = check_records(workload, records, failures)
        failed += plain_failed + traced_failed
        if traced_digest != plain_digest:
            failures.append(f"cycle {index}: traced digest {traced_digest} != untraced {plain_digest}")
        digest = digest or plain_digest
    print(f"trace: {bindings} bindings wrapped; {ops} ops in {workload.trace_cycles} cycles, "
          f"{plain_s:.3f} s untraced vs {traced_s:.3f} s traced")
    for key in tracer.missing:
        print(f"trace: {key} not found in glomkit, reported as zero")
    for line in tracer.edge_lines():
        print(line)
    values = tracer.metrics(ops)
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return values, 2 * ops, failed, digest


def run_all(args, spec) -> int:
    results = []
    for w in spec["workloads"]:
        print(f"== workload {w['name']}", flush=True)
        cmd = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=1800)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {w['name']} exited with {proc.returncode}", file=sys.stderr)
            return 1
        results.append((w["name"], json.loads(lines[-1])))
    print("== all")
    print(json.dumps({
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every workload for the self-test")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    src = ROOT / "src"
    if not (src / "glomkit" / "__init__.py").is_file():
        print(f"error: no glomkit package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from speed import SpeedProbe
    from workloads import WORKLOADS

    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload](args.size, ROOT)
    setup_times = []
    # set-up is scaled by readings taken around it, the ops by their own
    setup_probe = SpeedProbe()
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            setup_probe.read(0.0)
            purge_glomkit()
            start = time.perf_counter()
            workload.setup(args.seed)
            setup_times.append(time.perf_counter() - start)
        setup_probe.read(0.0)
        imported = Path(workload.glomkit.__file__).resolve()
        if src.resolve() not in imported.parents:
            print(f"error: glomkit was imported from {imported}, not {src}", file=sys.stderr)
            return 2
        failures = [f"setup: {e}" for e in workload.setup_errors]
        inputs = hashlib.sha256("\n".join(op.label for op in workload.cycle(0)).encode()).hexdigest()
        if args.trace:
            values, attempted, failed, digest = run_traced(workload, failures)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, digest = run_plain(workload, args.seconds, failures)
            values["setup_s"] = statistics.median(setup_times) * setup_probe.scale()
            wanted = spec["end_to_end"]
    finally:
        workload.close()
    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "size": args.size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        "commit": git_commit(),
        "setup_s_samples": setup_times,
    }
    print("context " + json.dumps(context))
    print(f"inputs {inputs}")
    print(f"digest {args.workload} {digest}")
    for line in failures[:MAX_FAILURE_LINES]:
        print(f"FAILED {line}")
    print(f"failed_ops_frac {failed / attempted!r} ({failed} of {attempted} ops)")
    emit(values, wanted, not failures, attempted, failed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
