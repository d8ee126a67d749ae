#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at tiny size, untraced and traced, through
`run.py --workload all`, and checks that

- every metric named in BENCHMARK.json is printed with its unit,
- no op fails (failed_ops_frac is 0) and every run reports correct,
- a workload's traced and untraced runs give the same digest, and
- another seed changes the campaign inputs and still passes every check.

Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
problems: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        problems.append(message)
        print(f"FAIL {message}")


def run_all(seed: int, trace: int) -> dict[str, dict]:
    """Per-workload {'inputs', 'digest', 'result'} from one `--workload all` run."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    expect(proc.returncode == 0, f"seed {seed} trace {trace}: exit code {proc.returncode}")
    out: dict[str, dict] = {}
    current = None
    for line in proc.stdout.splitlines():
        if line.startswith("== workload "):
            current = out.setdefault(line.split()[-1], {})
        elif line.startswith("== all"):
            current = None
        elif current is not None and line.startswith("inputs "):
            current["inputs"] = line.split()[1]
        elif current is not None and line.startswith("digest "):
            current["digest"] = line.split()[2]
        elif current is not None and line.startswith("{"):
            current["result"] = json.loads(line)
    return out


def check_run(runs: dict[str, dict], seed: int, trace: int) -> None:
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    names = [w["name"] for w in SPEC["workloads"]]
    expect(sorted(runs) == sorted(names), f"seed {seed} trace {trace}: workloads {sorted(runs)}")
    for name, run in runs.items():
        where = f"{name} seed {seed} trace {trace}"
        result = run.get("result")
        if result is None:
            expect(False, f"{where}: no result line")
            continue
        expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys")
        expect(result["correct"] is True, f"{where}: not correct")
        expect(result["failed"] == 0 and result["attempted"] >= 1, f"{where}: failed ops")
        metrics = result["metrics"]
        expect(set(metrics) == {m["name"] for m in wanted}, f"{where}: metric names differ")
        for m in wanted:
            got = metrics.get(m["name"], {})
            expect(got.get("unit") == m["unit"], f"{where}: {m['name']} unit {got.get('unit')}")
            expect(isinstance(got.get("value"), (int, float)), f"{where}: {m['name']} value")


def main() -> int:
    plain = run_all(1, 0)
    check_run(plain, 1, 0)
    traced = run_all(1, 1)
    check_run(traced, 1, 1)
    for name, run in plain.items():
        expect(run.get("digest") == traced.get(name, {}).get("digest"),
               f"{name}: traced digest differs from untraced")
    other = run_all(2, 0)
    check_run(other, 2, 0)
    expect(other.get("campaign", {}).get("inputs") != plain.get("campaign", {}).get("inputs"),
           "campaign: seed 2 gives the same inputs as seed 1")
    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
