#!/usr/bin/env python3
"""The benchmark's own test: every workload at --smoke scale, untraced and
traced, must pass its output checks and print a result line that matches
BENCHMARK.json exactly (keys, metric names, units). A copy of the
benchmark without the library sources must fail without a result.

    python3 perfbench/smoke_test.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(workload: str, trace: int) -> list[str]:
    proc = run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "4",
               "--trace", str(trace), "--smoke")
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if result.get("correct") is not True:
        errors.append(f"{where}: output checks failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"{where}: attempted {result.get('attempted')}")
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"{where}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} unit {got.get('unit')}")
        if not math.isfinite(got.get("value", math.nan)):
            errors.append(f"{where}: {m['name']} value {got.get('value')}")
        if not trace and got.get("value") == 0:
            errors.append(f"{where}: end-to-end {m['name']} is 0")
    return errors


def check_bare_copy() -> list[str]:
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, "--workload", "serve-static", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["bare copy: expected a failure without a result"]
    return []


def main() -> int:
    errors = check_bare_copy()
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            errors += check_result(workload, trace)
    for e in errors:
        print("FAIL", e)
    print("smoke test:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
