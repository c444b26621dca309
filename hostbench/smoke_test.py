#!/usr/bin/env python3
"""Smoke test of the benchmark itself: runs every workload at a few
iterations, untraced and traced, and checks that

  - the last stdout line is the result object, with every metric that
    BENCHMARK.json names for that mode, each with its unit, and every
    end-to-end value non-zero;
  - each metric is also printed as a "name value unit" line;
  - the output checks ran and passed, and the result record carries the
    host fingerprint;
  - run.py fails, without printing a result, where the repository sources
    are missing.

Usage, from the repository root: python3 hostbench/smoke_test.py
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True  # leave no __pycache__ in the benchmark directory
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (hostbench/run.py)

FINGERPRINT_KEYS = {"nproc", "cpu_model", "compiler", "build_type", "obs_hooks"}


def smoke(workload, trace, spec, failures):
    name = f"{workload} --trace {trace}"
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", "1", "--trace", str(trace), "--smoke"],
                       cwd=ROOT, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        failures.append(f"{name}: exit {p.returncode}\n{p.stdout}{p.stderr}")
        return
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{name}: result keys {sorted(result)}")
        return
    if not result["correct"] or result["attempted"] < 1 or result["failed"] != 0:
        failures.append(f"{name}: correct={result['correct']} attempted="
                        f"{result['attempted']} failed={result['failed']}")
    wanted = spec["end_to_end"] if trace == 0 else spec["per_layer"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        failures.append(f"{name}: metric names differ from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            failures.append(f"{name}: {m['name']} missing or not in {m['unit']}")
            continue
        if trace == 0 and not got["value"] > 0:
            failures.append(f"{name}: end-to-end {m['name']} = {got['value']}")
        line = re.compile(r"^\s+" + re.escape(m["name"]) + r"\s+\S+ " +
                          re.escape(m["unit"]) + "$", re.M)
        if not line.search(p.stdout):
            failures.append(f"{name}: no printed line for {m['name']} [{m['unit']}]")
    record_path = run.build_dir() / "records" / f"{workload}-seed1-trace{trace}-smoke.json"
    record = json.loads(record_path.read_text())
    if not record["checks"] or not all(c["ok"] for c in record["checks"]):
        failures.append(f"{name}: output checks missing or failed: {record['checks']}")
    if set(record["fingerprint"]) != FINGERPRINT_KEYS:
        failures.append(f"{name}: fingerprint keys {sorted(record['fingerprint'])}")
    print(f"ok   {name}: {len(wanted)} metrics, checks: " +
          ", ".join(c["name"] for c in record["checks"]), flush=True)


def bare_checkout_fails(failures):
    """The benchmark alone, without the sources it builds, must fail."""
    bare = run.build_dir() / "smoke_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        p = subprocess.run([sys.executable, str(bare / HERE.name / "run.py"),
                            "--workload", "online_spc", "--seed", "1",
                            "--seconds", "1", "--trace", "0"],
                           cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if p.returncode == 0 or p.stdout.strip():
        failures.append(f"bare checkout: exit {p.returncode}, stdout {p.stdout!r}")
    else:
        print(f"ok   bare checkout fails with exit {p.returncode}")


def main():
    spec = run.load_spec()
    failures = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            smoke(workload, trace, spec, failures)
    bare_checkout_fails(failures)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
