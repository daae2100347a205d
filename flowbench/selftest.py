"""Tiny-length self-test of the benchmark.

Usage (from the repository root)::

    python3 flowbench/selftest.py

For every workload, a one-second run must print every end-to-end metric
(``--trace 0``) or every per-layer metric (``--trace 1``) with the
unit ``BENCHMARK.json`` declares, and report no failed operation; a run
with a deliberately wrong expected answer (``--break-anchor``) must count
failed operations and report ``correct: false``.  Exits non-zero on the
first violation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import END_TO_END  # noqa: E402


def run(workload: str, trace: int, *extra: str) -> dict:
    command = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", "7", "--seconds", "1", "--trace", str(trace), *extra,
    ]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if completed.returncode != 0:
        raise AssertionError(f"{command} exited {completed.returncode}:\n{completed.stderr}")
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    return result


def check_metrics(workload: str, trace: int, result: dict, declared: dict) -> None:
    expected = (
        set(declared["per_layer"]) if trace
        else set(END_TO_END)
    )
    if set(result["metrics"]) != expected:
        raise AssertionError(
            f"{workload} trace {trace}: metrics {sorted(result['metrics'])} "
            f"!= {sorted(expected)}"
        )
    units = declared["per_layer"] if trace else declared["end_to_end"]
    for name, metric in result["metrics"].items():
        if metric["unit"] != units[name]:
            raise AssertionError(f"{workload}: {name} unit {metric['unit']} != {units[name]}")
        if not trace and not metric["value"] > 0:
            raise AssertionError(f"{workload}: {name} = {metric['value']}")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    declared = {
        "end_to_end": {entry["name"]: entry["unit"] for entry in bench["end_to_end"]},
        "per_layer": {entry["name"]: entry["unit"] for entry in bench["per_layer"]},
    }
    names = {entry["name"] for entry in bench["workloads"]}
    if set(END_TO_END) != set(declared["end_to_end"]):
        raise AssertionError(f"end-to-end {sorted(END_TO_END)} != {sorted(declared['end_to_end'])}")
    for workload in sorted(names):
        for trace in (0, 1):
            result = run(workload, trace)
            check_metrics(workload, trace, result, declared)
            if result["failed"] or not result["correct"] or result["attempted"] < 1:
                raise AssertionError(f"{workload} trace {trace}: {result['failed']} failed")
        broken = run(workload, 0, "--break-anchor")
        if broken["failed"] < 1 or broken["correct"]:
            raise AssertionError(f"{workload}: a wrong anchor was not counted as failed")
        print(f"{workload}: ok ({broken['failed']} of {broken['attempted']} "
              "operations failed with a wrong anchor)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
