#!/usr/bin/env python
"""Alternating base-vs-working-tree runs of the flow benchmark.

Reproduces a performance claim as a committed ``BENCH_*.json``::

    python scripts/bench_pairs.py --base HEAD~1 --workload design \
        --workload verify --workload serve --pairs 10 --seconds 15 \
        --out BENCH_<n>.json

The base ref is exported with ``git archive`` into a temporary directory
(removed again on exit; set ``TMPDIR`` to choose where it goes), so the
repository's git metadata is never touched.  For every workload, each
pair runs ``flowbench/run.py --trace 0`` once in that copy and once in
the working tree, alternating which side goes first, so slow drift of
the host hits both sides alike.  The output file holds every run's result
line, the per-metric medians and quartiles of each side and, per metric,
how many pairs the working tree won.  Exits non-zero when any run fails to produce a
result, reports ``correct: false`` or counts a failed operation.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Direction of the end-to-end metrics ``flowbench/run.py`` prints.
LOWER_IS_BETTER = ("latency_ms", "peak_rss_mb", "setup_s")


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, check=True, capture_output=True, text=True
    ).stdout.strip()


def run_flowbench(tree: str, workload: str, seconds: float, seed: int) -> dict:
    """One ``flowbench/run.py`` run in ``tree``; its parsed result line."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    command = [
        sys.executable, os.path.join(tree, "flowbench", "run.py"),
        "--workload", workload, "--seconds", str(seconds), "--seed", str(seed),
        "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "error": f"exit {proc.returncode}, no result line"}
    return json.loads(lines[-1])


def run_ok(result: dict) -> bool:
    return bool(result.get("correct")) and result.get("failed", 0) == 0


def summarise(runs: list) -> dict:
    """Per-side medians and quartiles and, per metric, the pairs the
    working tree won."""
    values = {"base": {}, "head": {}}
    for run in runs:
        for name, metric in run["result"].get("metrics", {}).items():
            values[run["side"]].setdefault(name, []).append(metric["value"])
    medians = {
        side: {name: statistics.median(series) for name, series in metrics.items()}
        for side, metrics in values.items()
    }
    quartiles = {
        side: {
            name: statistics.quantiles(series, n=4)[::2]
            for name, series in metrics.items()
            if len(series) > 1
        }
        for side, metrics in values.items()
    }
    wins = {}
    for name in LOWER_IS_BETTER:
        base, head = values["base"].get(name, []), values["head"].get(name, [])
        wins[name] = sum(h < b for b, h in zip(base, head))
    change_pct = {
        name: (medians["head"][name] / medians["base"][name] - 1.0) * 100.0
        for name in medians["base"]
        if name in medians["head"] and medians["base"][name]
    }
    return {
        "medians": medians, "quartiles": quartiles,
        "change_pct": change_pct, "head_wins": wins,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git ref to compare against")
    parser.add_argument(
        "--workload", action="append", required=True,
        choices=("design", "verify", "serve"), help="repeatable",
    )
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    args = parser.parse_args(argv)

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    record = {
        "base": {"ref": args.base, "commit": base_commit},
        "head": {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed": args.seed,
        "host": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
        },
        "workloads": {},
    }
    scratch = tempfile.mkdtemp(prefix="bench-pairs-")
    base_tree = os.path.join(scratch, "base")
    all_ok = True
    try:
        archive = subprocess.run(
            ["git", "archive", base_commit], cwd=ROOT, check=True, capture_output=True
        ).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base_tree, filter="data")
        trees = {"base": base_tree, "head": ROOT}
        for workload in args.workload:
            runs = []
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    start = time.time()
                    result = run_flowbench(trees[side], workload, args.seconds, args.seed)
                    all_ok &= run_ok(result)
                    latency = result.get("metrics", {}).get("latency_ms", {}).get("value")
                    print(
                        f"{workload} pair {pair} {side}: latency_ms={latency} "
                        f"ok={run_ok(result)} ({time.time() - start:.0f} s)",
                        file=sys.stderr, flush=True,
                    )
                    runs.append({"pair": pair, "side": side, "result": result})
            record["workloads"][workload] = {"runs": runs, **summarise(runs)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record["ok"] = all_ok
    with open(args.out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    for workload, summary in record["workloads"].items():
        for name in LOWER_IS_BETTER:
            base = summary["medians"]["base"].get(name)
            head = summary["medians"]["head"].get(name)
            if base is None or head is None:
                continue
            print(
                f"{workload:7s} {name:12s} base {base:10.3f}  head {head:10.3f}  "
                f"{summary['change_pct'][name]:+6.1f}%  "
                f"head better in {summary['head_wins'][name]}/{args.pairs} pairs"
            )
    if not all_ok:
        print("error: a run failed or reported incorrect results", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
