#!/usr/bin/env python
"""Diff two pytest-benchmark JSON exports and gate on regressions.

Intended as the CI regression gate for the verification hot path::

    PYTHONPATH=src python -m pytest benchmarks -q \
        --benchmark-json=baseline.json            # on the base revision
    PYTHONPATH=src python -m pytest benchmarks -q \
        --benchmark-json=current.json             # on the candidate revision
    python scripts/bench_compare.py baseline.json current.json \
        --group verification --threshold 0.20

Exits non-zero when any benchmark of the selected group(s) is more than
``threshold`` (default 20%) slower in ``current`` than in ``baseline``.
Benchmarks present in only one file are reported but never fail the gate.

Two machine-facing outputs for CI:

* ``--json-out PATH`` — write the full comparison (rows, failures, gate
  verdict) as JSON, the artifact consumed by dashboards and by humans
  regenerating the committed baseline from a CI run.
* ``--github-summary [PATH]`` — append a markdown table to PATH, or to the
  file named by ``$GITHUB_STEP_SUMMARY`` when PATH is omitted, so
  regressions are visible directly in the GitHub Actions run page / PR UI.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, Tuple


def load_benchmarks(path: str) -> Dict[Tuple[str, str], float]:
    """Map ``(group, name) -> mean seconds`` from a pytest-benchmark export.

    Raises ``ValueError`` for an entry whose ``mean`` lies outside its own
    ``[min, max]``: such a summary was not computed from its rounds, and a
    mean inflated that way would loosen the gate below its threshold.
    """
    with open(path) as handle:
        data = json.load(handle)
    means: Dict[Tuple[str, str], float] = {}
    for bench in data.get("benchmarks", []):
        key = (bench.get("group") or "", bench["name"])
        stats = bench["stats"]
        mean = float(stats["mean"])
        if not float(stats["min"]) <= mean <= float(stats["max"]):
            raise ValueError(
                f"{path}: {key[0]}::{key[1]} has mean {mean!r} outside its "
                f"[min, max] = [{stats['min']!r}, {stats['max']!r}]"
            )
        means[key] = mean
    return means


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("baseline", help="pytest-benchmark JSON of the base revision")
    parser.add_argument("current", help="pytest-benchmark JSON of the candidate revision")
    parser.add_argument(
        "--group",
        action="append",
        default=None,
        help="benchmark group(s) to gate on (repeatable); default: all groups",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.20,
        help="maximum tolerated relative slowdown (default 0.20 = 20%%)",
    )
    parser.add_argument(
        "--floor",
        type=float,
        default=0.001,
        help="seconds below which benchmarks never fail the gate (default "
        "1 ms): at microsecond scale the ratio measures timer noise, not "
        "regressions — e.g. the compiled kernel's warm replays",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the comparison (rows, failures, verdict) as JSON",
    )
    parser.add_argument(
        "--github-summary",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="append a markdown table to PATH (default: $GITHUB_STEP_SUMMARY)",
    )
    args = parser.parse_args(argv)

    try:
        baseline = load_benchmarks(args.baseline)
        current = load_benchmarks(args.current)
    except (OSError, ValueError, KeyError) as error:
        print(f"error: cannot load benchmark export: {error}", file=sys.stderr)
        return 2
    groups = set(args.group) if args.group else None

    failures = []
    rows = []
    for key in sorted(set(baseline) | set(current)):
        group, name = key
        if groups is not None and group not in groups:
            continue
        base_mean = baseline.get(key)
        cur_mean = current.get(key)
        if base_mean is None or cur_mean is None:
            rows.append((group, name, base_mean, cur_mean, None, "only in one file"))
            continue
        ratio = cur_mean / base_mean if base_mean > 0 else float("inf")
        status = "ok"
        if max(base_mean, cur_mean) < args.floor:
            status = "ok (sub-floor)"
        elif ratio > 1.0 + args.threshold:
            status = "REGRESSION"
            failures.append((group, name, ratio))
        elif ratio < 1.0 - args.threshold:
            status = "improved"
        rows.append((group, name, base_mean, cur_mean, ratio, status))

    if not rows:
        print(f"no benchmarks matched groups {sorted(groups) if groups else 'ALL'}")
        return 2

    header = f"{'group':<14} {'benchmark':<48} {'base':>10} {'current':>10} {'ratio':>7}  status"
    print(header)
    print("-" * len(header))
    for group, name, base_mean, cur_mean, ratio, status in rows:
        base_text = f"{base_mean * 1e3:.1f}ms" if base_mean is not None else "-"
        cur_text = f"{cur_mean * 1e3:.1f}ms" if cur_mean is not None else "-"
        ratio_text = f"{ratio:.2f}x" if ratio is not None else "-"
        print(f"{group:<14} {name:<48} {base_text:>10} {cur_text:>10} {ratio_text:>7}  {status}")

    if args.json_out:
        write_json_summary(args.json_out, args, rows, failures)
    if args.github_summary is not None:
        summary_path = args.github_summary or os.environ.get("GITHUB_STEP_SUMMARY")
        if summary_path:
            append_github_summary(summary_path, args, rows, failures)
        else:
            print(
                "warning: --github-summary given but $GITHUB_STEP_SUMMARY is "
                "not set; skipping",
                file=sys.stderr,
            )

    if failures:
        print()
        for group, name, ratio in failures:
            print(
                f"FAIL: {group}::{name} is {ratio:.2f}x the baseline "
                f"(allowed {1.0 + args.threshold:.2f}x)"
            )
        return 1
    print(f"\nall gated benchmarks within {args.threshold:.0%} of baseline")
    return 0


def write_json_summary(path: str, args, rows, failures) -> None:
    """Machine-readable comparison artifact (consumed by CI dashboards)."""
    payload = {
        "baseline": args.baseline,
        "current": args.current,
        "threshold": args.threshold,
        "floor": args.floor,
        "groups": sorted(args.group) if args.group else None,
        "ok": not failures,
        "rows": [
            {
                "group": group,
                "name": name,
                "baseline_mean_s": base_mean,
                "current_mean_s": cur_mean,
                "ratio": ratio,
                "status": status,
            }
            for group, name, base_mean, cur_mean, ratio, status in rows
        ],
        "failures": [
            {"group": group, "name": name, "ratio": ratio}
            for group, name, ratio in failures
        ],
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"json summary written to {path}")


def append_github_summary(path: str, args, rows, failures) -> None:
    """Markdown table for the GitHub Actions step summary / PR UI."""
    verdict = (
        f"❌ **{len(failures)} regression(s)** beyond "
        f"{args.threshold:.0%} of baseline"
        if failures
        else f"✅ all gated benchmarks within {args.threshold:.0%} of baseline"
    )
    lines = [
        "## Benchmark gate",
        "",
        verdict,
        "",
        "| group | benchmark | baseline | current | ratio | status |",
        "|---|---|---:|---:|---:|---|",
    ]
    for group, name, base_mean, cur_mean, ratio, status in rows:
        base_text = f"{base_mean * 1e3:.2f} ms" if base_mean is not None else "—"
        cur_text = f"{cur_mean * 1e3:.2f} ms" if cur_mean is not None else "—"
        ratio_text = f"{ratio:.2f}x" if ratio is not None else "—"
        marker = "**REGRESSION**" if status == "REGRESSION" else status
        lines.append(
            f"| {group} | `{name}` | {base_text} | {cur_text} | {ratio_text} | {marker} |"
        )
    lines.append("")
    with open(path, "a") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"markdown summary appended to {path}")


if __name__ == "__main__":
    sys.exit(main())
