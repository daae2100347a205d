#!/usr/bin/env python
"""Run the service chaos campaign.

Spawns a private verification server (checkpointing armed, small store
budget so the LRU churns), then sweeps the robustness scenario corpus as
live traffic while seeded fault injectors kill pool workers mid-compile,
drop and garble client sockets, truncate store entries, flood the store
past its byte budget and interrupt-and-resume checkpointed compiles.  Every
scenario's answer is compared against a fault-free local oracle; the
exit status is non-zero iff any verdict diverged.

Usage::

    PYTHONPATH=src python scripts/chaos_campaign.py --seed 2026 --count 90

The full sweep is 90 scenarios: the six injectors rotate round-robin, so
each fires 15 times.

``--json-out PATH`` writes the machine-readable record (the CI
``chaos-campaign`` job uploads it as an artifact); a markdown section is
appended to ``$GITHUB_STEP_SUMMARY`` when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.robustness.chaos import (  # noqa: E402
    CHAOS_INJECTORS,
    DEFAULT_MAX_STATES,
    SpawnedServer,
    run_chaos,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026, help="corpus seed")
    parser.add_argument(
        "--count",
        type=int,
        default=90,
        help="scenario count (>= %d fires every injector)" % len(CHAOS_INJECTORS),
    )
    parser.add_argument("--start", type=int, default=0, help="first scenario index")
    parser.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_MAX_STATES,
        help="per-scenario exploration cap (traffic and oracle alike)",
    )
    parser.add_argument(
        "--checkpoint-levels",
        type=int,
        default=2,
        help="server-side REPRO_CHECKPOINT_LEVELS (0 disables)",
    )
    parser.add_argument(
        "--store-bytes",
        type=int,
        default=4_000_000,
        help="server-side store LRU budget (keeps eviction churning)",
    )
    parser.add_argument("--workers", type=int, default=2, help="server pool size")
    parser.add_argument("--json-out", default=None, help="write chaos JSON here")
    parser.add_argument(
        "--progress-every",
        type=int,
        default=10,
        help="print a progress line every N scenarios (0 silences)",
    )
    args = parser.parse_args()

    env = {"REPRO_GRAPH_STORE_BYTES": str(args.store_bytes)}
    if args.checkpoint_levels > 0:
        env["REPRO_CHECKPOINT_LEVELS"] = str(args.checkpoint_levels)
    ticker = {"done": 0}

    def progress(report) -> None:
        ticker["done"] += 1
        if args.progress_every and ticker["done"] % args.progress_every == 0:
            print(
                f"  ... {ticker['done']}/{args.count} scenarios "
                f"(latest index {report.index}: {report.injector} -> "
                f"{report.verdict})",
                flush=True,
            )

    began = time.perf_counter()
    with SpawnedServer(env=env, workers=args.workers) as server:
        result = run_chaos(
            args.seed,
            args.count,
            server=server,
            start=args.start,
            max_states=args.max_states,
            progress=progress,
        )
    elapsed = time.perf_counter() - began
    summary = result.summary()
    summary["wall_seconds"] = elapsed

    print(f"chaos campaign: seed={args.seed} count={args.count}")
    print(f"  ok={summary['ok']} divergences={summary['divergences']}")
    print("  injectors (run/fired):")
    for kind, bucket in summary["injectors"].items():
        print(f"    {kind}: {bucket['run']}/{bucket['fired']}")
    print(f"  recovery: {summary['recovery']}")
    print(f"  server window: {summary['server_window']}")
    print(f"  wall time {elapsed:.1f}s")
    for report in result.divergences:
        print(
            f"  DIVERGENCE index={report.index} injector={report.injector}: "
            f"{report.divergence}"
        )

    if args.json_out:
        payload = result.to_dict()
        payload["wall_seconds"] = elapsed
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  wrote {args.json_out}")

    step_summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if step_summary:
        with open(step_summary, "a", encoding="utf-8") as handle:
            handle.write(
                "## Chaos campaign\n\n"
                f"- seed {args.seed}, {args.count} scenarios\n"
                f"- ok {summary['ok']}, divergences {summary['divergences']}\n"
                f"- recovery: {summary['recovery']}\n\n"
                "| injector | run | fired |\n| --- | ---: | ---: |\n"
            )
            for kind, bucket in summary["injectors"].items():
                handle.write(f"| `{kind}` | {bucket['run']} | {bucket['fired']} |\n")

    return 1 if result.divergences else 0


if __name__ == "__main__":
    raise SystemExit(main())
