#!/usr/bin/env python
"""Run the fault-injection robustness campaign.

Sweeps a deterministic scenario corpus (seeded profiles, FlexRay variants
and fault injections) through the cross-engine differential checker and
reports verdict/count equivalence, corpus-wide verification throughput
(p50/p99 states/s) and any divergence it had to shrink to a fixture.

Usage::

    PYTHONPATH=src python scripts/robustness_campaign.py --seed 2026 --count 500

Replay a single scenario (e.g. one named by a divergence fixture)::

    PYTHONPATH=src python scripts/robustness_campaign.py \
        --seed 2026 --start 137 --count 1

``--json-out PATH`` writes the machine-readable campaign record (the CI
``robustness-campaign`` job uploads it as an artifact); a markdown section
is appended to ``$GITHUB_STEP_SUMMARY`` when set.  Exit status is non-zero
iff the campaign found a divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.robustness import run_campaign  # noqa: E402
from repro.robustness.campaign import (  # noqa: E402
    DEFAULT_ENGINES,
    DEFAULT_MAX_STATES,
)


def _service_hook(client, args, rng, pool, weights):
    """Per-scenario service leg for ``--service`` runs.

    Queries the scenario through the live server (client retries mask
    transient faults) and compares the verdict against the kernel engine's
    outcome; also folds one zipf-weighted admission from the synthetic
    config pool into every scenario, so the sweep keeps hot-path and
    cold-path service traffic mixed — the loadgen's skew, the campaign's
    corpus.  Returns a divergence description or None.
    """
    from repro.verification.acceleration import instance_budgets

    def hook(scenario, profiles, outcomes):
        if scenario.explicit_budget is not None:
            names = {profile.name for profile in profiles}
            budget = {
                name: count
                for name, count in scenario.explicit_budget.items()
                if name in names
            }
        else:
            budget = instance_budgets(profiles)
        try:
            pool_config = rng.choices(pool, weights=weights, k=1)[0]
            client.admit(pool_config, max_states=50_000)
            result = client.verify(
                profiles, instance_budget=budget, max_states=args.max_states
            )
        except Exception as error:  # noqa: BLE001 - a divergence, not a crash
            return f"service request failed: {error!r}"
        reference = outcomes.get("kernel") or next(iter(outcomes.values()))
        if reference.truncated or result.truncated:
            return None
        if result.feasible != reference.feasible:
            return (
                f"service verdict {result.feasible} != engine "
                f"{reference.feasible}"
            )
        if result.explored_states != reference.visited_count:
            return (
                f"service explored {result.explored_states} states != engine "
                f"{reference.visited_count}"
            )
        return None

    return hook


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=2026, help="corpus seed")
    parser.add_argument("--count", type=int, default=500, help="scenario count")
    parser.add_argument("--start", type=int, default=0, help="first scenario index")
    parser.add_argument(
        "--engines",
        default=",".join(DEFAULT_ENGINES),
        help="comma-separated engine specs to cross-check",
    )
    parser.add_argument(
        "--service",
        action="store_true",
        help="additionally run every scenario through a spawned verification "
        "server (with zipf-weighted pool traffic folded in) and treat any "
        "service/engine verdict mismatch as a divergence",
    )
    parser.add_argument(
        "--max-states",
        type=int,
        default=DEFAULT_MAX_STATES,
        help="per-scenario exploration cap",
    )
    parser.add_argument(
        "--fixtures-dir",
        default=os.path.join("tests", "robustness", "fixtures"),
        help="where divergence reproducers are persisted",
    )
    parser.add_argument(
        "--no-fixtures",
        action="store_true",
        help="report divergences without shrinking/persisting fixtures",
    )
    parser.add_argument(
        "--specs",
        action="store_true",
        help="evaluate the standard temporal-spec bundle on every scenario",
    )
    parser.add_argument("--json-out", default=None, help="write campaign JSON here")
    parser.add_argument(
        "--progress-every",
        type=int,
        default=50,
        help="print a progress line every N scenarios (0 silences)",
    )
    args = parser.parse_args()

    engines = tuple(spec for spec in args.engines.split(",") if spec)
    ticker = {"done": 0}

    def progress(report) -> None:
        ticker["done"] += 1
        if args.progress_every and ticker["done"] % args.progress_every == 0:
            print(
                f"  ... {ticker['done']}/{args.count} scenarios "
                f"(latest index {report.index}: {report.verdict})",
                flush=True,
            )

    server = None
    client = None
    hook = None
    if args.service:
        import random

        from repro.robustness.chaos import (
            SpawnedServer,
            synthetic_config_pool,
            zipf_weights,
        )
        from repro.service import ServiceClient

        server = SpawnedServer(env={"REPRO_CHECKPOINT_LEVELS": "2"})
        client = ServiceClient(
            server.socket_path,
            timeout=120.0,
            retries=5,
            backoff_base=0.02,
            backoff_max=0.2,
        ).connect()
        pool = synthetic_config_pool(8, args.seed)
        weights = zipf_weights(len(pool))
        hook = _service_hook(client, args, random.Random(args.seed), pool, weights)

    began = time.perf_counter()
    try:
        result = run_campaign(
            args.seed,
            args.count,
            start=args.start,
            engines=engines,
            max_states=args.max_states,
            divergence_hook=hook,
            fixtures_dir=None if args.no_fixtures else args.fixtures_dir,
            progress=progress,
            specs=args.specs,
        )
    finally:
        if client is not None:
            client.close()
        if server is not None:
            server.stop()
    elapsed = time.perf_counter() - began
    summary = result.summary()
    summary["wall_seconds"] = elapsed

    print(f"robustness campaign: seed={args.seed} count={args.count} "
          f"engines={','.join(engines)}")
    print(f"  ok={summary['ok']} divergences={summary['divergences']} "
          f"skipped={summary['skipped']} "
          f"(feasible {summary['feasible']} / infeasible {summary['infeasible']})")
    print(f"  fault coverage: {summary['fault_coverage']}")
    throughput = summary["throughput"]
    print(f"  throughput: p50 {throughput['p50_states_per_second']:.0f} states/s, "
          f"p99 {throughput['p99_states_per_second']:.0f} states/s")
    spec_counts = summary.get("spec_verdicts") or {}
    if spec_counts:
        print("  spec verdicts (holds/violated/undecided):")
        for family, bucket in spec_counts.items():
            print(
                f"    {family}: {bucket['holds']}/{bucket['violated']}"
                f"/{bucket['undecided']}"
            )
    print(f"  wall time {elapsed:.1f}s")
    for report in result.divergences:
        print(f"  DIVERGENCE index={report.index}: {report.divergence}")
        if report.fixture_path:
            print(f"    fixture: {report.fixture_path}")

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
                "## Robustness campaign\n\n"
                f"- seed {args.seed}, {args.count} scenarios, engines "
                f"`{','.join(engines)}`\n"
                f"- ok {summary['ok']}, divergences {summary['divergences']}, "
                f"skipped {summary['skipped']}\n"
                f"- throughput p50 {throughput['p50_states_per_second']:.0f} "
                f"states/s, p99 {throughput['p99_states_per_second']:.0f} "
                f"states/s\n"
            )
            if spec_counts:
                handle.write(
                    "\n### Temporal-spec verdicts\n\n"
                    "| spec family | holds | violated | undecided |\n"
                    "| --- | ---: | ---: | ---: |\n"
                )
                for family, bucket in spec_counts.items():
                    handle.write(
                        f"| `{family}` | {bucket['holds']} | "
                        f"{bucket['violated']} | {bucket['undecided']} |\n"
                    )

    return 1 if result.divergences else 0


if __name__ == "__main__":
    raise SystemExit(main())
