"""E8 — Sec. 5 verification-time study: effect of bounding disturbance instances."""

from __future__ import annotations

import pytest

from _bench_utils import print_block
from repro.analysis import acceleration_comparison
from repro.casestudy import paper_profiles
from repro.dimensioning.first_fit import dimension_with_verification
from repro.scheduler.packed import clear_packed_caches
from repro.verification import instance_budgets, verify_slot_sharing

#: The paper's first-fit partition of the six case-study applications.
PAPER_PARTITION = (("C1", "C5", "C4", "C3"), ("C6", "C2"))


@pytest.mark.benchmark(group="verification")
def test_accelerated_verification_of_slot1(benchmark):
    """Time the accelerated (instance-budget) verification of the hardest
    instance, slot S1 = {C1, C5, C4, C3}."""
    profiles = paper_profiles()
    slot = [profiles[name] for name in ("C1", "C5", "C4", "C3")]
    budgets = instance_budgets(slot)

    # Pinned to the sequential engine: this gate guards the BFS exploration
    # path itself.  With the default "auto" spec the run would upgrade to a
    # microsecond compiled-graph replay whenever an earlier benchmark left a
    # frozen graph behind (order-dependent, and no longer measuring the
    # search); the replay has its own gated benchmarks in the `kernel`
    # group.
    result = benchmark(
        verify_slot_sharing,
        slot,
        instance_budget=budgets,
        with_counterexample=False,
        engine="sequential",
    )
    print_block(
        "Sec. 5 — accelerated verification of slot S1",
        [result.summary(), f"instance budgets: {budgets}"],
    )
    assert result.feasible
    assert not result.truncated


@pytest.mark.benchmark(group="verification")
def test_acceleration_speedup_on_slot1_prefix(benchmark):
    """Unbounded vs accelerated verification on {C1, C5, C4}: the acceleration
    must preserve the verdict while exploring far fewer states (the paper
    reports a ~20x speed-up on its hardest instance)."""
    comparison = benchmark.pedantic(
        acceleration_comparison,
        kwargs={"names": ("C1", "C5", "C4")},
        iterations=1,
        rounds=1,
    )
    print_block("Sec. 5 — acceleration comparison on {C1, C5, C4}", comparison.format_summary())
    assert comparison.verdicts_agree()
    assert comparison.accelerated.feasible
    # The acceleration shrinks the explored state space; the effect grows with
    # the number of applications (about 10x on the full 4-application slot S1,
    # see EXPERIMENTS.md) — on this 3-application prefix it is roughly 2x.
    assert comparison.state_reduction >= 1.5


@pytest.mark.benchmark(group="verification")
def test_bench_first_fit_sweep(benchmark):
    """End-to-end first-fit over the six case-study applications from cold
    packed caches (default admission test, ``auto`` engine): every trial
    cold-compiles its slot configuration."""
    profiles = paper_profiles()

    def run():
        return dimension_with_verification(profiles)

    outcome = benchmark.pedantic(run, setup=clear_packed_caches, iterations=1, rounds=2)
    print_block(
        "Sec. 5 — first-fit sweep (auto engine, cold caches)",
        [
            f"partition: {outcome.partition()}",
            f"{outcome.verifications} admission verifications",
        ],
    )
    assert outcome.partition() == PAPER_PARTITION
