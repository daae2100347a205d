"""Engine micro-benchmarks: the same feasibility query on every engine.

Two instances are timed:

* the unbounded-budget slot {C1, C5, C4} (27,716 states) across the
  sequential and kernel engines, and
* the paper's hardest instance, slot S1 = {C1, C5, C4, C3} with the Sec. 5
  instance budgets (145,373 states, 62-bit packed states), across the
  same engines.

Every benchmark asserts the engines report the identical state space — the
acceptance bar for any new exploration engine.
"""

from __future__ import annotations

import pytest

from _bench_utils import print_block
from repro.casestudy import paper_profiles
from repro.scheduler.packed import clear_packed_caches
from repro.verification import instance_budgets, verify_slot_sharing

#: Reachable states of the unbounded-budget slot {C1, C5, C4}.
PREFIX_STATES = 27_716

#: Reachable states of slot S1 = {C1, C5, C4, C3} with the Sec. 5 budgets.
SLOT1_STATES = 145_373


def _prefix_profiles():
    profiles = paper_profiles()
    return [profiles[name] for name in ("C1", "C5", "C4")]


def _slot1():
    profiles = paper_profiles()
    slot = [profiles[name] for name in ("C1", "C5", "C4", "C3")]
    return slot, instance_budgets(slot)


@pytest.mark.benchmark(group="engines")
@pytest.mark.parametrize("engine", ["sequential", "kernel"])
def test_bench_engine_unbounded_prefix(benchmark, engine):
    """Unbounded-budget verification of {C1, C5, C4} per engine."""
    slot = _prefix_profiles()

    def run():
        return verify_slot_sharing(slot, with_counterexample=False, engine=engine)

    iterations = 20 if engine == "kernel" else 1
    result = benchmark.pedantic(run, iterations=iterations, rounds=3, warmup_rounds=1)
    print_block(
        f"engine {engine} — unbounded {{C1, C5, C4}}",
        [result.summary()],
    )
    assert result.feasible
    assert not result.truncated
    assert result.explored_states == PREFIX_STATES


@pytest.mark.benchmark(group="engines")
@pytest.mark.parametrize("engine", ["sequential", "kernel"])
def test_bench_engine_slot1_accelerated(benchmark, engine):
    """Accelerated verification of the hardest instance (slot S1) per engine."""
    slot, budgets = _slot1()

    def run():
        return verify_slot_sharing(
            slot, instance_budget=budgets, with_counterexample=False, engine=engine
        )

    # The kernel replay is microsecond-scale: average over many iterations
    # so the recorded mean is stable for the regression gate.
    iterations = 20 if engine == "kernel" else 1
    result = benchmark.pedantic(run, iterations=iterations, rounds=2, warmup_rounds=1)
    print_block(f"engine {engine} — slot S1 accelerated", [result.summary()])
    assert result.feasible
    assert result.explored_states == SLOT1_STATES


def test_all_engines_agree_on_slot1():
    """Acceptance bar: the sequential and compiled-kernel engines explore
    the identical 145,373-state space of slot S1 (cold caches each)."""
    slot, budgets = _slot1()
    counts = {}
    for engine in ("sequential", "kernel"):
        clear_packed_caches()
        result = verify_slot_sharing(
            slot, instance_budget=budgets, with_counterexample=False, engine=engine
        )
        assert result.feasible, engine
        counts[engine] = result.explored_states
    print_block("slot S1 engine agreement", [f"{k}: {v}" for k, v in counts.items()])
    assert set(counts.values()) == {SLOT1_STATES}
