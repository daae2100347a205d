"""Native frontier-expansion benchmarks (group ``expansion``).

The block-table expansion kernel (``PackedSlotSystem.expand_frontier``) is
what bounds *cold* exploration — every engine's first visit of a
configuration.  Three benchmarks pin it down:

* raw kernel throughput on a large mid-search frontier of slot S1
  (states/s and transitions/s, vs the ~165 k states/s per-state Python
  expansion it replaced),
* cold end-to-end exploration of slot S1 on the kernel engine
  (the acceptance bar: >= 3x over the PR 3 per-state baseline),
* serialized-graph round-trip: save the compiled slot-S1 graph, load it
  into a fresh system and replay — the CI warm-start path
  (``REPRO_GRAPH_DIR``).
"""

from __future__ import annotations

import io

import pytest

from _bench_utils import print_block
from repro.casestudy import paper_profiles
from repro.scheduler.packed import clear_packed_caches, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import instance_budgets, verify_slot_sharing
from repro.verification.kernel import CompiledStateGraph, compiled_graph_for

#: Reachable states of slot S1 = {C1, C5, C4, C3} with the Sec. 5 budgets.
SLOT1_STATES = 145_373


def _slot1():
    profiles = paper_profiles()
    slot = [profiles[name] for name in ("C1", "C5", "C4", "C3")]
    return slot, instance_budgets(slot)


def _slot1_config():
    slot, budgets = _slot1()
    return SlotSystemConfig.from_profiles(slot, budgets)


@pytest.mark.benchmark(group="expansion")
def test_bench_expand_frontier_throughput(benchmark):
    """Raw kernel throughput on the largest BFS level of slot S1."""
    system = packed_system_for(_slot1_config())
    graph = compiled_graph_for(system)
    graph.explore(5_000_000, False)
    # The widest level of the compiled graph is a realistic frontier.
    sizes = [
        (graph.level_ptr[k + 1] - graph.level_ptr[k], k)
        for k in range(len(graph.level_ptr) - 1)
    ]
    size, level = max(sizes)
    frontier = graph.table.state_words[graph.level_ptr[level]:graph.level_ptr[level + 1]]

    def run():
        return system.expand_frontier(frontier)

    succ_words, events, origin = benchmark.pedantic(run, iterations=3, rounds=3)
    mean = benchmark.stats.stats.mean
    print_block(
        f"expand_frontier — slot S1 level {level} ({size:,} states)",
        [
            f"{origin.shape[0]:,} transitions / pass",
            f"{size / mean:,.0f} states/s, {origin.shape[0] / mean:,.0f} transitions/s",
        ],
    )
    assert succ_words.shape[0] == origin.shape[0] == events.shape[0]
    assert succ_words.shape[0] > size  # every state has >= 1 arrival subset


@pytest.mark.benchmark(group="expansion")
def test_bench_cold_exploration_slot1(benchmark):
    """Cold end-to-end slot-S1 exploration on the kernel engine.

    The acceptance bar of the expansion kernel: at least 3x over the
    per-state cold path it replaced (~1.2 s kernel compile on the
    reference container).
    """
    slot, budgets = _slot1()

    def run():
        return verify_slot_sharing(
            slot,
            instance_budget=budgets,
            with_counterexample=False,
            engine="kernel",
        )

    result = benchmark.pedantic(run, setup=clear_packed_caches, iterations=1, rounds=3)
    mean = benchmark.stats.stats.mean
    print_block(
        "cold kernel exploration — slot S1",
        [result.summary(), f"{SLOT1_STATES / mean:,.0f} states/s cold"],
    )
    assert result.feasible
    assert result.explored_states == SLOT1_STATES


@pytest.mark.benchmark(group="expansion")
def test_bench_graph_save_load_replay(benchmark):
    """Serialized compiled-graph round-trip: save, load fresh, replay."""
    config = _slot1_config()
    clear_packed_caches()
    system = packed_system_for(config)
    graph = compiled_graph_for(system)
    reference = graph.explore(5_000_000, False)
    buffer = io.BytesIO()
    graph.save(buffer)
    payload = buffer.getvalue()

    def run():
        from repro.scheduler.packed import PackedSlotSystem

        fresh = PackedSlotSystem(config)
        loaded = CompiledStateGraph.load(io.BytesIO(payload), fresh)
        return loaded.explore(5_000_000, False)

    replay = benchmark.pedantic(run, iterations=1, rounds=3)
    print_block(
        "graph save/load round-trip — slot S1",
        [
            f"payload: {len(payload) / 1e6:.1f} MB compressed",
            f"load + replay: {benchmark.stats.stats.mean * 1e3:.1f} ms "
            f"(vs ~330 ms cold compile)",
        ],
    )
    assert replay[:4] == reference[:4]
    assert replay[0] == SLOT1_STATES
