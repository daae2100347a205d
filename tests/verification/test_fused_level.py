"""The fused native level (``nk_level``) against the composed pipeline.

``CompiledStateGraph`` compiles a BFS level with one native call that
expands, hashes, interns, numbers and appends.  The reference here is the
pipeline that call replaces, kept in the test: ``expand_frontier``, then
``PackedStateTable.intern_dedup``, then appending the CSR and parent rows.
Every graph array must match it after every level: the interned states,
``level_ptr``, ``indptr``, successor ids, labels and the BFS tree.  Covered:
the kernel-expandable scenarios of the robustness corpus, the two-word
case-study slot, a synthetic three-word configuration, a table that grows
and rehashes on every level, a capped exploration and an error level, which
must leave the table and the arrays as they were.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.casestudy import paper_profiles
from repro.robustness.generator import ScenarioGenerator
from repro.scheduler.packed import PackedSlotSystem, unpack_words
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import instance_budgets
from repro.verification.kernel import CompiledStateGraph, PackedStateTable, hash_words

#: States after which a scenario's comparison stops (keeps the corpus fast).
STATE_CAP = 20_000


class ComposedGraph:
    """The per-level pipeline of the batch APIs, appended into lists."""

    def __init__(self, system: PackedSlotSystem) -> None:
        self.system = system
        self.table = PackedStateTable(system.packed_words)
        self.table.intern(system.pack_words([system.initial]))
        self.level_ptr = [0, 1]
        names = ("indptr", "succ_ids", "labels", "parent_ids", "parent_labels")
        self.parts = {name: [] for name in names}
        self.parts["indptr"].append(np.zeros(1, dtype=np.int64))
        self.transitions = 0
        self.error = None

    def expand_level(self, k: int) -> bool:
        """Compile level ``k``; False when it misses a deadline, keeping the
        minimal (parent, mask) witness of the level."""
        system = self.system
        first, last = self.level_ptr[k], self.level_ptr[k + 1]
        frontier = self.table.state_words[first:last]
        succ, events, origin = system.expand_frontier(frontier)
        masks = (events >> np.uint64(system._ev_admitted_shift)) & np.uint64(system.miss_field)
        missed = np.flatnonzero(events & np.uint64(system.miss_field))
        if missed.size:
            parents = unpack_words(frontier)
            self.error = min(
                (parents[origin[row]], int(masks[row]), unpack_words(succ[row : row + 1])[0])
                for row in missed.tolist()
            )
            return False
        ids, _, firsts = self.table.intern_dedup(succ)
        counts = np.bincount(origin, minlength=last - first)
        self.parts["indptr"].append(self.transitions + np.cumsum(counts))
        self.parts["succ_ids"].append(ids)
        self.parts["labels"].append(masks)
        self.parts["parent_ids"].append(first + origin[firsts])
        self.parts["parent_labels"].append(masks[firsts])
        self.transitions += succ.shape[0]
        if firsts.size:
            self.level_ptr.append(self.table.size)
        return True

    def arrays(self) -> dict:
        arrays = {
            name: np.concatenate(parts) if parts else np.zeros(0)
            for name, parts in self.parts.items()
        }
        arrays["states"] = self.table.state_words
        return arrays


def graph_arrays(graph: CompiledStateGraph) -> dict:
    return {
        "states": graph.table.state_words,
        "indptr": graph.indptr,
        "succ_ids": graph.successor_ids,
        "labels": graph.labels,
        "parent_ids": graph.parent_ids,
        "parent_labels": graph.parent_labels,
    }


def assert_same_arrays(graph: CompiledStateGraph, reference: ComposedGraph) -> None:
    expected = reference.arrays()
    for name, array in graph_arrays(graph).items():
        assert array.tolist() == expected[name].tolist(), name
    assert graph.level_ptr == reference.level_ptr


def compare_levels(graph: CompiledStateGraph, state_cap: int = STATE_CAP) -> ComposedGraph:
    """Compile ``graph`` level by level beside the composed pipeline."""
    reference = ComposedGraph(graph.system)
    k = 0
    while not graph.complete and graph.error is None and graph.state_count < state_cap:
        graph._expand_next_level()
        if not reference.expand_level(k):
            assert graph.error == reference.error and graph.error_level == k
        assert_same_arrays(graph, reference)
        k += 1
    return reference


def _scenario_configs():
    generator = ScenarioGenerator(2026)
    for index in range(100):
        scenario = generator.generate(index)
        config = SlotSystemConfig.from_profiles(scenario.profiles, scenario.effective_budget())
        if PackedSlotSystem(config).can_expand_frontier:
            yield index, config


def test_the_robustness_corpus_compiles_like_the_composed_pipeline():
    compared = errors = 0
    for _, config in _scenario_configs():
        graph = CompiledStateGraph(PackedSlotSystem(config))
        compare_levels(graph)
        compared += 1
        errors += graph.error is not None
    assert compared >= 90 and errors > 0  # the corpus reaches error levels too


class TestWideStates:
    def test_two_word_case_study_slot(self):
        profiles = paper_profiles()
        slot = [profiles[name] for name in ("C2", "C3", "C4", "C6")]
        system = PackedSlotSystem(SlotSystemConfig.from_profiles(slot, instance_budgets(slot)))
        assert system.packed_words == 2
        graph = CompiledStateGraph(system)
        compare_levels(graph, state_cap=60_000)
        assert graph.state_count > 1_000

    def test_three_word_configuration(self, monkeypatch):
        # The configuration of tests/scheduler/test_native_expand.py.
        monkeypatch.syspath_prepend(os.path.join(os.path.dirname(__file__), "..", "scheduler"))
        from test_expand_frontier import random_profiles

        profiles = random_profiles(np.random.default_rng(11), 6, wide=True)
        config = SlotSystemConfig.from_profiles(profiles, {p.name: 1 for p in profiles})
        system = PackedSlotSystem(config)
        assert system.packed_words == 3 and system.can_expand_frontier
        graph = CompiledStateGraph(system)
        compare_levels(graph)
        assert graph.state_count > 1_000


def _slot(*names, budgets=True):
    profiles = paper_profiles()
    slot = [profiles[name] for name in names]
    return SlotSystemConfig.from_profiles(slot, instance_budgets(slot) if budgets else None)


def test_a_table_that_rehashes_on_every_level():
    system = PackedSlotSystem(_slot("C1", "C5", "C4", "C3"))
    graph = CompiledStateGraph(system)
    graph.table = PackedStateTable(system.packed_words, initial_capacity=8)
    graph.table.intern(system.pack_words([system.initial]))
    capacities = {graph.table.capacity}
    reference = ComposedGraph(system)
    for k in range(12):
        graph._expand_next_level()
        reference.expand_level(k)
        assert_same_arrays(graph, reference)
        capacities.add(graph.table.capacity)
    assert len(capacities) >= 8
    # Every interned state is found again through the batch lookup.
    states = graph.table.state_words
    assert graph.table.lookup(states).tolist() == list(range(states.shape[0]))


def test_a_capped_exploration_stops_inside_a_level():
    config = _slot("C1", "C5", "C4", "C3")
    full = CompiledStateGraph(PackedSlotSystem(config))
    full.explore(5_000_000, with_parents=False)
    low, high = full.level_ptr[8], full.level_ptr[9]
    cap = (low + high) // 2
    capped = CompiledStateGraph(PackedSlotSystem(config))
    visited, levels, truncated, error, parents = capped.explore(cap, with_parents=True)
    assert (visited, truncated, error) == (cap, True, None)
    assert levels == full.explore(cap, with_parents=False)[1]
    assert len(parents) == cap - 1
    reference = ComposedGraph(capped.system)
    for k in range(capped.expanded_levels):
        reference.expand_level(k)
    assert_same_arrays(capped, reference)


def test_an_error_level_changes_nothing():
    graph = CompiledStateGraph(PackedSlotSystem(_slot("C1", "C5", "C4", "C6")))
    reference = ComposedGraph(graph.system)
    k = 0
    while True:
        before = {name: array.copy() for name, array in graph_arrays(graph).items()}
        size, level_ptr = graph.table.size, list(graph.level_ptr)
        graph._expand_next_level()
        if not reference.expand_level(k):
            break
        k += 1
    assert graph.error is not None and graph.error_level == k
    assert graph.error == reference.error
    assert graph.table.size == size and graph.level_ptr == level_ptr
    for name, array in graph_arrays(graph).items():
        assert array.tolist() == before[name].tolist(), name
    assert graph.expanded_levels == k + 1 and not graph.complete


@pytest.mark.parametrize(
    "words, expected",
    [
        (1, [0x22BFEB334B90D7AF, 0x3296A4690C4232D0, 0x6891A82F737BADEA, 0x675AEB042E0697DB]),
        (2, [0x9CF45729671E7E5D, 0x3D32704C1068CF0F, 0xF432DF655E2C2663, 0x45BDD264D3B86D99]),
        (3, [0xD1AE785A38D0B807, 0x4558C5A3A991CB9E, 0x288C9B20CD8C89C8, 0x730E65CED0EC5370]),
    ],
)
def test_hash_words_keeps_its_values(words, expected):
    """The probe hash, pinned to the values of the numpy implementation it
    replaced."""
    keys = np.array(
        [[0] * words, [1] * words, [2**64 - 1] * words,
         [(0x0123456789ABCDEF * (j + 1)) % 2**64 for j in range(words)]],
        dtype=np.uint64,
    )
    assert [int(value) for value in hash_words(keys)] == expected
