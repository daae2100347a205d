"""The native frontier expansion against per-state ``successors()``.

Covers what the randomized cases of ``test_expand_frontier.py`` reach only
by chance: a frontier whose block values are all unseen (the refill path —
unbounded S1's recovery clock gives every late level new block values), a
refilled level followed by a level that reuses those rows, the two-word
case-study slot and a synthetic three-word configuration with block fields
too wide for the dense row lookup.
"""

from __future__ import annotations

import numpy as np
import pytest

from test_expand_frontier import (
    assert_frontier_matches_successors,
    collect_states,
    random_profiles,
)

from repro.casestudy import paper_profiles
from repro.scheduler.packed import PackedSlotSystem, unpack_words
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import instance_budgets
from repro.verification.kernel import compiled_graph_for


@pytest.fixture(scope="module")
def unbounded_s1_levels():
    """Config and last three BFS levels (packed ints) of unbounded S1."""
    profiles = paper_profiles()
    config = SlotSystemConfig.from_profiles(
        tuple(profiles[name] for name in ("C1", "C5", "C4", "C3"))
    )
    graph = compiled_graph_for(PackedSlotSystem(config))
    graph.explore(5_000_000, with_parents=False)
    bounds = list(zip(graph.level_ptr, graph.level_ptr[1:]))[-3:]
    return config, [graph.states_as_ints(low, high) for low, high in bounds]


def _known_blocks(system):
    return [len(rows) for rows in system._frontier_expander()._row_of]


class TestRefill:
    def test_late_level_with_only_unseen_blocks(self, unbounded_s1_levels):
        config, levels = unbounded_s1_levels
        system = PackedSlotSystem(config)  # its block tables start empty
        assert _known_blocks(system) == [0, 0, 0, 0]
        frontier = levels[-2][:3000]
        assert_frontier_matches_successors(system, frontier)
        assert min(_known_blocks(system)) > 0

    def test_refilled_rows_serve_the_next_level(self, unbounded_s1_levels):
        config, levels = unbounded_s1_levels
        system = PackedSlotSystem(config)
        first = levels[-3][:3000]
        assert_frontier_matches_successors(system, first)
        known = _known_blocks(system)
        again = system.expand_frontier(system.pack_words(first))
        assert _known_blocks(system) == known  # nothing new: rows reused
        assert unpack_words(again[0]) == [
            succ for state in first for _, succ, _ in system.successors(state)
        ]
        assert_frontier_matches_successors(system, levels[-2][:3000])


class TestWideStates:
    def test_two_word_case_study_slot(self):
        profiles = paper_profiles()
        slot = [profiles[name] for name in ("C2", "C3", "C4", "C6")]
        config = SlotSystemConfig.from_profiles(slot, instance_budgets(slot))
        system = PackedSlotSystem(config)
        assert system.packed_words == 2 and system.can_expand_frontier
        assert_frontier_matches_successors(system, collect_states(system, cap=3000))

    def test_three_word_configuration(self):
        rng = np.random.default_rng(11)
        profiles = random_profiles(rng, 6, wide=True)
        config = SlotSystemConfig.from_profiles(profiles, {p.name: 1 for p in profiles})
        system = PackedSlotSystem(config)
        assert system.packed_words == 3 and system.can_expand_frontier
        expander = system._frontier_expander()
        assert any(dense is None for dense in expander._dense)  # sorted lookup
        assert_frontier_matches_successors(system, collect_states(system, cap=1500))
