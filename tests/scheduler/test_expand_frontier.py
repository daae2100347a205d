"""Frontier-level equivalence tests for the native expansion kernel.

``PackedSlotSystem.expand_frontier`` must reproduce the memoized per-state
``successors()`` expansion *exactly* — successor states, full event bit
fields and transition order — because the compiled-kernel and sequential
engines both run on it while ``successors()`` (itself cross-checked
against the tuple semantics in ``test_packed_state.py``) stays the
reference.  Covered here: randomized configurations, instance budgets,
multi-word (>64-bit) states, collision-heavy arrival subsets (many
simultaneously eligible applications) and the word-level successor tables
of configurations the kernel cannot expand.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import SchedulingError
from repro.scheduler.packed import PackedSlotSystem, unpack_words
from repro.scheduler.slot_system import SlotSystemConfig
from repro.switching.profile import SwitchingProfile


def random_profiles(rng: np.random.Generator, count: int, wide: bool = False):
    """Random well-formed switching profiles (``wide`` inflates counters so
    the packed state exceeds 64 bits)."""
    profiles = []
    for i in range(count):
        max_wait = int(rng.integers(1, 5))
        min_dwell = [int(rng.integers(1, 4)) for _ in range(max_wait + 1)]
        max_dwell = [lo + int(rng.integers(0, 3)) for lo in min_dwell]
        requirement = int(rng.integers(2, 12))
        # The sporadic model requires J* < r.
        inter = requirement + int(rng.integers(2, 20))
        if wide:
            inter = int(rng.integers(50_000, 100_000))
        profiles.append(
            SwitchingProfile.from_arrays(
                name=f"R{i}",
                requirement_samples=requirement,
                min_inter_arrival=inter,
                min_dwell=min_dwell,
                max_dwell=max_dwell,
            )
        )
    return profiles


def collect_states(system: PackedSlotSystem, cap: int = 2500):
    """BFS state sample in discovery order (never expanding past a miss)."""
    visited = {system.initial}
    frontier = [system.initial]
    states = [system.initial]
    while frontier and len(states) < cap:
        next_frontier = []
        for state in frontier:
            for _, succ, events in system.successors(state):
                if events & system.miss_field:
                    continue
                if succ not in visited:
                    visited.add(succ)
                    states.append(succ)
                    next_frontier.append(succ)
        frontier = next_frontier
    return states[:cap]


def assert_frontier_matches_successors(system: PackedSlotSystem, states):
    """The kernel's output must equal the concatenated successors() lists."""
    word_matrix = system.pack_words(states)
    succ_words, events, origin = system.expand_frontier(word_matrix)
    succ_ints = unpack_words(succ_words)
    events_list = events.tolist()
    origin_list = origin.tolist()
    admitted_shift = system._ev_admitted_shift

    cursor = 0
    for index, state in enumerate(states):
        for mask, succ, event_bits in system.successors(state):
            assert origin_list[cursor] == index
            assert succ_ints[cursor] == succ
            assert events_list[cursor] == event_bits
            assert (events_list[cursor] >> admitted_shift) & system.miss_field == mask
            cursor += 1
    assert cursor == len(succ_ints)


class TestExpandFrontierEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_randomized_configs_match_successors(self, seed):
        rng = np.random.default_rng(seed)
        count = int(rng.integers(2, 5))
        profiles = random_profiles(rng, count)
        budget = None
        if rng.integers(0, 2):
            budget = {p.name: int(rng.integers(1, 4)) for p in profiles}
        config = SlotSystemConfig.from_profiles(profiles, budget)
        system = PackedSlotSystem(config)
        assert system.can_expand_frontier
        states = collect_states(system)
        assert len(states) > 50
        assert_frontier_matches_successors(system, states)

    def test_small_fixture_systems(self, small_profile, second_small_profile):
        config = SlotSystemConfig.from_profiles(
            (small_profile, second_small_profile), {"A": 2, "B": 1}
        )
        system = PackedSlotSystem(config)
        assert_frontier_matches_successors(system, collect_states(system))

    def test_infeasible_system_reports_misses(
        self, small_profile, second_small_profile, tight_profile
    ):
        """Transitions into deadline misses carry the exact miss event bits."""
        config = SlotSystemConfig.from_profiles(
            (small_profile, second_small_profile, tight_profile)
        )
        system = PackedSlotSystem(config)
        states = collect_states(system, cap=1500)
        assert_frontier_matches_successors(system, states)
        _, events, _ = system.expand_frontier(system.pack_words(states))
        assert (events & np.uint64(system.miss_field)).any()

    def test_multiword_states(self):
        """States wider than one 64-bit word expand identically."""
        rng = np.random.default_rng(42)
        profiles = random_profiles(rng, 3, wide=True)
        config = SlotSystemConfig.from_profiles(
            profiles, {p.name: 1 for p in profiles}
        )
        system = PackedSlotSystem(config)
        assert system.packed_words > 1
        assert_frontier_matches_successors(system, collect_states(system, cap=1200))

    def test_collision_heavy_arrival_subsets(self):
        """A state with every application eligible expands all 2^n subsets
        (the worst case of the arrival-subset lookup table)."""
        rng = np.random.default_rng(7)
        profiles = random_profiles(rng, 4)
        system = PackedSlotSystem(SlotSystemConfig.from_profiles(profiles))
        root = system.initial
        _, events, origin = system.expand_frontier(system.pack_words([root]))
        assert origin.shape[0] == 2 ** len(profiles)
        admitted = (events >> np.uint64(system._ev_admitted_shift)) & np.uint64(
            system.miss_field
        )
        assert sorted(admitted.tolist()) == sorted(
            system.arrival_subsets(system.eligible_mask(root))
        )
        assert_frontier_matches_successors(system, [root])

    def test_duplicate_states_in_one_frontier(self, small_profile):
        """The kernel is stateless: duplicated rows expand independently."""
        system = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        states = [system.initial, system.initial, system.initial]
        assert_frontier_matches_successors(system, states)

    def test_empty_frontier(self, small_profile):
        system = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        succ_words, events, origin = system.expand_frontier(
            np.zeros((0, system.packed_words), dtype=np.uint64)
        )
        assert succ_words.shape == (0, system.packed_words)
        assert events.shape == (0,)
        assert origin.shape == (0,)


class TestSuccessorTableFronts:
    def test_events_from_bits_round_trip(self, small_profile, second_small_profile):
        """Vectorized event fields decode into the tuple-based StepEvents."""
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        system = PackedSlotSystem(config)
        states = collect_states(system, cap=150)
        _, events, _ = system.expand_frontier(system.pack_words(states))
        cursor = 0
        for state in states:
            for mask, _, event_bits in system.successors(state):
                decoded = system.events_from_bits(int(events[cursor]))
                reference = system.events_from_bits(event_bits)
                assert decoded == reference
                assert decoded.admitted == system.indices_of_mask(mask)
                cursor += 1


class TestExpanderGuards:
    def test_wide_configuration_falls_back(
        self, small_profile, second_small_profile, tight_profile, monkeypatch
    ):
        """Configurations rejected by the kernel raise from expand_frontier
        but keep working through successor_tables_words_origin, whose rows
        then come from successors(): one-word states with misses and
        multi-word states."""
        wide = random_profiles(np.random.default_rng(42), 3, wide=True)
        configs = [
            SlotSystemConfig.from_profiles(
                (small_profile, second_small_profile, tight_profile)
            ),
            SlotSystemConfig.from_profiles(wide, {p.name: 1 for p in wide}),
        ]
        saw_miss = False
        for config in configs:
            system = PackedSlotSystem(config)
            states = collect_states(system, cap=300)
            monkeypatch.setattr(system._frontier_expander(), "ok", False)
            assert not system.can_expand_frontier
            with pytest.raises(SchedulingError):
                system.expand_frontier(system.pack_words(states))
            indptr, succ, masks, miss, origin = (
                system.successor_tables_words_origin(system.pack_words(states))
            )
            assert succ.shape[1] == system.packed_words
            succ_ints = unpack_words(succ)
            row = 0
            for index, state in enumerate(states):
                assert indptr[index] == row
                for mask, successor, event_bits in system.successors(state):
                    assert succ_ints[row] == successor
                    assert masks[row] == mask
                    assert miss[row] == bool(event_bits & system.miss_field)
                    assert origin[row] == index
                    row += 1
            assert indptr[-1] == row == len(succ_ints)
            saw_miss |= bool(miss.any())
        assert system.packed_words > 1
        assert saw_miss
