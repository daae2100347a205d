"""Equivalence tests: the packed transition system vs the tuple semantics.

The tuple-based :func:`repro.scheduler.slot_system.advance` is the single
source of truth; the bit-packed mirror in :mod:`repro.scheduler.packed` must
agree with it on *every* reachable state and *every* admissible arrival
subset.  These tests enumerate the full reachable state space of small
(2- and 3-application) systems, with and without instance budgets, and
cross-check round-trips, successors and events exhaustively.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import computed_profiles, paper_profiles
from repro.dimensioning.first_fit import dimension_with_verification
from repro.exceptions import SchedulingError
from repro.scheduler.packed import PackedSlotSystem, advance_packed, packed_system_for
from repro.scheduler.slot_system import (
    SlotSystemConfig,
    advance,
    initial_state,
    steady_applications,
)
from repro.switching.profile import SwitchingProfile
from repro.verification.acceleration import instance_budgets
from repro.verification.exhaustive import ExhaustiveVerifier


def _tight_profile():
    return SwitchingProfile.from_arrays(
        name="C",
        requirement_samples=8,
        min_inter_arrival=30,
        min_dwell=[4, 4],
        max_dwell=[6, 6],
    )


def _eligible(config, state):
    return [
        index
        for index in steady_applications(config, state)
        if config.instance_budget[index] is None
        or state.instances_used[index] < config.instance_budget[index]
    ]


def _reachable_states(config, include_errors=False):
    """BFS enumeration of the reachable state space via the tuple semantics."""
    root = initial_state(config)
    seen = {root}
    queue = deque([root])
    while queue:
        state = queue.popleft()
        yield state
        eligible = _eligible(config, state)
        for size in range(len(eligible) + 1):
            for arrivals in combinations(eligible, size):
                successor, events = advance(config, state, arrivals)
                if events.has_error and not include_errors:
                    continue
                if successor not in seen:
                    seen.add(successor)
                    queue.append(successor)


def _configs(small_profile, second_small_profile):
    pair = (small_profile, second_small_profile)
    trio = pair + (_tight_profile(),)
    return [
        SlotSystemConfig.from_profiles(pair),
        SlotSystemConfig.from_profiles(pair, {"A": 2, "B": 1}),
        SlotSystemConfig.from_profiles(trio),
        SlotSystemConfig.from_profiles(trio, {"A": 2, "B": 2, "C": 1}),
    ]


class TestPackedRoundTrip:
    def test_initial_state_is_all_zero(self, small_profile, second_small_profile):
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        system = PackedSlotSystem(config)
        assert system.initial == system.encode(initial_state(config))

    def test_decode_encode_roundtrip_on_every_reachable_state(
        self, small_profile, second_small_profile
    ):
        for config in _configs(small_profile, second_small_profile):
            system = PackedSlotSystem(config)
            count = 0
            for state in _reachable_states(config):
                packed = system.encode(state)
                assert system.decode(packed) == state
                assert system.encode(system.decode(packed)) == packed
                count += 1
            assert count > 100  # the enumeration actually explored something

    def test_encode_rejects_wrong_arity(self, small_profile, second_small_profile):
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        system = PackedSlotSystem(config)
        lone = initial_state(SlotSystemConfig.from_profiles((small_profile,)))
        with pytest.raises(SchedulingError):
            system.encode(lone)


class TestPackedTransitionEquivalence:
    def test_packed_and_tuple_advance_agree_exhaustively(
        self, small_profile, second_small_profile
    ):
        """Every reachable state x every arrival subset: identical successor
        state and identical observable events (including deadline misses)."""
        for config in _configs(small_profile, second_small_profile):
            system = PackedSlotSystem(config)
            transitions = 0
            for state in _reachable_states(config):
                packed = system.encode(state)
                eligible = _eligible(config, state)
                assert system.indices_of_mask(system.eligible_mask(packed)) == tuple(eligible)
                by_mask = {mask: (succ, bits) for mask, succ, bits in system.successors(packed)}
                expected_masks = set()
                ordered_masks = []
                for size in range(len(eligible) + 1):
                    for arrivals in combinations(eligible, size):
                        ordered_masks.append(system.arrival_mask(arrivals))
                # The cached subset table must reproduce the seed verifier's
                # itertools.combinations enumeration order exactly.
                assert system.arrival_subsets(system.eligible_mask(packed)) == tuple(ordered_masks)
                for size in range(len(eligible) + 1):
                    for arrivals in combinations(eligible, size):
                        mask = system.arrival_mask(arrivals)
                        expected_masks.add(mask)
                        successor, events = advance(config, state, arrivals)
                        packed_successor, event_bits = by_mask[mask]
                        assert packed_successor == system.encode(successor)
                        assert system.events_from_bits(event_bits) == events
                        # The single-step API must agree with the batch.
                        assert system.advance_packed(packed, mask) == (
                            packed_successor,
                            event_bits,
                        )
                        transitions += 1
                assert set(by_mask) == expected_masks
            assert transitions > 200

    def test_miss_bit_matches_has_error(self, small_profile, second_small_profile):
        """`event_bits & miss_field` is non-zero exactly for error steps."""
        config = SlotSystemConfig.from_profiles(
            (small_profile, second_small_profile, _tight_profile())
        )
        system = PackedSlotSystem(config)
        misses = 0
        for state in _reachable_states(config):
            packed = system.encode(state)
            for mask, _, event_bits in system.successors(packed):
                arrivals = system.indices_of_mask(mask)
                _, events = advance(config, state, arrivals)
                assert bool(event_bits & system.miss_field) == events.has_error
                misses += bool(events.has_error)
        assert misses > 0  # the tight profile does produce deadline misses

    def test_module_level_advance_packed(self, small_profile, second_small_profile):
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        system = packed_system_for(config)
        successor, _ = advance_packed(config, system.initial, 0b01)
        expected, _ = advance(config, initial_state(config), (0,))
        assert system.decode(successor) == expected


@st.composite
def _random_profile(draw, name):
    max_wait = draw(st.integers(0, 40))
    min_dwell = draw(st.lists(st.integers(1, 30), min_size=max_wait + 1, max_size=max_wait + 1))
    max_dwell = [low + draw(st.integers(0, 40)) for low in min_dwell]
    requirement = draw(st.integers(1, 60))
    return SwitchingProfile.from_arrays(
        name=name,
        requirement_samples=requirement,
        min_inter_arrival=requirement + draw(st.integers(1, 600)),
        min_dwell=min_dwell,
        max_dwell=max_dwell,
    )


@st.composite
def _random_config(draw):
    count = draw(st.integers(1, 4))
    profiles = [draw(_random_profile(f"P{i}")) for i in range(count)]
    budgets = {
        profile.name: draw(st.integers(1, 9))
        for profile in profiles
        if draw(st.booleans())
    }
    return SlotSystemConfig.from_profiles(profiles, budgets)


class TestFieldWidths:
    """Each packed field is the narrowest width that holds every value."""

    @settings(max_examples=60, deadline=None)
    @given(config=_random_config())
    def test_fields_hold_their_largest_values_and_no_more(self, config):
        system = PackedSlotSystem(config)
        for i, profile in enumerate(config.profiles):
            # Waits reach max_wait + 1 at a miss and saturate at the mask
            # after it; recovery clocks stay below r.
            c1_need = max(2 * (profile.max_wait + 1) - 1, profile.min_inter_arrival - 1)
            # The advanced dwell c2 + 1 reaches the max dwell at release.
            c2_need = max(profile.worst_max_dwell, 1)
            assert system._c1_mask[i] >= c1_need
            assert system._c2_mask[i] >= profile.worst_max_dwell
            assert system._c1_mask[i] >> 1 < c1_need
            assert system._c2_mask[i] >> 1 < c2_need

    def test_case_study_slots_fit_one_word(self):
        """Every slot the dimensioning flow and the S1 questions verify runs
        the single-word kernel path."""
        computed = computed_profiles()
        partition = (("C1", "C5", "C4", "C3"), ("C6", "C2"))
        tried = []

        def admit(candidate):
            names = [profile.name for profile in candidate]
            tried.append(candidate)
            return any(set(names) <= set(slot) for slot in partition)

        outcome = dimension_with_verification(computed, admission_test=admit)
        assert outcome.partition() == partition
        assert len(tried) == 6
        paper = paper_profiles()
        s1 = [paper[name] for name in ("C1", "C5", "C4", "C3")]
        witness = [paper[name] for name in ("C1", "C5", "C4", "C6")]
        configs = [
            SlotSystemConfig.from_profiles(slot, instance_budgets(slot))
            for slot in tried + [s1, witness]
        ]
        configs.append(SlotSystemConfig.from_profiles(s1))
        for config in configs:
            assert PackedSlotSystem(config).packed_words == 1, config.names


class TestPostMissSaturation:
    """Replaying an infeasible schedule far past the miss must not corrupt
    the packed fields: waits saturate instead of wrapping, so occupancy and
    reported misses keep matching the tuple semantics."""

    def test_long_overdue_wait_keeps_observables_equivalent(self):
        hog = SwitchingProfile.from_arrays(
            name="A",
            requirement_samples=10,
            min_inter_arrival=500,
            min_dwell=[400],
            max_dwell=[400],
        )
        victim = SwitchingProfile.from_arrays(
            name="B",
            requirement_samples=10,
            min_inter_arrival=20,
            min_dwell=[2, 2],
            max_dwell=[3, 3],
        )
        config = SlotSystemConfig.from_profiles((hog, victim))
        system = PackedSlotSystem(config)
        a, b = config.index_of("A"), config.index_of("B")

        state = initial_state(config)
        packed = system.initial
        horizon = 120  # far beyond the wait field's saturation point
        for sample in range(horizon):
            arrivals = (a,) if sample == 0 else (b,) if sample == 1 else ()
            state, events = advance(config, state, arrivals)
            packed, event_bits = system.advance_packed(packed, system.arrival_mask(arrivals))
            packed_events = system.events_from_bits(event_bits)
            # B misses its deadline and stays overdue forever; the raw wait
            # counters diverge once the packed field saturates, but every
            # observable (occupant, grants, misses) must stay identical.
            assert packed_events.deadline_misses == events.deadline_misses
            assert packed_events.granted == events.granted
            assert system.occupant_of(packed) == state.occupant
            decoded = system.decode(packed)
            assert decoded.buffer == state.buffer
            assert decoded.phases[b][0] == state.phases[b][0]
        assert state.phases[b][0] == "W"
        assert state.phases[b][1] > system._c1_mask[b]  # tuple wait outgrew the field


class TestSimulatorReplayEquivalence:
    """`SlotScheduleSimulator.run` (packed fast path + tuple fallback after a
    miss) must reproduce the tuple-semantics observables on arbitrary legal
    traces, including infeasible replays far past the first deadline miss."""

    def test_fuzzed_traces_match_tuple_reference(self):
        import random

        from repro.control.disturbance import DisturbanceTrace
        from repro.scheduler.simulator import SlotScheduleSimulator

        rng = random.Random(42)
        infeasible_replays = 0
        for _ in range(25):
            count = rng.randint(2, 4)
            profiles = []
            for i in range(count):
                max_wait = rng.randint(0, 6)
                low = rng.randint(1, 3)
                profiles.append(
                    SwitchingProfile.from_arrays(
                        f"P{i}",
                        5,
                        rng.randint(6, 40),
                        [low] * (max_wait + 1),
                        [low + rng.randint(0, 3)] * (max_wait + 1),
                    )
                )
            config = SlotSystemConfig.from_profiles(profiles)
            names = config.names
            horizon = 160
            # Legal arrival schedule (arrivals only in steady phases).
            state = initial_state(config)
            arrivals_per_sample = []
            for _ in range(horizon):
                steady = [i for i in range(count) if state.phases[i][0] == "S"]
                arrivals = sorted(rng.sample(steady, rng.randint(0, len(steady))))
                arrivals_per_sample.append(arrivals)
                state, _ = advance(config, state, arrivals)
            # Reference observables via the tuple semantics.
            state = initial_state(config)
            reference_occupancy = []
            reference_misses = set()
            for arrivals in arrivals_per_sample:
                state, events = advance(config, state, arrivals)
                reference_occupancy.append(
                    None if state.occupant < 0 else names[state.occupant]
                )
                reference_misses.update(names[i] for i in events.deadline_misses)
            trace = DisturbanceTrace.from_arrivals(
                [(names[i], k) for k, arrivals in enumerate(arrivals_per_sample) for i in arrivals]
            )
            result = SlotScheduleSimulator(profiles).run(trace, horizon)
            assert tuple(result.occupancy) == tuple(reference_occupancy)
            assert set(result.deadline_misses) == reference_misses
            infeasible_replays += bool(reference_misses)
        assert infeasible_replays > 5  # the fallback path really ran


class TestAdvancePackedValidation:
    def test_arrival_outside_system_rejected(self, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        system = PackedSlotSystem(config)
        with pytest.raises(SchedulingError):
            system.advance_packed(system.initial, 0b10)

    def test_arrival_in_non_steady_phase_rejected(self, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        system = PackedSlotSystem(config)
        packed, _ = system.advance_packed(system.initial, 0b1)
        with pytest.raises(SchedulingError):
            system.advance_packed(packed, 0b1)

    def test_budget_exhaustion_rejected(self, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,), {"A": 1})
        system = PackedSlotSystem(config)
        packed, _ = system.advance_packed(system.initial, 0b1)
        # Drain until the application is Done (budget 1 -> no second arrival).
        for _ in range(100):
            packed, _ = system.advance_packed(packed, 0)
        with pytest.raises(SchedulingError):
            system.advance_packed(packed, 0b1)


class TestVerifierParity:
    """The packed BFS must reproduce the tuple-level search exactly."""

    def _reference_bfs(self, config, max_states=5_000_000):
        root = initial_state(config)
        visited = {root}
        queue = deque([root])
        feasible = True
        while queue:
            state = queue.popleft()
            eligible = _eligible(config, state)
            stop = False
            for size in range(len(eligible) + 1):
                for arrivals in combinations(eligible, size):
                    successor, events = advance(config, state, arrivals)
                    if events.has_error:
                        feasible = False
                        stop = True
                        break
                    if successor in visited:
                        continue
                    visited.add(successor)
                    queue.append(successor)
                if stop:
                    break
            if stop:
                break
        return feasible, len(visited)

    @pytest.mark.parametrize("budget", [None, {"A": 2, "B": 1}])
    def test_feasible_pair_counts_match(self, small_profile, second_small_profile, budget):
        profiles = [small_profile, second_small_profile]
        result = ExhaustiveVerifier(profiles, budget).verify(with_counterexample=False)
        config = SlotSystemConfig.from_profiles(profiles, budget)
        feasible, states = self._reference_bfs(config)
        assert result.feasible == feasible is True
        assert result.explored_states == states

    def test_infeasible_trio_matches_reference(self, small_profile, second_small_profile):
        profiles = [small_profile, second_small_profile, _tight_profile()]
        # Pinned to the sequential engine: its stop-at-first-error count is
        # what the tuple-level reference BFS reproduces (parallel engines
        # finish the BFS level and report a different — still valid — count).
        result = ExhaustiveVerifier(profiles, engine="sequential").verify()
        config = SlotSystemConfig.from_profiles(profiles)
        feasible, states = self._reference_bfs(config)
        assert result.feasible == feasible is False
        assert result.explored_states == states
        assert result.counterexample
        assert result.counterexample[-1].missed
