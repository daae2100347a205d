"""Tests for the slot-schedule simulator and the baseline analysis of [9]."""

from __future__ import annotations

import pytest

from repro.control.disturbance import DisturbanceTrace
from repro.exceptions import SchedulingError
from repro.scheduler.baseline import (
    BaselineSchedulabilityAnalysis,
    BaselineStrategy,
    BaselineTask,
    dimension_baseline,
    task_from_profile,
)
from repro.scheduler.simulator import SlotScheduleSimulator
from repro.switching.profile import SwitchingProfile


class TestSimulator:
    def test_fig8_scenario(self, case_study_profiles):
        """Slot S1: all four applications meet their requirements; C3 keeps the
        slot for its full maximum dwell because nobody preempts it."""
        names = ("C1", "C5", "C4", "C3")
        simulator = SlotScheduleSimulator([case_study_profiles[n] for n in names])
        trace = DisturbanceTrace.simultaneous(names, 0)
        result = simulator.run(trace, 60)
        assert result.schedulable
        outcomes = {o.application: o for o in result.outcomes}
        assert outcomes["C1"].wait == 0 and outcomes["C1"].preempted
        assert outcomes["C3"].preempted is False
        assert outcomes["C3"].dwell == case_study_profiles["C3"].max_dwell(outcomes["C3"].wait)
        for name in names:
            profile = case_study_profiles[name]
            outcome = outcomes[name]
            assert outcome.wait <= profile.max_wait
            assert outcome.dwell >= profile.min_dwell(outcome.wait)

    def test_fig9_scenario(self, case_study_profiles):
        """Slot S2: C2 uses exactly 10 TT samples (paper: J = J_T with 10 samples)."""
        simulator = SlotScheduleSimulator([case_study_profiles["C6"], case_study_profiles["C2"]])
        trace = DisturbanceTrace.from_arrivals([("C2", 0), ("C6", 10)])
        result = simulator.run(trace, 60)
        assert result.schedulable
        assert result.tt_samples_used("C2") == 10
        assert result.tt_samples_used("C6") == case_study_profiles["C6"].max_dwell(0)

    def test_occupancy_and_grants_consistent(self, case_study_profiles):
        names = ("C1", "C5")
        simulator = SlotScheduleSimulator([case_study_profiles[n] for n in names])
        result = simulator.run(DisturbanceTrace.simultaneous(names, 0), 40)
        for name in names:
            for sample in result.grants[name]:
                assert result.occupancy[sample] == name
        occupied = sum(1 for occupant in result.occupancy if occupant is not None)
        assert occupied == sum(len(result.grants[name]) for name in names)

    def test_mode_sequence_matches_grants(self, case_study_profiles):
        simulator = SlotScheduleSimulator([case_study_profiles["C1"]])
        result = simulator.run(DisturbanceTrace.simultaneous(["C1"], 0), 30)
        modes = result.mode_sequence("C1")
        assert [i for i, mode in enumerate(modes) if mode == "TT"] == list(result.grants["C1"])

    def test_unknown_application_rejected(self, case_study_profiles):
        simulator = SlotScheduleSimulator([case_study_profiles["C1"]])
        with pytest.raises(SchedulingError):
            simulator.run(DisturbanceTrace.simultaneous(["C9"], 0), 30)

    def test_horizon_must_cover_trace(self, case_study_profiles):
        simulator = SlotScheduleSimulator([case_study_profiles["C1"]])
        with pytest.raises(SchedulingError):
            simulator.run(DisturbanceTrace.simultaneous(["C1"], 50), 30)

    def test_deadline_miss_detected_for_overloaded_slot(self, case_study_profiles):
        """All six applications on one slot with simultaneous disturbances
        cannot all make their deadlines."""
        profiles = list(case_study_profiles.values())
        simulator = SlotScheduleSimulator(profiles)
        trace = DisturbanceTrace.simultaneous(list(case_study_profiles), 0)
        result = simulator.run(trace, 120)
        assert not result.schedulable
        assert result.deadline_misses

    def test_repeated_disturbances(self, case_study_profiles):
        profile = case_study_profiles["C1"]
        simulator = SlotScheduleSimulator([profile])
        trace = DisturbanceTrace.from_arrivals([("C1", 0), ("C1", profile.min_inter_arrival + 1)])
        result = simulator.run(trace, 80)
        assert result.schedulable
        assert len(result.outcomes_for("C1")) == 2


class TestBaselineAnalysis:
    def test_task_from_profile(self, case_study_profiles):
        task = task_from_profile(case_study_profiles["C1"])
        assert task.occupation == 9
        assert task.deadline == 11
        assert task.min_inter_arrival == 25

    def test_task_from_profile_requires_jt(self):
        profile = SwitchingProfile.from_arrays("X", 10, 20, [2], [3])
        with pytest.raises(SchedulingError):
            task_from_profile(profile)

    def test_task_validation(self):
        with pytest.raises(SchedulingError):
            BaselineTask("X", occupation=0, deadline=5, min_inter_arrival=10)
        with pytest.raises(SchedulingError):
            BaselineTask("X", occupation=1, deadline=5, min_inter_arrival=0)

    def test_single_task_always_schedulable(self):
        analysis = BaselineSchedulabilityAnalysis()
        task = BaselineTask("X", occupation=5, deadline=6, min_inter_arrival=20)
        assert analysis.is_schedulable([task])

    def test_blocking_makes_pair_unschedulable(self):
        analysis = BaselineSchedulabilityAnalysis()
        high = BaselineTask("H", occupation=3, deadline=4, min_inter_arrival=50)
        low = BaselineTask("L", occupation=6, deadline=10, min_inter_arrival=50)
        responses = {r.name: r for r in analysis.analyze_slot([high, low])}
        assert responses["H"].worst_wait == 6  # blocked by the long low-priority job
        assert not responses["H"].schedulable

    def test_equal_deadlines_are_pessimistic(self):
        analysis = BaselineSchedulabilityAnalysis()
        a = BaselineTask("A", occupation=4, deadline=6, min_inter_arrival=50)
        b = BaselineTask("B", occupation=4, deadline=6, min_inter_arrival=50)
        responses = {r.name: r for r in analysis.analyze_slot([a, b])}
        # Each sees the other both as blocker and as interference: 4 + 4 = 8 > 6.
        assert all(not response.schedulable for response in responses.values())

    def test_priority_order(self):
        analysis = BaselineSchedulabilityAnalysis()
        tasks = [
            BaselineTask("A", 3, 9, 30),
            BaselineTask("B", 3, 5, 30),
        ]
        assert [task.name for task in analysis.priority_order(tasks)] == ["B", "A"]

    def test_delayed_request_reduces_blocking(self):
        analysis = BaselineSchedulabilityAnalysis(BaselineStrategy.DELAYED_REQUEST)
        high = BaselineTask("H", occupation=3, deadline=4, min_inter_arrival=50)
        low = BaselineTask("L", occupation=6, deadline=20, min_inter_arrival=50, request_delay=4)
        responses = {r.name: r for r in analysis.analyze_slot([high, low])}
        assert responses["H"].worst_wait == 2
        assert responses["H"].schedulable

    def test_both_strategies_need_four_slots(self, case_study_profiles):
        for strategy in BaselineStrategy:
            assert dimension_baseline(case_study_profiles, strategy).slot_count == 4

    def test_explicit_order(self, case_study_profiles):
        result = dimension_baseline(case_study_profiles, order=list(case_study_profiles))
        assert result.slot_count >= 4

    def test_unknown_order_entry_rejected(self, case_study_profiles):
        with pytest.raises(SchedulingError):
            dimension_baseline(case_study_profiles, order=["C1", "C9"])
