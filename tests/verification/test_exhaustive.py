"""Tests for the exhaustive shared-slot verifier and the acceleration bounds."""

from __future__ import annotations

import pytest

from repro.exceptions import VerificationError
from repro.verification.acceleration import (
    busy_window,
    describe_budgets,
    instance_budgets,
    interference_horizon,
)
from repro.verification.exhaustive import ExhaustiveVerifier, verify_slot_sharing


class TestAcceleration:
    def test_busy_window(self, small_profile):
        assert busy_window(small_profile) == small_profile.max_wait + small_profile.worst_max_dwell

    def test_interference_horizon(self, small_profile, second_small_profile):
        horizon = interference_horizon([small_profile, second_small_profile])
        assert horizon == max(busy_window(small_profile), busy_window(second_small_profile)) + max(
            small_profile.max_wait, second_small_profile.max_wait
        ) + 1

    def test_budgets_at_least_minimum(self, case_study_profiles):
        budgets = instance_budgets(list(case_study_profiles.values()), minimum=1)
        assert all(budget >= 1 for budget in budgets.values())

    def test_budgets_shrink_with_long_inter_arrival(self, case_study_profiles):
        budgets = instance_budgets([case_study_profiles["C6"], case_study_profiles["C2"]])
        assert budgets == {"C6": 1, "C2": 1}

    def test_budgets_for_slot1(self, case_study_profiles):
        names = ["C1", "C5", "C4", "C3"]
        budgets = instance_budgets([case_study_profiles[n] for n in names])
        assert budgets["C1"] >= 2 and budgets["C5"] >= 2
        assert budgets["C3"] >= 1

    def test_describe(self):
        assert describe_budgets({"A": 1, "B": 2}) == "{A:1, B:2}"


class TestExhaustiveVerifier:
    def test_single_application_always_feasible(self, small_profile):
        result = verify_slot_sharing([small_profile])
        assert result.feasible
        assert result.applications == ("A",)
        assert not result.truncated
        assert bool(result)

    def test_two_compatible_profiles(self, small_profile, second_small_profile):
        result = verify_slot_sharing([small_profile, second_small_profile])
        assert result.feasible

    def test_incompatible_profiles_give_counterexample(
        self, small_profile, second_small_profile, tight_profile
    ):
        result = verify_slot_sharing([small_profile, second_small_profile, tight_profile])
        assert not result.feasible
        assert result.counterexample
        last = result.counterexample[-1]
        assert last.missed

    def test_minimized_counterexample_trims_stutter_steps(
        self, small_profile, second_small_profile, tight_profile
    ):
        full = verify_slot_sharing([small_profile, second_small_profile, tight_profile])
        minimized = full.minimize()
        assert not minimized.feasible
        assert minimized.counterexample
        # Strictly shorter: a BFS witness always contains pure-waiting steps.
        assert len(minimized.counterexample) < len(full.counterexample)
        # Every step with information survives: arrivals, misses, occupancy
        # changes; the final miss step is always retained.
        kept_samples = {step.sample for step in minimized.counterexample}
        previous_occupant = None
        for step in full.counterexample:
            if step.arrivals or step.missed or step.occupant != previous_occupant:
                assert step.sample in kept_samples
            previous_occupant = step.occupant
        assert minimized.counterexample[-1] == full.counterexample[-1]
        assert minimized.counterexample[-1].missed
        # Sample indices stay the originals (strictly increasing).
        samples = [step.sample for step in minimized.counterexample]
        assert samples == sorted(samples)
        # Everything else about the result is untouched.
        assert minimized.explored_states == full.explored_states

    def test_minimize_flag_on_verify(self, small_profile, second_small_profile, tight_profile):
        profiles = [small_profile, second_small_profile, tight_profile]
        full = verify_slot_sharing(profiles)
        minimized = verify_slot_sharing(profiles, minimize=True)
        assert minimized.counterexample == full.minimize().counterexample

    def test_minimize_is_identity_without_counterexample(self, small_profile):
        result = verify_slot_sharing([small_profile])
        assert result.minimize() is result

    def test_counterexample_optional(self, small_profile, second_small_profile, tight_profile):
        result = verify_slot_sharing(
            [small_profile, second_small_profile, tight_profile], with_counterexample=False
        )
        assert not result.feasible
        assert result.counterexample == ()

    def test_budget_recorded_in_result(self, small_profile, second_small_profile):
        result = verify_slot_sharing(
            [small_profile, second_small_profile], instance_budget={"A": 1, "B": 1}
        )
        assert result.budget_of("A") == 1
        assert result.budget_of("unknown") is None

    def test_truncation_flag(self, case_study_profiles):
        result = verify_slot_sharing(
            [case_study_profiles["C1"], case_study_profiles["C5"]], max_states=50
        )
        assert result.truncated

    def test_empty_profiles_rejected(self):
        with pytest.raises(VerificationError):
            ExhaustiveVerifier([])

    def test_summary_format(self, small_profile):
        summary = verify_slot_sharing([small_profile]).summary()
        assert "FEASIBLE" in summary and "A" in summary

    def test_accelerated_and_unbounded_agree_on_pairs(self, case_study_profiles):
        """The instance-budget acceleration must not change the verdict."""
        for names in (("C1", "C5"), ("C6", "C2"), ("C4", "C3")):
            profiles = [case_study_profiles[n] for n in names]
            bounded = verify_slot_sharing(
                profiles, instance_budget=instance_budgets(profiles), with_counterexample=False
            )
            unbounded = verify_slot_sharing(profiles, with_counterexample=False)
            assert bounded.feasible == unbounded.feasible

    def test_verifier_agrees_with_simulation_scenarios(self, case_study_profiles):
        """Any concrete simultaneous-disturbance simulation of a verified
        partition must be schedulable (verification covers simulation)."""
        from repro.control.disturbance import DisturbanceTrace
        from repro.scheduler.simulator import SlotScheduleSimulator

        names = ("C1", "C5", "C4", "C3")
        profiles = [case_study_profiles[n] for n in names]
        assert verify_slot_sharing(
            profiles, instance_budget=instance_budgets(profiles), with_counterexample=False
        ).feasible
        simulator = SlotScheduleSimulator(profiles)
        for offset in range(0, 4):
            arrivals = [("C1", 0), ("C5", offset), ("C4", 2 * offset), ("C3", offset)]
            result = simulator.run(DisturbanceTrace.from_arrivals(arrivals), 80)
            assert result.schedulable


class TestCountSemantics:
    def test_engines_report_their_semantics(self, small_profile, second_small_profile):
        sequential = verify_slot_sharing(
            [small_profile, second_small_profile], engine="sequential"
        )
        kernel = verify_slot_sharing(
            [small_profile, second_small_profile], engine="kernel"
        )
        auto = verify_slot_sharing([small_profile, second_small_profile])
        assert sequential.count_semantics == "discovery-order"
        assert kernel.count_semantics == "level-synchronous"
        assert auto.count_semantics == "level-synchronous"
        # Feasible complete runs agree on the count regardless of semantics.
        assert sequential.explored_states == kernel.explored_states
