"""Tests for the first-fit dimensioning flow."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dimensioning import (
    FirstFitDimensioner,
    default_admission_test,
    dimension_with_verification,
    paper_sort_order,
)
from repro.exceptions import MappingError
from repro.switching.profile import SwitchingProfile


def make_profile(name: str, max_wait: int, min_dwell: int, max_dwell: int, r: int = 60) -> SwitchingProfile:
    return SwitchingProfile.from_arrays(
        name=name,
        requirement_samples=max_wait + max_dwell + 1,
        min_inter_arrival=r,
        min_dwell=[min_dwell] * (max_wait + 1),
        max_dwell=[max_dwell] * (max_wait + 1),
        tt_settling_samples=max_dwell,
        et_settling_samples=r - 1,
    )


class TestPaperSortOrder:
    def test_case_study_order_matches_paper(self, case_study_profiles):
        assert paper_sort_order(case_study_profiles) == ["C1", "C5", "C4", "C6", "C2", "C3"]

    def test_sort_by_max_wait_then_worst_min_dwell(self):
        profiles = {
            "X": make_profile("X", max_wait=5, min_dwell=3, max_dwell=4),
            "Y": make_profile("Y", max_wait=5, min_dwell=2, max_dwell=4),
            "Z": make_profile("Z", max_wait=3, min_dwell=4, max_dwell=5),
        }
        assert paper_sort_order(profiles) == ["Z", "Y", "X"]


class TestFirstFit:
    def test_everything_fits_one_slot_with_permissive_test(self):
        profiles = {name: make_profile(name, 4, 2, 3) for name in ("P", "Q", "R")}
        outcome = FirstFitDimensioner(profiles, admission_test=lambda _: True).dimension()
        assert outcome.slot_count == 1
        assert set(outcome.assignments[0].applications) == {"P", "Q", "R"}

    def test_nothing_shares_with_restrictive_test(self):
        profiles = {name: make_profile(name, 4, 2, 3) for name in ("P", "Q", "R")}
        outcome = FirstFitDimensioner(
            profiles, admission_test=lambda candidate: len(candidate) == 1
        ).dimension()
        assert outcome.slot_count == 3

    def test_every_application_mapped_exactly_once(self):
        profiles = {name: make_profile(name, 4, 2, 3) for name in "PQRSTU"}
        outcome = FirstFitDimensioner(
            profiles, admission_test=lambda candidate: len(candidate) <= 2
        ).dimension()
        mapped = [name for assignment in outcome.assignments for name in assignment.applications]
        assert sorted(mapped) == sorted(profiles)
        assert len(mapped) == len(set(mapped))

    def test_slot_of_lookup(self):
        profiles = {name: make_profile(name, 4, 2, 3) for name in ("P", "Q")}
        outcome = FirstFitDimensioner(profiles, admission_test=lambda _: True).dimension()
        assert outcome.slot_of("P") == 0
        with pytest.raises(MappingError):
            outcome.slot_of("nope")

    def test_savings_computation(self):
        profiles = {name: make_profile(name, 4, 2, 3) for name in ("P", "Q")}
        outcome = FirstFitDimensioner(profiles, admission_test=lambda _: True).dimension()
        assert outcome.savings_versus(2) == pytest.approx(0.5)
        with pytest.raises(MappingError):
            outcome.savings_versus(0)

    def test_explicit_order_validation(self):
        profiles = {name: make_profile(name, 4, 2, 3) for name in ("P", "Q")}
        dimensioner = FirstFitDimensioner(profiles, admission_test=lambda _: True)
        with pytest.raises(MappingError):
            dimensioner.dimension(order=["P"])
        with pytest.raises(MappingError):
            dimensioner.dimension(order=["P", "Q", "Z"])

    def test_empty_profiles_rejected(self):
        with pytest.raises(MappingError):
            FirstFitDimensioner({})

    def test_admission_log_records_trials(self):
        profiles = {name: make_profile(name, 4, 2, 3) for name in ("P", "Q")}
        outcome = FirstFitDimensioner(profiles, admission_test=lambda c: len(c) == 1).dimension()
        assert any(not admitted for _, _, admitted in outcome.admission_log)
        assert outcome.verifications >= 1

    @settings(max_examples=20, deadline=None)
    @given(capacity=st.integers(1, 5), count=st.integers(1, 8))
    def test_slot_count_matches_capacity_bound(self, capacity, count):
        """With an admission test allowing at most `capacity` applications per
        slot, first-fit uses exactly ceil(count / capacity) slots."""
        profiles = {f"A{i}": make_profile(f"A{i}", 4, 2, 3) for i in range(count)}
        outcome = FirstFitDimensioner(
            profiles, admission_test=lambda candidate: len(candidate) <= capacity
        ).dimension()
        assert outcome.slot_count == -(-count // capacity)


class TestVerificationBackedDimensioning:
    def test_two_application_subset(self, case_study_profiles):
        subset = {name: case_study_profiles[name] for name in ("C6", "C2")}
        outcome = dimension_with_verification(subset)
        assert outcome.slot_count == 1

    def test_default_admission_test_rejects_truncation(self, case_study_profiles):
        test = default_admission_test(max_states=10)
        with pytest.raises(MappingError):
            test([case_study_profiles["C1"], case_study_profiles["C5"]])
