"""The paper's published outcomes, pinned through every engine and the service.

Every anchor is a literal: slot S1 = {C1, C5, C4, C3} verifies FEASIBLE in
exactly 145,373 states with the Sec. 5 instance budgets (1,413,516 without
them), and first-fit packs the six case-study applications into the 2-slot
partition (C1, C5, C4, C3), (C6, C2) in 6 admission trials with one exact
trial log.  The baseline of [9] needs the 4 slots of the paper.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.casestudy import computed_profiles
from repro.dimensioning.first_fit import FirstFitDimensioner, dimension_with_verification
from repro.exceptions import ServiceError
from repro.scheduler.baseline import dimension_baseline
from repro.service import ServiceClient, VerificationService
from repro.verification import instance_budgets, verify_slot_sharing

ENGINES = ("sequential", "kernel", "auto")

SLOT_S1 = ("C1", "C5", "C4", "C3")
S1_ACCELERATED_STATES = 145_373
S1_UNBOUNDED_STATES = 1_413_516

PARTITION = (("C1", "C5", "C4", "C3"), ("C6", "C2"))
ORDER = ("C1", "C5", "C4", "C6", "C2", "C3")
TRIALS = 6
ADMISSION_LOG = (
    (0, ("C1",), True),
    (0, ("C1", "C5"), True),
    (0, ("C1", "C5", "C4"), True),
    (0, ("C1", "C5", "C4", "C6"), False),
    (1, ("C6",), True),
    (0, ("C1", "C5", "C4", "C2"), False),
    (1, ("C6", "C2"), True),
    (0, ("C1", "C5", "C4", "C3"), True),
)

BASELINE_PARTITION = (("C1", "C5"), ("C2",), ("C3", "C4"), ("C6",))


def _slot(profiles, names):
    return [profiles[name] for name in names]


def _assert_first_fit(outcome):
    assert outcome.partition() == PARTITION
    assert outcome.slot_count == 2
    assert outcome.order == ORDER
    assert outcome.verifications == TRIALS
    assert outcome.admission_log == ADMISSION_LOG


# ------------------------------------------------------------------- engines
class TestSlotS1:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_accelerated_feasible(self, case_study_profiles, engine):
        slot = _slot(case_study_profiles, SLOT_S1)
        result = verify_slot_sharing(
            slot,
            instance_budget=instance_budgets(slot),
            with_counterexample=False,
            engine=engine,
        )
        assert result.feasible
        assert not result.truncated
        assert result.explored_states == S1_ACCELERATED_STATES

    def test_unbounded_state_count(self, case_study_profiles):
        result = verify_slot_sharing(
            _slot(case_study_profiles, SLOT_S1),
            with_counterexample=False,
            engine="kernel",
        )
        assert result.feasible
        assert not result.truncated
        assert result.explored_states == S1_UNBOUNDED_STATES


class TestSlotVerdicts:
    def test_paper_slot2_feasible(self, case_study_profiles):
        result = verify_slot_sharing(
            [case_study_profiles["C6"], case_study_profiles["C2"]],
            instance_budget={"C6": 1, "C2": 1},
        )
        assert result.feasible

    def test_adding_c6_to_slot1_prefix_is_infeasible(self, case_study_profiles):
        profiles = _slot(case_study_profiles, ("C1", "C5", "C4", "C6"))
        result = verify_slot_sharing(
            profiles, instance_budget=instance_budgets(profiles), with_counterexample=False
        )
        assert not result.feasible


class TestFirstFit:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_partition_and_admission_log(self, case_study_profiles, engine):
        _assert_first_fit(dimension_with_verification(case_study_profiles, engine=engine))

    def test_computed_profiles_give_the_same_outcome(self):
        """The whole flow: profiles derived from the plants, then first-fit."""
        _assert_first_fit(dimension_with_verification(computed_profiles()))


class TestBaseline:
    def test_case_study_baseline_partition_matches_paper(self, case_study_profiles):
        result = dimension_baseline(case_study_profiles)
        assert result.slot_count == 4
        normal = tuple(sorted(tuple(sorted(slot)) for slot in result.partitions))
        assert normal == BASELINE_PARTITION


# ------------------------------------------------------------------- service
@pytest.fixture()
def client(tmp_path):
    """A client of a live server on a tempdir socket with a private store."""
    socket_path = str(tmp_path / "repro.sock")
    service = VerificationService(
        socket_path, store_dir=str(tmp_path / "store"), workers=1
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    for _ in range(500):
        if os.path.exists(socket_path):
            break
        time.sleep(0.01)
    else:
        raise RuntimeError("service socket never appeared")
    with ServiceClient(socket_path, timeout=120.0) as connected:
        yield connected
    try:
        with ServiceClient(socket_path, timeout=10.0) as closing:
            closing.shutdown()
    except ServiceError:
        pass
    thread.join(timeout=30)
    assert not thread.is_alive()


class TestService:
    def test_verify_slot1(self, client, case_study_profiles):
        result = client.verify(_slot(case_study_profiles, SLOT_S1))
        assert result.feasible
        assert not result.truncated
        assert result.explored_states == S1_ACCELERATED_STATES

    def test_first_fit_op(self, client, case_study_profiles):
        response = client.first_fit(list(case_study_profiles.values()))
        assert tuple(tuple(slot) for slot in response["partition"]) == PARTITION
        assert response["slot_count"] == 2
        assert tuple(response["order"]) == ORDER
        assert response["verifications"] == TRIALS

    def test_admission_log_through_admit_ops(self, client, case_study_profiles):
        dimensioner = FirstFitDimensioner(
            case_study_profiles, admission_test=client.admission_test()
        )
        _assert_first_fit(dimensioner.dimension())
