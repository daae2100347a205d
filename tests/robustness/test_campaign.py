"""Campaign runner: smoke slice, divergence shrinking, crash hygiene."""

from __future__ import annotations

import json
import os

import pytest

from repro.robustness import ScenarioGenerator, run_campaign
from repro.robustness.campaign import apply_shrink_op, shrink_profiles
from repro.scheduler.packed import _SYSTEM_CACHE
from repro.switching.profile import SwitchingProfile

#: Tier-1 always-on smoke slice: small but covering every fault kind at
#: the default corpus seed (see test_corpus_covers_every_fault_kind).
SMOKE_SEED = 2026
SMOKE_COUNT = 20


class TestSmokeCampaign:
    def test_smoke_slice_has_zero_divergences(self):
        result = run_campaign(SMOKE_SEED, SMOKE_COUNT)
        assert len(result.reports) == SMOKE_COUNT
        assert result.divergences == []
        summary = result.summary()
        assert summary["ok"] + summary["skipped"] == SMOKE_COUNT
        # The slice must exercise both verdicts to mean anything.
        assert summary["feasible"] > 0
        assert summary["infeasible"] > 0

    def test_reports_carry_throughput_and_engine_counts(self):
        result = run_campaign(SMOKE_SEED, 5)
        for report in result.reports:
            assert set(report.visited) >= {"sequential", "kernel"}
            assert "kernel-replay" in report.visited
            assert report.states_per_second > 0
        throughput = result.throughput_percentiles()
        assert throughput["p99_states_per_second"] >= (
            throughput["p50_states_per_second"]
        )

    def test_single_scenario_replay_matches_campaign_member(self):
        """`--start INDEX --count 1` reproduces the in-campaign report."""
        full = run_campaign(SMOKE_SEED, 6)
        replay = run_campaign(SMOKE_SEED, 1, start=4)
        member = full.reports[4]
        solo = replay.reports[0]
        assert (solo.index, solo.verdict, solo.feasible) == (
            member.index,
            member.verdict,
            member.feasible,
        )
        assert solo.visited == member.visited


class TestInjectedDivergence:
    @staticmethod
    def _hook(target_index):
        def hook(scenario, profiles, outcomes):
            if scenario.index == target_index:
                return "synthetic divergence (test hook)"
            return None

        return hook

    def test_hook_divergence_is_shrunk_and_persisted(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        result = run_campaign(
            SMOKE_SEED,
            3,
            divergence_hook=self._hook(1),
            fixtures_dir=str(fixtures),
        )
        (report,) = result.divergences
        assert report.index == 1
        assert report.fixture_path and os.path.exists(report.fixture_path)
        payload = json.loads(open(report.fixture_path).read())
        assert payload["seed"] == SMOKE_SEED and payload["index"] == 1
        # Shrinking must have reached a local minimum: a permanently-failing
        # check shrinks single-app profiles to wait 0, no dwell slack and
        # the relaxed-arrival cap.
        shrunk = [SwitchingProfile.from_dict(entry) for entry in payload["profiles"]]
        assert len(shrunk) == 1
        assert shrunk[0].max_wait == 0
        assert all(
            entry.max_dwell == entry.min_dwell for entry in shrunk[0].dwell_table
        )

    def test_fixture_replays_deterministically_from_seed_index(self, tmp_path):
        fixtures = tmp_path / "fixtures"
        run_campaign(
            SMOKE_SEED,
            3,
            divergence_hook=self._hook(2),
            fixtures_dir=str(fixtures),
        )
        (name,) = os.listdir(fixtures)
        payload = json.loads((fixtures / name).read_text())
        scenario = ScenarioGenerator(payload["seed"]).generate(payload["index"])
        profiles = tuple(
            sorted(scenario.profiles, key=lambda profile: profile.name)
        )
        for op in payload["shrink_ops"]:
            profiles = apply_shrink_op(profiles, tuple(op))
        persisted = tuple(
            SwitchingProfile.from_dict(entry) for entry in payload["profiles"]
        )
        assert profiles == persisted

    def test_shrink_is_greedy_minimal_under_a_targeted_predicate(
        self, small_profile, second_small_profile
    ):
        """A predicate that only needs application B present shrinks away
        everything else."""

        def still_diverges(profiles):
            return any(profile.name == "B" for profile in profiles)

        shrunk, trace = shrink_profiles(
            (small_profile, second_small_profile), still_diverges
        )
        assert [profile.name for profile in shrunk] == ["B"]
        assert ("drop-app", 0) in trace
        assert shrunk[0].max_wait == 0


class TestAbortHygiene:
    def test_aborted_scenario_clears_packed_state(self):
        """A scenario aborting mid-campaign (crash injection) must not leak
        shared packed systems into the next run."""

        class Boom(RuntimeError):
            pass

        def hook(scenario, profiles, outcomes):
            raise Boom("injected crash after exploration")

        with pytest.raises(Boom):
            run_campaign(SMOKE_SEED, 2, divergence_hook=hook)
        # The per-scenario finally must have dropped every shared system.
        assert not _SYSTEM_CACHE
