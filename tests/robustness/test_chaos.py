"""Chaos-harness smoke: one sweep over every injector kind against an
in-process server, asserting zero verdict divergences and that the
recovery machinery (pool rebuilds, checkpoint resumes, store-corpse
rejection) actually engaged.  The full-scale sweep against a spawned
server subprocess is ``scripts/chaos_campaign.py`` (the non-blocking CI
``chaos-campaign`` job).
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.robustness.chaos import (
    CHAOS_INJECTORS,
    ChaosReport,
    ChaosResult,
    InProcessServer,
    run_chaos,
    synthetic_config_pool,
    zipf_weights,
)

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the service worker pool requires the fork start method",
)

SMOKE_SEED = 2026
MAX_STATES = 50_000


@pytest.fixture()
def chaos_server(tmp_path, monkeypatch):
    # Checkpoints armed and a small store budget: the sweep exercises the
    # checkpoint and eviction machinery, not just the happy path.
    monkeypatch.setenv("REPRO_CHECKPOINT_LEVELS", "2")
    monkeypatch.setenv("REPRO_GRAPH_STORE_BYTES", "2000000")
    with InProcessServer(str(tmp_path), workers=2) as server:
        yield server


class TestChaosSweep:
    def test_every_injector_zero_divergences(self, chaos_server):
        result = run_chaos(
            SMOKE_SEED,
            len(CHAOS_INJECTORS),
            server=chaos_server,
            max_states=MAX_STATES,
        )
        assert result.divergences == []
        counts = result.injector_counts()
        assert sorted(counts) == sorted(CHAOS_INJECTORS)
        for kind, bucket in counts.items():
            assert bucket["fired"] == bucket["run"], kind

    def test_recovery_machinery_engaged(self, chaos_server):
        result = run_chaos(
            SMOKE_SEED,
            len(CHAOS_INJECTORS),
            server=chaos_server,
            max_states=MAX_STATES,
        )
        assert result.recovery["pool_workers_killed"] >= 1
        assert result.recovery["checkpoint_resumes"] >= 1
        window = result.server_window
        # The killed worker broke (and rebuilt) the pool; the truncated
        # store entry was rejected and recompiled.
        assert window["pool_rebuilds"] >= 1
        assert window["store_rejects"] >= 1
        assert window["requests"] > len(CHAOS_INJECTORS)

    def test_sweep_is_replayable(self, chaos_server):
        first = run_chaos(
            SMOKE_SEED, 3, server=chaos_server, max_states=MAX_STATES
        )
        second = run_chaos(
            SMOKE_SEED, 3, server=chaos_server, max_states=MAX_STATES
        )
        assert [r.injector for r in first.reports] == [
            r.injector for r in second.reports
        ]
        assert [r.feasible for r in first.reports] == [
            r.feasible for r in second.reports
        ]
        assert not first.divergences and not second.divergences


class TestAggregation:
    def _report(self, index, injector, verdict, fired=True):
        return ChaosReport(
            index=index,
            seed=7,
            injector=injector,
            verdict=verdict,
            fired=fired,
        )

    def test_injector_counts_and_divergences(self):
        result = ChaosResult(seed=7, start=0, count=3, max_states=100)
        result.reports = [
            self._report(0, "socket-drop", "ok"),
            self._report(1, "socket-drop", "divergence"),
            self._report(2, "checkpoint-resume", "ok", fired=False),
        ]
        counts = result.injector_counts()
        assert counts["socket-drop"] == {"run": 2, "fired": 2}
        assert counts["checkpoint-resume"] == {"run": 1, "fired": 0}
        assert [r.index for r in result.divergences] == [1]
        summary = result.summary()
        assert summary["ok"] == 2
        assert summary["divergences"] == 1

    def test_synthetic_pool_is_deterministic(self):
        first = synthetic_config_pool(5, 42)
        second = synthetic_config_pool(5, 42)
        assert [[p.name for p in entry] for entry in first] == [
            [p.name for p in entry] for entry in second
        ]
        names = {profile.name for entry in first for profile in entry}
        assert len(names) == 5  # distinct fingerprints
        weights = zipf_weights(5)
        assert weights == sorted(weights, reverse=True)
        assert abs(sum(weights) - 1.0) < 1e-9
