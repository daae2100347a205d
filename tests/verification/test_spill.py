"""Tests for the memory-mapped spill of the compiled state-graph arrays.

``REPRO_STATE_BUDGET_BYTES`` caps the resident bytes of the kernel's
long-lived arrays; beyond the cap, the interner's slot/key pages and the
CSR chunks live in ``.npy`` memmaps.  The spill must be invisible to
results (identical state counts, levels, parent stores), clean up its
files deterministically, and — on the opt-in large instance — keep the
process RSS under a cap an unconstrained run exceeds.
"""

from __future__ import annotations

import glob
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.scheduler.packed import (
    PackedSlotSystem,
    clear_packed_caches,
    packed_system_for,
)
from repro.scheduler.slot_system import SlotSystemConfig
from repro.switching.profile import SwitchingProfile
from repro.verification import verify_slot_sharing
from repro.verification.kernel import CompiledStateGraph, PackedStateTable
from repro.verification.spill import (
    STATE_BUDGET_ENV_VAR,
    SpillStore,
    resident_budget_bytes,
    state_budget_bytes,
)


def _synthetic_profiles():
    """The ≥10^7-state synthetic instance of the opt-in spill stress (the
    4-application product exceeds 12M reachable states unbounded)."""

    def prof(name, req, inter, depth, low, high):
        return SwitchingProfile.from_arrays(
            name=name,
            requirement_samples=req,
            min_inter_arrival=inter,
            min_dwell=[low] * depth,
            max_dwell=[high] * depth,
        )

    return [
        prof("A", 40, 60, 10, 4, 8),
        prof("B", 44, 70, 12, 3, 7),
        prof("C", 48, 80, 14, 4, 9),
        prof("D", 52, 90, 16, 5, 10),
    ]


class TestBudgetKnob:
    def test_unset_budget_is_unlimited(self, monkeypatch):
        monkeypatch.delenv(STATE_BUDGET_ENV_VAR, raising=False)
        assert state_budget_bytes() is None

    def test_float_notation_accepted(self, monkeypatch):
        monkeypatch.setenv(STATE_BUDGET_ENV_VAR, "2e6")
        assert state_budget_bytes() == 2_000_000

    def test_malformed_budget_warns_and_disables(self, monkeypatch):
        monkeypatch.setenv(STATE_BUDGET_ENV_VAR, "lots")
        with pytest.warns(RuntimeWarning):
            assert state_budget_bytes() is None

    def test_no_store_without_budget(self, monkeypatch, small_profile):
        monkeypatch.delenv(STATE_BUDGET_ENV_VAR, raising=False)
        system = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        assert CompiledStateGraph(system).store is None


class TestSpillStore:
    def test_alloc_spills_beyond_budget_and_cleans_up(self):
        store = SpillStore(budget=0)
        array = store.alloc((64, 2), np.uint64)
        assert isinstance(array, np.memmap)
        assert store.spilled
        array[:] = 7
        directory = store._dir
        assert directory and glob.glob(os.path.join(directory, "*.npy"))
        store.close()
        assert not os.path.exists(directory)

    def test_ram_accounting_balances(self):
        before = resident_budget_bytes()
        store = SpillStore(budget=1 << 30)
        array = store.alloc((1024,), np.int64)
        assert not isinstance(array, np.memmap)
        assert resident_budget_bytes() == before + array.nbytes
        store.release(array)
        assert resident_budget_bytes() == before
        store.close()
        assert resident_budget_bytes() == before

    def test_fill_and_copy_rows_on_memmaps(self):
        store = SpillStore(budget=0)
        slots = store.alloc((1000,), np.int32, fill=-1)
        assert (np.asarray(slots) == -1).all()
        grown = store.alloc((2000, 2), np.uint64)
        source = store.alloc((1000, 2), np.uint64)
        source[:] = 3
        store.copy_rows(grown, source, 1000)
        assert (np.asarray(grown[:1000]) == 3).all()
        store.close()


class TestSpilledExploration:
    @pytest.mark.parametrize("words", [1, 2])
    def test_spilled_table_interns_like_an_in_ram_table(self, monkeypatch, words):
        """The native probe loops run on memmapped slot and key arrays."""
        monkeypatch.setenv(STATE_BUDGET_ENV_VAR, "1")
        store = SpillStore()
        spilled = PackedStateTable(words, initial_capacity=8, store=store)
        in_ram = PackedStateTable(words, initial_capacity=8)
        assert isinstance(spilled._slots, np.memmap)
        rng = np.random.default_rng(words)
        pool = rng.integers(0, 2**63, size=(3000, words)).astype(np.uint64)
        for _ in range(6):  # duplicate-laden batches that force rehashes
            batch = pool[rng.integers(0, pool.shape[0], size=1500)]
            for got, want in zip(spilled.intern_dedup(batch), in_ram.intern_dedup(batch)):
                assert (got == want).all()
        assert isinstance(spilled._slots, np.memmap)
        assert isinstance(spilled._states, np.memmap)
        assert (spilled.state_words == in_ram.state_words).all()
        assert (spilled.lookup(pool) == in_ram.lookup(pool)).all()
        store.close()

    def test_spilled_graph_matches_unconstrained(self, monkeypatch):
        profiles = _synthetic_profiles()
        config = SlotSystemConfig.from_profiles(
            profiles, {p.name: 1 for p in profiles}
        )
        monkeypatch.delenv(STATE_BUDGET_ENV_VAR, raising=False)
        reference_graph = CompiledStateGraph(PackedSlotSystem(config))
        reference = reference_graph.explore(200_000, True)

        monkeypatch.setenv(STATE_BUDGET_ENV_VAR, "1")
        graph = CompiledStateGraph(PackedSlotSystem(config))
        assert graph.store is not None
        outcome = graph.explore(200_000, True)
        assert graph.store.spilled
        assert outcome[:4] == reference[:4]
        assert set(outcome[4]) == set(reference[4])
        # Level structure and CSR arrays are byte-identical.
        assert graph.level_ptr == reference_graph.level_ptr
        assert (np.asarray(graph.successor_ids)
                == np.asarray(reference_graph.successor_ids)).all()
        directory = graph.store._dir
        graph.close()
        assert directory and not os.path.exists(directory)

    def test_clear_packed_caches_closes_spill_files(self, monkeypatch, small_profile):
        monkeypatch.setenv(STATE_BUDGET_ENV_VAR, "1")
        config = SlotSystemConfig.from_profiles((small_profile,))
        result = verify_slot_sharing(
            [small_profile], with_counterexample=False, engine="kernel"
        )
        assert result.feasible
        graph = packed_system_for(config).compiled_graph
        assert graph is not None and graph.store is not None and graph.store.spilled
        directory = graph.store._dir
        assert directory and os.path.exists(directory)
        clear_packed_caches()
        assert not os.path.exists(directory)

    def test_warm_replay_runs_from_spilled_graph(self, monkeypatch, small_profile):
        monkeypatch.setenv(STATE_BUDGET_ENV_VAR, "1")
        cold = verify_slot_sharing(
            [small_profile], with_counterexample=False, engine="kernel"
        )
        warm = verify_slot_sharing(
            [small_profile], with_counterexample=False, engine="kernel"
        )
        assert warm.explored_states == cold.explored_states


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="capped-RSS spill stress is opt-in (REPRO_BENCH_LARGE=1)",
)
def test_large_instance_completes_under_rss_cap(tmp_path):
    """Acceptance: a ≥10^7-state synthetic instance completes with the
    budget set far below its in-RAM footprint (~1 GB), produces the same
    state count as an unconstrained run, and stays under an RSS cap the
    unconstrained run exceeds.  Runs in subprocesses so ``ru_maxrss``
    measures each configuration in isolation."""
    script = textwrap.dedent(
        """
        import resource
        from repro.scheduler.packed import PackedSlotSystem
        from repro.scheduler.slot_system import SlotSystemConfig
        from repro.switching.profile import SwitchingProfile

        def prof(name, req, inter, depth, low, high):
            return SwitchingProfile.from_arrays(
                name=name, requirement_samples=req, min_inter_arrival=inter,
                min_dwell=[low] * depth, max_dwell=[high] * depth)

        profiles = [
            prof("A", 40, 60, 10, 4, 8),
            prof("B", 44, 70, 12, 3, 7),
            prof("C", 48, 80, 14, 4, 9),
            prof("D", 52, 90, 16, 5, 10),
        ]
        from repro.verification.kernel import CompiledStateGraph

        config = SlotSystemConfig.from_profiles(profiles)
        graph = CompiledStateGraph(PackedSlotSystem(config))
        count, _, truncated, error, _ = graph.explore(
            10_000_000, with_parents=False
        )
        assert error is None and truncated
        spilled = graph.store.spilled if graph.store is not None else False
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{count} {int(spilled)} {rss_mb:.0f}")
        """
    )

    def run(budget):
        env = dict(os.environ)
        env["PYTHONPATH"] = (
            os.path.join(os.path.dirname(__file__), "..", "..", "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        env.pop(STATE_BUDGET_ENV_VAR, None)
        if budget is not None:
            env[STATE_BUDGET_ENV_VAR] = str(budget)
        env["REPRO_SPILL_DIR"] = str(tmp_path)
        output = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=1200,
            check=True,
        ).stdout.split()
        return int(output[0]), bool(int(output[1])), float(output[2])

    unconstrained_count, unconstrained_spilled, unconstrained_rss = run(None)
    assert unconstrained_count == 10_000_000
    assert not unconstrained_spilled
    spilled_count, spilled, spilled_rss = run(128 * 1024 * 1024)
    assert spilled_count == unconstrained_count
    assert spilled
    # The unconstrained footprint is ~1 GB on the reference container; the
    # budgeted run must come in firmly below it (slot/key probe pages and
    # the per-level working set are the irreducible resident floor).
    assert spilled_rss < 800
    assert spilled_rss < unconstrained_rss
    # All spill files were removed when the subprocess exited.
    assert not glob.glob(os.path.join(str(tmp_path), "repro-spill-*", "*.npy"))
