"""Serialization tests for the compiled state graph.

A saved/loaded :class:`CompiledStateGraph` must replay verification with
results identical to a fresh compile — visited counts, levels, truncation,
error witnesses and counterexample traces — and a partially compiled graph
must resume compilation exactly where the save stopped.  The cache-directory
flow (``graph_dir`` / ``REPRO_GRAPH_DIR``) is exercised end to end through
the verifier and the first-fit dimensioner.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import VerificationError
from repro.scheduler.packed import PackedSlotSystem, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import (
    CompiledStateGraph,
    config_fingerprint,
    graph_cache_path,
    load_graph,
    maybe_load_graph,
    maybe_save_graph,
    save_graph,
    verify_slot_sharing,
)
from repro.verification.kernel import GRAPH_FORMAT_VERSION


def _pair_config(small_profile, second_small_profile):
    return SlotSystemConfig.from_profiles((small_profile, second_small_profile))


class TestSaveLoadRoundTrip:
    def test_complete_graph_replays_identically(
        self, tmp_path, small_profile, second_small_profile
    ):
        config = _pair_config(small_profile, second_small_profile)
        system = PackedSlotSystem(config)
        graph = CompiledStateGraph(system)
        reference = graph.explore(5_000_000, True)
        path = tmp_path / "graph.npz"
        graph.save(path)

        fresh = PackedSlotSystem(config)
        loaded = CompiledStateGraph.load(path, fresh)
        assert loaded.complete
        assert loaded.state_count == graph.state_count
        assert loaded.transition_count == graph.transition_count
        assert loaded.level_ptr == graph.level_ptr
        replay = loaded.explore(5_000_000, True)
        assert replay[:4] == reference[:4]
        # The predecessor stores span the identical states with identical
        # links, and no expansion happened during the replay.
        assert set(replay[4]) == set(reference[4])
        sample = next(iter(reference[4]))
        assert replay[4][sample] == reference[4][sample]
        assert not fresh._successor_memo

    def test_csr_arrays_survive_verbatim(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,), {"A": 2})
        system = PackedSlotSystem(config)
        graph = CompiledStateGraph(system)
        graph.explore(5_000_000, False)
        path = tmp_path / "graph.npz"
        graph.save(path)
        loaded = CompiledStateGraph.load(path, PackedSlotSystem(config))
        assert (loaded.indptr == graph.indptr).all()
        assert (loaded.successor_ids == graph.successor_ids).all()
        assert (loaded.labels == graph.labels).all()
        assert (loaded.parent_ids == graph.parent_ids).all()
        assert (loaded.parent_labels == graph.parent_labels).all()
        assert (loaded.table.state_words == graph.table.state_words).all()

    def test_partial_graph_resumes_compilation(
        self, tmp_path, small_profile, second_small_profile
    ):
        config = _pair_config(small_profile, second_small_profile)
        system = PackedSlotSystem(config)
        full_graph = CompiledStateGraph(system)
        full = full_graph.explore(5_000_000, False)

        partial = CompiledStateGraph(PackedSlotSystem(config))
        capped = partial.explore(40, False)
        assert capped[2] and not partial.complete
        path = tmp_path / "partial.npz"
        partial.save(path)

        resumed = CompiledStateGraph.load(path, PackedSlotSystem(config))
        assert not resumed.complete
        assert resumed.explore(40, False)[:4] == capped[:4]
        extended = resumed.explore(5_000_000, False)
        assert extended[:4] == full[:4]
        assert resumed.complete

    def test_error_graph_round_trips_witness(
        self, tmp_path, small_profile, second_small_profile, tight_profile
    ):
        profiles = [small_profile, second_small_profile, tight_profile]
        cold = verify_slot_sharing(profiles, engine="kernel")
        assert not cold.feasible
        config = SlotSystemConfig.from_profiles(profiles)
        system = packed_system_for(config)
        path = tmp_path / "error.npz"
        save_graph(system, path)

        fresh = PackedSlotSystem(config)
        loaded = load_graph(fresh, path)
        assert loaded.error == system.compiled_graph.error
        assert loaded.error_level == system.compiled_graph.error_level
        # Replaying through the public verifier reproduces the trace.
        packed_system_for(config).compiled_graph = loaded
        warm = verify_slot_sharing(profiles, engine="kernel")
        assert not warm.feasible
        assert warm.explored_states == cold.explored_states
        assert warm.counterexample == cold.counterexample

    def test_save_requires_a_compiled_graph(self, tmp_path, small_profile):
        system = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        with pytest.raises(VerificationError):
            save_graph(system, tmp_path / "none.npz")


class TestLoadGuards:
    def test_fingerprint_mismatch_rejected(
        self, tmp_path, small_profile, second_small_profile
    ):
        config_a = SlotSystemConfig.from_profiles((small_profile,))
        config_b = SlotSystemConfig.from_profiles((second_small_profile,))
        assert config_fingerprint(config_a) != config_fingerprint(config_b)
        graph = CompiledStateGraph(PackedSlotSystem(config_a))
        graph.explore(5_000_000, False)
        path = tmp_path / "a.npz"
        graph.save(path)
        with pytest.raises(VerificationError, match="fingerprint"):
            CompiledStateGraph.load(path, PackedSlotSystem(config_b))

    def test_budget_changes_the_fingerprint(self, small_profile):
        plain = SlotSystemConfig.from_profiles((small_profile,))
        budgeted = SlotSystemConfig.from_profiles((small_profile,), {"A": 2})
        assert config_fingerprint(plain) != config_fingerprint(budgeted)

    def test_wrong_format_version_rejected(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        graph = CompiledStateGraph(PackedSlotSystem(config))
        graph.explore(5_000_000, False)
        path = tmp_path / "graph.npz"
        graph.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["meta"] = arrays["meta"].copy()
        arrays["meta"][0] = GRAPH_FORMAT_VERSION + 1
        np.savez(path, **arrays)
        with pytest.raises(VerificationError, match="version"):
            CompiledStateGraph.load(path, PackedSlotSystem(config))

    def test_corrupt_arrays_rejected(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        graph = CompiledStateGraph(PackedSlotSystem(config))
        graph.explore(5_000_000, False)
        path = tmp_path / "graph.npz"
        graph.save(path)
        with np.load(path) as data:
            arrays = dict(data)
        arrays["parent_ids"] = arrays["parent_ids"][:-1]
        np.savez(path, **arrays)
        with pytest.raises(VerificationError, match="corrupt"):
            CompiledStateGraph.load(path, PackedSlotSystem(config))


class TestGraphDirectoryFlow:
    def test_verifier_saves_and_reloads(
        self, tmp_path, small_profile, second_small_profile, monkeypatch
    ):
        from repro.scheduler.packed import clear_packed_caches

        profiles = [small_profile, second_small_profile]
        directory = str(tmp_path)
        cold = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel", graph_dir=directory
        )
        config = SlotSystemConfig.from_profiles(profiles)
        assert os.path.exists(graph_cache_path(directory, config))

        # "New process": caches dropped, the cached graph must replay with
        # zero level expansions.  (Every compiled level goes through
        # CompiledStateGraph._expand_next_level — patch that, or a silent
        # recompile would go unnoticed.)
        clear_packed_caches()
        calls = []
        original = CompiledStateGraph._expand_next_level
        monkeypatch.setattr(
            CompiledStateGraph,
            "_expand_next_level",
            lambda self: calls.append(1) or original(self),
        )
        warm = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel", graph_dir=directory
        )
        assert warm.explored_states == cold.explored_states
        assert warm.feasible == cold.feasible
        assert not calls

    def test_env_var_names_the_cache_directory(
        self, tmp_path, small_profile, monkeypatch
    ):
        from repro.verification import GRAPH_DIR_ENV_VAR

        monkeypatch.setenv(GRAPH_DIR_ENV_VAR, str(tmp_path))
        verify_slot_sharing(
            [small_profile], with_counterexample=False, engine="kernel"
        )
        config = SlotSystemConfig.from_profiles([small_profile])
        assert os.path.exists(graph_cache_path(str(tmp_path), config))

    def test_maybe_helpers_are_best_effort(self, tmp_path, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        system = PackedSlotSystem(config)
        directory = str(tmp_path)
        # Nothing compiled yet: nothing saved, nothing loaded.
        assert maybe_save_graph(system, directory) is None
        assert not maybe_load_graph(system, directory)
        graph = CompiledStateGraph(system)
        system.compiled_graph = graph
        # Incomplete graphs are not worth shipping.
        assert maybe_save_graph(system, directory) is None
        graph.explore(5_000_000, False)
        path = maybe_save_graph(system, directory)
        assert path and os.path.exists(path)
        # Second save is a no-op (cache hit), corrupt files never raise.
        assert maybe_save_graph(system, directory) is None
        with open(path, "wb") as handle:
            handle.write(b"not an npz")
        fresh = PackedSlotSystem(config)
        assert not maybe_load_graph(fresh, directory)
        assert fresh.compiled_graph is None

    def test_corrupt_cache_logs_and_recompiles(
        self, tmp_path, small_profile, caplog
    ):
        """A corrupt or truncated cache entry must never raise out of
        ``verify_slot_sharing`` (the dimensioner probes dozens of
        configurations through it) — it logs a warning and recompiles."""
        import logging

        profiles = [small_profile]
        directory = str(tmp_path)
        cold = verify_slot_sharing(
            profiles, with_counterexample=False, engine="kernel", graph_dir=directory
        )
        config = SlotSystemConfig.from_profiles(profiles)
        path = graph_cache_path(directory, config)
        with open(path, "wb") as handle:
            handle.write(b"PK\x03\x04 truncated garbage")

        from repro.scheduler.packed import clear_packed_caches

        clear_packed_caches()
        with caplog.at_level(logging.WARNING, logger="repro.verification.kernel"):
            again = verify_slot_sharing(
                profiles,
                with_counterexample=False,
                engine="kernel",
                graph_dir=directory,
            )
        assert again.feasible == cold.feasible
        assert again.explored_states == cold.explored_states
        assert any("recompiling" in record.message for record in caplog.records)

    def test_corrupt_cache_never_breaks_the_dimensioner(
        self, tmp_path, small_profile, second_small_profile
    ):
        from repro.dimensioning.first_fit import dimension_with_verification

        profiles = {
            small_profile.name: small_profile,
            second_small_profile.name: second_small_profile,
        }
        reference = dimension_with_verification(profiles, engine="kernel")
        # Corrupt every cached graph the first run shipped.
        clean = dimension_with_verification(
            profiles, engine="kernel", graph_dir=str(tmp_path)
        )
        for name in os.listdir(tmp_path):
            with open(tmp_path / name, "wb") as handle:
                handle.write(b"not an npz at all")
        from repro.scheduler.packed import clear_packed_caches

        clear_packed_caches()
        outcome = dimension_with_verification(
            profiles, engine="kernel", graph_dir=str(tmp_path)
        )
        assert outcome.partition() == clean.partition() == reference.partition()

    def test_unwritable_cache_directory_logs_and_continues(
        self, tmp_path, small_profile, caplog
    ):
        """An unusable cache directory must not fail the verification that
        produced the graph (maybe_save_graph is best-effort).  The
        "directory" here is a plain file, so creating it raises — the
        same OSError family a full disk or read-only mount produces."""
        import logging

        bogus = tmp_path / "cache"
        bogus.write_bytes(b"")
        with caplog.at_level(logging.WARNING, logger="repro.verification.kernel"):
            result = verify_slot_sharing(
                [small_profile],
                with_counterexample=False,
                engine="kernel",
                graph_dir=str(bogus),
            )
        assert result.feasible
        assert any(
            "could not persist" in record.message for record in caplog.records
        )

    def test_dimensioner_accepts_graph_dir(
        self, tmp_path, small_profile, second_small_profile
    ):
        from repro.dimensioning.first_fit import dimension_with_verification

        profiles = {
            small_profile.name: small_profile,
            second_small_profile.name: second_small_profile,
        }
        outcome = dimension_with_verification(
            profiles, engine="kernel", graph_dir=str(tmp_path)
        )
        assert outcome.slot_count >= 1
        # Every completed admission verification shipped its graph.
        assert any(name.endswith(".npz") for name in os.listdir(tmp_path))


class TestConcurrentCacheWrites:
    def test_temp_names_are_collision_free_across_threads(self, tmp_path):
        """The staging name must differ per call even within one process:
        a pid-only suffix would let two threads saving the same
        configuration clobber each other's half-written temp file."""
        from repro.verification.kernel import _temp_cache_path

        path = str(tmp_path / "graph-abc.npz")
        names = {_temp_cache_path(path) for _ in range(64)}
        assert len(names) == 64

    def test_racing_savers_leave_a_loadable_cache(
        self, tmp_path, small_profile, second_small_profile
    ):
        """Many threads saving the same configuration concurrently: the
        published cache entry must always be a complete, loadable graph
        (each save stages privately, then atomically replaces)."""
        from concurrent.futures import ThreadPoolExecutor

        config = _pair_config(small_profile, second_small_profile)

        def compile_one(_index):
            system = PackedSlotSystem(config)
            system.compiled_graph = CompiledStateGraph(system)
            system.compiled_graph.explore(5_000_000, False)
            return system

        systems = [compile_one(index) for index in range(4)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            paths = list(
                pool.map(lambda system: maybe_save_graph(system, str(tmp_path)), systems)
            )
        # skip-if-exists means not every saver wrote, but at least one did,
        # no temp litter survives, and the entry round-trips.
        assert any(path is not None for path in paths)
        assert sorted(os.listdir(tmp_path)) == [
            os.path.basename(graph_cache_path(str(tmp_path), config))
        ]
        fresh = PackedSlotSystem(config)
        assert maybe_load_graph(fresh, str(tmp_path))
        assert fresh.compiled_graph.complete
        assert fresh.compiled_graph.state_count == systems[0].compiled_graph.state_count

    def test_racing_processes_compile_exactly_once(
        self, tmp_path, small_profile, second_small_profile
    ):
        """Cross-process single-flight: N processes cold-verifying the same
        fingerprint concurrently produce exactly one compile — the losers
        find the winner's lockfile claim, wait out its publish and replay
        the shipped graph without expanding a single state — and the store
        ends up with exactly the one entry, no claim litter."""
        import multiprocessing

        context = multiprocessing.get_context("fork")
        barrier = context.Barrier(3)
        queue = context.Queue()
        profiles = [small_profile, second_small_profile]
        directory = str(tmp_path)

        def worker():
            from repro.scheduler.packed import clear_packed_caches

            clear_packed_caches()
            expansions = []
            original = CompiledStateGraph._expand_next_level

            def counting(self):
                expansions.append(self.expanded_levels)
                return original(self)

            CompiledStateGraph._expand_next_level = counting
            barrier.wait()
            result = verify_slot_sharing(
                profiles,
                with_counterexample=False,
                engine="kernel",
                graph_dir=directory,
            )
            queue.put((bool(expansions), result.feasible, result.explored_states))

        processes = [context.Process(target=worker) for _ in range(3)]
        for process in processes:
            process.start()
        results = [queue.get(timeout=120) for _ in processes]
        for process in processes:
            process.join(timeout=120)
        compiled = [flag for flag, _, _ in results]
        assert sum(compiled) == 1, f"expected exactly one compiler, got {results}"
        # All three agree on the verdict and the visited count...
        assert len({(feasible, states) for _, feasible, states in results}) == 1
        # ...and the store holds exactly the published entry (claims are
        # released after the publish, temp files never survive).
        config = _pair_config(small_profile, second_small_profile)
        assert sorted(os.listdir(directory)) == [
            os.path.basename(graph_cache_path(directory, config))
        ]
