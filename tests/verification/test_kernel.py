"""Tests for the compiled state-graph kernel.

Covers the open-addressing hash interner (collision-heavy synthetic keys,
>64-bit multi-word states, resize-under-growth), the incremental CSR
compilation and warm replay identity against the reference engine.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.scheduler.packed import PackedSlotSystem, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import (
    SequentialPackedEngine,
    resolve_engine,
    verify_slot_sharing,
)
from repro.verification.kernel import (
    CompiledStateGraph,
    PackedStateTable,
    as_void,
    compiled_graph_for,
    hash_words,
    unpack_words,
    void_to_words,
)


def _unique_keys(rng, count: int, words: int) -> np.ndarray:
    raw = rng.integers(0, 2**64, size=(count, words), dtype=np.uint64)
    return void_to_words(np.unique(as_void(raw)), words)


class TestPackedStateTable:
    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_intern_lookup_roundtrip(self, words):
        rng = np.random.default_rng(42)
        table = PackedStateTable(words)
        keys = _unique_keys(rng, 4000, words)
        ids, new_mask = table.intern(keys)
        assert new_mask.all()
        assert table.size == len(keys)
        # Ids are a permutation of the dense range, assigned in row order.
        assert (ids == np.arange(len(keys))).all()
        # The id-indexed state store holds the keys verbatim.
        assert (table.state_words[ids] == keys).all()
        # Re-interning is idempotent.
        again, fresh = table.intern(keys)
        assert (again == ids).all()
        assert not fresh.any()
        # Membership distinguishes present from absent.
        absent = _unique_keys(rng, 100, words)
        known = table.contains(keys[:50])
        assert known.all()
        mixed = table.lookup(np.vstack([keys[:10], absent[:10]]))
        assert (mixed[:10] == ids[:10]).all()
        # (Random absent keys collide with the 4000 present ones with
        # probability ~2**-50 per key; treat a hit as a real failure.)
        assert (mixed[10:] == -1).all()

    def test_resize_under_growth_keeps_all_keys(self):
        rng = np.random.default_rng(7)
        table = PackedStateTable(words=2, initial_capacity=8)
        inserted = []
        for _ in range(12):
            batch = _unique_keys(rng, 300, 2)
            table.intern(batch)
            inserted.append(batch)
        # Many doublings later every key must still resolve.
        assert table.capacity >= 4096
        for batch in inserted:
            assert table.contains(batch).all()
        total = np.unique(as_void(np.vstack(inserted))).shape[0]
        assert table.size == total

    def test_collision_heavy_degenerate_hash(self):
        """With every key hashed to the same slot the table degrades to one
        long linear-probe chain — membership and ids must stay exact."""

        class DegenerateTable(PackedStateTable):
            def _hash_words(self, keys):
                return np.zeros(keys.shape[0], dtype=np.uint64)

        table = DegenerateTable(words=1, initial_capacity=8)
        keys = np.arange(1, 601, dtype=np.uint64).reshape(-1, 1)
        first, new_mask = table.intern(keys[:300])
        assert new_mask.all()
        second, new_mask = table.intern(keys)
        assert (~new_mask[:300]).all() and new_mask[300:].all()
        assert (second[:300] == first).all()
        assert table.contains(keys).all()
        assert not table.contains(np.array([[10_000]], dtype=np.uint64)).any()

    def test_multiword_keys_differing_only_in_one_word(self):
        """Keys identical in all but one word must not alias (full-width
        compares, not fingerprints)."""
        table = PackedStateTable(words=3)
        base = np.zeros((64, 3), dtype=np.uint64)
        base[:, 2] = np.arange(64)  # differ in the least significant word
        high = base.copy()
        high[:, 0] = 1  # differ in the most significant word only
        ids_low, _ = table.intern(base)
        ids_high, new_mask = table.intern(high)
        assert new_mask.all()
        assert len(np.intersect1d(ids_low, ids_high)) == 0

    def test_intern_batch_order_assigns_ascending_ids(self):
        table = PackedStateTable(words=1)
        keys = np.array([[5], [9], [11], [200]], dtype=np.uint64)
        ids, _ = table.intern(keys)
        assert ids.tolist() == [0, 1, 2, 3]

    def test_hash_words_is_deterministic_and_spread(self):
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**64, size=(1000, 2), dtype=np.uint64)
        h1 = hash_words(keys)
        h2 = hash_words(keys)
        assert (h1 == h2).all()
        # Worker routing uses hash % workers: expect a roughly even split.
        buckets = np.bincount((h1 % np.uint64(4)).astype(np.int64), minlength=4)
        assert buckets.min() > 150

    def test_unpack_words_roundtrip(self):
        values = [0, 1, (1 << 64) - 1, 1 << 64, (1 << 70) | 12345]
        matrix = np.array(
            [((v >> 64) & ((1 << 64) - 1), v & ((1 << 64) - 1)) for v in values],
            dtype=np.uint64,
        )
        assert unpack_words(matrix) == values


def _reference_dedup(table: PackedStateTable, batch: np.ndarray):
    """The historical per-level pipeline: np.unique staging + intern."""
    words = batch.shape[1]
    unique_values, first_rows, inverse = np.unique(
        as_void(batch), return_index=True, return_inverse=True
    )
    unique_ids, new_mask = table.intern(void_to_words(unique_values, words))
    ids = unique_ids[inverse]
    first_mask = np.zeros(batch.shape[0], dtype=bool)
    new_rows = first_rows[new_mask].astype(np.int64)
    first_mask[new_rows] = True
    return ids, first_mask, new_rows


class TestInternDedup:
    """The fused dedupe–intern pass must be id-for-id identical to the old
    ``np.unique`` + ``intern`` pipeline on arbitrary duplicate-laden
    batches — same per-row ids, same first-occurrence rows (lowest row
    index per new key), same id-ordered new-row list, same table state."""

    @pytest.mark.parametrize("words", [1, 2, 3])
    def test_duplicate_heavy_fuzz_matches_reference(self, words):
        rng = np.random.default_rng(2024 + words)
        reference = PackedStateTable(words)
        fused = PackedStateTable(words)
        # A small value pool guarantees heavy duplication within batches
        # *and* heavy re-encounters of already-interned keys across them.
        pool = rng.integers(0, 64, size=(48, words)).astype(np.uint64)
        for _ in range(25):
            m = int(rng.integers(0, 200))
            batch = pool[rng.integers(0, pool.shape[0], size=m)]
            ref_ids, ref_mask, ref_rows = _reference_dedup(reference, batch)
            ids, first_mask, new_rows = fused.intern_dedup(batch)
            assert (ids == ref_ids).all()
            assert (first_mask == ref_mask).all()
            assert (new_rows == ref_rows).all()
            assert fused.size == reference.size
            assert (fused.state_words == reference.state_words).all()

    @pytest.mark.parametrize("words", [1, 2])
    def test_collision_heavy_degenerate_hash(self, words):
        """Everything hashes to one slot: the probe loop degenerates to a
        single chain and must still dedupe + intern exactly."""

        class DegenerateTable(PackedStateTable):
            def _hash_words(self, keys):
                return np.zeros(keys.shape[0], dtype=np.uint64)

        rng = np.random.default_rng(7)
        reference = DegenerateTable(words, initial_capacity=8)
        fused = DegenerateTable(words, initial_capacity=8)
        pool = rng.integers(0, 9, size=(24, words)).astype(np.uint64)
        for _ in range(10):
            batch = pool[rng.integers(0, pool.shape[0], size=120)]
            ref_ids, ref_mask, ref_rows = _reference_dedup(reference, batch)
            ids, first_mask, new_rows = fused.intern_dedup(batch)
            assert (ids == ref_ids).all()
            assert (first_mask == ref_mask).all()
            assert (new_rows == ref_rows).all()

    def test_new_ids_ascend_by_packed_value(self):
        table = PackedStateTable(words=2)
        batch = np.array(
            [[7, 1], [0, 5], [7, 1], [0, 3], [0, 5], [1, 0]], dtype=np.uint64
        )
        ids, first_mask, new_rows = table.intern_dedup(batch)
        # Distinct values sorted: (0,3) < (0,5) < (1,0) < (7,1).
        assert ids.tolist() == [3, 1, 3, 0, 1, 2]
        assert first_mask.tolist() == [True, True, False, True, False, True]
        # new_rows ordered by id: rows of (0,3), (0,5), (1,0), (7,1).
        assert new_rows.tolist() == [3, 1, 5, 0]
        # Duplicate rows of one key resolve to the lowest-row first flag.
        assert table.size == 4

    def test_empty_and_all_duplicate_batches(self):
        table = PackedStateTable(words=2)
        ids, first_mask, new_rows = table.intern_dedup(
            np.zeros((0, 2), dtype=np.uint64)
        )
        assert ids.size == 0 and first_mask.size == 0 and new_rows.size == 0
        batch = np.full((50, 2), 9, dtype=np.uint64)
        ids, first_mask, new_rows = table.intern_dedup(batch)
        assert (ids == 0).all()
        assert first_mask.sum() == 1 and first_mask[0]
        assert new_rows.tolist() == [0]
        # Re-offering only known keys inserts nothing.
        ids, first_mask, new_rows = table.intern_dedup(batch)
        assert (ids == 0).all() and not first_mask.any() and new_rows.size == 0


class TestCompiledStateGraph:
    def _system(self, *profiles, budget=None):
        return PackedSlotSystem(SlotSystemConfig.from_profiles(profiles, budget))

    def test_cold_compile_matches_sequential(self, small_profile, second_small_profile):
        system = self._system(small_profile, second_small_profile)
        reference = SequentialPackedEngine().explore(system, max_states=5_000_000)
        graph = CompiledStateGraph(system)
        count, levels, truncated, error, parents = graph.explore(5_000_000, True)
        assert error is None and not truncated
        assert count == reference.visited_count
        assert levels == reference.levels
        assert graph.complete
        # The predecessor stores span the identical states.
        assert set(parents) == set(reference.parents)
        # Every parent link references a previously discovered state.
        assert (graph.parent_ids < np.arange(1, graph.state_count)).all()

    def test_warm_replay_identical_without_expansion(
        self, small_profile, second_small_profile
    ):
        system = self._system(small_profile, second_small_profile)
        graph = CompiledStateGraph(system)
        cold = graph.explore(5_000_000, True)
        transitions = graph.transition_count
        expanded = graph.expanded_levels
        system.clear_memo()  # replay must not need the successor memo
        warm = graph.explore(5_000_000, True)
        assert warm[:4] == cold[:4]
        assert graph.transition_count == transitions
        assert graph.expanded_levels == expanded
        assert not system._successor_memo  # nothing was re-expanded

    def test_csr_structure_is_consistent(self, small_profile):
        system = self._system(small_profile, budget={"A": 2})
        graph = CompiledStateGraph(system)
        graph.explore(5_000_000, False)
        indptr = graph.indptr
        assert indptr[0] == 0
        assert (np.diff(indptr) > 0).all()  # every state has successors
        assert indptr[-1] == graph.transition_count
        assert graph.successor_ids.shape == graph.labels.shape
        assert graph.successor_ids.max() < graph.state_count
        # CSR rows replay the memoized successor lists exactly.
        for state_id in range(len(indptr) - 1):
            state = graph.states_as_ints(state_id, state_id + 1)[0]
            expected = {
                (mask, succ) for mask, succ, _ in system.successors(state)
            }
            low, high = int(indptr[state_id]), int(indptr[state_id + 1])
            succ_ints = graph.states_as_ints(0, graph.state_count)
            actual = {
                (int(graph.labels[row]), succ_ints[int(graph.successor_ids[row])])
                for row in range(low, high)
            }
            assert actual == expected

    def test_truncation_is_deterministic_id_prefix(
        self, small_profile, second_small_profile
    ):
        system = self._system(small_profile, second_small_profile)
        graph = CompiledStateGraph(system)
        full = graph.explore(5_000_000, False)
        capped = graph.explore(40, True)
        assert capped[2]  # truncated
        assert capped[0] == 40
        again = graph.explore(40, True)
        assert again[:4] == capped[:4]
        assert full[0] > 40

    def test_cap_extension_resumes_compilation(
        self, small_profile, second_small_profile
    ):
        system = self._system(small_profile, second_small_profile)
        reference = SequentialPackedEngine().explore(
            system, max_states=5_000_000, with_parents=False
        )
        graph = CompiledStateGraph(system)
        small = graph.explore(40, False)
        assert small[2] and not graph.complete
        extended = graph.explore(5_000_000, False)
        assert not extended[2]
        assert extended[0] == reference.visited_count
        assert graph.complete

    def test_compiled_graph_for_caches_on_system(self, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        system = packed_system_for(config)
        graph = compiled_graph_for(system)
        assert compiled_graph_for(system) is graph
        system.clear_memo()
        assert system.compiled_graph is None
        assert compiled_graph_for(system) is not graph

    def test_auto_replays_complete_graph(self, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        system = packed_system_for(config)
        system.clear_memo()
        cap = 5_000_000
        # "auto" compiles the graph on its first run...
        cold = resolve_engine("auto").explore(system, max_states=cap)
        graph = system.compiled_graph
        assert cold.engine == "kernel" and graph.complete
        transitions = graph.transition_count
        expanded = graph.expanded_levels
        # ... and replays the frozen graph on every later run, with or
        # without a cap (truncation is a deterministic id prefix).
        warm = resolve_engine("auto").explore(system, max_states=cap)
        assert (warm.visited_count, warm.levels, warm.truncated) == (
            cold.visited_count,
            cold.levels,
            cold.truncated,
        )
        capped = resolve_engine("auto").explore(
            system, max_states=graph.state_count
        )
        assert capped.visited_count == graph.state_count
        assert system.compiled_graph is graph
        assert graph.transition_count == transitions
        assert graph.expanded_levels == expanded

    def test_error_graph_replays_same_witness(
        self, small_profile, second_small_profile, tight_profile
    ):
        profiles = [small_profile, second_small_profile, tight_profile]
        cold = verify_slot_sharing(profiles, engine="kernel")
        assert not cold.feasible
        warm = verify_slot_sharing(profiles, engine="kernel")
        assert not warm.feasible
        assert warm.explored_states == cold.explored_states
        assert warm.counterexample == cold.counterexample
        assert warm.counterexample[-1].missed
