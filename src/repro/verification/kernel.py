"""Compiled state-graph kernel for the exploration engines.

The engines of :mod:`repro.verification.engine` repeatedly pay two costs
that this module eliminates:

* **Per-state Python objects in the set work.**  A sorted ``uint64``
  visited array re-built with ``np.insert`` every BFS level costs O(n) per
  level, quadratic over a run.
  :class:`PackedStateTable` replaces it with an open-addressing hash table
  (numpy arrays, power-of-two capacity, linear probing in the C loop of
  :mod:`repro._native`): membership and insert are amortized O(1) per key,
  batched over whole frontiers, and states wider than 64 bits are stored
  as multi-word rows and hashed down to one word.
* **Re-expanding states on warm re-verification.**  The paper's Sec. 5
  workload — first-fit dimensioning retries, benchmark rounds, the
  verification-time experiments — verifies the same configuration many
  times.  :class:`CompiledStateGraph` interns every discovered packed state
  into a dense ``int32`` id *during* the first exploration and records the
  transition structure as CSR arrays (``indptr`` / ``successor_ids`` /
  ``labels`` keyed by id, the dense transition-table representation
  tulip-control uses for its transition systems).  A second exploration of
  the same configuration replays the frozen level structure without
  expanding a single state — the per-level loop touches only id ranges and
  cached level sizes.  The graph is cached on the owning
  :class:`~repro.scheduler.packed.PackedSlotSystem`
  (``packed_system_for``-style), so it shares the lifetime and the
  ``clear_packed_caches`` policy of the successor memo.

The predecessor store is id-based: :class:`CsrParentStore` exposes the
compiled parent arrays through the read-only ``Mapping`` interface the
callers already consume (``successor state -> (parent state, label)``), so
trace reconstruction works unchanged, plus an ``arrival_chain`` fast path
that walks ids instead of hashing packed ints.

Exploration is level-synchronous: identical visited counts to the
sequential engine on feasible complete runs, identical error depth on
infeasible ones, deterministic truncation by sorted order
within the level that would cross ``max_states`` (see the semantics notes
in :mod:`repro.verification.engine`).
"""

from __future__ import annotations

import itertools
import logging
import os
from collections.abc import Mapping
from typing import List, Optional, Tuple

import numpy as np

from .. import _native
from .._validation import env_int
from ..exceptions import VerificationError
from ..scheduler.packed import unpack_words

logger = logging.getLogger(__name__)

__all__ = [
    "PackedStateTable",
    "CheckpointPolicy",
    "CompiledStateGraph",
    "CsrParentStore",
    "checkpoint_policy_from_env",
    "compiled_graph_for",
    "config_fingerprint",
    "load_graph",
    "maybe_load_graph",
    "maybe_save_graph",
    "save_graph",
    "hash_words",
    "unpack_words",
]

#: On-disk ``.npz`` format version of :meth:`CompiledStateGraph.save`.
#: Version 2 packs states with the narrowest field widths (see
#: :mod:`repro.scheduler.packed`); store entries and checkpoints of older
#: versions are logged, dropped and recompiled.
GRAPH_FORMAT_VERSION = 2

def hash_words(word_matrix: np.ndarray) -> np.ndarray:
    """One mixed ``uint64`` hash per multi-word state row.

    A splitmix64 finalizer per word folded FNV-style across the columns
    (``nk_hash`` of :mod:`repro._native`): the probe hash of
    :class:`PackedStateTable`, which ``nk_level`` computes in place.
    """
    keys = np.ascontiguousarray(word_matrix, dtype=np.uint64)
    hashes = np.empty(keys.shape[0], dtype=np.uint64)
    _native.load().nk_hash(keys.ctypes.data, keys.shape[0], keys.shape[1], hashes.ctypes.data)
    return hashes


def _void_dtype(words: int) -> np.dtype:
    """Structured dtype whose lexicographic order equals numeric order of
    the packed value (most significant word first)."""
    return np.dtype([(f"w{j}", np.uint64) for j in range(words)])


def as_void(word_matrix: np.ndarray) -> np.ndarray:
    """View word rows as one sortable scalar per state (for ``np.unique``).

    Single-word states stay plain ``uint64`` (structured-void comparisons
    are several times slower than native integer sorts); wider states view
    as one structured scalar per row, whose lexicographic order equals the
    numeric order of the packed value.  Either way the result sorts by
    packed value and round-trips through :func:`void_to_words`.
    """
    if word_matrix.shape[1] == 1:
        return np.ascontiguousarray(word_matrix).ravel()
    return (
        np.ascontiguousarray(word_matrix)
        .view(_void_dtype(word_matrix.shape[1]))
        .ravel()
    )


def void_to_words(void_values: np.ndarray, words: int) -> np.ndarray:
    """Inverse of :func:`as_void`: sortable scalars back to word rows."""
    return np.ascontiguousarray(void_values).view(np.uint64).reshape(-1, words)


class PackedStateTable:
    """Open-addressing hash interner for packed multi-word states.

    The table maps ``uint64`` word rows to dense consecutive ids.  Layout:

    * ``_slots`` — the open-addressing array (power-of-two capacity) holding
      state ids, ``-1`` when empty; collisions resolve by linear probing.
    * ``_states`` — the id-indexed key store: row ``i`` is the word row of
      state id ``i``.  Slot entries carry only the 4-byte id, key compares
      read this single canonical array, and ``state_words`` exposes it as
      the dense id → state table of the compiled graph.

    All operations are batched: ``intern`` / ``lookup`` / ``contains`` take
    an ``(m, words)`` matrix, hash it with :meth:`_hash_words` and run the
    native probe loop of :mod:`repro._native` over the whole batch in one
    call, so there is no per-key Python work.  The load factor is kept
    below ~0.6, which bounds the expected probe length to a small constant
    — amortized O(1) membership and insert per key, independent of table
    size.

    ``intern`` requires the batch itself to be duplicate-free;
    :meth:`intern_dedup` accepts arbitrary duplicate-laden batches and
    dedupes them *inside* the probe loop — the per-level set operation of
    the sequential engine and of the compiled graph's error levels.  ``lookup`` and
    ``contains`` accept anything.  :class:`CompiledStateGraph` does not
    call them per level: its ``nk_level`` call probes, claims and numbers
    a level's successors in this table's arrays itself, with
    :func:`hash_words`, so a table whose :meth:`_hash_words` is overridden
    serves the batch API only.

    Args:
        words: ``uint64`` words per state row.
        initial_capacity: initial slot-array capacity (rounded up to a
            power of two).
    """

    __slots__ = ("_words", "_capacity", "_slots", "_states", "_size")

    def __init__(self, words: int = 1, initial_capacity: int = 1 << 12) -> None:
        if words < 1:
            raise ValueError(f"state word count must be positive, got {words}")
        capacity = 8
        while capacity < initial_capacity:
            capacity <<= 1
        self._words = int(words)
        self._capacity = capacity
        # Slot entries are int32: a dense id (or an in-batch provisional
        # marker) always fits, and halving the probe array's bytes halves
        # the cache and RSS cost of the random probe traffic.
        self._slots = np.full(capacity, -1, dtype=np.int32)
        # Rows past ``size`` are written before they are read.
        self._states = np.empty((max(capacity >> 1, 8), self._words), dtype=np.uint64)
        self._size = 0

    # ------------------------------------------------------------ properties
    @property
    def size(self) -> int:
        """Number of interned states (== the next id to be assigned)."""
        return self._size

    @property
    def capacity(self) -> int:
        """Current slot-array capacity (always a power of two)."""
        return self._capacity

    @property
    def words(self) -> int:
        return self._words

    @property
    def state_words(self) -> np.ndarray:
        """Dense id → word-row table (``(size, words)`` view, id order)."""
        return self._states[: self._size]

    def __len__(self) -> int:
        return self._size

    # ------------------------------------------------------------ internals
    def _hash_words(self, keys: np.ndarray) -> np.ndarray:
        """Probe hash of a key batch (overridable for collision tests)."""
        return hash_words(keys)

    def _probe(self, keys: np.ndarray, claim: bool):
        """Native probe loop over a key batch; ``(ids, claimed, slot_of,
        pending)`` as ``nk_probe`` fills them (see ``_native.c``)."""
        m = keys.shape[0]
        # reshape raises unless there is one hash per key, as the C loop reads.
        hashes = np.ascontiguousarray(self._hash_words(keys), dtype=np.uint64).reshape(m)
        ids = np.empty(m, dtype=np.int64)
        claimed, slot_of = np.empty((2, m if claim else 0), dtype=np.int64)
        pending = np.empty((m if claim else 0, self._words), dtype=np.uint64)
        claims = _native.load().nk_probe(
            self._slots.ctypes.data, self._capacity - 1, self._states.ctypes.data,
            keys.ctypes.data, hashes.ctypes.data, m, self._words, int(claim),
            ids.ctypes.data, pending.ctypes.data, claimed.ctypes.data, slot_of.ctypes.data,
        )
        return ids, claimed[:claims], slot_of, pending

    def _reserve(self, incoming: int) -> None:
        """Grow key store / rehash slots so ``incoming`` inserts stay < 0.6 load."""
        needed = self._size + incoming
        if needed >= 2**31 - 2:
            raise VerificationError(
                "packed state table exceeds the int32 id space "
                f"({needed:,} states)"
            )
        if needed > self._states.shape[0]:
            state_capacity = self._states.shape[0]
            while state_capacity < needed:
                state_capacity <<= 1
            grown = np.empty((state_capacity, self._words), dtype=np.uint64)
            grown[: self._size] = self._states[: self._size]
            self._states = grown
        if needed * 5 >= self._capacity * 3:
            capacity = self._capacity
            while needed * 5 >= capacity * 3:
                capacity <<= 1
            if self._size >= (1 << 17):
                # Large tables grow 4x extra per rehash: re-inserting
                # millions of existing keys dominates the insert cost, and
                # the wider headroom cuts the number of big rehashes
                # (usually absorbing the final one entirely) for two
                # extra doublings of the 4-byte slot array.
                capacity <<= 2
            self._capacity = capacity
            self._slots = np.full(capacity, -1, dtype=np.int32)
            if self._size:
                hashes = np.ascontiguousarray(
                    self._hash_words(self._states[: self._size]), dtype=np.uint64
                )
                _native.load().nk_rehash(
                    self._slots.ctypes.data, capacity - 1, hashes.ctypes.data, self._size
                )

    def _insert(self, keys: np.ndarray, by_value: bool) -> Tuple[np.ndarray, np.ndarray]:
        """Intern a key batch; ``(ids, new_rows)``.  New ids follow the
        packed value (``by_value``) or the row order of the first rows of
        the new keys; ``new_rows`` lists those first rows in new-id order."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1, self._words)
        # Worst case every row is a distinct new key: reserving up front
        # keeps the load factor bounded while this batch claims slots.
        self._reserve(keys.shape[0])
        ids, claimed, slot_of, pending = self._probe(keys, claim=True)
        if _native.load().nk_commit(
            self._slots.ctypes.data, self._states.ctypes.data, pending.ctypes.data,
            self._words, claimed.ctypes.data, slot_of.ctypes.data, claimed.size,
            self._size, int(by_value), ids.ctypes.data, keys.shape[0],
        ):
            raise MemoryError("no memory to number the new states")
        self._size += int(claimed.size)
        return ids, claimed

    # ------------------------------------------------------------ operations
    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Ids of a key batch, ``-1`` where a key is not interned."""
        keys = np.ascontiguousarray(keys, dtype=np.uint64).reshape(-1, self._words)
        return self._probe(keys, claim=False)[0]

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask of a key batch."""
        return self.lookup(keys) >= 0

    def intern(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Ids of a duplicate-free key batch, inserting the unseen ones.

        New keys receive consecutive ids (``size``, ``size + 1``, ...) in
        batch-row order — engines pass batches sorted by packed value, so
        ids within one BFS level ascend with the packed value, which is
        what makes truncation-by-id-prefix deterministic.

        Returns:
            ``(ids, new_mask)`` — ``int64`` ids per row and a boolean mask
            flagging the rows that were newly inserted.
        """
        ids, new_rows = self._insert(keys, by_value=False)
        new_mask = np.zeros(ids.shape[0], dtype=bool)
        new_mask[new_rows] = True
        return ids, new_mask

    def intern_dedup(
        self, keys: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Ids of an arbitrary, duplicate-laden key batch in one fused pass.

        The engines' per-level set operation: successor multisets go in,
        dense ids come out, and the dedupe happens *inside* the probe loop.
        Rows probe in order; a row that reaches an empty slot claims it with
        a provisional marker, and later duplicates of the same key resolve
        against the marker exactly like they resolve against an interned id
        — one probe chain per row, no pre-sort, no second insert pass.

        New keys receive consecutive ids ascending by packed value within
        the batch (only the distinct *new* keys are sorted), so the result
        is id-for-id identical to the historical ``np.unique`` +
        :meth:`intern` pipeline: deterministic truncation-by-id-prefix is
        preserved.

        Returns:
            ``(ids, first_mask, new_rows)`` — the ``int64`` dense id of
            every input row (duplicate rows map to the same id), a boolean
            mask flagging, for each *newly inserted* key, its first
            occurrence row (the lowest row index, matching ``np.unique``'s
            stable ``return_index``), and those same first-occurrence rows
            ordered by ascending new id (equivalently: by packed value) —
            the order the callers append parent records and frontiers in.
        """
        ids, new_rows = self._insert(keys, by_value=True)
        first_mask = np.zeros(ids.shape[0], dtype=bool)
        first_mask[new_rows] = True
        return ids, first_mask, new_rows


class _GrowableRows:
    """Append-only numpy array with amortized-O(1) geometric growth."""

    __slots__ = ("_data", "_len")

    def __init__(self, dtype, cols: int = 0, capacity: int = 16) -> None:
        shape = (capacity,) if cols == 0 else (capacity, cols)
        self._data = np.zeros(shape, dtype=dtype)
        self._len = 0

    def reserve(self, extra: int) -> int:
        """Make room for ``extra`` more rows; the address of the first, for
        a native loop to fill before :meth:`advance`."""
        needed = self._len + extra
        if needed > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < needed:
                capacity <<= 1
            grown = np.empty((capacity,) + self._data.shape[1:], self._data.dtype)
            grown[: self._len] = self._data[: self._len]
            self._data = grown
        return self._data.ctypes.data + self._len * self._data.strides[0]

    def advance(self, count: int) -> None:
        """Take ``count`` rows filled in place after :meth:`reserve`."""
        self._len += count

    def extend(self, rows: np.ndarray) -> None:
        self.reserve(len(rows))
        self._data[self._len : self._len + len(rows)] = rows
        self._len += len(rows)

    def __len__(self) -> int:
        return self._len

    @property
    def view(self) -> np.ndarray:
        return self._data[: self._len]


class CsrParentStore(Mapping):
    """Id-based predecessor store of a compiled packed graph.

    Read-only ``Mapping`` view ``successor packed int -> (parent packed
    int, arrival mask)`` over the kernel's dense parent arrays, spanning
    exactly the states visible to one exploration (ids ``1 ..
    visible_count - 1``; the root has no parent).  ``arrival_chain`` walks
    the id arrays directly — the trace-reconstruction fast path that never
    hashes a packed int.
    """

    __slots__ = ("_graph", "_count")

    def __init__(self, graph: "CompiledStateGraph", visible_count: int) -> None:
        self._graph = graph
        self._count = int(visible_count)

    def _id_of(self, state: int) -> int:
        graph = self._graph
        ids = graph.table.lookup(graph.system.pack_words([int(state)]))
        state_id = int(ids[0])
        if state_id < 1 or state_id >= self._count:
            raise KeyError(state)
        return state_id

    def __getitem__(self, state: int) -> Tuple[int, int]:
        state_id = self._id_of(state)
        graph = self._graph
        parent_id = int(graph.parent_ids[state_id - 1])
        parent = graph.states_as_ints(parent_id, parent_id + 1)[0]
        return parent, int(graph.parent_labels[state_id - 1])

    def __contains__(self, state: object) -> bool:
        try:
            self._id_of(state)  # type: ignore[arg-type]
        except (KeyError, TypeError):
            return False
        return True

    def __len__(self) -> int:
        return max(self._count - 1, 0)

    def __iter__(self):
        return iter(self._graph.states_as_ints(1, self._count))

    def arrival_chain(self, state: int) -> List[int]:
        """Arrival masks along the BFS tree path root → ``state``."""
        graph = self._graph
        root = graph.system.initial
        if int(state) == root:
            return []
        state_id = self._id_of(state)
        parent_ids = graph.parent_ids
        parent_labels = graph.parent_labels
        masks: List[int] = []
        while state_id != 0:
            masks.append(int(parent_labels[state_id - 1]))
            state_id = int(parent_ids[state_id - 1])
        masks.reverse()
        return masks


#: Environment variable: checkpoint a cold compile's partial graph every N
#: expanded BFS levels (unset/0 disables the level trigger).
CHECKPOINT_LEVELS_ENV_VAR = "REPRO_CHECKPOINT_LEVELS"

#: Environment variable: additionally checkpoint whenever the graph grew by
#: this many (approximate) bytes since the last checkpoint — deep levels of
#: a wide graph can dwarf the level cadence (unset/0 disables).
CHECKPOINT_BYTES_ENV_VAR = "REPRO_CHECKPOINT_BYTES"


class CheckpointPolicy:
    """When and where a compiling graph stages exploration checkpoints.

    Attached to a :class:`CompiledStateGraph` by the compile-claim holder
    (see :mod:`repro.verification.exhaustive`): after each level expanded
    during :meth:`CompiledStateGraph.explore`, the graph checks the policy
    and, when a trigger fires, hands its owning system to ``sink`` —
    normally :meth:`~repro.verification.store.GraphStore
    .publish_checkpoint`, which stages the partial graph atomically under
    the configuration fingerprint.  Triggers are *growth since the last
    checkpoint* (levels and/or approximate bytes), so a graph resumed from
    a checkpoint does not immediately re-checkpoint the same prefix.
    """

    __slots__ = (
        "sink",
        "every_levels",
        "every_bytes",
        "written",
        "_last_level",
        "_last_bytes",
    )

    def __init__(
        self,
        sink,
        every_levels: Optional[int] = None,
        every_bytes: Optional[int] = None,
    ) -> None:
        self.sink = sink
        self.every_levels = every_levels
        self.every_bytes = every_bytes
        #: Checkpoints staged through this policy (observability/tests).
        self.written = 0
        self._last_level = 0
        self._last_bytes = 0

    def rebase(self, graph: "CompiledStateGraph") -> None:
        """Take the graph's current size as the no-growth baseline."""
        self._last_level = graph.expanded_levels
        self._last_bytes = graph.approx_bytes()

    def due(self, graph: "CompiledStateGraph") -> bool:
        """Whether the graph grew enough for another checkpoint."""
        if (
            self.every_levels
            and graph.expanded_levels - self._last_level >= self.every_levels
        ):
            return True
        if (
            self.every_bytes
            and graph.approx_bytes() - self._last_bytes >= self.every_bytes
        ):
            return True
        return False

    def note_written(self, graph: "CompiledStateGraph") -> None:
        """Record a staged checkpoint and rebase the growth counters."""
        self.written += 1
        self.rebase(graph)


def checkpoint_policy_from_env(sink) -> Optional["CheckpointPolicy"]:
    """A :class:`CheckpointPolicy` per the checkpoint env knobs, or ``None``.

    Checkpointing is opt-in: with neither ``REPRO_CHECKPOINT_LEVELS`` nor
    ``REPRO_CHECKPOINT_BYTES`` set (the default), cold compiles stay
    all-or-nothing as before and pay zero checkpoint overhead.
    """

    def _read(name: str) -> Optional[int]:
        value = env_int(name, logger.warning)
        return value if value is not None and value > 0 else None

    every_levels = _read(CHECKPOINT_LEVELS_ENV_VAR)
    every_bytes = _read(CHECKPOINT_BYTES_ENV_VAR)
    if every_levels is None and every_bytes is None:
        return None
    return CheckpointPolicy(sink, every_levels=every_levels, every_bytes=every_bytes)


class CompiledStateGraph:
    """Incrementally compiled CSR state graph of one packed slot system.

    Compilation happens lazily *during* the first exploration, one native
    ``nk_level`` call per BFS level: every discovered packed state is
    interned into a dense ``int32`` id (:class:`PackedStateTable`), and
    each level appends its transition rows to CSR arrays —
    ``indptr[id] : indptr[id + 1]`` delimits the successor rows of state
    ``id``, ``successor_ids`` / ``labels`` hold the target ids and arrival
    masks.  The BFS tree (``parent_ids`` / ``parent_labels``, row
    ``id - 1``) and the level boundaries (``level_ptr``) are compiled
    alongside.

    Ids are assigned in BFS discovery order, ascending by packed value
    within a level, so a level is an id *range* and a deterministic
    truncation is an id *prefix*.  A warm :meth:`explore` of a finished (or
    error-stopped) graph replays the frozen level structure without
    expanding, packing or hashing a single state; a cap-extended run
    resumes compilation exactly where the previous one stopped.
    """

    __slots__ = (
        "system",
        "words",
        "table",
        "level_ptr",
        "expanded_levels",
        "complete",
        "error",
        "error_level",
        "_indptr",
        "_succ_ids",
        "_labels",
        "_parent_ids",
        "_parent_labels",
        "checkpoint",
        "expansion_count",
        "resumed_levels",
    )

    def __init__(self, system) -> None:
        self.system = system
        self.words = int(system.packed_words)
        self.table = PackedStateTable(self.words)
        self.table.intern(system.pack_words([system.initial]))
        #: ``level_ptr[d] : level_ptr[d + 1]`` is the id range of BFS depth d.
        self.level_ptr: List[int] = [0, 1]
        #: Number of BFS levels whose expansion is compiled.
        self.expanded_levels = 0
        #: The deepest level expanded to no new states (graph is frozen).
        self.complete = False
        #: Deterministic error witness ``(parent, mask, successor)`` packed
        #: ints, or ``None``; set at most once (compilation stops there).
        self.error: Optional[Tuple[int, int, int]] = None
        #: Level whose expansion found the error (``-1`` while error-free).
        self.error_level = -1
        self._indptr = _GrowableRows(np.int64)
        self._indptr.extend(np.zeros(1, dtype=np.int64))
        self._succ_ids = _GrowableRows(np.int32)
        self._labels = _GrowableRows(np.uint64)
        self._parent_ids = _GrowableRows(np.int32)
        self._parent_labels = _GrowableRows(np.uint64)
        #: Active :class:`CheckpointPolicy`, or ``None`` (the default: no
        #: checkpoint overhead).  Installed via :meth:`set_checkpoint_policy`
        #: by the compile-claim holder.
        self.checkpoint: Optional[CheckpointPolicy] = None
        #: Levels *this graph object* expanded itself (a loaded graph starts
        #: at 0) — lets resume tests counter-assert that a checkpointed
        #: compile re-explored only post-checkpoint levels.
        self.expansion_count = 0
        #: Levels that were already compiled when this graph was loaded
        #: (0 for cold-built graphs).
        self.resumed_levels = 0

    # ------------------------------------------------------------ accessors
    @property
    def state_count(self) -> int:
        """Number of interned (discovered) states."""
        return self.table.size

    @property
    def transition_count(self) -> int:
        """Number of compiled CSR transition rows."""
        return len(self._succ_ids)

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer, indexed by state id (expanded prefix only)."""
        return self._indptr.view

    @property
    def successor_ids(self) -> np.ndarray:
        """CSR column array: dense successor id per transition row."""
        return self._succ_ids.view

    @property
    def labels(self) -> np.ndarray:
        """Arrival mask per CSR transition row."""
        return self._labels.view

    @property
    def parent_ids(self) -> np.ndarray:
        """BFS-tree parent id of state ``id`` at row ``id - 1``."""
        return self._parent_ids.view

    @property
    def parent_labels(self) -> np.ndarray:
        """BFS-tree arrival mask of state ``id`` at row ``id - 1``."""
        return self._parent_labels.view

    def approx_bytes(self) -> int:
        """Approximate serialized size of the compiled arrays.

        Cheap (pure arithmetic on the counters), used by the byte-growth
        checkpoint trigger: interned state rows + CSR columns + row pointer
        + parent store, at their in-memory widths.
        """
        states = self.state_count
        transitions = self.transition_count
        return (
            states * self.words * 8  # interned state rows
            + transitions * (4 + 8)  # succ_ids + labels
            + states * 8  # indptr
            + states * (4 + 8)  # parent_ids + parent_labels
        )

    def states_as_ints(self, start: int, stop: int) -> List[int]:
        """Packed Python ints of the id range (one bulk conversion)."""
        return unpack_words(self.table.state_words[start:stop])

    def id_of_packed(self, state: int) -> int:
        """Dense id of a packed state (``-1`` when not discovered)."""
        return int(self.table.lookup(self.system.pack_words([int(state)]))[0])

    # ---------------------------------------------------------- compilation
    def _expand_next_level(self) -> None:
        """Compile the expansion of the next unexpanded BFS level.

        The frontier never leaves word form: the level's id range of the
        interner's key store goes to :meth:`_expand_fused`, one native call
        that appends the whole level.  A level whose frontier misses a
        deadline, and a configuration too wide for the native expansion,
        take :meth:`_expand_composed` instead.
        """
        k = self.expanded_levels
        self.expansion_count += 1
        first, last = self.level_ptr[k], self.level_ptr[k + 1]
        self.expanded_levels = k + 1
        new = -1
        if self.system.can_expand_frontier:
            new = self._expand_fused(self.system._frontier_expander(), first, last)
        if new < 0:
            new = self._expand_composed(k, first, last)
            if new is None:
                return
        if new == 0:
            self.complete = True
            return
        self.level_ptr.append(self.table.size)

    def _expand_fused(self, expander, first: int, last: int) -> int:
        """Compile a level with one ``nk_level`` call; the new state count,
        or -1, with nothing changed, when a frontier state misses a deadline.

        Python adds the block-table rows the frontier needs
        (:meth:`~repro.scheduler.packed._FrontierExpander.block_rows`) and
        reserves room for every transition being a new state, the bound of
        :meth:`PackedStateTable._reserve`.  The C loop then expands, hashes
        and probes each transition in ``successors()`` order, numbers the
        new states by packed value and writes ``indptr``, the successor ids,
        labels and parents at the arrays' ends.
        """
        table = self.table
        total, rows, eligible, missed = expander.block_rows(table.state_words[first:last])
        if missed:
            return -1
        table._reserve(total)
        frontier = table.state_words[first:last]  # the reserve may move the key store
        count = last - first
        new = _native.load().nk_level(
            frontier.ctypes.data, count, *expander.tables, rows.ctypes.data,
            eligible.ctypes.data, table._slots.ctypes.data, table._capacity - 1,
            table._states.ctypes.data, table._size, first, len(self._succ_ids),
            self._indptr.reserve(count), self._succ_ids.reserve(total),
            self._labels.reserve(total), self._parent_ids.reserve(total),
            self._parent_labels.reserve(total),
        )
        if new < 0:
            raise MemoryError("no memory to compile a BFS level")
        table._size += new
        self._indptr.advance(count)
        self._succ_ids.advance(total)
        self._labels.advance(total)
        self._parent_ids.advance(new)
        self._parent_labels.advance(new)
        return new

    def _expand_composed(self, k: int, first: int, last: int) -> Optional[int]:
        """Compile a level through the batch APIs (``expand_frontier`` or
        per-state ``successors()``, then :meth:`PackedStateTable.intern_dedup`);
        the new state count, or ``None`` when it records the level's error
        witness.  Packed Python ints are materialized only for a witness.
        """
        frontier_words = self.table.state_words[first:last]
        indptr, succ_words, masks, miss, origin = (
            self.system.successor_tables_words_origin(frontier_words)
        )
        if miss.any():
            frontier = self.states_as_ints(first, last)
            rows = np.flatnonzero(miss)
            parent_rows = origin[rows]
            candidates = []
            for row, parent_row in zip(rows.tolist(), parent_rows.tolist()):
                successor = unpack_words(succ_words[row : row + 1])[0]
                candidates.append((frontier[parent_row], int(masks[row]), successor))
            # Same deterministic witness rule as the level-synchronous
            # engines: the minimal (parent, mask) pair of the level.
            self.error = min(candidates, key=lambda entry: (entry[0], entry[1]))
            self.error_level = k
            return None
        ids, _, firsts = self.table.intern_dedup(succ_words)
        self._indptr.extend(indptr[1:] + len(self._succ_ids))
        self._succ_ids.extend(ids)
        self._labels.extend(masks)
        # Parent records live at row id-1; firsts already come ordered by
        # the (value-ascending) new ids.
        self._parent_ids.extend(first + origin[firsts])
        self._parent_labels.extend(masks[firsts])
        return int(firsts.size)

    # --------------------------------------------------------- checkpointing
    def set_checkpoint_policy(self, policy: Optional[CheckpointPolicy]) -> None:
        """Install (or clear) the checkpoint policy of this compile.

        The policy is rebased onto the graph's current size, so a graph
        resumed from a checkpoint waits for fresh growth before staging the
        next one.
        """
        self.checkpoint = policy
        if policy is not None:
            policy.rebase(self)

    def _maybe_checkpoint(self) -> None:
        """Stage a checkpoint when the policy's growth trigger fired.

        Called once per freshly expanded level from :meth:`explore`.  A
        finished graph never checkpoints — it publishes as a real store
        entry instead — and the sink is only consulted while a policy is
        installed, so the default compile path pays one attribute check.
        """
        policy = self.checkpoint
        if policy is None or self.complete or self.error is not None:
            return
        if not policy.due(self):
            return
        policy.sink(self.system)
        policy.note_written(self)

    # -------------------------------------------------------- serialization
    def save(self, path) -> None:
        """Persist the compiled graph as plain arrays (``.npz``).

        Everything the replay needs ships as flat numpy arrays — the
        interned state rows, the level boundaries, the CSR transition
        arrays and the BFS parent store — plus the configuration
        fingerprint (:func:`config_fingerprint`) that :meth:`load` checks,
        so warm graphs can cross process (and CI job) boundaries.
        Partially compiled graphs save too; a load resumes compilation
        where the save stopped.

        Args:
            path: filename or open binary file object
                (``numpy.savez_compressed`` semantics: a ``.npz`` suffix is
                appended to plain filenames that lack it).
        """
        has_error = self.error is not None
        if has_error:
            error_words = self.system.pack_words([self.error[0], self.error[2]])
            error_mask = np.uint64(self.error[1])
        else:
            error_words = np.zeros((0, self.words), dtype=np.uint64)
            error_mask = np.uint64(0)
        meta = np.array(
            [
                GRAPH_FORMAT_VERSION,
                self.system.state_bits,
                self.words,
                self.state_count,
                self.expanded_levels,
                int(self.complete),
                self.error_level,
                int(has_error),
            ],
            dtype=np.int64,
        )
        np.savez_compressed(
            path,
            meta=meta,
            fingerprint=np.array(config_fingerprint(self.system.config)),
            state_words=self.table.state_words,
            level_ptr=np.array(self.level_ptr, dtype=np.int64),
            indptr=self.indptr,
            succ_ids=self.successor_ids,
            labels=self.labels,
            parent_ids=self.parent_ids,
            parent_labels=self.parent_labels,
            error_words=error_words,
            error_mask=error_mask,
        )

    @classmethod
    def load(cls, path, system) -> "CompiledStateGraph":
        """Rebuild a compiled graph saved by :meth:`save`.

        The interner is repopulated by one batched ``intern`` of the saved
        state rows (ids are assigned in row order, so the dense id space is
        reproduced exactly) and the CSR/parent arrays are adopted verbatim;
        a loaded graph replays — or, when saved mid-compilation, resumes —
        byte-identically to the graph that was saved.

        Args:
            path: filename or open binary file object.
            system: the :class:`~repro.scheduler.packed.PackedSlotSystem`
                the graph belongs to; its configuration fingerprint, word
                count and initial state must match the saved ones.

        Raises:
            VerificationError: wrong format version, fingerprint/layout
                mismatch, or structurally corrupt arrays.
        """
        with np.load(path, allow_pickle=False) as data:
            meta = data["meta"]
            if meta.shape[0] != 8 or int(meta[0]) != GRAPH_FORMAT_VERSION:
                raise VerificationError(
                    f"unsupported compiled-graph format (expected version "
                    f"{GRAPH_FORMAT_VERSION})"
                )
            fingerprint = str(data["fingerprint"])
            if fingerprint != config_fingerprint(system.config):
                raise VerificationError(
                    "compiled graph belongs to a different slot configuration "
                    "(fingerprint mismatch)"
                )
            if (
                int(meta[1]) != system.state_bits
                or int(meta[2]) != system.packed_words
            ):
                raise VerificationError(
                    "compiled graph packed-state layout does not match the system"
                )
            state_words = np.ascontiguousarray(data["state_words"], dtype=np.uint64)
            arrays = {
                key: data[key]
                for key in (
                    "level_ptr",
                    "indptr",
                    "succ_ids",
                    "labels",
                    "parent_ids",
                    "parent_labels",
                    "error_words",
                )
            }
            error_mask = int(data["error_mask"])

        count = state_words.shape[0]
        root_words = system.pack_words([system.initial])
        if count == 0 or (state_words[0] != root_words[0]).any():
            raise VerificationError(
                "compiled graph root state does not match the system's initial state"
            )
        graph = cls(system)
        table = PackedStateTable(
            system.packed_words, initial_capacity=max(2 * count, 1 << 12)
        )
        _, new_mask = table.intern(state_words)
        level_ptr = arrays["level_ptr"].astype(np.int64).tolist()
        if (
            not bool(new_mask.all())
            or table.size != count
            or not level_ptr
            or level_ptr[-1] != count
            or len(arrays["parent_ids"]) != count - 1
            or len(arrays["succ_ids"]) != len(arrays["labels"])
            or int(arrays["indptr"][-1]) != len(arrays["succ_ids"])
            or (count > 1 and int(arrays["succ_ids"].max()) >= count)
        ):
            raise VerificationError("compiled graph arrays are corrupt")
        graph.table = table
        graph.level_ptr = level_ptr
        graph.expanded_levels = int(meta[4])
        graph.resumed_levels = graph.expanded_levels
        graph.complete = bool(meta[5])
        graph.error_level = int(meta[6])
        if int(meta[7]):
            error_words = np.ascontiguousarray(
                arrays["error_words"], dtype=np.uint64
            )
            parent, successor = unpack_words(error_words)
            graph.error = (parent, error_mask, successor)
        for attr_name, key, dtype in (
            ("_indptr", "indptr", np.int64),
            ("_succ_ids", "succ_ids", np.int32),
            ("_labels", "labels", np.uint64),
            ("_parent_ids", "parent_ids", np.int32),
            ("_parent_labels", "parent_labels", np.uint64),
        ):
            rows = _GrowableRows(dtype)
            rows.extend(arrays[key].astype(dtype))
            setattr(graph, attr_name, rows)
        return graph

    # ---------------------------------------------------------- exploration
    def explore(self, max_states: int, with_parents: bool) -> Tuple[
        int, int, bool, Optional[Tuple[int, int, int]], Optional[CsrParentStore]
    ]:
        """Run (or replay) the reachability search up to ``max_states``.

        Compiled levels replay from the frozen arrays; missing levels are
        compiled on demand, so cold and warm runs share one code path.

        Returns:
            ``(visited_count, levels, truncated, error, parents)``.
        """
        max_states = int(max_states)
        visited_count = 1
        levels = 0
        truncated = False
        error: Optional[Tuple[int, int, int]] = None
        k = 0
        while True:
            if self.expanded_levels <= k and self.error is None and not self.complete:
                self._expand_next_level()
                if self.checkpoint is not None:
                    self._maybe_checkpoint()
            levels += 1
            if self.error is not None and self.error_level == k:
                error = self.error
                break
            if len(self.level_ptr) <= k + 2:
                break  # the expansion of level k discovered nothing new
            level_size = self.level_ptr[k + 2] - self.level_ptr[k + 1]
            remaining = max_states - visited_count
            if level_size >= remaining:
                truncated = True
                visited_count += min(level_size, max(remaining, 0))
                break
            visited_count += level_size
            k += 1
        parents = CsrParentStore(self, visited_count) if with_parents else None
        return visited_count, levels, truncated, error, parents


def compiled_graph_for(system) -> CompiledStateGraph:
    """Shared compiled graph of a packed system (built on first use).

    Cached on the :class:`~repro.scheduler.packed.PackedSlotSystem` itself,
    so it follows the ``packed_system_for`` per-configuration lifetime and
    is released by ``clear_memo`` / ``clear_packed_caches`` together with
    the successor memo.
    """
    graph = system.compiled_graph
    if graph is None:
        graph = CompiledStateGraph(system)
        system.compiled_graph = graph
    return graph


# --------------------------------------------------------- graph shipping
#: Environment variable naming a directory of cached compiled graphs: the
#: exhaustive verifier loads a configuration's graph from there before
#: exploring and saves freshly completed graphs back, so warm graphs ship
#: across processes (dimensioning worker fleets, CI jobs restoring the
#: directory from a cache).
GRAPH_DIR_ENV_VAR = "REPRO_GRAPH_DIR"

#: Process-wide counter making concurrent cache writes collision-free: the
#: pid alone is not unique across threads of one process (two admission
#: tests saving the same configuration from a thread pool would clobber
#: each other's temp file mid-write).
_TEMP_COUNTER = itertools.count()


def _temp_cache_path(path: str) -> str:
    """A collision-free temp name next to a cache ``path`` (same filesystem,
    so the final ``os.replace`` is atomic)."""
    return f"{path}.tmp-{os.getpid()}-{next(_TEMP_COUNTER)}"


def config_fingerprint(config) -> str:
    """Stable hex digest of everything the packed transition system derives
    from a :class:`~repro.scheduler.slot_system.SlotSystemConfig`.

    Covers, per application in index order: name, maximum wait, minimum
    inter-arrival time, the dwell-bound arrays and the instance budget.
    Two configs with equal fingerprints generate the identical state graph,
    which is what :meth:`CompiledStateGraph.load` verifies (string hashes
    are randomized per process, so this uses sha256, not ``hash()``).
    """
    import hashlib

    parts = []
    for profile, budget in zip(config.profiles, config.instance_budget):
        parts.append(
            (
                profile.name,
                int(profile.max_wait),
                int(profile.min_inter_arrival),
                tuple(int(v) for v in profile.min_dwell_array),
                tuple(int(v) for v in profile.max_dwell_array),
                None if budget is None else int(budget),
            )
        )
    return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()


def save_graph(system, path) -> str:
    """Persist a system's compiled graph (raises when none was compiled)."""
    graph = system.compiled_graph
    if graph is None:
        raise VerificationError(
            "no compiled state graph to save; explore with engine='kernel' first"
        )
    graph.save(path)
    return str(path)


def load_graph(system, path) -> CompiledStateGraph:
    """Load a saved graph and install it as the system's compiled graph."""
    graph = CompiledStateGraph.load(path, system)
    system.compiled_graph = graph
    return graph


def graph_cache_path(directory: str, config) -> str:
    """Cache filename of a configuration's graph inside a cache directory
    (the :class:`~repro.verification.store.GraphStore` entry path)."""
    from .store import GraphStore

    return GraphStore(directory).entry_path(config_fingerprint(config))


def maybe_load_graph(system, directory: Optional[str]) -> bool:
    """Install a cached compiled graph when one matches the configuration.

    Best-effort by design (the directory is a cache, possibly restored
    stale by CI): a missing, mismatched or corrupt entry simply leaves the
    system without a graph.  Routed through the content-addressed
    :class:`~repro.verification.store.GraphStore` of the directory, which
    refreshes the entry's LRU recency on a hit and drops corrupt entries
    for recompilation.  Returns True when a graph was loaded.
    """
    if not directory or system.compiled_graph is not None:
        return False
    from .store import store_for

    return store_for(directory).load(system)


def maybe_save_graph(system, directory: Optional[str]) -> Optional[str]:
    """Persist a finished compiled graph into a cache directory.

    Only complete (or error-stopped) graphs are worth shipping; partial
    graphs are skipped, as are configurations already present in the
    cache.  Routed through the content-addressed
    :class:`~repro.verification.store.GraphStore` of the directory:
    concurrent dimensioning workers share one directory safely (atomic
    temp-stage + ``os.replace`` publish, already-present fingerprints
    skipped untouched) and each publish runs one LRU eviction pass when
    ``REPRO_GRAPH_STORE_BYTES`` bounds the store.  Returns the entry path
    written, or ``None`` when nothing was saved.
    """
    graph = system.compiled_graph
    if (
        not directory
        or graph is None
        or not (graph.complete or graph.error is not None)
    ):
        return None
    from .store import store_for

    return store_for(directory).publish(system)
