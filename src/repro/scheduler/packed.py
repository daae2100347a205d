"""Packed integer encoding of the shared-slot transition system.

The tuple-based semantics in :mod:`repro.scheduler.slot_system` are the
readable single source of truth, but hashing nested tuples and allocating a
fresh dataclass per successor dominates the exhaustive verifier's wall-clock.
This module provides a lossless bit-packed representation of
:class:`~repro.scheduler.slot_system.SlotSystemState` as a single Python
``int`` together with a transition function that operates directly on the
packed form:

* :class:`PackedSlotSystem` — precomputes, per application, the field widths
  and shifts, the dwell-bound lookup tables and the instance budgets, and
  offers ``encode`` / ``decode`` / ``advance_packed`` / ``successors``.
* ``advance_packed(packed, arrival_mask)`` mirrors
  :func:`repro.scheduler.slot_system.advance` exactly (the equivalence is
  covered by an exhaustive cross-check test on small systems) but returns the
  successor as an ``int`` and the observable events as a bit field.
* ``successors(packed)`` expands *all* admissible arrival subsets of one
  state at once, sharing the arrival-independent work (field decoding, clock
  advance, occupant disposition) across the subsets, and memoizes the result
  — the workhorse of the frontier-batched BFS in
  :mod:`repro.verification.exhaustive`.

Bit layout (least significant first)::

    [app 0 block] [app 1 block] ... [occupant + 1] [buffer member mask]

with each application block laid out as::

    [3-bit phase tag] [counter 1] [counter 2] [instances used]

``counter 1`` holds the wait (``W``/``T``) or the recovery clock (``F``);
``counter 2`` holds the dwell (``T`` only); the instances field is only
present when the application has an instance budget.

Each field is as narrow as its largest value allows, so that the case-study
slots fit one ``uint64`` word, the case the native expansion and probe
loops specialise for:

* counter 1 is the narrowest width whose mask is at least
  ``max(2 * (max_wait + 1) - 1, r - 1)``: the wait reaches ``max_wait + 1``
  at a deadline miss and saturates at the mask after it (see
  ``_block_info``), the recovery clock of ``ET_Safe`` stays below ``r``;
* counter 2 is the narrowest width whose mask is at least the worst max
  dwell: the advanced dwell ``c2 + 1`` never exceeds ``max_dwell`` of the
  grant wait, because the release fires at ``c2 >= max_dwell``;
* the instances field holds the budget.

Packed values compare like the tuples of their fields as long as every
value fits its field, which every interned state does; so state ids, CSR
arrays and witnesses do not depend on the widths.  The buffer *order* is
not stored: the sorted-insertion policy of the arbiter keeps the buffer
ordered by ascending slack, ties broken by earlier arrival (larger wait) and
then by application index, so the order is a pure function of the member set
and the per-application wait counters and is reconstructed on decode.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .. import _native
from ..exceptions import SchedulingError
from .slot_system import (
    DONE,
    HOLDING,
    SAFE,
    STEADY,
    WAITING,
    SlotSystemConfig,
    SlotSystemState,
    StepEvents,
    initial_state,
)

def unpack_words(word_matrix) -> List[int]:
    """Rebuild packed Python ints from ``uint64`` word rows.

    Inverse of :meth:`PackedSlotSystem.pack_words` (most significant word
    first); one bulk conversion, no per-state Python loop for the common
    single-word case.
    """
    if word_matrix.shape[1] == 1:
        return word_matrix[:, 0].tolist()
    acc = word_matrix[:, 0].astype(object)
    for j in range(1, word_matrix.shape[1]):
        acc = (acc << 64) | word_matrix[:, j].astype(object)
    return acc.tolist()


#: Numeric phase tags used inside the packed representation.
TAG_STEADY = 0
TAG_WAITING = 1
TAG_HOLDING = 2
TAG_SAFE = 3
TAG_DONE = 4

_TAG_BITS = 3
_TAG_FIELD = 7

_TAG_OF_LETTER = {
    STEADY: TAG_STEADY,
    WAITING: TAG_WAITING,
    HOLDING: TAG_HOLDING,
    SAFE: TAG_SAFE,
    DONE: TAG_DONE,
}
_LETTER_OF_TAG = {tag: letter for letter, tag in _TAG_OF_LETTER.items()}


class PackedSlotSystem:
    """Bit-packed mirror of one :class:`SlotSystemConfig`'s transition system.

    Args:
        config: the static slot-system configuration.
        memo_limit: maximum number of states whose successor lists are
            memoized by :meth:`successors`; beyond the limit successor lists
            are recomputed on demand (bounds memory on huge state spaces).
    """

    def __init__(self, config: SlotSystemConfig, memo_limit: int = 1 << 18) -> None:
        self.config = config
        n = len(config)
        self._n = n
        self._memo_limit = int(memo_limit)

        self._max_wait: List[int] = [p.max_wait for p in config.profiles]
        self._inter_arrival: List[int] = [p.min_inter_arrival for p in config.profiles]
        self._budget: List[Optional[int]] = list(config.instance_budget)
        # Dwell bounds indexed by the (clamped) wait at grant.
        self._min_dwell: List[List[int]] = [list(p.min_dwell_array) for p in config.profiles]
        self._max_dwell: List[List[int]] = [list(p.max_dwell_array) for p in config.profiles]

        # ---- per-application field widths / shifts -------------------------
        self._app_shift: List[int] = []
        self._c1_mask: List[int] = []
        self._c2_off: List[int] = []
        self._c2_mask: List[int] = []
        self._inst_off: List[int] = []
        self._inst_mask: List[int] = []
        shift = 0
        for i, profile in enumerate(config.profiles):
            # Narrowest widths that hold every value (see the module docstring).
            c1_bits = max(
                2 * (profile.max_wait + 1) - 1, profile.min_inter_arrival - 1
            ).bit_length()
            c2_bits = max(profile.worst_max_dwell, 1).bit_length()
            budget = self._budget[i]
            inst_bits = budget.bit_length() if budget else 0
            self._app_shift.append(shift)
            self._c1_mask.append((1 << c1_bits) - 1)
            self._c2_off.append(_TAG_BITS + c1_bits)
            self._c2_mask.append((1 << c2_bits) - 1)
            self._inst_off.append(_TAG_BITS + c1_bits + c2_bits)
            self._inst_mask.append((1 << inst_bits) - 1)
            shift += _TAG_BITS + c1_bits + c2_bits + inst_bits

        occ_bits = max(n.bit_length(), 1)
        self._occ_shift = shift
        self._occ_field = (1 << occ_bits) - 1
        self._buf_shift = shift + occ_bits
        self._buf_field = (1 << n) - 1
        self.state_bits = self._buf_shift + n
        #: ``uint64`` words needed to hold one packed state (word-row layout
        #: of :meth:`pack_words`, the frontiers and the compiled graph).
        self.packed_words = max((self.state_bits + 63) // 64, 1)

        # ---- event bit-field layout ---------------------------------------
        self.miss_field = (1 << n) - 1
        self._ev_recovered_shift = n
        self._ev_admitted_shift = 2 * n
        self._ev_granted_shift = 3 * n
        self._ev_preempted_shift = 3 * n + occ_bits
        self._ev_released_shift = 3 * n + 2 * occ_bits
        self._ev_occ_field = self._occ_field

        # ---- caches --------------------------------------------------------
        self._block_mask: List[int] = [
            (1 << (self._inst_off[i] + self._inst_mask[i].bit_length())) - 1
            for i in range(n)
        ]
        # Lazily filled per-application transition tables: block value ->
        # precomputed advanced block and XOR deltas (see _block_info).
        self._block_memo: List[Dict[int, tuple]] = [dict() for _ in range(n)]
        self._subset_cache: Dict[int, Tuple[Tuple[int, Tuple[int, ...]], ...]] = {}
        self._indices_cache: Dict[int, Tuple[int, ...]] = {}
        self._successor_memo: Dict[int, Tuple[Tuple[int, int, int], ...]] = {}
        #: Compiled id-indexed CSR state graph of this system, built lazily
        #: by :func:`repro.verification.kernel.compiled_graph_for` and
        #: released together with the successor memo (:meth:`clear_memo`).
        self.compiled_graph = None
        # Native frontier-expansion kernel, built on first use (pure
        # configuration data, so it survives `clear_memo` like the block
        # memo does).
        self._expander: Optional[_FrontierExpander] = None
        self.initial = self.encode(initial_state(config))

    # ------------------------------------------------------------- encoding
    def encode(self, state: SlotSystemState) -> int:
        """Pack a tuple-based state losslessly into one integer."""
        n = self._n
        if len(state.phases) != n:
            raise SchedulingError(
                f"state has {len(state.phases)} applications, config has {n}"
            )
        packed = 0
        for i, phase in enumerate(state.phases):
            tag = _TAG_OF_LETTER.get(phase[0])
            if tag is None:
                raise SchedulingError(f"unknown phase tag {phase[0]!r}")
            c1 = c2 = 0
            if tag in (TAG_WAITING, TAG_SAFE):
                c1 = phase[1]
            elif tag == TAG_HOLDING:
                c1, c2 = phase[1], phase[2]
            inst = state.instances_used[i]
            if c1 > self._c1_mask[i] or c2 > self._c2_mask[i] or inst > self._inst_mask[i]:
                raise SchedulingError(
                    f"application {self.config.names[i]!r}: phase {phase!r} / instances "
                    f"{inst} exceed the packed field widths"
                )
            packed |= (
                tag
                | (c1 << _TAG_BITS)
                | (c2 << self._c2_off[i])
                | (inst << self._inst_off[i])
            ) << self._app_shift[i]
        packed |= (state.occupant + 1) << self._occ_shift
        buffer_mask = 0
        for index in state.buffer:
            buffer_mask |= 1 << index
        packed |= buffer_mask << self._buf_shift
        return packed

    def decode(self, packed: int) -> SlotSystemState:
        """Rebuild the tuple-based state from its packed form."""
        n = self._n
        phases: List[Tuple] = []
        waits: List[int] = []
        instances: List[int] = []
        for i in range(n):
            block = packed >> self._app_shift[i]
            tag = block & _TAG_FIELD
            c1 = (block >> _TAG_BITS) & self._c1_mask[i]
            c2 = (block >> self._c2_off[i]) & self._c2_mask[i]
            instances.append((block >> self._inst_off[i]) & self._inst_mask[i])
            waits.append(c1)
            if tag == TAG_STEADY:
                phases.append((STEADY,))
            elif tag == TAG_WAITING:
                phases.append((WAITING, c1))
            elif tag == TAG_HOLDING:
                phases.append((HOLDING, c1, c2))
            elif tag == TAG_SAFE:
                phases.append((SAFE, c1))
            elif tag == TAG_DONE:
                phases.append((DONE,))
            else:
                raise SchedulingError(f"corrupt packed state: unknown tag {tag}")
        occupant = ((packed >> self._occ_shift) & self._occ_field) - 1
        buffer_mask = (packed >> self._buf_shift) & self._buf_field
        return SlotSystemState(
            phases=tuple(phases),
            buffer=tuple(self._buffer_order(buffer_mask, waits)),
            occupant=occupant,
            instances_used=tuple(instances),
        )

    # --------------------------------------------------------------- events
    def events_from_bits(self, event_bits: int) -> StepEvents:
        """Expand an event bit field into the tuple-based :class:`StepEvents`."""
        return StepEvents(
            admitted=self.indices_of_mask((event_bits >> self._ev_admitted_shift) & self.miss_field),
            granted=self._ev_index(event_bits, self._ev_granted_shift),
            preempted=self._ev_index(event_bits, self._ev_preempted_shift),
            released=self._ev_index(event_bits, self._ev_released_shift),
            deadline_misses=self.indices_of_mask(event_bits & self.miss_field),
            recovered=self.indices_of_mask((event_bits >> self._ev_recovered_shift) & self.miss_field),
        )

    def _ev_index(self, event_bits: int, shift: int) -> Optional[int]:
        value = (event_bits >> shift) & self._ev_occ_field
        return value - 1 if value else None

    def occupant_of(self, packed: int) -> int:
        """Index of the slot occupant in a packed state (``-1`` when idle)."""
        return ((packed >> self._occ_shift) & self._occ_field) - 1

    # -------------------------------------------------------------- helpers
    def arrival_mask(self, arrivals: Iterable[int]) -> int:
        """Bit mask of an arrival index collection."""
        mask = 0
        for index in arrivals:
            mask |= 1 << int(index)
        return mask

    def indices_of_mask(self, mask: int) -> Tuple[int, ...]:
        """Ascending application indices of a bit mask (cached)."""
        cached = self._indices_cache.get(mask)
        if cached is None:
            cached = tuple(i for i in range(self._n) if (mask >> i) & 1)
            self._indices_cache[mask] = cached
        return cached

    def arrival_subsets(self, eligible_mask: int) -> Tuple[int, ...]:
        """All subsets of an eligible mask, smallest first (cached).

        The ordering matches the seed verifier's ``itertools.combinations``
        enumeration (by subset size, then lexicographically by index) so the
        packed BFS discovers states in the identical order.
        """
        return tuple(mask for mask, _ in self._arrival_subset_pairs(eligible_mask))

    def _arrival_subset_pairs(
        self, eligible_mask: int
    ) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
        """``(subset_mask, subset_indices)`` pairs of an eligible mask (cached)."""
        cached = self._subset_cache.get(eligible_mask)
        if cached is None:
            members = self.indices_of_mask(eligible_mask)
            subsets: List[Tuple[int, Tuple[int, ...]]] = []
            for size in range(len(members) + 1):
                for combination in itertools.combinations(members, size):
                    mask = 0
                    for index in combination:
                        mask |= 1 << index
                    subsets.append((mask, combination))
            cached = tuple(subsets)
            self._subset_cache[eligible_mask] = cached
        return cached

    def eligible_mask(self, packed: int) -> int:
        """Mask of applications that may be disturbed in this state."""
        mask = 0
        for i in range(self._n):
            block = packed >> self._app_shift[i]
            if block & _TAG_FIELD == TAG_STEADY:
                budget = self._budget[i]
                if budget is None or (block >> self._inst_off[i]) & self._inst_mask[i] < budget:
                    mask |= 1 << i
        return mask

    def _buffer_order(self, buffer_mask: int, waits: Sequence[int]) -> List[int]:
        """Service order of the buffer members.

        The arbiter's stable sorted insertion keeps the buffer ordered by
        ascending slack; among equal slacks the earlier arrival (larger
        current wait) is ahead, and same-sample ties are broken by ascending
        index (arrivals are admitted in index order).
        """
        members = [i for i in range(self._n) if (buffer_mask >> i) & 1]
        if len(members) > 1:
            max_wait = self._max_wait
            members.sort(key=lambda i: (max_wait[i] - waits[i], -waits[i], i))
        return members

    def _post_slot_block(self, index: int, elapsed: int, inst: int) -> int:
        """Application block after leaving the slot (Done / Steady / ET_Safe)."""
        inst_bits = inst << self._inst_off[index]
        budget = self._budget[index]
        if budget is not None and inst >= budget:
            return TAG_DONE | inst_bits
        if elapsed >= self._inter_arrival[index]:
            return TAG_STEADY | inst_bits
        return TAG_SAFE | (elapsed << _TAG_BITS) | inst_bits

    # ----------------------------------------------------------- transitions
    def advance_packed(self, packed: int, arrival_mask: int = 0) -> Tuple[int, int]:
        """One sample-boundary step on the packed representation.

        Args:
            packed: the packed current state.
            arrival_mask: bit mask of the applications whose disturbance is
                sensed at this boundary; they must be steady and within their
                instance budget, exactly like
                :func:`repro.scheduler.slot_system.advance`.

        Returns:
            ``(next_packed, event_bits)``; feed ``event_bits`` to
            :meth:`events_from_bits` for the tuple-based event view, or test
            ``event_bits & self.miss_field`` for deadline misses.
        """
        if arrival_mask >> self._n:
            raise SchedulingError(
                f"arrival mask {arrival_mask:#x} addresses applications outside the system"
            )
        for i in self.indices_of_mask(arrival_mask):
            block = packed >> self._app_shift[i]
            if block & _TAG_FIELD != TAG_STEADY:
                letter = _LETTER_OF_TAG[block & _TAG_FIELD]
                raise SchedulingError(
                    f"application {self.config.names[i]!r} received a disturbance while in "
                    f"phase {letter!r}; the sporadic model forbids this"
                )
            budget = self._budget[i]
            if budget is not None and (block >> self._inst_off[i]) & self._inst_mask[i] >= budget:
                raise SchedulingError(
                    f"application {self.config.names[i]!r} exceeded its instance budget {budget}"
                )
        return self._expand(packed, (arrival_mask,))[0][1:]

    def successors(self, packed: int) -> Tuple[Tuple[int, int, int], ...]:
        """All one-step successors of a state, one per admissible arrival subset.

        Returns a tuple of ``(arrival_mask, next_packed, event_bits)``
        entries, memoized per state up to the ``memo_limit``.
        """
        cached = self._successor_memo.get(packed)
        if cached is None:
            cached = self._expand(packed, None)
            if len(self._successor_memo) < self._memo_limit:
                self._successor_memo[packed] = cached
        return cached

    # ------------------------------------------------------- table export
    def pack_words(self, states: Sequence[int]):
        """Split packed states into ``uint64`` word rows (most significant
        word first, so lexicographic row order equals numeric order).

        Returns an ``(len(states), packed_words)`` ``numpy.uint64`` array.
        """
        import numpy as np

        words = self.packed_words
        mask = (1 << 64) - 1
        matrix = np.empty((len(states), words), dtype=np.uint64)
        for row, state in enumerate(states):
            for j in range(words):
                matrix[row, j] = (state >> (64 * (words - 1 - j))) & mask
        return matrix

    def _frontier_expander(self) -> "_FrontierExpander":
        if self._expander is None:
            self._expander = _FrontierExpander(self)
        return self._expander

    @property
    def can_expand_frontier(self) -> bool:
        """Whether :meth:`expand_frontier` supports this configuration.

        True for every realistic system; only configurations whose event
        bit field or grant-priority key cannot fit a single 64-bit word
        (dozens of applications per slot, astronomical wait bounds) fall
        back to the per-state expansion.
        """
        return self._frontier_expander().ok

    def expand_frontier(self, word_matrix):
        """Expand a whole frontier of packed states in one native pass.

        The block-table expansion kernel (:class:`_FrontierExpander`): one
        C loop over per-application XOR-delta block tables, no Python work
        per state — the cold-exploration workhorse of the sequential
        engine.  The compiled kernel runs the same C loop inside
        its fused level call (``nk_level``) instead.

        Args:
            word_matrix: ``(count, packed_words)`` ``uint64`` array of
                packed states as word rows (:meth:`pack_words` layout).

        Returns:
            ``(succ_words, event_bits, origin_index)`` — one row per
            transition, ordered per state exactly like :meth:`successors`
            (subsets ascending by size, then lexicographically):
            ``succ_words`` is ``(transitions, packed_words)`` ``uint64``,
            ``event_bits`` the ``uint64`` event field of each transition
            (feed single values to :meth:`events_from_bits`; arrival masks
            sit at ``_ev_admitted_shift``), ``origin_index`` the frontier
            row each transition expands.

        Raises:
            SchedulingError: when the configuration cannot use the
                expansion kernel (see :attr:`can_expand_frontier`).
        """
        import numpy as np

        expander = self._frontier_expander()
        if not expander.ok:
            raise SchedulingError(
                "configuration too wide for the expansion kernel; "
                "check can_expand_frontier and use successors()/"
                "successor_tables_words_origin() instead"
            )
        matrix = np.ascontiguousarray(word_matrix, dtype=np.uint64).reshape(
            -1, self.packed_words
        )
        return expander.expand(matrix)

    def successor_tables_words_origin(self, word_matrix):
        """Successor tables of a frontier given as packed word rows.

        Returns ``(indptr, successors, masks, miss, origin)`` for the
        ``(count, packed_words)`` ``uint64`` frontier, one row per
        transition in :meth:`successors` order:

        * ``indptr`` (``int64``, ``count + 1``) delimits each state's
          successor rows CSR-style,
        * ``successors`` (``uint64``, ``(transitions, packed_words)``) holds
          the packed successor states as word rows (see :meth:`pack_words`),
        * ``masks`` (``uint64``) holds the arrival mask of each transition,
        * ``miss`` (``bool``) flags transitions whose events contain a
          deadline miss,
        * ``origin`` (``int64``) is the frontier row each transition
          expands, so engines that record parent links need no binary
          search over ``indptr``.

        Runs on :meth:`expand_frontier` when the configuration supports it;
        otherwise the rows come from the memoized :meth:`successors` lists
        of the frontier's states, one ``np.fromiter`` pass per column.
        """
        import numpy as np

        count = word_matrix.shape[0]
        if self.can_expand_frontier:
            succ_words, events, origin = self.expand_frontier(word_matrix)
            indptr = np.zeros(count + 1, dtype=np.int64)
            np.cumsum(np.bincount(origin, minlength=count), out=indptr[1:])
            masks = (events >> np.uint64(self._ev_admitted_shift)) & np.uint64(
                self.miss_field
            )
            miss = (events & np.uint64(self.miss_field)) != 0
            return indptr, succ_words, masks, miss, origin

        words = self.packed_words
        word_mask = (1 << 64) - 1
        entry_lists = [self.successors(state) for state in unpack_words(word_matrix)]
        counts = [len(entries) for entries in entry_lists]
        total = sum(counts)
        flat = list(itertools.chain.from_iterable(entry_lists))
        succ_words = np.empty((total, words), dtype=np.uint64)
        for j in range(words):
            shift = 64 * (words - 1 - j)
            succ_words[:, j] = np.fromiter(
                ((entry[1] >> shift) & word_mask for entry in flat),
                dtype=np.uint64,
                count=total,
            )
        masks = np.fromiter((entry[0] for entry in flat), dtype=np.uint64, count=total)
        miss = np.fromiter(
            (bool(entry[2] & self.miss_field) for entry in flat),
            dtype=bool,
            count=total,
        )
        indptr = np.zeros(count + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        origin = np.repeat(np.arange(count, dtype=np.int64), counts)
        return indptr, succ_words, masks, miss, origin

    def clear_memo(self) -> None:
        """Drop the memoized successor table (frees memory after a search).

        Retention is deliberate: repeated verifications of the same
        configuration (benchmark rounds, first-fit admission retries) reuse
        the table for an order-of-magnitude warm-up.  Long-lived processes
        that verify each configuration only once should call this (or
        :func:`clear_packed_caches`) after a search — the table can hold up
        to ``memo_limit`` entries.  The compiled state graph of the kernel
        engine follows the same policy and is dropped here too.
        """
        self._successor_memo.clear()
        self.compiled_graph = None

    def clear_expansion_tables(self) -> None:
        """Drop the compiled block tables of the frontier expansion kernel.

        The :class:`_FrontierExpander` and the per-application block memos
        are pure configuration data and normally survive
        :meth:`clear_memo`; tests (and long-lived processes switching
        configurations) call this through :func:`clear_packed_caches` so
        no compiled table can leak state across configurations.
        """
        self._expander = None
        for memo in self._block_memo:
            memo.clear()

    def _block_info(self, index: int, block: int) -> tuple:
        """Precomputed one-step data for one application block value.

        Everything an expansion step may need about this application is
        derived once and cached: the clock-advanced block (already shifted
        into place) plus XOR deltas for each possible role the application
        can play at this boundary (arrival, grant, slot exit).  Tuple layout:

        ``(adv_shifted, wait_after, eligible_bit, recovered_bit, release,
        preemptible, post_xor, arrival_xor, arrival_grant_xor,
        buffer_grant_xor, miss_bit, slack_after)``
        """
        shift = self._app_shift[index]
        inst_off = self._inst_off[index]
        max_wait = self._max_wait[index]
        budget = self._budget[index]
        bit = 1 << index

        tag = block & _TAG_FIELD
        c1 = (block >> _TAG_BITS) & self._c1_mask[index]
        c2 = (block >> self._c2_off[index]) & self._c2_mask[index]
        inst = (block >> inst_off) & self._inst_mask[index]

        # -- clock advance ---------------------------------------------------
        recovered_bit = 0
        if tag == TAG_WAITING:
            # Saturate instead of wrapping into the neighbouring fields.
            # The verifier never advances past an error state (waits stay
            # within max_wait + 1 there) and the field is the narrowest
            # width whose mask is at least 2 * (max_wait + 1) - 1 (and
            # r - 1, for the recovery clock), so saturation only engages deep
            # in post-miss territory; it keeps `wait > max_wait` (the reported
            # miss) stable, but relative slacks among several long-overdue
            # waiters are no longer exact — callers replaying past a miss
            # must switch to the tuple semantics (see SlotScheduleSimulator).
            if c1 < self._c1_mask[index]:
                c1 += 1
        elif tag == TAG_HOLDING:
            c2 += 1
        elif tag == TAG_SAFE:
            c1 += 1
            if c1 >= self._inter_arrival[index]:
                tag = TAG_STEADY
                c1 = 0
                recovered_bit = bit
        adv_block = (
            tag | (c1 << _TAG_BITS) | (c2 << self._c2_off[index]) | (inst << inst_off)
        )
        adv_shifted = adv_block << shift

        eligible_bit = 0
        arrival_xor = 0
        arrival_grant_xor = 0
        if tag == TAG_STEADY and not recovered_bit and (budget is None or inst < budget):
            eligible_bit = bit
            inst_after = inst + 1 if budget is not None else 0
            arrival_block = TAG_WAITING | (inst_after << inst_off)
            arrival_xor = adv_shifted ^ (arrival_block << shift)
            arrival_grant_xor = adv_shifted ^ ((arrival_block + 1) << shift)

        release = False
        preemptible = False
        post_xor = 0
        buffer_grant_xor = 0
        if tag == TAG_HOLDING:
            lookup = c1 if c1 <= max_wait else max_wait
            release = c2 >= self._max_dwell[index][lookup]
            preemptible = c2 >= self._min_dwell[index][lookup]
            if release or preemptible:
                post_xor = adv_shifted ^ (self._post_slot_block(index, c1 + c2, inst) << shift)
        elif tag == TAG_WAITING:
            grant_block = TAG_HOLDING | (c1 << _TAG_BITS) | (inst << inst_off)
            buffer_grant_xor = adv_shifted ^ (grant_block << shift)

        miss_bit = bit if c1 > max_wait and tag == TAG_WAITING else 0
        return (
            adv_shifted,
            c1,
            eligible_bit,
            recovered_bit,
            release,
            preemptible,
            post_xor,
            arrival_xor,
            arrival_grant_xor,
            buffer_grant_xor,
            miss_bit,
            max_wait - c1,
        )

    def _expand(
        self, packed: int, masks: Optional[Tuple[int, ...]]
    ) -> Tuple[Tuple[int, int, int], ...]:
        """Successor states for the given arrival masks (or all subsets)."""
        n = self._n
        app_shift = self._app_shift
        block_masks = self._block_mask
        memos = self._block_memo

        infos: List[tuple] = [()] * n
        base_bits = 0
        eligible = 0
        recovered = 0
        for i in range(n):
            block = (packed >> app_shift[i]) & block_masks[i]
            memo = memos[i]
            info = memo.get(block)
            if info is None:
                info = self._block_info(i, block)
                memo[block] = info
            infos[i] = info
            base_bits |= info[0]
            eligible |= info[2]
            recovered |= info[3]

        occupant = ((packed >> self._occ_shift) & self._occ_field) - 1
        buffer_mask = (packed >> self._buf_shift) & self._buf_field
        if buffer_mask:
            members = self.indices_of_mask(buffer_mask)
            if len(members) > 1:
                buffer0 = sorted(
                    members, key=lambda i: (infos[i][11], -infos[i][1], i)
                )
            else:
                buffer0 = list(members)
        else:
            buffer0 = None
        occ_info = infos[occupant] if occupant >= 0 else None

        if masks is None:
            pairs = self._arrival_subset_pairs(eligible)
        else:
            pairs = tuple((mask, self.indices_of_mask(mask)) for mask in masks)

        ev_recovered = recovered << self._ev_recovered_shift
        occ_shift = self._occ_shift
        buf_shift = self._buf_shift
        ev_admitted_shift = self._ev_admitted_shift
        ev_granted_shift = self._ev_granted_shift
        ev_preempted_shift = self._ev_preempted_shift
        ev_released_shift = self._ev_released_shift
        results: List[Tuple[int, int, int]] = []
        for amask, arrivals in pairs:

            # Merge the arrivals into the slack-ordered buffer, mirroring the
            # arbiter's stable insertion (arrivals carry wait 0, so their
            # slack is the full maximum wait).
            if buffer0 is not None:
                buf = list(buffer0)
                for a in arrivals:
                    slack = infos[a][11]
                    position = 0
                    for queued in buf:
                        if infos[queued][11] <= slack:
                            position += 1
                        else:
                            break
                    buf.insert(position, a)
            elif arrivals:
                buf = list(arrivals)
                if len(buf) > 1:
                    buf.sort(key=lambda a: infos[a][11])
            else:
                buf = []

            app_bits = base_bits
            next_occupant = occupant
            released_i = -1
            preempted_i = -1
            if occ_info is not None:
                if occ_info[4]:
                    next_occupant = -1
                    released_i = occupant
                    app_bits ^= occ_info[6]
                elif occ_info[5] and buf:
                    next_occupant = -1
                    preempted_i = occupant
                    app_bits ^= occ_info[6]

            granted = -1
            if next_occupant < 0 and buf:
                granted = buf.pop(0)
                next_occupant = granted

            miss_mask = 0
            for a in arrivals:
                if a != granted:
                    app_bits ^= infos[a][7]
            if granted >= 0:
                ginfo = infos[granted]
                if (amask >> granted) & 1:
                    app_bits ^= ginfo[8]
                else:
                    app_bits ^= ginfo[9]
                    miss_mask |= ginfo[10]
            for queued in buf:
                miss_mask |= infos[queued][10]

            next_buffer_mask = buffer_mask | amask
            if granted >= 0:
                next_buffer_mask &= ~(1 << granted)

            succ = (
                app_bits
                | ((next_occupant + 1) << occ_shift)
                | (next_buffer_mask << buf_shift)
            )
            event_bits = (
                miss_mask
                | ev_recovered
                | (amask << ev_admitted_shift)
                | ((granted + 1) << ev_granted_shift)
                | ((preempted_i + 1) << ev_preempted_shift)
                | ((released_i + 1) << ev_released_shift)
            )
            results.append((amask, succ, event_bits))
        return tuple(results)


class _FrontierExpander:
    """Block-table expansion kernel of one packed system.

    Backs :meth:`PackedSlotSystem.expand_frontier` and the fused level of
    :class:`~repro.verification.kernel.CompiledStateGraph`.  The
    per-application block tables (:meth:`PackedSlotSystem._block_info` —
    clock-advanced block, XOR deltas per role, grant priority, flags) live
    in one ``uint64`` array per application, one row per known block value,
    and the native expansion loop (:mod:`repro._native`; ``nk_expand``, or
    ``nk_level`` in the compiled kernel) walks them for a whole frontier,
    mirroring :meth:`PackedSlotSystem._expand` exactly.
    Two reductions keep it one pass per state:

    * the successor's *buffer order* is never materialized (the packed
      state stores only the member mask), so of the arbiter's slack-sorted
      merge only the **head** matters — the granted application is the
      minimum of a composite priority key ``(slack, -wait, index)`` packed
      into one ``int64`` over the members of ``buffer | arrivals``;
    * the deadline-miss field of the events is subset-independent: arrivals
      are steady (miss bit 0), so the miss mask is the OR of the *buffer*
      members' miss bits however the grant falls.

    Block semantics stay in Python: ``nk_block_rows`` (:meth:`block_rows`)
    maps the frontier's blocks to table rows and reports the unseen ones,
    which :meth:`_add_block` derives from ``_block_info`` before the pass
    runs again.  Only encodings whose event bit field and priority key fit one
    word are supported (:attr:`ok`); callers fall back to per-state
    ``successors()`` otherwise.
    """

    def __init__(self, system: "PackedSlotSystem") -> None:
        import numpy as np

        self.system = system
        n = self.n = system._n
        self.words = system.packed_words
        self._np = np
        occ_bits = system._occ_field.bit_length()
        block_bits = [mask.bit_length() for mask in system._block_mask]
        # Composite grant-priority key: ((slack + bias) << sh1) |
        # ((bias - wait) << sh0) | index, ordered like (slack, -wait, index).
        wait_bits = max(mask.bit_length() for mask in system._c1_mask)
        idx_bits = max((n - 1).bit_length(), 1)
        self._prio_bias = 1 << wait_bits
        self._prio_sh0 = idx_bits
        self._prio_sh1 = idx_bits + wait_bits + 1
        #: Whether the single-word event / priority encodings fit; when
        #: False, ``expand_frontier`` is unavailable and callers use the
        #: per-state expansion instead.
        self.ok = (
            system._ev_released_shift + occ_bits <= 64
            and self._prio_sh1 + wait_bits + 1 <= 62
            and max(block_bits) <= 64
            and n <= 62
        )
        # The layouts of _native.c: the cfg array, and one table row = five
        # word-wide XOR deltas (adv, post, arr, arrg, bufg), then prio, elig,
        # recov, miss, release, preempt.
        self._cfg = np.array(
            [n, self.words, system._occ_shift, occ_bits, system._buf_shift,
             system._ev_recovered_shift, system._ev_admitted_shift,
             system._ev_granted_shift, system._ev_preempted_shift,
             system._ev_released_shift]
            + [v for i in range(n) for v in (system._app_shift[i], block_bits[i])],
            dtype=np.int64,
        )
        self._row_of: List[Dict[int, int]] = [dict() for _ in range(n)]
        self._tables = [np.zeros((8, 5 * self.words + 6), np.uint64) for _ in range(n)]
        # Direct block value -> row lookup (-1 = unseen) for block fields up
        # to 20 bits; wider fields search a sorted copy of the known values.
        self._dense = [
            np.full(1 << bits, -1, dtype=np.int32) if bits <= 20 else None
            for bits in block_bits
        ]
        self._sorted: List[Optional[np.ndarray]] = [None] * n
        # Per application: table, dense, sorted (block, row) pairs, count.
        self._ptrs = np.zeros((n, 4), dtype=np.uint64)
        #: Addresses of the ``cfg`` and pointer arrays the native loops read
        #: (``_publish`` rewrites the pointers in place).
        self.tables = (self._cfg.ctypes.data, self._ptrs.ctypes.data)
        for index in range(n):
            self._publish(index)

    def _publish(self, index: int) -> None:
        """Point the native loop at one application's current arrays."""
        np = self._np
        ptrs = self._ptrs[index]
        ptrs[0] = self._tables[index].ctypes.data
        if self._dense[index] is not None:
            ptrs[1] = self._dense[index].ctypes.data
            return
        pairs = np.array(sorted(self._row_of[index].items()), dtype=np.uint64)
        self._sorted[index] = pairs = pairs.reshape(-1, 2)
        ptrs[2], ptrs[3] = pairs.ctypes.data, pairs.shape[0]

    def _add_block(self, index: int, block: int) -> None:
        """Intern one block value: compute its table row from the block info."""
        system = self.system
        memo = system._block_memo[index]
        info = memo.get(block)
        if info is None:
            info = memo[block] = system._block_info(index, block)
        (adv, wait, elig, recov, release, preempt, post, arr, arrg, bufg, miss,
         slack) = info
        prio = (
            ((slack + self._prio_bias) << self._prio_sh1)
            | ((self._prio_bias - wait) << self._prio_sh0)
            | index
        )
        row = len(self._row_of[index])
        table = self._tables[index]
        if row == table.shape[0]:
            table = self._tables[index] = self._np.concatenate((table, 0 * table))
        words = self.words
        table[row] = [
            (value >> (64 * (words - 1 - j))) & ((1 << 64) - 1)
            for value in (adv, post, arr, arrg, bufg)
            for j in range(words)
        ] + [prio, elig, recov, miss, int(release), int(preempt)]
        self._row_of[index][block] = row
        if self._dense[index] is not None:
            self._dense[index][block] = row

    def block_rows(self, matrix):
        """Table rows of every (state, application) block of a word-row
        frontier, adding the unseen blocks first.

        Returns ``(total, rows, eligible, missed)``: the frontier's
        transition count, the ``(count, n)`` ``int32`` table rows and each
        state's eligible mask, as ``nk_expand`` and ``nk_level`` read them,
        and whether a state misses a deadline (then every transition of
        that state reports the miss).
        """
        np = self._np
        library = _native.load()
        count = matrix.shape[0]
        rows = np.empty((count, self.n), dtype=np.int32)
        eligible = np.empty(count, dtype=np.uint64)
        missing = np.empty((count * self.n, 2), dtype=np.uint64)
        missed = np.zeros(1, dtype=np.uint64)
        args = (matrix.ctypes.data, count, *self.tables, rows.ctypes.data,
                eligible.ctypes.data, missing.ctypes.data)
        total = library.nk_block_rows(*args, 0, missed.ctypes.data)
        while total < 0:
            added = set()
            for index, block in missing[:-total].tolist():
                if block not in self._row_of[index]:
                    self._add_block(index, block)
                    added.add(index)
            for index in added:
                self._publish(index)
            total = library.nk_block_rows(*args, 1, missed.ctypes.data)
        return total, rows, eligible, bool(missed[0])

    def expand(self, matrix):
        """Expand every state of a word-row frontier (see ``expand_frontier``)."""
        np = self._np
        total, rows, _, _ = self.block_rows(matrix)
        succ = np.empty((total, self.words), dtype=np.uint64)
        events = np.empty(total, dtype=np.uint64)
        origin = np.empty(total, dtype=np.int64)
        _native.load().nk_expand(
            matrix.ctypes.data, matrix.shape[0], *self.tables, rows.ctypes.data,
            succ.ctypes.data, events.ctypes.data, origin.ctypes.data,
        )
        return succ, events, origin


def advance_packed(
    config: SlotSystemConfig, packed: int, arrival_mask: int = 0
) -> Tuple[int, int]:
    """Module-level convenience mirror of :meth:`PackedSlotSystem.advance_packed`.

    Builds (and caches) one :class:`PackedSlotSystem` per configuration; for
    hot loops construct the system once and call its methods directly.
    """
    return packed_system_for(config).advance_packed(packed, arrival_mask)


_SYSTEM_CACHE: Dict[SlotSystemConfig, PackedSlotSystem] = {}


def packed_system_for(config: SlotSystemConfig) -> PackedSlotSystem:
    """Shared :class:`PackedSlotSystem` instance for a configuration."""
    system = _SYSTEM_CACHE.pop(config, None)
    if system is None:
        while len(_SYSTEM_CACHE) >= 16:
            # LRU eviction: drop the least-recently-used system (and its
            # successor memo) so hot configurations survive one-off probes.
            _SYSTEM_CACHE.pop(next(iter(_SYSTEM_CACHE)))
        system = PackedSlotSystem(config)
    # (Re-)inserting moves the entry to the most-recently-used position.
    _SYSTEM_CACHE[config] = system
    return system


def clear_packed_caches() -> None:
    """Release every shared packed system and its derived caches.

    The shared caches trade memory for cross-run speed (see
    :meth:`PackedSlotSystem.clear_memo`); long-lived processes that are done
    verifying can call this to return to a cold baseline.  Everything goes:
    successor memos, compiled state graphs *and* the compiled expansion
    block tables, so a subsequent run — or the next test in a suite —
    starts genuinely cold with no leaked state.
    """
    for system in _SYSTEM_CACHE.values():
        system.clear_memo()
        system.clear_expansion_tables()
    _SYSTEM_CACHE.clear()
    from ..verification.spec_eval import clear_spec_cache

    clear_spec_cache()
