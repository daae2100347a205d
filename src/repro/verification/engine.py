"""Exploration engines for the shared-slot feasibility query.

The exhaustive verifier (:mod:`repro.verification.exhaustive`) and,
through it, the resource-dimensioning flow answer one reachability
question: *is a deadline-miss transition reachable from the initial state
of a* :class:`~repro.scheduler.packed.PackedSlotSystem`?  This module holds
the breadth-first searches that answer it; engines take the packed system
directly (states are packed ints, labels are arrival masks, a transition
whose event bits contain a deadline miss is an error).  The timed-automata
model checker (:mod:`repro.ta.model_checker`) runs its own loop over
network states and stays an independent oracle.

The pieces:

* :class:`ExplorationOutcome` — visited count, truncation flag, error
  witness (parent state + label + error state) and the predecessor store
  needed to rebuild shortest counterexample traces.
* Two engines:

  - :class:`SequentialPackedEngine` — the original verifier's BFS,
    extracted; its packed path expands levels through the native
    block-table kernel and dedupes through the fused
    :meth:`~repro.verification.kernel.PackedStateTable.intern_dedup` pass
    while keeping the per-state loop's exact semantics (discovery-order
    stops, mid-level cap).  Deterministic, the reference implementation.
  - :class:`CompiledKernelEngine` — the compiled state-graph kernel
    (:mod:`repro.verification.kernel`): discovered states intern into
    dense ``int32`` ids backing id-indexed CSR transition arrays, compiled
    incrementally during the first run and cached per configuration; warm
    re-verification replays the frozen graph without expanding a single
    state.

* :func:`resolve_engine` — turns a spec string (``"auto"``,
  ``"sequential"``, ``"kernel"``), the
  ``REPRO_VERIFICATION_ENGINE`` environment variable or an engine instance
  into an engine.  ``"auto"`` is the kernel.

Semantics shared by both engines
--------------------------------

Both engines explore the same breadth-first level structure, so on a
*feasible* (error-free) state space they report the identical visited
count, and on an infeasible one they find an error at the same minimal BFS
depth (witness traces have identical length).  They differ only in *when
inside a level* they stop:

* the sequential engine stops at the first error transition in discovery
  order (matching the original verifier state counts exactly);
* the kernel engine finishes the level it is expanding (that is what
  makes its counts deterministic) and reports a deterministically chosen
  error of that level, so its visited counts on infeasible instances can
  differ from the sequential engine's — the verdict and the witness depth
  never do.

Truncation: every engine keeps the visited set within ``max_states``.  The
sequential engine stops at exactly the cap mid-level; the level-synchronous
kernel trims the candidates of the level that would cross the
cap, so it may stop slightly below it (still deterministically).  Because
the engines cap at different points within a level, a *truncated* run's
verdict only covers the part that engine explored — one engine may reach an
error transition just beyond another's cutoff.  The equivalence guarantees
above apply to complete runs.

The error is a property of the *transition* (a deadline miss): the error
successor is not counted as visited.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Protocol, Tuple, runtime_checkable

from ..exceptions import VerificationError

#: Environment variable overriding the default engine spec.
ENGINE_ENV_VAR = "REPRO_VERIFICATION_ENGINE"

#: The engine spec strings :func:`resolve_engine` accepts.
ENGINE_SPECS = ("auto", "sequential", "kernel")


# -------------------------------------------------------------------- outcome
@dataclass
class ExplorationOutcome:
    """Result of one exploration run.

    Attributes:
        engine: name of the engine that produced the outcome.
        visited_count: number of distinct states in the visited set.
        truncated: the search hit ``max_states`` before finishing.
        error_found: an error transition was reached.
        error_parent: packed source state of the error transition
            (``None`` when feasible).
        error_label: arrival mask of the error transition.
        error_state: packed target state of the error transition.
        levels: number of completed BFS levels.
        parents: predecessor store ``successor -> (parent, arrival mask)``
            kept when the caller asked for witness traces; spans exactly
            the visited states.  A plain dict for the sequential engine, an
            id-based lazy view
            (:class:`~repro.verification.kernel.CsrParentStore`) for the
            compiled kernel — consumers should rely on the ``Mapping``
            interface only.
    """

    engine: str
    visited_count: int
    truncated: bool
    error_found: bool
    error_parent: Optional[int] = None
    error_label: Optional[int] = None
    error_state: Optional[int] = None
    levels: int = 0
    parents: Optional[Mapping[int, Tuple[int, int]]] = None

    @property
    def feasible(self) -> bool:
        """No error transition was reachable (within the explored part)."""
        return not self.error_found


@runtime_checkable
class ExplorationEngine(Protocol):
    """Protocol every exploration engine implements."""

    name: str

    def explore(
        self,
        system,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        """Search ``system`` (a
        :class:`~repro.scheduler.packed.PackedSlotSystem`) for a
        deadline-miss transition, up to ``max_states`` visited states."""
        ...


# ----------------------------------------------------------------- sequential
class SequentialPackedEngine:
    """The original frontier-batched BFS, extracted from the verifier.

    On configurations the native block-table kernel supports, each BFS
    level expands through
    :meth:`~repro.scheduler.packed.PackedSlotSystem.expand_frontier` and
    dedupes through the fused
    :meth:`~repro.verification.kernel.PackedStateTable.intern_dedup` pass —
    but the *semantics* stay those of the original per-state loop: states
    are accepted in discovery (row) order, the search stops at the first
    error transition in that order, and the state cap fires mid-level at
    exactly the state that reaches it.  Configurations the kernel cannot
    expand (see ``can_expand_frontier``) run the original Python loop.
    """

    name = "sequential"

    def explore(
        self,
        system,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        if system.can_expand_frontier:
            return self._explore_batched(system, int(max_states), with_parents)
        return self._explore_loop(system, int(max_states), with_parents)

    def _explore_batched(
        self, system, max_states: int, with_parents: bool
    ) -> ExplorationOutcome:
        import numpy as np

        from ..scheduler.packed import unpack_words
        from .kernel import PackedStateTable

        root = system.initial
        words = system.packed_words
        visited = PackedStateTable(words)
        frontier_words = system.pack_words([root])
        visited.intern(frontier_words)
        # Packed ints of the current frontier, materialized only while a
        # predecessor store is being built.
        frontier_ints: Optional[List[int]] = [root] if with_parents else None
        parents: Optional[Dict[int, Tuple[int, int]]] = {} if with_parents else None
        visited_count = 1
        truncated = False
        levels = 0
        error: Optional[Tuple[int, int, int]] = None

        while frontier_words.shape[0]:
            indptr, succ_words, masks, miss, origin = (
                system.successor_tables_words_origin(frontier_words)
            )
            levels += 1
            miss_rows = np.flatnonzero(miss)
            stop_row = int(miss_rows[0]) if miss_rows.size else -1
            _, first_mask, _ = visited.intern_dedup(succ_words)
            new_rows = np.flatnonzero(first_mask)
            # Replay the per-state loop's stop rule in row (discovery)
            # order: the first miss transition and the state that reaches
            # the cap compete; whichever row comes first wins.  Rows below
            # the first miss row are never miss transitions, so the
            # accepted prefix is unaffected by the extra interning.
            remaining = max(max_states - visited_count, 1)
            cap_row = int(new_rows[remaining - 1]) if new_rows.size >= remaining else -1
            # On the same row the miss check precedes the cap bookkeeping
            # in the per-state loop, so ties go to the error.
            if stop_row >= 0 and (cap_row < 0 or stop_row <= cap_row):
                accepted = new_rows[new_rows < stop_row]
                final = True
            elif cap_row >= 0:
                truncated = True
                accepted = new_rows[:remaining]
                final = True
            else:
                accepted = new_rows
                final = False
            visited_count += int(accepted.size)

            accepted_ints: Optional[List[int]] = None
            if parents is not None and accepted.size:
                accepted_ints = unpack_words(succ_words[accepted])
                parent_rows = origin[accepted]
                accepted_masks = masks[accepted].tolist()
                for succ, parent_row, mask in zip(
                    accepted_ints, parent_rows.tolist(), accepted_masks
                ):
                    parents[succ] = (frontier_ints[parent_row], int(mask))

            if final:
                if not truncated:
                    parent_row = int(origin[stop_row])
                    if frontier_ints is not None:
                        parent = frontier_ints[parent_row]
                    else:
                        parent = unpack_words(
                            frontier_words[parent_row : parent_row + 1]
                        )[0]
                    successor = unpack_words(
                        succ_words[stop_row : stop_row + 1]
                    )[0]
                    error = (parent, int(masks[stop_row]), successor)
                break
            frontier_words = succ_words[accepted]
            if parents is not None:
                frontier_ints = accepted_ints if accepted_ints is not None else []

        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )

    def _explore_loop(
        self, system, max_states: int, with_parents: bool
    ) -> ExplorationOutcome:
        successors = system.successors
        miss_field = system.miss_field
        root = system.initial

        visited = {root}
        frontier: List[int] = [root]
        parents: Optional[Dict[int, Tuple[int, int]]] = {} if with_parents else None

        truncated = False
        levels = 0
        error_parent = -1
        error_mask = 0
        error_state = -1

        while frontier:
            next_frontier: List[int] = []
            for state in frontier:
                for arrival_mask, succ, event_bits in successors(state):
                    if event_bits & miss_field:
                        error_parent = state
                        error_mask = arrival_mask
                        error_state = succ
                        break
                    if succ in visited:
                        continue
                    visited.add(succ)
                    if parents is not None:
                        parents[succ] = (state, arrival_mask)
                    next_frontier.append(succ)
                    if len(visited) >= max_states:
                        truncated = True
                        break
                if error_parent >= 0 or truncated:
                    next_frontier.clear()
                    break
            frontier = next_frontier
            levels += 1

        error_found = error_parent >= 0
        return ExplorationOutcome(
            engine=self.name,
            visited_count=len(visited),
            truncated=truncated,
            error_found=error_found,
            error_parent=error_parent if error_found else None,
            error_label=error_mask if error_found else None,
            error_state=error_state if error_found else None,
            levels=levels,
            parents=parents,
        )


# -------------------------------------------------------------------- kernel
class CompiledKernelEngine:
    """Compiled state-graph kernel: intern once, replay forever.

    The engine explores through the
    :class:`~repro.verification.kernel.CompiledStateGraph` cached on the
    :class:`~repro.scheduler.packed.PackedSlotSystem`: the first (cold) run
    interns every discovered state into a dense ``int32`` id, keeps the
    visited set in an open-addressing ``uint64`` hash table and records the
    transition structure as id-indexed CSR arrays; every later run of the
    same configuration — first-fit dimensioning retries, benchmark rounds,
    repeated admission tests — replays the frozen level structure without
    expanding, packing or hashing a single state.

    Semantics are level-synchronous: identical counts to the sequential
    engine on feasible complete runs, the same witness depth on infeasible
    ones, deterministic sorted-prefix truncation.
    """

    name = "kernel"

    def explore(
        self,
        system,
        max_states: int,
        with_parents: bool = True,
    ) -> ExplorationOutcome:
        from .kernel import compiled_graph_for

        visited_count, levels, truncated, error, parents = compiled_graph_for(
            system
        ).explore(int(max_states), with_parents)
        return ExplorationOutcome(
            engine=self.name,
            visited_count=visited_count,
            truncated=truncated,
            error_found=error is not None,
            error_parent=error[0] if error else None,
            error_label=error[1] if error else None,
            error_state=error[2] if error else None,
            levels=levels,
            parents=parents,
        )


# ------------------------------------------------------------------ selection
def resolve_engine(spec: object = None) -> ExplorationEngine:
    """Turn an engine spec into an engine instance.

    Args:
        spec: ``None`` (read ``REPRO_VERIFICATION_ENGINE``, default
            ``"auto"``), an :class:`ExplorationEngine` instance (returned as
            is), or one of the spec strings in :data:`ENGINE_SPECS`.
            ``"auto"`` and ``"kernel"`` both give the compiled kernel: it
            compiles the graph during the first exploration and replays it
            afterwards, and configurations the native expander cannot take
            compile through per-state successor rows.  Counts of ``auto``
            runs are therefore level-synchronous (see the semantics notes
            above and ``VerificationResult.count_semantics``).
    """
    if spec is not None and not isinstance(spec, str):
        if isinstance(spec, ExplorationEngine):
            return spec
        raise VerificationError(f"not an exploration engine or spec: {spec!r}")
    if spec is None:
        spec = os.environ.get(ENGINE_ENV_VAR) or "auto"
    normalized = spec.strip().lower()

    if normalized in ("auto", "kernel"):
        return CompiledKernelEngine()
    if normalized == "sequential":
        return SequentialPackedEngine()
    raise VerificationError(
        f"unknown exploration engine {spec!r}; expected one of "
        + ", ".join(repr(name) for name in ENGINE_SPECS)
    )
