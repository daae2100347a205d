"""Explicit-state reachability checking over timed-automata networks.

The only query the paper needs is *reachability of an error location*:
"the whole system is schedulable ... if no application reaches its Error
state" (Sec. 4).  This module provides that query — plus generic
predicate-reachability and invariant checking — over the discrete-time
network semantics of :mod:`repro.ta.network`.

The search is the checker's own breadth-first loop over network states.
It shares no code with the packed-state engines of
:mod:`repro.verification.engine`, so a TA verdict is an independent check
of theirs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..exceptions import VerificationError
from .network import Network, NetworkState

#: Predicate over network states used for reachability queries.
StatePredicate = Callable[[Network, NetworkState], bool]

#: Default cap on explored states.
DEFAULT_MAX_STATES = 2_000_000


@dataclass(frozen=True)
class TraceStep:
    """One step of a witness trace: the transition label and the reached state."""

    label: str
    state: NetworkState


@dataclass(frozen=True)
class ReachabilityResult:
    """Outcome of a reachability query.

    Attributes:
        reachable: whether a state satisfying the predicate was found.
        explored_states: number of distinct states visited.
        elapsed_seconds: wall-clock search time.
        trace: witness trace from the initial state to the found state
            (empty when unreachable or when traces were disabled).
        truncated: whether the exploration stopped at the state cap.
    """

    reachable: bool
    explored_states: int
    elapsed_seconds: float
    trace: Tuple[TraceStep, ...] = ()
    truncated: bool = False

    def __bool__(self) -> bool:
        return self.reachable


class ModelChecker:
    """Breadth-first explicit-state model checker for TA networks.

    The search expands states with :meth:`Network.successors`, which reads
    the network's per-location tables (built once, in the network's
    constructor) and returns plain-tuple :class:`NetworkState` successors,
    so the visited set hashes and compares tuples.  The error query reads
    the ``error`` flag of each automaton's current location from the same
    tables.

    Args:
        network: the network to check.
        max_states: exploration cap; exceeding it marks the result as
            truncated.
    """

    def __init__(self, network: Network, max_states: int = DEFAULT_MAX_STATES) -> None:
        self.network = network
        self.max_states = int(max_states)

    # ---------------------------------------------------------------- queries
    def reachable(
        self,
        predicate: StatePredicate,
        with_trace: bool = True,
    ) -> ReachabilityResult:
        """Is some state satisfying ``predicate`` reachable from the initial state?

        Level by level, states in discovery order: the predicate runs once
        per newly visited state, and the found state is part of the witness
        and counted in ``explored_states``.  The cap stops the search at
        exactly ``max_states`` visited states, mid-level.
        """
        start = time.perf_counter()
        network = self.network
        root = network.initial_state()

        if predicate(network, root):
            return ReachabilityResult(True, 1, time.perf_counter() - start, ())

        successors = network.successors
        max_states = self.max_states
        visited = {root}
        frontier: List[NetworkState] = [root]
        parents: Optional[Dict[NetworkState, Tuple[NetworkState, str]]] = (
            {} if with_trace else None
        )
        truncated = False
        found: Optional[NetworkState] = None

        while frontier:
            next_frontier: List[NetworkState] = []
            for state in frontier:
                for succ, label in successors(state):
                    if succ in visited:
                        continue
                    visited.add(succ)
                    if parents is not None:
                        parents[succ] = (state, label)
                    if predicate(network, succ):
                        found = succ
                        break
                    next_frontier.append(succ)
                    if len(visited) >= max_states:
                        truncated = True
                        break
                if found is not None or truncated:
                    next_frontier.clear()
                    break
            frontier = next_frontier

        elapsed = time.perf_counter() - start
        trace: Tuple[TraceStep, ...] = ()
        if found is not None and parents is not None:
            trace = self._build_trace(parents, found)
        return ReachabilityResult(
            reachable=found is not None,
            explored_states=len(visited),
            elapsed_seconds=elapsed,
            trace=trace,
            truncated=truncated,
        )

    def invariant_holds(self, predicate: StatePredicate) -> ReachabilityResult:
        """Check that ``predicate`` holds in every reachable state (A[] predicate).

        Implemented as reachability of the negation; ``reachable=False`` in
        the returned result means the invariant holds.
        """
        return self.reachable(lambda network, state: not predicate(network, state))

    def error_reachable(self, with_trace: bool = True) -> ReachabilityResult:
        """Can any automaton reach a location flagged as an error location?"""

        def predicate(network: Network, state: NetworkState) -> bool:
            for entry in network.location_entries(state):
                if entry.location.error:
                    return True
            return False

        return self.reachable(predicate, with_trace=with_trace)

    # --------------------------------------------------------------- internals
    def _build_trace(
        self,
        parents: Dict[NetworkState, Tuple[NetworkState, str]],
        target: NetworkState,
    ) -> Tuple[TraceStep, ...]:
        steps: List[TraceStep] = []
        cursor: Optional[NetworkState] = target
        while cursor is not None and cursor in parents:
            parent, label = parents[cursor]
            steps.append(TraceStep(label=label, state=cursor))
            cursor = parent
        steps.reverse()
        return tuple(steps)


def count_reachable_states(network: Network, max_states: int = DEFAULT_MAX_STATES) -> int:
    """Size of the reachable state space (up to ``max_states``).

    Useful for the verification-time experiments: the paper's acceleration
    shrinks exactly this number.
    """
    checker = ModelChecker(network, max_states=max_states)
    result = checker.reachable(lambda *_: False, with_trace=False)
    if result.truncated:
        raise VerificationError(
            f"state space exceeds the exploration cap of {max_states} states"
        )
    return result.explored_states
