"""Explicit-state reachability checking over timed-automata networks.

The only query the paper needs is *reachability of an error location*:
"the whole system is schedulable ... if no application reaches its Error
state" (Sec. 4).  This module provides that query — plus generic
predicate-reachability and invariant checking — over the discrete-time
network semantics of :mod:`repro.ta.network`.

The search itself is delegated to the pluggable exploration engines of
:mod:`repro.verification.engine`: the default sequential BFS reproduces the
original deque-based loop state for state, and another engine can be
selected per checker (``engine=`` argument) or globally
(``REPRO_VERIFICATION_ENGINE``).  The compiled state-graph kernel
(``engine="kernel"``) runs TA networks too — the checker owns
a per-instance graph cache, so the network's state graph is expanded once
and every further query (error reachability, invariants, state counting,
any predicate) replays the compiled id graph without re-running a single
``successors`` call.
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

    The engine expands states with :meth:`Network.successors`, which reads
    the network's per-location tables (built once, in the network's
    constructor) and returns plain-tuple :class:`NetworkState` successors,
    so the visited set hashes and compares tuples.  The error query reads
    the ``error`` flag of each automaton's current location from the same
    tables.

    Args:
        network: the network to check.
        max_states: exploration cap; exceeding it marks the result as
            truncated.
        engine: exploration-engine spec or instance (see
            :func:`repro.verification.engine.resolve_engine`); ``None``
            reads ``REPRO_VERIFICATION_ENGINE`` and defaults to ``"auto"``.
    """

    def __init__(
        self,
        network: Network,
        max_states: int = DEFAULT_MAX_STATES,
        engine: object = None,
    ) -> None:
        self.network = network
        self.max_states = int(max_states)
        self.engine = engine
        # Per-checker home of the compiled kernel graph: the network's
        # state graph is predicate-independent, so every query through this
        # checker shares one compiled expansion (engine="kernel" only;
        # other engines ignore the cache).
        self._kernel_cache: Dict[str, object] = {}

    # ---------------------------------------------------------------- queries
    def reachable(
        self,
        predicate: StatePredicate,
        with_trace: bool = True,
    ) -> ReachabilityResult:
        """Is some state satisfying ``predicate`` reachable from the initial state?"""
        # Imported lazily: repro.verification imports repro.ta at module
        # load, so the reverse import must wait until both are initialised.
        from ..verification.engine import GenericSource, resolve_engine

        start = time.perf_counter()
        network = self.network
        root = network.initial_state()

        if predicate(network, root):
            return ReachabilityResult(True, 1, time.perf_counter() - start, ())

        source = GenericSource(
            initial=root,
            successors=network.successors,
            is_error=lambda state: predicate(network, state),
            cache=self._kernel_cache,
        )
        engine = resolve_engine(self.engine, source=source)
        outcome = engine.explore(
            source, max_states=self.max_states, with_parents=with_trace
        )

        elapsed = time.perf_counter() - start
        trace: Tuple[TraceStep, ...] = ()
        if outcome.error_found and with_trace and outcome.parents is not None:
            trace = self._build_trace(outcome.parents, outcome.error_state)
        return ReachabilityResult(
            reachable=outcome.error_found,
            explored_states=outcome.visited_count,
            elapsed_seconds=elapsed,
            trace=trace,
            truncated=outcome.truncated,
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
