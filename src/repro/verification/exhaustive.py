"""Exhaustive reachability verification of shared-slot configurations.

This is the work-horse verification engine (the UPPAAL substitute used by
the resource-dimensioning flow).  It explores, by breadth-first search, every
reachable state of the discrete-time shared-slot transition system
(:mod:`repro.scheduler.slot_system`) under *all* admissible sporadic
disturbance patterns: at every sample, any subset of the applications that
are currently steady (and within their instance budget) may be disturbed.

A configuration is feasible exactly when no reachable state exhibits a
deadline miss, i.e. no application ever waits longer than its maximum wait
time ``Tw^*`` — the same query as "no application automaton reaches its
Error location" in the paper's timed-automata formulation.  Because every
clock in the system is bounded (waits by ``Tw^*``, dwells by ``Tdw^+``,
recovery by ``r``) the state space is finite and the search terminates.

The search runs on the *packed* integer encoding of the transition system
(:mod:`repro.scheduler.packed`): states are single ``int`` keys in the
visited set and the predecessor store, and successor lists are expanded once
per state with all arrival subsets batched together.  The exploration
itself is delegated to a pluggable engine
(:mod:`repro.verification.engine`): by default the compiled state-graph
kernel, which caches the explored graph per configuration and replays warm
re-verifications without re-expanding; the sequential frontier-batched BFS
on request (``engine=`` argument or the ``REPRO_VERIFICATION_ENGINE``
environment variable).  The tuple-based
:func:`repro.scheduler.slot_system.advance` stays the semantic single source
of truth — the packed transition is cross-checked against it exhaustively by
the test suite — and is still used to replay counterexample traces.

The per-application *instance budget* implements the paper's verification
acceleration (Sec. 5): bounding the number of disturbance instances each
application can contribute dramatically shrinks the state space.  Budgets
are computed by :mod:`repro.verification.acceleration` from the window
lengths and inter-arrival times, as the paper suggests.
"""

from __future__ import annotations

import os
import time
from dataclasses import replace
from typing import List, Mapping, Optional, Sequence, Tuple

from ..exceptions import VerificationError
from ..scheduler.packed import packed_system_for
from ..scheduler.slot_system import SlotSystemConfig
from ..switching.profile import SwitchingProfile
from .engine import CompiledKernelEngine, resolve_engine
from .kernel import (
    GRAPH_DIR_ENV_VAR,
    checkpoint_policy_from_env,
    compiled_graph_for,
    config_fingerprint,
    maybe_load_graph,
    maybe_save_graph,
)
from .result import CounterexampleStep, VerificationResult, replay_counterexample

#: Default cap on the number of explored states before giving up.
DEFAULT_MAX_STATES = 5_000_000


class ExhaustiveVerifier:
    """Breadth-first reachability analysis over the shared-slot state space.

    Args:
        profiles: switching profiles of the applications mapped to the slot.
        instance_budget: optional per-application limit on disturbance
            instances (the paper's acceleration); ``None`` means unbounded.
        max_states: exploration cap; exceeding it marks the result as
            truncated instead of running forever.
        engine: exploration-engine spec or instance (see
            :func:`repro.verification.engine.resolve_engine`); ``None``
            reads ``REPRO_VERIFICATION_ENGINE`` and defaults to ``"auto"``.
        graph_dir: optional directory of serialized compiled state graphs
            (``.npz``, see :meth:`repro.verification.kernel
            .CompiledStateGraph.save`).  When set — or when the
            ``REPRO_GRAPH_DIR`` environment variable names one — the
            verifier installs the configuration's cached graph before
            exploring (so the kernel engine replays it instead of
            re-expanding) and saves freshly completed
            graphs back, shipping warm graphs across processes and CI
            jobs.
    """

    def __init__(
        self,
        profiles: Sequence[SwitchingProfile],
        instance_budget: Optional[Mapping[str, int]] = None,
        max_states: int = DEFAULT_MAX_STATES,
        engine: object = None,
        graph_dir: Optional[str] = None,
    ) -> None:
        if not profiles:
            raise VerificationError("at least one application profile is required")
        self.config = SlotSystemConfig.from_profiles(profiles, instance_budget)
        self.max_states = int(max_states)
        self.engine = engine
        self._instance_budget = instance_budget or {}
        if graph_dir is None:
            graph_dir = os.environ.get(GRAPH_DIR_ENV_VAR) or None
        self.graph_dir = graph_dir
        # Shared per-configuration packed system: repeated verifications of
        # the same slot configuration (benchmark rounds, first-fit retries)
        # reuse its memoized successor table.
        self.packed = packed_system_for(self.config)
        if self.graph_dir:
            maybe_load_graph(self.packed, self.graph_dir)
        #: Whether this verifier adopted a partial-exploration checkpoint
        #: (set by :meth:`_compile_claim` / :meth:`_ensure_compiled_graph`).
        self.resumed_from_checkpoint = False

    # ----------------------------------------------------------------- search
    def verify(
        self,
        with_counterexample: bool = True,
        minimize: bool = False,
        specs=None,
    ) -> VerificationResult:
        """Run the reachability analysis.

        Args:
            with_counterexample: when True, predecessor links are kept so
                that an infeasible verdict comes with a witness disturbance
                pattern (costs memory on large state spaces).
            minimize: trim stutter steps from the counterexample trace (see
                :meth:`repro.verification.result.VerificationResult.minimize`).
            specs: optional temporal specs (source strings, wire dicts or
                :class:`~repro.verification.spec.Spec` objects) to check on
                the same compiled graph; their
                :class:`~repro.verification.spec_eval.SpecVerdict` objects
                land in ``result.spec_verdicts``.  See :meth:`check_specs`.

        Returns:
            The :class:`VerificationResult`.
        """
        start_time = time.perf_counter()
        engine = resolve_engine(self.engine)
        claim = self._compile_claim(engine)
        try:
            outcome = engine.explore(
                self.packed,
                max_states=self.max_states,
                with_parents=with_counterexample,
            )

            elapsed = time.perf_counter() - start_time
            if self.graph_dir:
                # Ship a freshly completed compiled graph (kernel / auto
                # runs) to the cache directory for other processes and CI
                # jobs — before releasing the compile claim, so waiters
                # observing the claim vanish find the entry published.
                maybe_save_graph(self.packed, self.graph_dir)
        finally:
            if claim is not None:
                claim.release()
        feasible = outcome.feasible
        counterexample: Tuple[CounterexampleStep, ...] = ()
        if not feasible and outcome.parents is not None:
            counterexample = self._reconstruct_trace(
                outcome.parents, outcome.error_parent, outcome.error_label
            )
        # A feasible verdict needs no witness: drop the predecessor store
        # before building the (long-lived) result so its memory is reclaimed.
        outcome.parents = None

        names = self.config.names
        budget_items = tuple(
            (name, self._instance_budget[name])
            for name in names
            if name in self._instance_budget and self._instance_budget[name] is not None
        )
        method = (
            "exhaustive"
            if outcome.engine == "sequential"
            else f"exhaustive[{outcome.engine}]"
        )
        result = VerificationResult(
            feasible=feasible,
            applications=names,
            method=method,
            explored_states=outcome.visited_count,
            elapsed_seconds=elapsed,
            counterexample=counterexample,
            instance_budget=budget_items,
            truncated=outcome.truncated,
            count_semantics=(
                "discovery-order"
                if outcome.engine == "sequential"
                else "level-synchronous"
            ),
        )
        if specs:
            result = replace(result, spec_verdicts=self.check_specs(specs))
        return result.minimize() if minimize else result

    # ---------------------------------------------------------------- specs
    def check_specs(self, specs) -> Tuple:
        """Check temporal specs against this configuration's compiled graph.

        One compile, many properties: the first call (or a preceding
        ``engine="kernel"`` :meth:`verify`) compiles the graph; every
        further spec batch evaluates on the frozen CSR arrays without
        re-exploring a single state.

        Args:
            specs: spec source strings, wire dicts,
                :class:`~repro.verification.spec.Spec` objects, or any mix
                (a single spec needs no wrapping list).

        Returns:
            One :class:`~repro.verification.spec_eval.SpecVerdict` per
            spec, in order.
        """
        from .spec import specs_from_wire
        from .spec_eval import evaluate_specs

        parsed = specs_from_wire(specs)
        return tuple(evaluate_specs(self._ensure_compiled_graph(), parsed))

    def _ensure_compiled_graph(self):
        """The configuration's compiled graph, compiling it if needed."""
        graph = self.packed.compiled_graph
        if graph is None or not (graph.complete or graph.error is not None):
            if self.graph_dir:
                from .store import store_for

                store = store_for(self.graph_dir)
                if graph is None and store.load_checkpoint(self.packed):
                    self.resumed_from_checkpoint = True
                self._arm_checkpoints(store)
            CompiledKernelEngine().explore(
                self.packed, max_states=self.max_states, with_parents=False
            )
            if self.graph_dir:
                maybe_save_graph(self.packed, self.graph_dir)
            graph = self.packed.compiled_graph
        return graph

    # ------------------------------------------------------------- internals
    def _compile_claim(self, engine):
        """Cross-process single-flight for cold compiles through the store.

        Two processes cold-compiling the same fingerprint concurrently
        duplicate hundreds of milliseconds of work; the graph store's
        lockfile claims serialize them.  Only engaged when a ``graph_dir``
        is configured, the resolved engine is the compiled kernel (the only
        engine that produces cacheable graphs) and this verification would
        actually compile (no complete graph in memory).  A process that
        loses the claim race waits for the winner's publish and replays the
        shipped graph; if the winner vanishes without publishing, the loser
        compiles after all — correctness over exclusion.  Returns the held
        :class:`~repro.verification.store.GraphStoreClaim` (released by
        :meth:`verify` after the publish) or ``None``.
        """
        if not self.graph_dir or not isinstance(engine, CompiledKernelEngine):
            return None
        graph = self.packed.compiled_graph
        if graph is not None and (graph.complete or graph.error is not None):
            return None  # warm replay: nothing to compile, nothing to claim
        from .store import store_for

        store = store_for(self.graph_dir)
        fingerprint = config_fingerprint(self.config)
        claim = store.claim(fingerprint)
        if claim is not None:
            # Won the claim — but a publisher may have finished between the
            # constructor's load attempt and now; re-check once.
            if maybe_load_graph(self.packed, self.graph_dir):
                claim.release()
                return None
            self._adopt_checkpoint(store)
            return claim
        store.wait_for(fingerprint)
        if maybe_load_graph(self.packed, self.graph_dir):
            return None
        # The claim holder failed or shipped nothing usable; compile after
        # all, re-claiming when possible — adopting any checkpoint the
        # crashed holder left behind, so its partial exploration is not
        # re-done.
        claim = store.claim(fingerprint)
        self._adopt_checkpoint(store)
        return claim

    def _adopt_checkpoint(self, store) -> None:
        """Resume from an exploration checkpoint and arm future ones.

        Called on the compile-claim winner's path: a ``.ckpt`` left behind
        by an interrupted compiler (ours or a crashed process's) seeds the
        packed system's graph so exploration continues from the last
        checkpointed level, and — when the checkpoint env knobs are set —
        a :class:`~repro.verification.kernel.CheckpointPolicy` is installed
        so *this* compile stages checkpoints too.
        """
        if self.packed.compiled_graph is None and store.load_checkpoint(self.packed):
            self.resumed_from_checkpoint = True
        self._arm_checkpoints(store)

    def _arm_checkpoints(self, store) -> None:
        """Install the env-configured checkpoint policy (no-op when unset)."""
        policy = checkpoint_policy_from_env(store.publish_checkpoint)
        if policy is not None:
            compiled_graph_for(self.packed).set_checkpoint_policy(policy)

    def _reconstruct_trace(
        self,
        parents: Mapping[int, Tuple[int, int]],
        error_parent: int,
        error_mask: int,
    ) -> Tuple[CounterexampleStep, ...]:
        """Rebuild the arrival pattern leading to the deadline miss and replay it."""
        system = self.packed
        chain = getattr(parents, "arrival_chain", None)
        if chain is not None:
            # Id-based predecessor store (compiled kernel): the arrival
            # masks come straight from the dense parent arrays, no packed
            # ints are hashed along the walk.
            masks: List[int] = chain(error_parent)
        else:
            root = system.initial
            masks = []
            cursor = error_parent
            while cursor != root:
                parent, mask = parents[cursor]
                masks.append(mask)
                cursor = parent
            masks.reverse()
        masks.append(error_mask)
        arrival_sequence = [system.indices_of_mask(mask) for mask in masks]
        return replay_counterexample(self.config, arrival_sequence)


def verify_slot_sharing(
    profiles: Sequence[SwitchingProfile],
    instance_budget: Optional[Mapping[str, int]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    with_counterexample: bool = True,
    engine: object = None,
    minimize: bool = False,
    graph_dir: Optional[str] = None,
    specs=None,
) -> VerificationResult:
    """Verify that the given applications can safely share one TT slot.

    Convenience wrapper around :class:`ExhaustiveVerifier`; pass ``specs``
    to additionally check temporal properties on the compiled graph
    (``result.spec_verdicts``).
    """
    verifier = ExhaustiveVerifier(
        profiles, instance_budget, max_states, engine=engine, graph_dir=graph_dir
    )
    return verifier.verify(
        with_counterexample=with_counterexample, minimize=minimize, specs=specs
    )
