"""Result types for the control-performance verification front-ends.

Both dataclasses are frozen *and* slotted: dimensioning flows hold on to one
result per admission test, so the per-instance ``__dict__`` would be pure
overhead, and slots also catch accidental attribute writes.

:func:`replay_counterexample` is the shared back half of witness
reconstruction: the exploration engines hand back a predecessor store — a
plain dict for the loop engines, an id-based view for the compiled kernel —
the verifier extracts the arrival sequence from it, and this function
replays that sequence on the *tuple* semantics (the semantic source of
truth) to produce the human-readable steps.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple


@dataclass(frozen=True, slots=True)
class CounterexampleStep:
    """One step of a counterexample trace.

    Attributes:
        sample: the sample index of the step.
        arrivals: application names whose disturbance was sensed at this sample.
        occupant: application holding the TT slot during this sample (or None).
        missed: applications that missed their maximum wait time at this sample.
    """

    sample: int
    arrivals: Tuple[str, ...]
    occupant: Optional[str]
    missed: Tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class VerificationResult:
    """Outcome of verifying that a set of applications can share one TT slot.

    Attributes:
        feasible: True when no reachable behaviour misses a deadline (no
            application automaton can reach its Error location).
        applications: names of the applications that were verified together.
        method: identifier of the verification engine used
            ("exhaustive", "timed-automata", "simulation").
        explored_states: number of distinct states explored.
        elapsed_seconds: wall-clock verification time.
        counterexample: a witness trace leading to a deadline miss, when one
            exists and the engine produces traces.
        instance_budget: per-application disturbance-instance budget used by
            the accelerated model (empty when unbounded).
        truncated: True when the exploration hit its state budget before
            finishing; the verdict is then only valid for the explored part.
        count_semantics: how ``explored_states`` is counted on *infeasible*
            (or truncated) runs.  All exploration engines visit the same
            breadth-first level structure, so on feasible complete runs the
            count is engine-independent; they differ in when *inside* a
            level they stop.  ``"level-synchronous"`` — the canonical
            semantics of the compiled-kernel engine (and hence of
            ``engine="auto"``): the level that
            found the error is counted in full, making the number
            deterministic.
            ``"discovery-order"`` — the sequential reference engine stops
            at the first error transition in discovery order, so its count
            on infeasible runs can be smaller.  Verdict, witness depth and
            feasible-run counts never depend on this.
        spec_verdicts: per-spec
            :class:`~repro.verification.spec_eval.SpecVerdict` objects when
            the verification was asked to check temporal specs
            (``specs=...``) on the same compiled graph; empty otherwise.
    """

    feasible: bool
    applications: Tuple[str, ...]
    method: str
    explored_states: int
    elapsed_seconds: float
    counterexample: Tuple[CounterexampleStep, ...] = ()
    instance_budget: Tuple[Tuple[str, int], ...] = ()
    truncated: bool = False
    count_semantics: str = "level-synchronous"
    spec_verdicts: Tuple = ()

    def __bool__(self) -> bool:
        return self.feasible

    def budget_of(self, application: str) -> Optional[int]:
        """Instance budget used for one application (``None`` when unbounded)."""
        for name, budget in self.instance_budget:
            if name == application:
                return budget
        return None

    def minimize(self) -> "VerificationResult":
        """Trim stutter steps from the counterexample trace.

        The BFS witness is already *shortest in samples*, but most of its
        steps are pure waiting: no disturbance arrives, the slot occupant
        does not change and nothing is missed.  Those stutter steps carry no
        information beyond the sample index of the next interesting step, so
        this drops them while keeping every step that has arrivals, misses
        or an occupancy change.  The retained steps keep their original
        ``sample`` indices, so the trimmed trace still replays unambiguously
        (re-insert empty-arrival steps between non-consecutive samples).

        Returns the same result object when there is nothing to trim.
        """
        if not self.counterexample:
            return self
        trimmed: List[CounterexampleStep] = []
        previous_occupant: Optional[str] = None
        for step in self.counterexample:
            if step.arrivals or step.missed or step.occupant != previous_occupant:
                trimmed.append(step)
            previous_occupant = step.occupant
        if len(trimmed) == len(self.counterexample):
            return self
        return replace(self, counterexample=tuple(trimmed))

    @property
    def states_per_second(self) -> float:
        """Exploration throughput (states per wall-clock second)."""
        return self.explored_states / max(self.elapsed_seconds, 1e-9)

    def summary(self) -> str:
        """One-line human-readable summary."""
        verdict = "FEASIBLE" if self.feasible else "INFEASIBLE"
        status = " (truncated)" if self.truncated else ""
        return (
            f"{verdict}{status}: {{{', '.join(self.applications)}}} on one slot "
            f"[{self.method}, {self.explored_states} states, {self.elapsed_seconds:.2f}s, "
            f"{self.states_per_second:,.0f} states/s]"
        )


def replay_counterexample(
    config, arrival_sequence: Sequence[Tuple[int, ...]]
) -> Tuple[CounterexampleStep, ...]:
    """Replay an arrival-index sequence into counterexample steps.

    Args:
        config: the :class:`~repro.scheduler.slot_system.SlotSystemConfig`
            the witness belongs to.
        arrival_sequence: per-sample tuples of application *indices* whose
            disturbance is sensed at that sample, root first, ending with
            the arrivals of the sample that misses.

    The replay runs on the tuple-based
    :func:`~repro.scheduler.slot_system.advance` — the semantic single
    source of truth — so a reconstructed trace doubles as a cross-check of
    the packed search that produced it.
    """
    # Imported here: repro.scheduler must stay importable without pulling
    # the verification package (and this module is its result leaf).
    from ..scheduler.slot_system import advance, initial_state

    names = config.names
    steps: List[CounterexampleStep] = []
    state = initial_state(config)
    for sample, arrivals in enumerate(arrival_sequence):
        state, events = advance(config, state, arrivals)
        occupant = None if state.slot_free() else names[state.occupant]
        steps.append(
            CounterexampleStep(
                sample=sample,
                arrivals=tuple(names[index] for index in arrivals),
                occupant=occupant,
                missed=tuple(names[index] for index in events.deadline_misses),
            )
        )
    return tuple(steps)
