"""The CPU-bound workloads: ``design`` and ``verify``.

Both run the paper's fixed instances through the public API, cold: every
timed call starts after ``clear_packed_caches()`` (which also empties the
spec-verdict LRU) and a ``gc.collect()``, both outside the timed window.
Caches that stay warm on purpose: imported modules, and the
``_instance_budget_items`` memo of ``repro.verification.acceleration``
(the budgets are a pure function of the profile tuple).

Every timed call is bracketed by host-speed probes (:mod:`probe`) and
reported normalised; every call asserts the paper's anchors, and a wrong
answer or an exception counts the operation as failed.
"""

from __future__ import annotations

import gc
import statistics
import time

import layers
from probe import bracketed

PARTITION = (("C1", "C5", "C4", "C3"), ("C6", "C2"))
TRIALS = 6
UNBOUNDED_STATES = 1_413_516
ACCELERATED_STATES = 145_373
WITNESS_STATES = 30_410
TA_STATES = 9_155
SPEC_COUNT = 14

#: Timed calls per ``verify`` sample of the shorter questions, so each
#: median rests on about as much measured time as the unbounded one.
REPEATS = {"specs": 2, "witness": 3, "ta": 3}


class Anchors:
    """The expected answers; ``broken=True`` perturbs one per workload (and
    the serve oracle), so the self-test can show that a wrong answer counts
    as a failed operation."""

    def __init__(self, broken: bool = False) -> None:
        self.broken = broken
        self.partition = PARTITION
        self.trials = TRIALS + (1 if broken else 0)
        self.unbounded = UNBOUNDED_STATES + (1 if broken else 0)
        self.accelerated = ACCELERATED_STATES
        self.witness = WITNESS_STATES
        self.ta_states = TA_STATES
        self.spec_count = SPEC_COUNT


def _cold() -> None:
    from repro.scheduler.packed import clear_packed_caches

    clear_packed_caches()
    gc.collect()


def _spec_cold() -> None:
    from repro.verification import clear_spec_cache

    clear_spec_cache()
    gc.collect()


class Recorder:
    """Runs timed operations and keeps their figures.

    One *sample* is one pass over the workload's operations; per-layer
    figures are collected per sample from the spans of its traced calls.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.normalised = {}
        self.raw = {}
        self.probes = []
        self.sample_spans = []

    def run(self, key, prepare, call, check):
        """Time ``call`` (after ``prepare``) and validate it with ``check``."""
        prepare()
        tracer = self.tracer

        def timed():
            if tracer is None:
                return call()
            index = tracer.begin("sample")
            try:
                return call()
            finally:
                tracer.end(index)
                self.sample_spans[-1].append(index)

        self.attempted += 1
        try:
            result, raw, normalised, probe = bracketed(timed)
            problem = check(result)
        except Exception as error:  # a failed operation, not a failed run
            problem = f"{type(error).__name__}: {error}"
        if problem:
            self.failed += 1
            self.errors.append(f"{key}: {problem}")
            return None
        self.normalised.setdefault(key, []).append(normalised)
        self.raw.setdefault(key, []).append(raw)
        self.probes.append(probe)
        return result


# ------------------------------------------------------------------ design
def design_inputs(anchors: Anchors):
    """Imports and fixed inputs of ``design`` (its set-up)."""
    from repro.casestudy import all_applications, computed_profiles
    from repro.dimensioning.first_fit import dimension_with_verification

    all_applications()
    return computed_profiles, dimension_with_verification


def design_sample(recorder: Recorder, inputs, anchors: Anchors) -> None:
    computed_profiles, dimension_with_verification = inputs

    def call():
        return dimension_with_verification(computed_profiles())

    def check(outcome):
        if outcome.partition() != anchors.partition:
            return f"partition {outcome.partition()}"
        if outcome.verifications != anchors.trials:
            return f"{outcome.verifications} admission trials"
        return None

    recorder.run("design", _cold, call, check)


def _median(recorder: Recorder, key: str) -> float:
    """Median normalised time of an operation (``nan`` when every attempt
    failed; the run then reports ``correct: false``)."""
    values = recorder.normalised.get(key)
    return statistics.median(values) if values else float("nan")


def design_parts(recorder: Recorder):
    return {"design_ms": _median(recorder, "design") * 1e3}


# ------------------------------------------------------------------ verify
def verify_inputs(anchors: Anchors):
    """Imports and fixed inputs of ``verify`` (its set-up)."""
    from repro.casestudy import paper_profiles
    from repro.verification import (
        instance_budgets,
        standard_spec_bundle,
        verify_slot_sharing,
        verify_with_model_checker,
    )

    profiles = paper_profiles()
    s1 = [profiles[name] for name in ("C1", "C5", "C4", "C3")]
    bad = [profiles[name] for name in ("C1", "C5", "C4", "C6")]
    pair = [profiles["C1"], profiles["C5"]]
    return {
        "verify": verify_slot_sharing,
        "ta": verify_with_model_checker,
        "s1": s1,
        "s1_budget": instance_budgets(s1),
        "bad": bad,
        "bad_budget": instance_budgets(bad),
        "pair": pair,
        "bundle": standard_spec_bundle(s1),
        "spec_reference": None,
    }


def verify_reference(inputs) -> None:
    """Spec verdicts of the bundle on S1, computed once at set-up."""
    _cold()
    result = inputs["verify"](
        inputs["s1"], instance_budget=inputs["s1_budget"],
        with_counterexample=False, specs=inputs["bundle"],
    )
    inputs["spec_reference"] = [verdict.holds for verdict in result.spec_verdicts]
    _cold()


def _feasible_with(states):
    def check(result):
        if not result.feasible or result.truncated:
            return "not FEASIBLE"
        if result.explored_states != states:
            return f"{result.explored_states} states, expected {states}"
        return None

    return check


def verify_sample(recorder: Recorder, inputs, anchors: Anchors) -> None:
    verify = inputs["verify"]
    s1, s1_budget = inputs["s1"], inputs["s1_budget"]

    recorder.run(
        "unbounded",
        _cold,
        lambda: verify(s1, with_counterexample=False),
        _feasible_with(anchors.unbounded),
    )
    recorder.run(
        "accelerated",
        _cold,
        lambda: verify(s1, instance_budget=s1_budget, with_counterexample=False),
        _feasible_with(anchors.accelerated),
    )

    def check_specs(result):
        holds = [verdict.holds for verdict in result.spec_verdicts]
        if len(holds) != anchors.spec_count:
            return f"{len(holds)} spec verdicts"
        if holds != inputs["spec_reference"]:
            return f"spec verdicts {holds} differ from the set-up reference"
        return _feasible_with(anchors.accelerated)(result)

    # Runs on the S1 graph the accelerated call just compiled; only the
    # spec-verdict cache is cleared, so this times the bundle itself.
    for _ in range(REPEATS["specs"]):
        recorder.run(
            "specs",
            _spec_cold,
            lambda: verify(
                s1, instance_budget=s1_budget, with_counterexample=False,
                specs=inputs["bundle"],
            ),
            check_specs,
        )

    def check_witness(result):
        if result.feasible:
            return "FEASIBLE, expected INFEASIBLE"
        if result.explored_states != anchors.witness:
            return f"{result.explored_states} states, expected {anchors.witness}"
        if not result.counterexample or "C1" not in result.counterexample[-1].missed:
            return "witness does not end in a C1 miss"
        return None

    for _ in range(REPEATS["witness"]):
        recorder.run(
            "witness",
            _cold,
            lambda: verify(inputs["bad"], instance_budget=inputs["bad_budget"]),
            check_witness,
        )

    def check_ta(result):
        if result.reachable or result.truncated:
            return "error location reachable"
        if result.explored_states != anchors.ta_states:
            return f"{result.explored_states} states, expected {anchors.ta_states}"
        return None

    for _ in range(REPEATS["ta"]):
        recorder.run("ta", _cold, lambda: inputs["ta"](inputs["pair"]), check_ta)


def verify_parts(recorder: Recorder):
    return {
        f"{key}_ms": _median(recorder, key) * 1e3
        for key in ("unbounded", "accelerated", "specs", "witness", "ta")
    }


WORKLOADS = {
    "design": (design_inputs, design_sample, design_parts),
    "verify": (verify_inputs, verify_sample, verify_parts),
}


def run_cpu(name: str, seconds: float, anchors: Anchors, tracer=None, min_samples: int = 3):
    """Run ``name`` for about ``seconds``; returns the recorder and, when
    traced, the per-sample per-layer values of the traced samples plus the
    untraced/traced sample times (tracing overhead)."""
    make_inputs, sample, _parts = WORKLOADS[name]
    inputs = make_inputs(anchors)
    if name == "verify":
        verify_reference(inputs)
    undo = None
    if tracer is not None:
        from tracing import install

        undo = install(tracer, layers.library_targets())
    recorder = Recorder(tracer)
    per_sample = []
    coverages = []
    sample_seconds = {True: [], False: []}
    deadline = time.perf_counter() + seconds
    count = 0
    try:
        while count < min_samples or time.perf_counter() < deadline:
            traced = tracer is not None and count % 2 == 0
            before = {key: len(values) for key, values in recorder.normalised.items()}
            if tracer is not None:
                tracer.enabled = traced
                tracer.sample = count
            recorder.sample_spans.append([])
            sample(recorder, inputs, anchors)
            total = sum(
                sum(values[before.get(key, 0):])
                for key, values in recorder.normalised.items()
            )
            if tracer is not None:
                sample_seconds[traced].append(total)
                spans = tracer.take()
                if traced:
                    per_sample.append(layers.layer_values(layers.layer_sums(spans)))
                    coverages.append(layers.coverage(spans, recorder.sample_spans[-1]))
            count += 1
    finally:
        if undo is not None:
            undo()
    return recorder, per_sample, coverages, sample_seconds
