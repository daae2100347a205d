"""The robustness campaign: cross-engine differential checking at scale.

Sweeps a deterministic scenario corpus (:mod:`repro.robustness.generator`)
and, for every scenario, explores the faulted slot configuration with
several engines and checks the equivalence contract of
:mod:`repro.verification.engine`:

* complete feasible runs report the identical visited count and level
  count across every engine;
* infeasible runs agree on the verdict and the minimal witness depth
  (``levels``), and the level-synchronous engines (everything but
  ``sequential``, whose discovery-order stop is documented to differ) on
  the visited count as well;
* a second kernel run must *warm-replay* the compiled graph to the
  identical outcome.

Scenarios any engine truncates are recorded as ``skipped`` — a truncated
run's verdict only covers the prefix that engine explored, so the contract
does not apply (see the engine-module docstring).

A divergence is shrunk with :func:`shrink_profiles` — greedy removal of
applications, waits, dwell slack and arrival tightness while the check
still fails — and persisted as a JSON fixture that replays from
``(seed, index)`` plus the recorded shrink trace alone.

Every scenario runs inside a ``try/finally`` that clears the shared packed
caches, so aborting a scenario mid-exploration (crash injection, operator
interrupt) never leaks successor memos or compiled graphs into the next
scenario.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..scheduler.packed import clear_packed_caches, packed_system_for
from ..scheduler.slot_system import SlotSystemConfig
from ..switching.profile import SwitchingProfile
from ..verification.acceleration import instance_budgets
from ..verification.engine import (
    CompiledKernelEngine,
    ExplorationOutcome,
    resolve_engine,
)
from ..verification.spec import standard_spec_bundle
from ..verification.spec_eval import evaluate_specs
from .generator import Scenario, ScenarioGenerator

__all__ = [
    "CampaignResult",
    "DEFAULT_ENGINES",
    "ScenarioReport",
    "apply_shrink_op",
    "run_campaign",
    "shrink_profiles",
]

#: Engines every scenario is cross-checked against.
DEFAULT_ENGINES: Tuple[str, ...] = ("sequential", "kernel")

#: Default exploration cap — generously above the generator's typical
#: state-space sizes, so truncation (and the skipped-scenario bucket) stays
#: rare.
DEFAULT_MAX_STATES = 200_000

#: The engines whose infeasible-run visited counts are comparable
#: (level-synchronous stop); ``sequential`` stops in discovery order.
_LEVEL_SYNCHRONOUS = frozenset({"kernel", "kernel-replay"})


# -------------------------------------------------------------------- reports
@dataclass
class ScenarioReport:
    """Outcome of one scenario's differential check."""

    index: int
    seed: int
    verdict: str  # "ok" | "divergence" | "skipped"
    feasible: Optional[bool]
    fault_kinds: Tuple[str, ...]
    app_count: int
    visited: Dict[str, int] = field(default_factory=dict)
    levels: Dict[str, int] = field(default_factory=dict)
    divergence: Optional[str] = None
    elapsed_seconds: float = 0.0
    states_per_second: float = 0.0
    fixture_path: Optional[str] = None
    #: Per-spec verdicts of the standard temporal bundle (``--specs`` runs):
    #: spec name -> True (holds) / False (violated) / None (undecided).
    spec_verdicts: Dict[str, Optional[bool]] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "seed": self.seed,
            "verdict": self.verdict,
            "feasible": self.feasible,
            "fault_kinds": list(self.fault_kinds),
            "app_count": self.app_count,
            "visited": dict(self.visited),
            "levels": dict(self.levels),
            "divergence": self.divergence,
            "elapsed_seconds": self.elapsed_seconds,
            "states_per_second": self.states_per_second,
            "fixture_path": self.fixture_path,
            "spec_verdicts": dict(self.spec_verdicts),
        }


@dataclass
class CampaignResult:
    """Aggregate of one campaign sweep."""

    seed: int
    start: int
    count: int
    engines: Tuple[str, ...]
    max_states: int
    reports: List[ScenarioReport] = field(default_factory=list)

    @property
    def divergences(self) -> List[ScenarioReport]:
        return [report for report in self.reports if report.verdict == "divergence"]

    @property
    def skipped(self) -> List[ScenarioReport]:
        return [report for report in self.reports if report.verdict == "skipped"]

    def fault_coverage(self) -> Dict[str, int]:
        """Scenario count per fault kind (``"none"`` for fault-free ones)."""
        coverage: Dict[str, int] = {}
        for report in self.reports:
            kinds = report.fault_kinds or ("none",)
            for kind in kinds:
                coverage[kind] = coverage.get(kind, 0) + 1
        return dict(sorted(coverage.items()))

    def throughput_percentiles(self) -> Dict[str, float]:
        """p50/p99 verification throughput (states/s) across the corpus."""
        rates = sorted(
            report.states_per_second
            for report in self.reports
            if report.states_per_second > 0
        )
        if not rates:
            return {"p50_states_per_second": 0.0, "p99_states_per_second": 0.0}

        def percentile(fraction: float) -> float:
            position = min(len(rates) - 1, int(round(fraction * (len(rates) - 1))))
            return rates[position]

        return {
            "p50_states_per_second": percentile(0.50),
            "p99_states_per_second": percentile(0.99),
        }

    def spec_verdict_counts(self) -> Dict[str, Dict[str, int]]:
        """Per spec-family verdict counts across the corpus.

        Per-application spec names (``grant-response(C1)``) collapse onto
        their family (``grant-response``); each family counts how many
        evaluated specs hold, are violated, or are undecided.
        """
        counts: Dict[str, Dict[str, int]] = {}
        for report in self.reports:
            for name, holds in report.spec_verdicts.items():
                family = name.split("(", 1)[0]
                bucket = counts.setdefault(
                    family, {"holds": 0, "violated": 0, "undecided": 0}
                )
                key = "undecided" if holds is None else ("holds" if holds else "violated")
                bucket[key] += 1
        return dict(sorted(counts.items()))

    def summary(self) -> Dict[str, object]:
        spec_counts = self.spec_verdict_counts()
        extra: Dict[str, object] = {"spec_verdicts": spec_counts} if spec_counts else {}
        return {
            "seed": self.seed,
            "start": self.start,
            "count": self.count,
            "engines": list(self.engines),
            "max_states": self.max_states,
            "ok": sum(1 for report in self.reports if report.verdict == "ok"),
            "divergences": len(self.divergences),
            "skipped": len(self.skipped),
            "feasible": sum(1 for report in self.reports if report.feasible is True),
            "infeasible": sum(
                1 for report in self.reports if report.feasible is False
            ),
            "fault_coverage": self.fault_coverage(),
            "throughput": self.throughput_percentiles(),
            "total_elapsed_seconds": sum(
                report.elapsed_seconds for report in self.reports
            ),
            **extra,
        }

    def to_dict(self) -> Dict[str, object]:
        payload = self.summary()
        payload["reports"] = [report.to_dict() for report in self.reports]
        return payload


# ------------------------------------------------------------------ exploring
def _explore_all(
    profiles: Sequence[SwitchingProfile],
    budget: Dict[str, int],
    engines: Sequence[str],
    max_states: int,
) -> Dict[str, ExplorationOutcome]:
    """One outcome per engine spec, plus the kernel warm replay."""
    config = SlotSystemConfig.from_profiles(profiles, budget)
    outcomes: Dict[str, ExplorationOutcome] = {}
    for spec in engines:
        outcomes[spec] = resolve_engine(spec).explore(
            packed_system_for(config), max_states, with_parents=False
        )
    if "kernel" in engines:
        # Second kernel pass: the graph compiled above must replay frozen
        # to the identical outcome.
        outcomes["kernel-replay"] = CompiledKernelEngine().explore(
            packed_system_for(config), max_states, with_parents=False
        )
    return outcomes


def _compare(outcomes: Dict[str, ExplorationOutcome]) -> Tuple[str, Optional[str]]:
    """``(verdict, divergence_description)`` for one outcome set."""
    if any(outcome.truncated for outcome in outcomes.values()):
        return "skipped", None
    verdicts = {name: outcome.feasible for name, outcome in outcomes.items()}
    if len(set(verdicts.values())) > 1:
        return "divergence", f"verdict mismatch: {verdicts}"
    feasible = next(iter(verdicts.values()))
    levels = {name: outcome.levels for name, outcome in outcomes.items()}
    if len(set(levels.values())) > 1:
        # Complete feasible runs agree on the level count; infeasible runs
        # stop at the minimal witness depth everywhere.
        kind = "level-count" if feasible else "level/witness-depth"
        return "divergence", f"{kind} mismatch: {levels}"
    if feasible:
        counts = {name: outcome.visited_count for name, outcome in outcomes.items()}
        if len(set(counts.values())) > 1:
            return "divergence", f"feasible visited-count mismatch: {counts}"
    else:
        counts = {
            name: outcome.visited_count
            for name, outcome in outcomes.items()
            if name in _LEVEL_SYNCHRONOUS
        }
        if len(set(counts.values())) > 1:
            return (
                "divergence",
                f"level-synchronous infeasible visited-count mismatch: {counts}",
            )
    replay = outcomes.get("kernel-replay")
    reference = outcomes.get("kernel")
    if replay is not None and reference is not None:
        replay_triple = (replay.feasible, replay.visited_count, replay.levels)
        kernel_triple = (
            reference.feasible,
            reference.visited_count,
            reference.levels,
        )
        if replay_triple != kernel_triple:
            return (
                "divergence",
                f"warm replay mismatch: replay {replay_triple} vs cold {kernel_triple}",
            )
    return "ok", None


# ------------------------------------------------------------------ shrinking
#: Shrink operations: ``(op, app_position)`` pairs over the *name-sorted*
#: profile tuple, so a recorded trace replays identically.
def _shrink_candidates(
    profiles: Tuple[SwitchingProfile, ...],
) -> List[Tuple[str, int]]:
    ops: List[Tuple[str, int]] = []
    if len(profiles) > 1:
        ops.extend(("drop-app", position) for position in range(len(profiles)))
    for position, profile in enumerate(profiles):
        if profile.max_wait > 0:
            ops.append(("truncate-table", position))
        if any(
            entry.max_dwell > entry.min_dwell for entry in profile.dwell_table
        ):
            ops.append(("cap-dwell", position))
        if profile.min_inter_arrival < profile.requirement_samples + 64:
            ops.append(("relax-arrivals", position))
    return ops


def apply_shrink_op(
    profiles: Tuple[SwitchingProfile, ...], op: Tuple[str, int]
) -> Tuple[SwitchingProfile, ...]:
    """Apply one recorded shrink step (pure, deterministic)."""
    kind, position = str(op[0]), int(op[1])
    profile = profiles[position]
    if kind == "drop-app":
        return profiles[:position] + profiles[position + 1 :]
    if kind == "truncate-table":
        shrunk = replace(
            profile,
            dwell_table=profile.dwell_table[:-1],
            max_wait=profile.max_wait - 1,
        )
    elif kind == "cap-dwell":
        shrunk = replace(
            profile,
            dwell_table=tuple(
                replace(entry, max_dwell=entry.min_dwell)
                for entry in profile.dwell_table
            ),
        )
    elif kind == "relax-arrivals":
        shrunk = replace(
            profile,
            min_inter_arrival=min(
                profile.requirement_samples + 64, profile.min_inter_arrival * 2
            ),
        )
    else:
        raise ValueError(f"unknown shrink op {kind!r}")
    return profiles[:position] + (shrunk,) + profiles[position + 1 :]


def shrink_profiles(
    profiles: Sequence[SwitchingProfile],
    still_diverges: Callable[[Tuple[SwitchingProfile, ...]], bool],
) -> Tuple[Tuple[SwitchingProfile, ...], List[Tuple[str, int]]]:
    """Greedy shrink to a local minimum that still diverges.

    Repeatedly tries every candidate operation (drop an application, drop
    the largest wait, collapse dwell slack, relax arrival pressure) and
    keeps the first one under which ``still_diverges`` holds, until no
    operation preserves the divergence.  Returns the shrunk profiles and
    the accepted operation trace (replayable via :func:`apply_shrink_op`).
    """
    current = tuple(sorted(profiles, key=lambda profile: profile.name))
    trace: List[Tuple[str, int]] = []
    progressed = True
    while progressed:
        progressed = False
        for op in _shrink_candidates(current):
            candidate = apply_shrink_op(current, op)
            if still_diverges(candidate):
                current = candidate
                trace.append(op)
                progressed = True
                break
    return current, trace


# ------------------------------------------------------------------- campaign
def _fixture_payload(
    scenario: Scenario,
    shrunk: Tuple[SwitchingProfile, ...],
    trace: List[Tuple[str, int]],
    divergence: str,
    engines: Sequence[str],
    max_states: int,
) -> Dict[str, object]:
    from .faults import fault_to_dict

    return {
        "seed": scenario.seed,
        "index": scenario.index,
        "faults": [fault_to_dict(fault) for fault in scenario.faults],
        "shrink_ops": [[kind, position] for kind, position in trace],
        "profiles": [profile.to_dict() for profile in shrunk],
        "explicit_budget": scenario.explicit_budget,
        "divergence": divergence,
        "engines": list(engines),
        "max_states": int(max_states),
    }


def run_campaign(
    seed: int,
    count: int,
    *,
    start: int = 0,
    engines: Optional[Sequence[str]] = None,
    max_states: int = DEFAULT_MAX_STATES,
    divergence_hook: Optional[Callable[..., Optional[str]]] = None,
    fixtures_dir: Optional[str] = None,
    progress: Optional[Callable[[ScenarioReport], None]] = None,
    specs: bool = False,
) -> CampaignResult:
    """Sweep ``count`` scenarios and differential-check every one.

    Args:
        seed: corpus seed; with ``start``/``count`` it names the exact
            scenario set.
        count: number of scenarios.
        start: first scenario index (replay a single scenario with
            ``start=index, count=1``).
        engines: engine specs to cross-check (kernel additionally gets a
            warm-replay pass); defaults to :data:`DEFAULT_ENGINES`.
        max_states: exploration cap; truncating scenarios are ``skipped``.
        divergence_hook: test hook — called as ``hook(scenario, profiles,
            outcomes)`` after the built-in comparison and may return a
            synthetic divergence description; used to exercise the shrink
            and fixture machinery without a real engine bug.
        fixtures_dir: when given, every divergence is shrunk and persisted
            there as a JSON reproducer fixture.
        progress: optional per-scenario callback (the CLI's ticker).
        specs: additionally evaluate the standard temporal-spec bundle
            (:func:`~repro.verification.spec.standard_spec_bundle`) on each
            non-skipped scenario's compiled graph; per-spec verdicts land on
            the reports and aggregate in the summary.
    """
    if engines is None:
        engines = DEFAULT_ENGINES
    generator = ScenarioGenerator(seed)
    result = CampaignResult(
        seed=int(seed),
        start=int(start),
        count=int(count),
        engines=tuple(engines),
        max_states=int(max_states),
    )
    for scenario in generator.corpus(count, start):
        began = time.perf_counter()
        try:
            report = _run_scenario(
                scenario, engines, max_states, divergence_hook, specs
            )
        finally:
            # Per-scenario hygiene: drop successor memos and compiled
            # graphs even when the scenario aborts mid-exploration.
            clear_packed_caches()
        report.elapsed_seconds = time.perf_counter() - began
        visited_total = sum(report.visited.values())
        if report.elapsed_seconds > 0:
            report.states_per_second = visited_total / report.elapsed_seconds
        if report.verdict == "divergence" and fixtures_dir:
            report.fixture_path = _persist_divergence(
                scenario,
                report,
                engines,
                max_states,
                divergence_hook,
                fixtures_dir,
            )
        result.reports.append(report)
        if progress is not None:
            progress(report)
    return result


def _run_scenario(
    scenario: Scenario,
    engines: Sequence[str],
    max_states: int,
    divergence_hook,
    specs: bool = False,
) -> ScenarioReport:
    profiles = scenario.profiles
    budget = scenario.effective_budget()
    outcomes = _explore_all(profiles, budget, engines, max_states)
    verdict, divergence = _compare(outcomes)
    if divergence is None and divergence_hook is not None:
        injected = divergence_hook(scenario, profiles, outcomes)
        if injected:
            verdict, divergence = "divergence", str(injected)
    report = ScenarioReport(
        index=scenario.index,
        seed=scenario.seed,
        verdict=verdict,
        feasible=(
            next(iter(outcomes.values())).feasible if verdict != "skipped" else None
        ),
        fault_kinds=scenario.fault_kinds,
        app_count=len(profiles),
        visited={name: outcome.visited_count for name, outcome in outcomes.items()},
        levels={name: outcome.levels for name, outcome in outcomes.items()},
        divergence=divergence,
    )
    if specs and verdict != "skipped":
        report.spec_verdicts = _scenario_spec_verdicts(profiles, budget, max_states)
    return report


def _scenario_spec_verdicts(
    profiles: Sequence[SwitchingProfile],
    budget: Dict[str, int],
    max_states: int,
) -> Dict[str, Optional[bool]]:
    """Standard-bundle verdicts on the scenario's compiled graph.

    ``_explore_all`` already compiled the graph when ``kernel`` was among
    the engines, so this usually replays warm; otherwise (or after a
    truncated kernel pass) it compiles once here.  Scenarios whose graph
    cannot be completed within ``max_states`` report every spec undecided.
    """
    config = SlotSystemConfig.from_profiles(profiles, budget)
    system = packed_system_for(config)
    graph = system.compiled_graph
    if graph is None or not (graph.complete or graph.error is not None):
        CompiledKernelEngine().explore(system, max_states, with_parents=False)
        graph = system.compiled_graph
    bundle = standard_spec_bundle(profiles)
    if graph is None or not (graph.complete or graph.error is not None):
        return {spec.name: None for spec in bundle}
    return {
        verdict.name: verdict.holds for verdict in evaluate_specs(graph, bundle)
    }


def _persist_divergence(
    scenario: Scenario,
    report: ScenarioReport,
    engines: Sequence[str],
    max_states: int,
    divergence_hook,
    fixtures_dir: str,
) -> str:
    """Shrink a divergent scenario and write its reproducer fixture."""

    def still_diverges(candidate: Tuple[SwitchingProfile, ...]) -> bool:
        try:
            budget = (
                {
                    name: count
                    for name, count in scenario.explicit_budget.items()
                    if name in {profile.name for profile in candidate}
                }
                if scenario.explicit_budget is not None
                else instance_budgets(candidate)
            )
            outcomes = _explore_all(candidate, budget, engines, max_states)
            verdict, divergence = _compare(outcomes)
            if divergence is None and divergence_hook is not None:
                divergence = divergence_hook(scenario, candidate, outcomes)
            return bool(divergence)
        finally:
            clear_packed_caches()

    shrunk, trace = shrink_profiles(scenario.profiles, still_diverges)
    payload = _fixture_payload(
        scenario, shrunk, trace, report.divergence or "", engines, max_states
    )
    os.makedirs(fixtures_dir, exist_ok=True)
    path = os.path.join(
        fixtures_dir, f"divergence-s{scenario.seed}-i{scenario.index}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
