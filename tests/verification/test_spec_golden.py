"""Golden pin of spec verdicts and witnesses.

``data/spec_verdicts.json`` holds :meth:`SpecVerdict.to_dict` (minus the
wall time) of every spec checked on three sets of compiled graphs:

* the paper's slot S1 ``(C1, C5, C4, C3)`` with its standard bundle;
* slot S2 ``(C6, C2)`` with its standard bundle;
* the randomized corpus of ``test_randomized_corpus_matches_reference``
  (seed 515) with its bundle plus ``GENERIC_SPECS``.

The standard bundles hold on S1 and S2 and the corpus refutes only
invariants and liveness (lassos), so every case also checks the tight
``PROBE_SPECS``: bounded responses refuted with ``k`` of 1, 3 and 6, whose
witnesses descend several goal-avoiding steps.

``holds``, ``witness``, ``loop_start``, ``states_checked`` and ``reason``
are all compared, so any change to the evaluator that moves a single
witness step fails here, even where the verdict survives.

Regenerate (only when a semantic change is intended) with
``PYTHONPATH=src python tests/verification/test_spec_golden.py``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.casestudy import paper_profiles
from repro.robustness.generator import ScenarioGenerator
from repro.scheduler.packed import clear_packed_caches, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import (
    evaluate_specs,
    instance_budgets,
    parse_spec,
    standard_spec_bundle,
    verify_slot_sharing,
)
from repro.verification.spec_eval import SPEC_CACHE_ENV_VAR
from test_spec import GENERIC_SPECS

GOLDEN_PATH = Path(__file__).parent / "data" / "spec_verdicts.json"

#: Bounded responses over one application ``A``, too tight to hold.
PROBE_SPECS = [
    f"always ({trigger} implies eventually <= {bound} {goal})"
    for bound in (1, 3, 6)
    for trigger, goal in (
        ("waiting(A)", "holding(A)"),
        ("holding(A)", "idle"),
        ("not steady(A)", "steady(A)"),
    )
]


def _probes(names):
    return [parse_spec(text.replace("(A)", f"({name})")) for name in names for text in PROBE_SPECS]


def _verdicts(profiles, budget, specs, max_states=200_000):
    """Compile one configuration cold and check ``specs`` against it, or
    return None when the exploration is truncated."""
    clear_packed_caches()
    result = verify_slot_sharing(
        profiles,
        instance_budget=budget,
        max_states=max_states,
        with_counterexample=False,
        engine="kernel",
    )
    if result.truncated:
        return None
    graph = packed_system_for(SlotSystemConfig.from_profiles(profiles, budget)).compiled_graph
    verdicts = []
    for verdict in evaluate_specs(graph, specs):
        payload = verdict.to_dict()
        del payload["elapsed_seconds"]
        verdicts.append(payload)
    return verdicts


def golden_cases():
    """``{case name: [verdict dicts]}`` for every pinned configuration."""
    profiles = paper_profiles()
    cases = {}
    for name, apps in (("S1", ("C1", "C5", "C4", "C3")), ("S2", ("C6", "C2"))):
        slot = [profiles[app] for app in apps]
        specs = list(standard_spec_bundle(slot)) + _probes(apps)
        cases[name] = _verdicts(slot, instance_budgets(slot), specs)
    for scenario in ScenarioGenerator(515).corpus(12):
        slot = scenario.profiles
        first = slot[0].name
        specs = list(standard_spec_bundle(slot)) + [
            parse_spec(text.replace("(A)", f"({first})")) for text in GENERIC_SPECS
        ] + _probes([first])
        verdicts = _verdicts(slot, scenario.effective_budget(), specs, max_states=60_000)
        if verdicts is not None:
            cases[f"corpus-515-{scenario.index}"] = verdicts
    return cases


@pytest.fixture(scope="module")
def actual():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(SPEC_CACHE_ENV_VAR, "0")  # evaluate every spec, never the LRU
        return golden_cases()


# Missing only while the generator below writes it for the first time.
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_every_case(actual):
    assert sorted(actual) == sorted(GOLDEN)
    assert {"S1", "S2"} <= set(GOLDEN)
    verdicts = [verdict for case in GOLDEN.values() for verdict in case]
    # The pinned set holds liveness lassos and multi-step response witnesses.
    assert any(v["loop_start"] is not None for v in verdicts)
    assert any(
        v["holds"] is False and "eventually <= 6" in v["source"] and len(v["witness"]) > 6
        for v in verdicts
    )


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_verdicts_match_golden(actual, case):
    assert actual[case] == GOLDEN[case]


if __name__ == "__main__":
    os.environ[SPEC_CACHE_ENV_VAR] = "0"
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    cases = golden_cases()
    GOLDEN_PATH.write_text(
        "{\n"
        + ",\n".join(
            f"  {json.dumps(name)}: [\n"
            + ",\n".join(f"    {json.dumps(verdict)}" for verdict in verdicts)
            + "\n  ]"
            for name, verdicts in cases.items()
        )
        + "\n}\n"
    )
