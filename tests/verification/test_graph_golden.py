"""Golden pin of compiled state graphs, independent of the packed layout.

``data/compiled_graphs.json`` holds, per pinned slot configuration, what a
cold kernel compile produces: the explored state count, the BFS level
count, one sha256 over the id-level arrays ``(level_ptr, indptr,
successor_ids, labels, parent_ids, parent_labels)`` and the decoded
counterexample.  Ids are assigned ascending by packed value within a
level, so the digest moves when the order of packed values moves — but
neither the packed word count nor the raw state words are pinned, so a
narrower field layout that keeps every interned value inside its field
passes unchanged.

Pinned configurations (all with the Sec. 5 instance budgets): the paper's
slot S1 ``(C1, C5, C4, C3)``, the infeasible witness ``(C1, C5, C4, C6)``,
S1 on the computed profiles (the dominant ``design`` admission trial),
slot S2 ``(C6, C2)`` and ``(C2, C3, C4, C6)``, whose states need two words.

Regenerate (only when a semantic change is intended) with
``PYTHONPATH=src python tests/verification/test_graph_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.casestudy import computed_profiles, paper_profiles
from repro.scheduler.packed import clear_packed_caches, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import instance_budgets, verify_slot_sharing

GOLDEN_PATH = Path(__file__).parent / "data" / "compiled_graphs.json"

#: ``case name -> (profile source, slot applications)``.
CASES = {
    "paper-S1": ("paper", ("C1", "C5", "C4", "C3")),
    "paper-witness": ("paper", ("C1", "C5", "C4", "C6")),
    "computed-S1": ("computed", ("C1", "C5", "C4", "C3")),
    "paper-S2": ("paper", ("C6", "C2")),
    "paper-C2-C3-C4-C6": ("paper", ("C2", "C3", "C4", "C6")),
}

_SOURCES = {"paper": paper_profiles, "computed": computed_profiles}

#: Dtype each digested array is normalised to before hashing.
_DIGESTED = (
    ("level_ptr", np.int64),
    ("indptr", np.int64),
    ("successor_ids", np.int64),
    ("labels", np.uint64),
    ("parent_ids", np.int64),
    ("parent_labels", np.uint64),
)


def graph_digest(graph) -> str:
    """sha256 over the id-level arrays of a compiled graph."""
    digest = hashlib.sha256()
    for name, dtype in _DIGESTED:
        array = np.ascontiguousarray(np.asarray(getattr(graph, name)), dtype=dtype)
        digest.update(name.encode())
        digest.update(str(array.shape[0]).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def compile_case(source: str, names) -> dict:
    """Cold kernel compile of one case and its layout-free summary."""
    profiles = _SOURCES[source]()
    slot = [profiles[name] for name in names]
    budget = instance_budgets(slot)
    clear_packed_caches()
    result = verify_slot_sharing(slot, instance_budget=budget, engine="kernel")
    graph = packed_system_for(SlotSystemConfig.from_profiles(slot, budget)).compiled_graph
    return {
        "feasible": result.feasible,
        "explored_states": result.explored_states,
        "levels": len(graph.level_ptr) - 1,
        "sha256": graph_digest(graph),
        "counterexample": [
            {
                "sample": step.sample,
                "arrivals": list(step.arrivals),
                "occupant": step.occupant,
                "missed": list(step.missed),
            }
            for step in result.counterexample
        ],
    }


# Missing only while the generator below writes it for the first time.
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)
    assert not GOLDEN["paper-witness"]["feasible"]
    assert GOLDEN["paper-witness"]["counterexample"][-1]["missed"] == ["C1"]
    assert GOLDEN["paper-S1"]["explored_states"] == 145_373


@pytest.mark.parametrize("case", sorted(CASES))
def test_compiled_graph_matches_golden(case):
    try:
        assert compile_case(*CASES[case]) == GOLDEN[case]
    finally:
        clear_packed_caches()


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    cases = {name: compile_case(*spec) for name, spec in CASES.items()}
    GOLDEN_PATH.write_text(json.dumps(cases, indent=1) + "\n")
