"""Golden pin of the timed-automata successor relation.

``data/network_successors.json`` holds, for each slot-sharing network of
:class:`~repro.verification.automata.SlotSharingModelBuilder`, the number of
states expanded, the number of (state, successor, label) triples they
produce and a sha256 over those triples in BFS order — states in discovery
order, each state's successors in the order ``Network.successors`` returns
them.  Any change to the network semantics, to the order successors come
out in or to a single transition label fails here.

The networks are {C1, C5} (the model-checker anchor, expanded in full),
{C1, C5, C4} and {C6, C2}, each unbounded and with the Sec. 5 instance
budgets; the larger ones are pinned on their first ``STATE_CAP`` states.

Regenerate (only when a semantic change is intended) with
``PYTHONPATH=src python tests/ta/test_network_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from pathlib import Path

import pytest

from repro.casestudy import paper_profiles
from repro.verification import instance_budgets
from repro.verification.automata import SlotSharingModelBuilder

GOLDEN_PATH = Path(__file__).parent / "data" / "network_successors.json"

#: States expanded per network (BFS order); {C1, C5} fits in full.
STATE_CAP = 10_000

APPS = {"C1-C5": ("C1", "C5"), "C1-C5-C4": ("C1", "C5", "C4"), "C6-C2": ("C6", "C2")}


def _fields(state):
    return [state.locations, state.clocks, state.variables]


def successor_digest(network, cap=STATE_CAP):
    """``{"states", "edges", "sha256"}`` of the first ``cap`` states in BFS order."""
    digest = hashlib.sha256()
    root = network.initial_state()
    seen = {root}
    queue = deque([root])
    states = edges = 0
    while queue and states < cap:
        state = queue.popleft()
        states += 1
        for successor, label in network.successors(state):
            edges += 1
            triple = [_fields(state), _fields(successor), label]
            digest.update(json.dumps(triple).encode() + b"\n")
            if successor not in seen:
                seen.add(successor)
                queue.append(successor)
    return {"states": states, "edges": edges, "sha256": digest.hexdigest()}


def golden_cases():
    """``{case name: digest}`` for every pinned network."""
    profiles = paper_profiles()
    cases = {}
    for name, apps in APPS.items():
        slot = [profiles[app] for app in apps]
        for suffix, budget in (("unbounded", None), ("budgeted", instance_budgets(slot))):
            network = SlotSharingModelBuilder(slot, budget).build()
            cases[f"{name}-{suffix}"] = successor_digest(network)
    return cases


# Missing only while the generator below writes it for the first time.
GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.fixture(scope="module")
def actual():
    return golden_cases()


def test_golden_covers_every_case(actual):
    assert sorted(actual) == sorted(GOLDEN)
    # The model-checker anchor is expanded in full: 9,155 states.
    assert GOLDEN["C1-C5-unbounded"]["states"] == 9_155


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_successors_match_golden(actual, case):
    assert actual[case] == GOLDEN[case]


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(golden_cases(), indent=1, sort_keys=True) + "\n")
