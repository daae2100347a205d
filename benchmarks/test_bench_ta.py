"""Timed-automata model checker (group ``ta``).

Model checks the paper's error-reachability query on the TA network of
{C1, C5}: one application automaton per application plus the scheduler
(Figs. 5-7), explored state by state through ``Network.successors``.  Every
call builds a fresh network and checker, so each round is a cold search.
"""

from __future__ import annotations

import pytest

from _bench_utils import print_block
from repro.casestudy import paper_profiles
from repro.verification import verify_with_model_checker

#: Reachable states of the {C1, C5} network without instance budgets.
PAIR_STATES = 9_155


@pytest.mark.benchmark(group="ta")
def test_bench_ta_error_reachability_pair(benchmark):
    """No application automaton of {C1, C5} reaches its Error location."""
    profiles = paper_profiles()
    pair = [profiles["C1"], profiles["C5"]]
    result = benchmark.pedantic(verify_with_model_checker, args=(pair,), iterations=1, rounds=5)
    print_block(
        "TA model checker — error reachability on {C1, C5}",
        [f"{result.explored_states:,} states, error reachable: {result.reachable}"],
    )
    assert not result.reachable and not result.truncated
    assert result.explored_states == PAIR_STATES
