"""Temporal-spec evaluation benchmarks (group ``spec``).

Checking a K-spec bundle against a *warm* compiled graph works on the
frozen CSR arrays alone — zero states re-explored (asserted on the graph's
own counters) and throughput in the hundreds of properties per second even
on the 145k-state slot S1.  The cold
path pays one compile and then evaluates on the freshly built graph; the
service round trip adds the JSON-lines parse/dispatch/serialize envelope.
"""

from __future__ import annotations

import time

import pytest

from _bench_utils import print_block
from repro.casestudy import paper_profiles
from repro.scheduler.packed import clear_packed_caches, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig
from repro.verification import (
    clear_spec_cache,
    evaluate_specs,
    instance_budgets,
    standard_spec_bundle,
    verify_slot_sharing,
)

#: Reachable states of slot S1 = {C1, C5, C4, C3} with the Sec. 5 budgets.
SLOT1_STATES = 145_373

#: Warm-batch throughput floor (properties/s on slot S1; ~140 on a 2-vCPU
#: container with the out-degree peel, ~35 with the per-layer reduceat
#: passes before it; kept loose for hosted-runner variance).
WARM_PROPS_FLOOR = 10.0


def _slot1():
    profiles = paper_profiles()
    slot = [profiles[name] for name in ("C1", "C5", "C4", "C3")]
    return slot, instance_budgets(slot)


def _compiled_slot1():
    slot, budgets = _slot1()
    result = verify_slot_sharing(
        slot, instance_budget=budgets, with_counterexample=False, engine="kernel"
    )
    assert result.feasible and result.explored_states == SLOT1_STATES
    config = SlotSystemConfig.from_profiles(slot, budgets)
    return slot, packed_system_for(config).compiled_graph


@pytest.mark.benchmark(group="spec")
def test_bench_spec_warm_batch_slot1(benchmark):
    """K-spec warm batch on slot S1: spec evaluation only, no expansion.

    The verdict LRU is emptied before every round (outside the timing), so
    each round evaluates the bundle instead of replaying cached verdicts."""
    clear_packed_caches()
    slot, graph = _compiled_slot1()
    bundle = standard_spec_bundle(slot)
    before = (graph.expanded_levels, graph.state_count, graph.transition_count)
    rates = []

    def run():
        start = time.perf_counter()
        verdicts = evaluate_specs(graph, bundle)
        rates.append(len(bundle) / (time.perf_counter() - start))
        return verdicts

    verdicts = benchmark.pedantic(run, setup=clear_spec_cache, iterations=1, rounds=3)
    after = (graph.expanded_levels, graph.state_count, graph.transition_count)
    best = max(rates)
    print_block(
        "spec — warm K-batch on slot S1 (145k states)",
        [
            f"{len(bundle)} specs, best round {best:.0f} props/s "
            f"(floor {WARM_PROPS_FLOOR:.0f})",
            f"graph counters before/after: {before} == {after}",
        ],
    )
    # Zero re-exploration: the batch must not expand, intern or add a
    # single state or transition.
    assert before == after
    assert best >= WARM_PROPS_FLOOR
    # The QoS bundle holds on the feasible paper slot.
    by_name = {verdict.name: verdict.holds for verdict in verdicts}
    assert by_name["no-miss"] is True
    assert all(
        holds is True
        for name, holds in by_name.items()
        if name.startswith(("grant-response", "recovery", "reach-grant"))
    )


@pytest.mark.benchmark(group="spec")
def test_bench_spec_cold_compile_and_check_slot1(benchmark):
    """Cold path: one compile of slot S1 + the full bundle evaluation."""
    slot, budgets = _slot1()
    bundle = standard_spec_bundle(slot)

    def run():
        slot_, graph = _compiled_slot1()
        return evaluate_specs(graph, bundle)

    verdicts = benchmark.pedantic(
        run, setup=clear_packed_caches, iterations=1, rounds=2
    )
    print_block(
        "spec — cold compile + K-batch on slot S1",
        [f"{len(bundle)} specs evaluated after one cold compile"],
    )
    assert all(verdict.holds is not None for verdict in verdicts)


@pytest.mark.benchmark(group="spec")
def test_bench_spec_service_round_trip(benchmark, tmp_path):
    """Warm ``check`` round trips through the service (slot S2, one conn)."""
    from test_bench_service import _running_server

    from repro.service import ServiceClient

    profiles = paper_profiles()
    config = [profiles["C6"], profiles["C2"]]  # the paper's slot S2
    specs = [
        "always not missed",
        "reachable occupant(C2)",
        "always (waiting(C6) implies eventually <= 10 holding(C6))",
    ]
    batch = 50
    rates = []

    clear_packed_caches()
    with _running_server(tmp_path) as service:
        with ServiceClient(service.socket_path) as client:
            prime = client.check(config, specs)  # one cold compile
            assert [verdict.holds for verdict in prime] == [True, True, True]

            def run():
                start = time.perf_counter()
                for _ in range(batch):
                    client.check(config, specs)
                rates.append(batch / (time.perf_counter() - start))

            benchmark.pedantic(run, iterations=1, rounds=3)
            window = dict(service.stats)

    best = max(rates)
    print_block(
        "spec — service check round trips (slot S2, 3 specs/request)",
        [
            f"best round: {best:,.0f} checks/s",
            f"compiles {window['compiles']}, spec checks "
            f"{window['spec_checks']:,}",
        ],
    )
    assert window["compiles"] == 1  # everything after the prime replayed warm
    assert window["spec_checks"] == 1 + 3 * batch
