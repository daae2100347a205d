"""Temporal-spec layer tests: parser round-trips, vectorized-vs-brute-force
verdict identity, witness validity and zero re-exploration.

The cross-check strategy mirrors the robustness campaign: the vectorized
evaluator (label propagation on the compiled CSR arrays) and
:class:`~repro.verification.spec_eval.ReferenceChecker` (python sets over
the decoded tuple states) are two independent implementations of the same
semantics, so every verdict they disagree on is a bug in one of them.
"""

from __future__ import annotations

import pytest

from repro.exceptions import SpecError
from repro.robustness.generator import ScenarioGenerator
from repro.scheduler.packed import clear_packed_caches, packed_system_for
from repro.scheduler.slot_system import SlotSystemConfig, advance, initial_state
from repro.verification import (
    ReferenceChecker,
    evaluate_specs,
    instance_budgets,
    parse_spec,
    spec_from_dict,
    spec_to_dict,
    specs_from_wire,
    standard_spec_bundle,
    verify_slot_sharing,
)
from repro.verification.spec import format_spec


def _compiled_graph(profiles, max_states=200_000):
    budget = instance_budgets(profiles)
    result = verify_slot_sharing(
        profiles,
        instance_budget=budget,
        max_states=max_states,
        with_counterexample=True,
        engine="kernel",
    )
    config = SlotSystemConfig.from_profiles(profiles, budget)
    return packed_system_for(config).compiled_graph, config, result


#: Specs over a single application named ``A`` — every fixture config has
#: one — spanning each form, operator and atom kind at least once.
GENERIC_SPECS = [
    "always not missed",
    "always (holding(A) implies not queued(A))",
    "always (idle implies buffer == 0)",
    "reachable buffer >= 2",
    "reachable (occupant(A) and instances(A) >= 1)",
    "always (waiting(A) implies eventually <= 3 holding(A))",
    "always (buffer >= 1 implies eventually <= 6 idle)",
    "eventually holding(A)",
    "eventually not steady(A)",
    "always wait(A) <= 50",
    "always phase(A) != done or done(A)",
    "always (safe(A) implies eventually <= 30 (steady(A) or done(A)))",
    "reachable dwell(A) >= 2",
    "always (true implies eventually <= 0 true)",
    "reachable false",
]


class TestParser:
    @pytest.mark.parametrize("text", GENERIC_SPECS)
    def test_parse_format_round_trip(self, text):
        spec = parse_spec(text)
        assert parse_spec(format_spec(spec)).form == spec.form

    @pytest.mark.parametrize("text", GENERIC_SPECS)
    def test_dict_round_trip(self, text):
        spec = parse_spec(text, name="t")
        rebuilt = spec_from_dict(spec_to_dict(spec))
        assert rebuilt.form == spec.form
        assert rebuilt.name == "t"

    def test_bundle_round_trips(self, small_profile, second_small_profile):
        for spec in standard_spec_bundle([small_profile, second_small_profile]):
            assert parse_spec(format_spec(spec)).form == spec.form
            assert spec_from_dict(spec_to_dict(spec)).form == spec.form

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "always",
            "sometimes idle",
            "always idle extra",
            "always (waiting(A) implies holding(A)",
            "always frobnicate(A)",
            "always phase(A) == sleeping",
            "always wait(A) ~= 3",
            # a bounded eventually anywhere but the consequent of an
            # always-implies is rejected, not silently mis-scoped
            "always eventually <= 3 idle",
            "reachable eventually <= 2 idle",
            "always (eventually <= 2 idle implies idle)",
            "eventually <= 4 idle",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SpecError):
            parse_spec(bad)

    def test_specs_from_wire_mixes_shapes(self):
        spec = parse_spec("always not missed", name="nm")
        parsed = specs_from_wire(["reachable idle", spec.to_dict(), spec])
        assert [entry.name for entry in parsed] == [
            "reachable idle",
            "nm",
            "nm",
        ]
        single = specs_from_wire("eventually holding(A)")
        assert len(single) == 1


class TestCrossCheck:
    def test_feasible_pair_matches_reference(
        self, small_profile, second_small_profile
    ):
        graph, _config, result = _compiled_graph(
            [small_profile, second_small_profile]
        )
        assert result.feasible and graph.complete
        specs = list(
            standard_spec_bundle([small_profile, second_small_profile])
        ) + [parse_spec(text) for text in GENERIC_SPECS]
        reference = ReferenceChecker(graph)
        for spec, verdict in zip(specs, evaluate_specs(graph, specs)):
            assert verdict.holds == reference.check(spec), spec.text

    def test_infeasible_triple_matches_reference(
        self, small_profile, second_small_profile, tight_profile
    ):
        graph, _config, result = _compiled_graph(
            [small_profile, second_small_profile, tight_profile]
        )
        assert not result.feasible
        specs = list(
            standard_spec_bundle(
                [small_profile, second_small_profile, tight_profile]
            )
        ) + [parse_spec(text) for text in GENERIC_SPECS]
        reference = ReferenceChecker(graph)
        for spec, verdict in zip(specs, evaluate_specs(graph, specs)):
            assert verdict.holds == reference.check(spec), spec.text

    def test_no_miss_is_the_feasibility_query(
        self, small_profile, second_small_profile, tight_profile
    ):
        """``always not missed`` == infeasibility, witness depth included."""
        graph, _config, result = _compiled_graph(
            [small_profile, second_small_profile, tight_profile]
        )
        (verdict,) = evaluate_specs(graph, [parse_spec("always not missed")])
        assert verdict.holds is False
        assert verdict.witness[-1].missed
        assert len(verdict.witness) == len(result.counterexample)

    def test_randomized_corpus_matches_reference(self):
        """Vectorized == brute force on generated fault scenarios."""
        generator = ScenarioGenerator(515)
        checked = 0
        for scenario in generator.corpus(12):
            clear_packed_caches()
            profiles = scenario.profiles
            budget = scenario.effective_budget()
            result = verify_slot_sharing(
                profiles,
                instance_budget=budget,
                max_states=60_000,
                with_counterexample=False,
                engine="kernel",
            )
            if result.truncated:
                continue
            config = SlotSystemConfig.from_profiles(profiles, budget)
            graph = packed_system_for(config).compiled_graph
            first = profiles[0].name
            specs = list(standard_spec_bundle(profiles)) + [
                parse_spec(text.replace("(A)", f"({first})"))
                for text in GENERIC_SPECS
            ]
            reference = ReferenceChecker(graph)
            for spec, verdict in zip(specs, evaluate_specs(graph, specs)):
                assert verdict.holds == reference.check(spec), (
                    f"scenario {scenario.index}: {spec.text}"
                )
                checked += 1
        assert checked > 100  # the corpus actually exercised the evaluators

    def test_unknown_application_raises(
        self, small_profile, second_small_profile
    ):
        graph, _config, _result = _compiled_graph(
            [small_profile, second_small_profile]
        )
        with pytest.raises(SpecError, match="unknown application"):
            evaluate_specs(graph, [parse_spec("reachable occupant(ZZZ)")])


class TestWitnesses:
    def _replay_states(self, config, witness):
        state = initial_state(config)
        states = []
        for step in witness:
            arrivals = tuple(config.index_of(name) for name in step.arrivals)
            state, _events = advance(config, state, arrivals)
            states.append(state)
        return states

    def test_response_witness_replays_to_a_violation(
        self, small_profile, second_small_profile
    ):
        """The witness stem reaches the trigger, then stays goal-free."""
        graph, config, _result = _compiled_graph(
            [small_profile, second_small_profile]
        )
        bound = 0
        (verdict,) = evaluate_specs(
            graph,
            [
                parse_spec(
                    f"always (waiting(A) implies eventually <= {bound} holding(A))"
                )
            ],
        )
        assert verdict.holds is False
        states = self._replay_states(config, verdict.witness)
        index = config.index_of("A")
        trigger_at = len(states) - 1 - bound
        assert states[trigger_at].phases[index][0] == "W"
        for state in states[trigger_at:]:
            assert state.phases[index][0] != "T"

    @pytest.mark.parametrize("bound", [2, 5])
    def test_multi_step_response_witness_replays_to_a_violation(
        self, bound, small_profile, second_small_profile
    ):
        """A bound >= 2 witness descends several steps: the trigger sits
        ``bound`` steps before the end and no state from it on is idle."""
        graph, config, _result = _compiled_graph(
            [small_profile, second_small_profile]
        )
        (verdict,) = evaluate_specs(
            graph,
            [parse_spec(f"always (holding(A) implies eventually <= {bound} idle)")],
        )
        assert verdict.holds is False
        states = self._replay_states(config, verdict.witness)
        trigger_at = len(states) - 1 - bound
        assert trigger_at >= 0
        assert states[trigger_at].phases[config.index_of("A")][0] == "T"
        for state in states[trigger_at:]:
            assert not state.slot_free()

    def test_lasso_witness_closes_its_loop(
        self, small_profile, second_small_profile
    ):
        """Replaying the loop-entry arrivals from the last state returns to
        the loop-start state, and every loop state violates the target."""
        graph, config, _result = _compiled_graph(
            [small_profile, second_small_profile]
        )
        (verdict,) = evaluate_specs(
            graph, [parse_spec("eventually not steady(A)")]
        )
        assert verdict.holds is False
        assert verdict.loop_start is not None
        states = self._replay_states(config, verdict.witness)
        loop_entry = verdict.witness[verdict.loop_start]
        arrivals = tuple(config.index_of(name) for name in loop_entry.arrivals)
        closed, _events = advance(config, states[-1], arrivals)
        assert closed == states[verdict.loop_start]
        index = config.index_of("A")
        for state in states:
            assert state.phases[index][0] == "S"  # never not-steady

    def test_reachable_witness_ends_in_the_target(
        self, small_profile, second_small_profile
    ):
        graph, config, _result = _compiled_graph(
            [small_profile, second_small_profile]
        )
        (verdict,) = evaluate_specs(
            graph, [parse_spec("reachable (occupant(A) and queued(B))")]
        )
        assert verdict.holds is True
        states = self._replay_states(config, verdict.witness)
        final = states[-1]
        assert final.occupant == config.index_of("A")
        assert config.index_of("B") in final.buffer


class TestIntegration:
    def test_warm_batch_re_explores_nothing(
        self, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        graph, _config, _result = _compiled_graph(profiles)
        before = (
            graph.expanded_levels,
            graph.state_count,
            graph.transition_count,
        )
        evaluate_specs(graph, standard_spec_bundle(profiles))
        after = (
            graph.expanded_levels,
            graph.state_count,
            graph.transition_count,
        )
        assert before == after

    def test_verify_slot_sharing_specs_passthrough(
        self, small_profile, second_small_profile
    ):
        profiles = [small_profile, second_small_profile]
        result = verify_slot_sharing(
            profiles,
            instance_budget=instance_budgets(profiles),
            specs=["always not missed", "reachable occupant(B)"],
        )
        assert result.feasible
        assert [v.name for v in result.spec_verdicts] == [
            "always not missed",
            "reachable occupant(B)",
        ]
        assert all(v.holds is True for v in result.spec_verdicts)

    def test_verdict_wire_round_trip(self, small_profile, second_small_profile):
        from repro.verification import SpecVerdict

        graph, _config, _result = _compiled_graph(
            [small_profile, second_small_profile]
        )
        (verdict,) = evaluate_specs(
            graph, [parse_spec("eventually not steady(A)")]
        )
        rebuilt = SpecVerdict.from_dict(verdict.to_dict())
        assert rebuilt.holds == verdict.holds
        assert rebuilt.witness == verdict.witness
        assert rebuilt.loop_start == verdict.loop_start

    def test_campaign_specs_mode(self):
        from repro.robustness.campaign import run_campaign

        result = run_campaign(99, 3, specs=True)
        for report in result.reports:
            if report.verdict != "skipped":
                assert report.spec_verdicts
                assert "no-miss" in report.spec_verdicts
        summary = result.summary()
        assert "spec_verdicts" in summary
        assert "no-miss" in summary["spec_verdicts"]


class TestSpecVerdictCache:
    """The per-process verdict LRU: settled graphs hit, prefixes never do."""

    def _graph(self, *profiles):
        graph, _config, _result = _compiled_graph(list(profiles))
        assert graph.complete
        return graph

    def test_repeat_evaluation_hits_the_cache(
        self, small_profile, second_small_profile
    ):
        from repro.verification import clear_spec_cache, spec_cache_stats
        from repro.verification.spec_eval import evaluate_spec

        graph = self._graph(small_profile, second_small_profile)
        clear_spec_cache()
        spec = parse_spec("always (holding(A) implies not queued(A))")
        cold = evaluate_spec(graph, spec)
        assert spec_cache_stats() == {"hits": 0, "misses": 1, "entries": 1}
        warm = evaluate_spec(graph, spec)
        assert spec_cache_stats()["hits"] == 1
        assert (warm.holds, warm.witness, warm.states_checked, warm.reason) == (
            cold.holds,
            cold.witness,
            cold.states_checked,
            cold.reason,
        )

    def test_hit_carries_the_callers_spec_name(
        self, small_profile, second_small_profile
    ):
        from repro.verification import clear_spec_cache
        from repro.verification.spec_eval import evaluate_spec

        graph = self._graph(small_profile, second_small_profile)
        clear_spec_cache()
        evaluate_spec(graph, parse_spec("reachable buffer >= 2", name="first"))
        warm = evaluate_spec(
            graph, parse_spec("reachable buffer >= 2", name="second")
        )
        assert warm.name == "second"

    def test_truncated_prefix_is_never_cached(self, small_profile):
        from repro.scheduler.packed import PackedSlotSystem
        from repro.verification import clear_spec_cache, spec_cache_stats
        from repro.verification.kernel import compiled_graph_for
        from repro.verification.spec_eval import evaluate_spec

        system = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        graph = compiled_graph_for(system)
        graph.explore(20, with_parents=True)
        assert not graph.complete and graph.error is None
        clear_spec_cache()
        spec = parse_spec("always not missed")
        evaluate_spec(graph, spec)
        evaluate_spec(graph, spec)
        assert spec_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}

    def test_error_stopped_graph_is_cacheable(
        self, small_profile, second_small_profile, tight_profile
    ):
        from repro.scheduler.packed import PackedSlotSystem
        from repro.verification import clear_spec_cache, spec_cache_stats
        from repro.verification.kernel import compiled_graph_for
        from repro.verification.spec_eval import evaluate_spec

        system = PackedSlotSystem(
            SlotSystemConfig.from_profiles(
                (small_profile, second_small_profile, tight_profile)
            )
        )
        graph = compiled_graph_for(system)
        graph.explore(200_000, with_parents=True)
        assert graph.error is not None
        clear_spec_cache()
        spec = parse_spec("always not missed")
        cold = evaluate_spec(graph, spec)
        assert cold.holds is False
        warm = evaluate_spec(graph, spec)
        assert spec_cache_stats()["hits"] == 1
        assert warm.witness == cold.witness

    def test_env_var_sizes_and_disables(
        self, monkeypatch, small_profile, second_small_profile
    ):
        from repro.verification import clear_spec_cache, spec_cache_stats
        from repro.verification.spec_eval import (
            SPEC_CACHE_ENV_VAR,
            evaluate_spec,
        )

        graph = self._graph(small_profile, second_small_profile)
        clear_spec_cache()
        monkeypatch.setenv(SPEC_CACHE_ENV_VAR, "0")
        spec = parse_spec("always not missed")
        evaluate_spec(graph, spec)
        evaluate_spec(graph, spec)
        assert spec_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}

        monkeypatch.setenv(SPEC_CACHE_ENV_VAR, "1")
        evaluate_spec(graph, spec)
        evaluate_spec(graph, parse_spec("reachable buffer >= 2"))
        assert spec_cache_stats()["entries"] == 1  # LRU evicted the first

    def test_clear_packed_caches_drops_verdicts(
        self, small_profile, second_small_profile
    ):
        from repro.verification import clear_spec_cache, spec_cache_stats
        from repro.verification.spec_eval import evaluate_spec

        graph = self._graph(small_profile, second_small_profile)
        clear_spec_cache()
        evaluate_spec(graph, parse_spec("always not missed"))
        assert spec_cache_stats()["entries"] == 1
        clear_packed_caches()
        assert spec_cache_stats() == {"hits": 0, "misses": 0, "entries": 0}
