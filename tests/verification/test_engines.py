"""Cross-engine equivalence tests for the pluggable exploration engines.

Every engine must explore the identical state space: on feasible systems the
visited counts of the sequential and kernel engines are equal
state for state (the sequential engine is itself cross-checked against the
tuple semantics in ``tests/scheduler/test_packed_state.py``), and on
infeasible systems all engines must agree on the verdict and find an error
at the same minimal BFS depth.
"""

from __future__ import annotations

import pytest

from repro.exceptions import VerificationError
from repro.scheduler.packed import PackedSlotSystem
from repro.scheduler.slot_system import SlotSystemConfig, advance, initial_state
from repro.switching.profile import SwitchingProfile
from repro.verification import (
    ENGINE_ENV_VAR,
    CompiledKernelEngine,
    ExplorationOutcome,
    SequentialPackedEngine,
    instance_budgets,
    resolve_engine,
    verify_slot_sharing,
)

ENGINE_SPECS = ["sequential", "kernel"]


def _engine_of(spec: str):
    return resolve_engine(spec)


def _explore(spec, config, with_parents=True, max_states=5_000_000) -> ExplorationOutcome:
    return _engine_of(spec).explore(
        PackedSlotSystem(config), max_states=max_states, with_parents=with_parents
    )


class TestEngineEquivalence:
    """Exhaustive small-system cross-checks over both engines."""

    def _feasible_configs(self, small_profile, second_small_profile):
        pair = (small_profile, second_small_profile)
        return [
            SlotSystemConfig.from_profiles(pair),
            SlotSystemConfig.from_profiles(pair, {"A": 2, "B": 1}),
            SlotSystemConfig.from_profiles((small_profile,), {"A": 3}),
        ]

    def test_feasible_counts_identical_across_engines(
        self, small_profile, second_small_profile
    ):
        for config in self._feasible_configs(small_profile, second_small_profile):
            reference = _explore("sequential", config)
            assert reference.feasible
            for spec in ENGINE_SPECS[1:]:
                outcome = _explore(spec, config)
                assert outcome.feasible, spec
                assert outcome.visited_count == reference.visited_count, spec
                assert not outcome.truncated

    def test_feasible_parent_stores_span_the_same_states(
        self, small_profile, second_small_profile
    ):
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        reference = _explore("sequential", config)
        assert reference.parents is not None
        for spec in ENGINE_SPECS[1:]:
            outcome = _explore(spec, config)
            # Identical state space: the predecessor stores key the same
            # states (every visited state except the root).
            assert set(outcome.parents) == set(reference.parents), spec

    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    def test_infeasible_verdict_and_witness_depth(
        self, spec, small_profile, second_small_profile, tight_profile
    ):
        profiles = [small_profile, second_small_profile, tight_profile]
        config = SlotSystemConfig.from_profiles(profiles)
        reference = _explore("sequential", config)
        outcome = _explore(spec, config)
        assert not outcome.feasible
        # All engines stop at the same minimal BFS depth (shortest witness).
        assert outcome.levels == reference.levels
        assert outcome.error_parent is not None
        assert outcome.error_label is not None

    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    def test_infeasible_witness_replays_to_a_miss(
        self, spec, small_profile, second_small_profile, tight_profile
    ):
        profiles = [small_profile, second_small_profile, tight_profile]
        result = verify_slot_sharing(profiles, engine=spec)
        assert not result.feasible
        assert result.counterexample
        assert result.counterexample[-1].missed
        # Witness depth (in samples) is the same for every engine.
        sequential = verify_slot_sharing(profiles, engine="sequential")
        assert len(result.counterexample) == len(sequential.counterexample)

    @pytest.mark.parametrize("spec", ENGINE_SPECS)
    def test_verifier_verdicts_and_counts_through_public_api(
        self, spec, small_profile, second_small_profile
    ):
        reference = verify_slot_sharing(
            [small_profile, second_small_profile],
            instance_budget={"A": 2, "B": 1},
            engine="sequential",
            with_counterexample=False,
        )
        result = verify_slot_sharing(
            [small_profile, second_small_profile],
            instance_budget={"A": 2, "B": 1},
            engine=spec,
            with_counterexample=False,
        )
        assert result.feasible == reference.feasible is True
        assert result.explored_states == reference.explored_states

    def test_multiword_states_round_trip_through_kernel_engine(self):
        """Profiles wide enough to exceed one 64-bit word must still explore
        identically (exercises the multi-word frontier path)."""
        wide = [
            SwitchingProfile.from_arrays(
                name=f"W{i}",
                requirement_samples=40,
                min_inter_arrival=100_000,
                min_dwell=[2] * 8,
                max_dwell=[2] * 8,
            )
            for i in range(3)
        ]
        config = SlotSystemConfig.from_profiles(wide, {f"W{i}": 1 for i in range(3)})
        assert PackedSlotSystem(config).packed_words > 1
        reference = _explore("sequential", config)
        assert reference.feasible
        outcome = _explore("kernel", config)
        assert outcome.feasible
        assert outcome.visited_count == reference.visited_count


class TestTwoWordCaseStudySlot:
    """{C2, C3, C4, C6} with the Sec. 5 budgets needs 65-bit states: the
    case-study configuration that keeps the multi-word kernel path covered
    end to end."""

    NAMES = ("C2", "C3", "C4", "C6")

    def _slot(self, case_study_profiles):
        slot = [case_study_profiles[name] for name in self.NAMES]
        return slot, instance_budgets(slot)

    def test_engines_agree_on_verdict_and_error_depth(self, case_study_profiles):
        slot, budget = self._slot(case_study_profiles)
        config = SlotSystemConfig.from_profiles(slot, budget)
        assert PackedSlotSystem(config).packed_words == 2
        reference = _explore("sequential", config)
        assert not reference.feasible
        outcome = _explore("kernel", config)
        assert not outcome.feasible
        assert outcome.levels == reference.levels

    def test_kernel_counterexample_replays_to_a_miss(self, case_study_profiles):
        slot, budget = self._slot(case_study_profiles)
        result = verify_slot_sharing(slot, instance_budget=budget, engine="kernel")
        assert not result.feasible
        sequential = verify_slot_sharing(slot, instance_budget=budget, engine="sequential")
        assert len(result.counterexample) == len(sequential.counterexample)
        # Independent replay under the tuple semantics: no miss before the
        # last sample, a miss of the reported applications at it.
        config = SlotSystemConfig.from_profiles(slot, budget)
        state = initial_state(config)
        for step in result.counterexample:
            arrivals = tuple(config.index_of(name) for name in step.arrivals)
            state, events = advance(config, state, arrivals)
            missed = tuple(config.names[index] for index in events.deadline_misses)
            occupant = None if state.slot_free() else config.names[state.occupant]
            assert (missed, occupant) == (step.missed, step.occupant)
        assert result.counterexample[-1].missed
        assert not any(step.missed for step in result.counterexample[:-1])


class TestEngineSemantics:
    def test_truncation_reported_by_all_engines(self, small_profile, second_small_profile):
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        for spec in ENGINE_SPECS:
            outcome = _explore(spec, config, with_parents=False, max_states=40)
            assert outcome.truncated, spec
            # The cap bounds the visited set: never exceeded, at most a
            # level's worth below it for the parallel engines.
            assert 0 < outcome.visited_count <= 40, spec
        sequential = _explore("sequential", config, with_parents=False, max_states=40)
        assert sequential.visited_count == 40
        kernel = _explore("kernel", config, with_parents=False, max_states=40)
        assert kernel.visited_count == 40

    def test_cap_above_state_space_never_truncates(
        self, small_profile, second_small_profile
    ):
        """A cap one above the true state-space size must leave every engine
        un-truncated with the full count (regression: a level-synchronous
        engine once flagged truncation based on raw candidate counts, which
        include duplicates and already-visited states)."""
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        full = _explore("sequential", config, with_parents=False)
        assert not full.truncated
        for spec in ENGINE_SPECS:
            outcome = _explore(
                spec, config, with_parents=False, max_states=full.visited_count + 1
            )
            assert not outcome.truncated, spec
            assert outcome.visited_count == full.visited_count, spec

    def test_without_parents_no_store_is_kept(self, small_profile):
        config = SlotSystemConfig.from_profiles((small_profile,))
        for spec in ENGINE_SPECS:
            outcome = _explore(spec, config, with_parents=False)
            assert outcome.parents is None, spec


class TestSequentialBatchedPath:
    def test_batched_and_loop_paths_agree(
        self, small_profile, second_small_profile, monkeypatch
    ):
        """The batched packed path (expand_frontier + intern_dedup) and
        the per-state loop fallback must report identical outcomes —
        counts, levels, truncation and parent stores."""
        config = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        batched = _explore("sequential", config)
        monkeypatch.setattr(
            PackedSlotSystem, "can_expand_frontier", property(lambda self: False)
        )
        loop = _explore("sequential", config)
        assert loop.visited_count == batched.visited_count
        assert loop.levels == batched.levels
        assert set(loop.parents) == set(batched.parents)
        sample = next(iter(loop.parents))
        assert loop.parents[sample] == batched.parents[sample]

    def test_batched_and_loop_paths_agree_on_truncation_and_errors(
        self, small_profile, second_small_profile, tight_profile, monkeypatch
    ):
        feasible = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        infeasible = SlotSystemConfig.from_profiles(
            (small_profile, second_small_profile, tight_profile)
        )
        batched_capped = _explore("sequential", feasible, max_states=40)
        batched_error = _explore("sequential", infeasible)
        monkeypatch.setattr(
            PackedSlotSystem, "can_expand_frontier", property(lambda self: False)
        )
        loop_capped = _explore("sequential", feasible, max_states=40)
        loop_error = _explore("sequential", infeasible)
        assert loop_capped.truncated and batched_capped.truncated
        assert loop_capped.visited_count == batched_capped.visited_count == 40
        assert not loop_error.feasible and not batched_error.feasible
        assert loop_error.visited_count == batched_error.visited_count
        assert loop_error.error_parent == batched_error.error_parent
        assert loop_error.error_label == batched_error.error_label
        assert loop_error.error_state == batched_error.error_state


class TestEngineSelection:
    def test_spec_strings_resolve(self):
        assert isinstance(resolve_engine("sequential"), SequentialPackedEngine)
        assert isinstance(resolve_engine("kernel"), CompiledKernelEngine)

    def test_engine_instances_pass_through(self):
        engine = CompiledKernelEngine()
        assert resolve_engine(engine) is engine

    def test_invalid_specs_rejected(self, monkeypatch):
        # Unknown specs, and the removed sharded and vectorized engines,
        # raise with a message that lists every remaining spec.
        for spec in ("warp-drive", "sharded", "sharded:2", "sharded:many", "vectorized"):
            with pytest.raises(VerificationError) as raised:
                resolve_engine(spec)
            for name in ("auto", "sequential", "kernel"):
                assert repr(name) in str(raised.value), (spec, name)
        for spec in ("sharded", "vectorized"):
            monkeypatch.setenv(ENGINE_ENV_VAR, spec)
            with pytest.raises(VerificationError, match="'auto', 'sequential', 'kernel'"):
                resolve_engine()

    def test_env_var_override(self, small_profile, monkeypatch):
        monkeypatch.setenv(ENGINE_ENV_VAR, "kernel")
        result = verify_slot_sharing([small_profile], with_counterexample=False)
        assert result.method == "exhaustive[kernel]"
        monkeypatch.setenv(ENGINE_ENV_VAR, "sequential")
        result = verify_slot_sharing([small_profile], with_counterexample=False)
        assert result.method == "exhaustive"

    def test_auto_compiles_kernel_graph_for_packed_sources(self, small_profile):
        # "auto" is the compiled kernel: the first exploration compiles the
        # graph, later runs replay it.
        assert isinstance(resolve_engine("auto"), CompiledKernelEngine)
        system = PackedSlotSystem(SlotSystemConfig.from_profiles((small_profile,)))
        outcome = resolve_engine("auto").explore(system, max_states=5_000_000)
        assert outcome.engine == "kernel"
        assert system.compiled_graph is not None and system.compiled_graph.complete

    def test_auto_resolves_to_kernel_without_expander(
        self, small_profile, second_small_profile, tight_profile, monkeypatch
    ):
        """With the native expander off, ``auto`` still runs the kernel,
        which compiles through per-state successor rows and agrees with the
        sequential loop on verdict and levels, and on the count when
        feasible."""
        monkeypatch.setattr(
            PackedSlotSystem, "can_expand_frontier", property(lambda self: False)
        )
        assert isinstance(resolve_engine("auto"), CompiledKernelEngine)
        feasible = SlotSystemConfig.from_profiles((small_profile, second_small_profile))
        infeasible = SlotSystemConfig.from_profiles(
            (small_profile, second_small_profile, tight_profile)
        )
        for config, expect_feasible in ((feasible, True), (infeasible, False)):
            auto = _explore("auto", config)
            sequential = _explore("sequential", config)
            assert auto.engine == "kernel"
            assert auto.feasible == sequential.feasible == expect_feasible
            assert auto.levels == sequential.levels
            assert not auto.truncated and not sequential.truncated
            if expect_feasible:
                assert auto.visited_count == sequential.visited_count
