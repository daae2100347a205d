"""Tests for the timed-automata engine and model checker."""

from __future__ import annotations

import pytest

from repro.exceptions import ModelError, VerificationError
from repro.ta import Edge, Location, ModelChecker, Network, TimedAutomaton, count_reachable_states


def make_counter_automaton(limit: int = 3) -> TimedAutomaton:
    """A tiny automaton that moves to `Done` once its clock reaches `limit`."""
    return TimedAutomaton(
        name="counter",
        locations=[Location("Run"), Location("Done")],
        edges=[Edge("Run", "Done", guard=lambda view: view.clock("t") >= limit)],
        initial="Run",
        clocks=("t",),
    )


def make_network(limit: int = 3) -> Network:
    return Network(
        automata=[make_counter_automaton(limit)],
        clocks={"t": limit + 2},
        variables={"count": 0},
    )


class TestAutomatonConstruction:
    def test_duplicate_locations_rejected(self):
        with pytest.raises(ModelError):
            TimedAutomaton("x", [Location("A"), Location("A")], [], "A")

    def test_unknown_initial_rejected(self):
        with pytest.raises(ModelError):
            TimedAutomaton("x", [Location("A")], [], "B")

    def test_edge_endpoints_validated(self):
        with pytest.raises(ModelError):
            TimedAutomaton("x", [Location("A")], [Edge("A", "B")], "A")

    def test_sync_suffix_validated(self):
        with pytest.raises(ModelError):
            Edge("A", "B", sync="chan")

    def test_edge_channel_and_direction(self):
        emit = Edge("A", "B", sync="c!")
        recv = Edge("A", "B", sync="c?")
        assert emit.channel == "c" and emit.is_emit and not emit.is_receive
        assert recv.channel == "c" and recv.is_receive

    def test_error_locations(self):
        automaton = TimedAutomaton(
            "x", [Location("A"), Location("Bad", error=True)], [], "A"
        )
        assert automaton.error_locations() == ("Bad",)

    def test_undeclared_clock_rejected(self):
        automaton = make_counter_automaton()
        with pytest.raises(ModelError):
            Network([automaton], clocks={}, variables={})


class TestSemantics:
    def test_delay_advances_clocks(self):
        network = make_network(3)
        state = network.initial_state()
        successor, label = network.delay_successor(state)
        assert label == "delay"
        assert successor.clocks == (1,)

    def test_clock_ceiling_clamps(self):
        network = make_network(1)
        state = network.initial_state()
        for _ in range(10):
            delayed = network.delay_successor(state)
            if delayed is None:
                break
            state = delayed[0]
        assert state.clocks[0] <= 3

    def test_guarded_edge_only_fires_when_enabled(self):
        network = make_network(2)
        state = network.initial_state()
        assert network.action_successors(state) == []
        state = network.delay_successor(state)[0]
        state = network.delay_successor(state)[0]
        actions = network.action_successors(state)
        assert len(actions) == 1
        assert actions[0][0].locations == ("Done",)

    def test_committed_location_blocks_delay(self):
        automaton = TimedAutomaton(
            "c",
            [Location("A", committed=True), Location("B")],
            [Edge("A", "B")],
            "A",
        )
        network = Network([automaton], clocks={"t": 5}, variables={})
        assert network.delay_successor(network.initial_state()) is None
        assert len(network.action_successors(network.initial_state())) == 1

    def test_invariant_blocks_delay(self):
        automaton = TimedAutomaton(
            "inv",
            [Location("A", invariant=lambda view: view.clock("t") <= 1), Location("B")],
            [Edge("A", "B", guard=lambda view: view.clock("t") >= 1)],
            "A",
            clocks=("t",),
        )
        network = Network([automaton], clocks={"t": 5}, variables={})
        state = network.initial_state()
        state = network.delay_successor(state)[0]
        assert network.delay_successor(state) is None

    def test_channel_synchronisation_updates_in_order(self):
        sender = TimedAutomaton(
            "sender",
            [Location("S0"), Location("S1")],
            [Edge("S0", "S1", sync="go!", update=lambda view: view.set_var("x", 1))],
            "S0",
        )
        receiver = TimedAutomaton(
            "receiver",
            [Location("R0"), Location("R1")],
            [
                Edge(
                    "R0",
                    "R1",
                    sync="go?",
                    update=lambda view: view.set_var("x", view.var("x") + 10),
                )
            ],
            "R0",
        )
        network = Network([sender, receiver], clocks={}, variables={"x": 0})
        successors = network.action_successors(network.initial_state())
        assert len(successors) == 1
        state = successors[0][0]
        assert state.locations == ("S1", "R1")
        assert state.variables[network.variable_index("x")] == 11

    def test_receiver_update_sees_post_emit_locations(self):
        seen = {}

        def emit_update(view):
            seen["emitter"] = (view.own_location, view.location_of("receiver"))

        def receive_update(view):
            seen["receiver"] = (view.own_location, view.location_of("sender"))

        sender = TimedAutomaton(
            "sender",
            [Location("S0"), Location("S1")],
            [Edge("S0", "S1", sync="go!", update=emit_update)],
            "S0",
        )
        receiver = TimedAutomaton(
            "receiver",
            [Location("R0"), Location("R1")],
            [Edge("R0", "R1", sync="go?", update=receive_update)],
            "R0",
        )
        network = Network([sender, receiver], clocks={}, variables={})
        (state, label), = network.action_successors(network.initial_state())
        assert label == "sender!go -> receiver"
        assert state.locations == ("S1", "R1")
        # The emitter fires first, from both sources; the receiver then sees
        # the emitter already in its target and itself still in its source.
        assert seen == {"emitter": ("S0", "R0"), "receiver": ("R0", "S1")}

    def test_no_self_synchronisation(self):
        both = TimedAutomaton(
            "both",
            [Location("A"), Location("B")],
            [Edge("A", "B", sync="c!"), Edge("A", "B", sync="c?")],
            "A",
        )
        network = Network([both], clocks={}, variables={})
        assert network.action_successors(network.initial_state()) == []

    def test_variable_and_clock_lookup_errors(self):
        network = make_network()
        with pytest.raises(ModelError):
            network.variable_index("nope")
        with pytest.raises(ModelError):
            network.clock_index("nope")


class TestModelChecker:
    def test_reachability_of_done(self):
        network = make_network(3)
        checker = ModelChecker(network)
        result = checker.reachable(lambda net, state: state.locations[0] == "Done")
        assert result.reachable
        assert result.explored_states > 1
        # The witness needs three delays plus the action transition.
        assert len(result.trace) == 4

    def test_unreachable_predicate(self):
        network = make_network(3)
        checker = ModelChecker(network)
        result = checker.reachable(lambda net, state: state.clocks[0] > 100)
        assert not result.reachable

    def test_invariant_check(self):
        network = make_network(3)
        checker = ModelChecker(network)
        result = checker.invariant_holds(lambda net, state: state.clocks[0] <= 5)
        assert not result.reachable  # the invariant holds

    def test_error_location_query(self):
        automaton = TimedAutomaton(
            "err",
            [Location("A"), Location("Bad", error=True)],
            [Edge("A", "Bad", guard=lambda view: view.clock("t") >= 2)],
            "A",
            clocks=("t",),
        )
        network = Network([automaton], clocks={"t": 4}, variables={})
        assert ModelChecker(network).error_reachable().reachable

    def test_state_count(self):
        network = make_network(2)
        count = count_reachable_states(network)
        assert count >= 3

    def test_state_count_cap(self):
        network = make_network(3)
        with pytest.raises(VerificationError):
            count_reachable_states(network, max_states=2)

    def test_truncation_flag(self):
        network = make_network(3)
        checker = ModelChecker(network, max_states=2)
        result = checker.reachable(lambda net, state: False)
        assert result.truncated


class TestSearchLoop:
    """The checker's own BFS: counting, capping and witness length.

    ``make_network(3)`` discovers its nine states in the order Run@0..3,
    Done@3, Run@4, Done@4, Run@5, Done@5.
    """

    def test_found_state_is_counted(self):
        network = make_network(3)
        result = ModelChecker(network).reachable(
            lambda net, state: state.locations[0] == "Done"
        )
        assert result.reachable and not result.truncated
        # Run@0..3 plus the found Done@3.
        assert result.explored_states == 5
        assert result.trace[-1].state.locations == ("Done",)
        assert count_reachable_states(network) == 9

    @pytest.mark.parametrize("cap", [2, 5, 8])
    def test_capped_run_stops_at_exactly_max_states(self, cap):
        network = make_network(3)
        result = ModelChecker(network, max_states=cap).reachable(
            lambda net, state: False, with_trace=False
        )
        assert result.truncated and not result.reachable
        assert result.explored_states == cap
        complete = ModelChecker(network, max_states=10).reachable(
            lambda net, state: False, with_trace=False
        )
        assert not complete.truncated and complete.explored_states == 9

    def test_trace_is_shortest(self):
        # Time cannot pass before Goal.  A -> S -> Goal takes two steps;
        # the chains through B1 and B2 take three, and the first and last
        # edges out of A start them, so a depth-first search in either
        # edge order would return a three-step trace.
        urgent = [Location(name, urgent=True) for name in ("A", "B1", "B2", "C1", "C2", "S")]
        automaton = TimedAutomaton(
            "paths",
            urgent + [Location("Goal")],
            [
                Edge("A", "B1"),
                Edge("A", "S"),
                Edge("A", "B2"),
                Edge("B1", "C1"),
                Edge("B2", "C2"),
                Edge("C1", "Goal"),
                Edge("C2", "Goal"),
                Edge("S", "Goal"),
            ],
            "A",
        )
        network = Network([automaton], clocks={}, variables={})
        result = ModelChecker(network).reachable(
            lambda net, state: state.locations[0] == "Goal"
        )
        assert result.reachable
        assert [step.state.locations[0] for step in result.trace] == ["S", "Goal"]
        # A, then B1, S, B2, then C1 before the found Goal.
        assert result.explored_states == 6
        state = network.initial_state()
        for step in result.trace:
            assert (step.state, step.label) in network.successors(state)
            state = step.state
