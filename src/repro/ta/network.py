"""Networks of timed automata with shared variables and channel synchronisation.

A :class:`Network` owns the global integer clocks, the shared (integer or
tuple-valued) variables and a set of :class:`~repro.ta.automaton.TimedAutomaton`
instances.  Network states are immutable, hashable tuples so that the
explicit state model checker can store them in hash sets.

The network is indexed once, at construction: per automaton, a table maps
each location name to a :class:`LocationEntry` — the location (committed,
urgent, invariant and error flags) and its outgoing internal, emit and
receive edges with their channels and trace labels.  Expanding a state looks
up one entry per automaton and never scans an edge list.

The view classes (:class:`StateView`, :class:`MutableStateView`) are what
guards, invariants and updates receive — they expose clocks, variables and
the current locations of all automata, mirroring how UPPAAL expressions can
read clocks, shared variables and (via broadcast state) other templates.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union

from ..exceptions import ModelError
from .automaton import Edge, Location, TimedAutomaton

#: Values a shared variable may take: integers or (nested) tuples of integers.
VariableValue = Union[int, Tuple]
#: A successor state and the label of the transition that reaches it.
Successor = Tuple["NetworkState", str]


class NetworkState(NamedTuple):
    """Immutable snapshot of a network: locations, clock values and variables."""

    locations: Tuple[str, ...]
    clocks: Tuple[int, ...]
    variables: Tuple[VariableValue, ...]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NetworkState(locations={self.locations}, clocks={self.clocks})"


class LocationEntry(NamedTuple):
    """A location and its outgoing edges by kind: ``internal`` ``(edge, label)``,
    ``emits`` ``(channel, edge, labels)`` with ``labels[r]`` the label of a
    synchronisation with automaton ``r``, ``receives`` ``(channel, edge)``."""

    location: Location
    internal: Tuple[Tuple[Edge, str], ...]
    emits: Tuple[Tuple[str, Edge, Tuple[str, ...]], ...]
    receives: Tuple[Tuple[str, Edge], ...]


class _Index(dict):
    """Name -> position map that raises :class:`ModelError` on unknown names."""

    def __init__(self, kind: str, names: Sequence[str]) -> None:
        super().__init__((name, position) for position, name in enumerate(names))
        self.kind = kind

    def __missing__(self, name: str) -> int:
        raise ModelError(f"unknown {self.kind} {name!r}")


class StateView:
    """Read-only view of a network state, passed to guards and invariants."""

    __slots__ = ("_network", "_locations", "_clocks", "_variables", "_automaton_index")

    def __init__(self, network: "Network", state: NetworkState, automaton_index: int) -> None:
        self._network = network
        self._locations, self._clocks, self._variables = state
        self._automaton_index = automaton_index

    # ------------------------------------------------------------ inspection
    def clock(self, name: str) -> int:
        """Current value of a clock."""
        return self._clocks[self._network._clock_indices[name]]

    def var(self, name: str) -> VariableValue:
        """Current value of a shared variable."""
        return self._variables[self._network._variable_indices[name]]

    def location_of(self, automaton_name: str) -> str:
        """Current location of another automaton in the network."""
        return self._locations[self._network._automaton_indices[automaton_name]]

    @property
    def own_location(self) -> str:
        """Current location of the automaton evaluating the expression."""
        return self._locations[self._automaton_index]


class MutableStateView(StateView):
    """Mutable view used by edge updates: can write variables and reset clocks.

    One view serves a whole firing: the network points it at the emitter,
    moves the emitter to its target, then points it at the receiver, so a
    receiver's update reads the emitter's writes and its new location.
    """

    __slots__ = ()

    def __init__(self, network: "Network", state: NetworkState, automaton_index: int) -> None:
        self._network = network
        self._locations = list(state.locations)
        self._clocks = list(state.clocks)
        self._variables = list(state.variables)
        self._automaton_index = automaton_index

    def reset_clock(self, name: str, value: int = 0) -> None:
        """Reset a clock to the given value (default 0)."""
        self._clocks[self._network._clock_indices[name]] = int(value)

    def set_var(self, name: str, value: VariableValue) -> None:
        """Assign a shared variable; tuples must stay tuples (hashability)."""
        if isinstance(value, list):
            value = tuple(value)
        self._variables[self._network._variable_indices[name]] = value

    def snapshot(self) -> NetworkState:
        """Freeze the mutated locations/clocks/variables into a new state."""
        return NetworkState(tuple(self._locations), tuple(self._clocks), tuple(self._variables))


class Network:
    """A network of timed automata sharing clocks, variables and channels.

    Args:
        automata: the automata instances (names must be unique).
        clocks: mapping from clock name to an optional ceiling.  Clock values
            are clamped at their ceiling during delay steps; a clamped clock
            still satisfies every guard of the form ``clock >= c`` for
            ``c <= ceiling``, which keeps the state space finite without
            changing the truth of the bounded guards used by the models.
        variables: mapping from variable name to its initial value.
    """

    def __init__(
        self,
        automata: Sequence[TimedAutomaton],
        clocks: Mapping[str, Optional[int]],
        variables: Mapping[str, VariableValue],
    ) -> None:
        if not automata:
            raise ModelError("a network needs at least one automaton")
        names = [automaton.name for automaton in automata]
        if len(set(names)) != len(names):
            raise ModelError(f"duplicate automaton names: {names}")
        self.automata: Tuple[TimedAutomaton, ...] = tuple(automata)
        self._automaton_indices = _Index("automaton", names)

        self._clock_names: Tuple[str, ...] = tuple(clocks)
        self._clock_indices = _Index("clock", self._clock_names)
        self._clock_ceilings: Tuple[Optional[int], ...] = tuple(clocks[name] for name in self._clock_names)

        self._variable_names: Tuple[str, ...] = tuple(variables)
        self._variable_indices = _Index("variable", self._variable_names)
        initial_values = []
        for name in self._variable_names:
            value = variables[name]
            if isinstance(value, list):
                value = tuple(value)
            initial_values.append(value)
        self._initial_variables: Tuple[VariableValue, ...] = tuple(initial_values)

        declared_clocks = set(self._clock_names)
        for automaton in automata:
            for clock in automaton.clocks:
                if clock not in declared_clocks:
                    raise ModelError(
                        f"automaton {automaton.name!r} references undeclared clock {clock!r}"
                    )
        self._tables = tuple(self._location_table(automaton, names) for automaton in automata)

    @staticmethod
    def _location_table(automaton: TimedAutomaton, names: List[str]) -> Dict[str, LocationEntry]:
        table = {}
        for name, location in automaton.locations.items():
            edges = automaton.outgoing(name)
            table[name] = LocationEntry(
                location,
                tuple((edge, f"{automaton.name}: {name}->{edge.target}") for edge in edges
                      if edge.sync is None),
                tuple((edge.channel, edge, tuple(f"{automaton.name}!{edge.channel} -> {other}"
                                                 for other in names))
                      for edge in edges if edge.is_emit),
                tuple((edge.channel, edge) for edge in edges if edge.is_receive),
            )
        return table

    # -------------------------------------------------------------- indexing
    def automaton_index(self, name: str) -> int:
        """Index of an automaton by name."""
        return self._automaton_indices[name]

    def clock_index(self, name: str) -> int:
        """Index of a clock by name."""
        return self._clock_indices[name]

    def variable_index(self, name: str) -> int:
        """Index of a shared variable by name."""
        return self._variable_indices[name]

    @property
    def clock_names(self) -> Tuple[str, ...]:
        """Declared clock names."""
        return self._clock_names

    @property
    def variable_names(self) -> Tuple[str, ...]:
        """Declared variable names."""
        return self._variable_names

    # --------------------------------------------------------------- states
    def initial_state(self) -> NetworkState:
        """The network's initial state: initial locations, clocks at 0."""
        locations = tuple(automaton.initial for automaton in self.automata)
        return NetworkState(locations, (0,) * len(self._clock_names), self._initial_variables)

    def location_entries(self, state: NetworkState) -> List[LocationEntry]:
        """The table entry of every automaton's current location, in order."""
        return [table[name] for table, name in zip(self._tables, state.locations)]

    def view(self, state: NetworkState, automaton_index: int = 0) -> StateView:
        """Read-only view of a state (for external queries and predicates)."""
        return StateView(self, state, automaton_index)

    # ------------------------------------------------------------ successors
    def _fire(self, state: NetworkState, firings: Sequence[Tuple[int, Edge]]) -> NetworkState:
        """Apply one or two edges (internal, or emitter followed by receiver)."""
        view = MutableStateView(self, state, 0)
        for automaton_index, edge in firings:
            view._automaton_index = automaton_index
            if edge.update is not None:
                edge.update(view)
            view._locations[automaton_index] = edge.target
        return view.snapshot()

    def action_successors(self, state: NetworkState) -> List[Successor]:
        """All states reachable by one action (internal or synchronised) transition.

        While a committed location is active, only transitions with at
        least one participant in a committed location may fire.
        """
        return self._actions(state, self.location_entries(state))

    def delay_successor(self, state: NetworkState) -> Optional[Successor]:
        """The state after one time unit, or ``None`` when delay is forbidden.

        Delay is forbidden while a committed or urgent location is active or
        when advancing the clocks would violate some active invariant.
        """
        return self._delay(state, self.location_entries(state))

    def successors(self, state: NetworkState) -> List[Successor]:
        """All successor states: action transitions plus (when allowed) delay."""
        entries = self.location_entries(state)
        result = self._actions(state, entries)
        delayed = self._delay(state, entries)
        if delayed is not None:
            result.append(delayed)
        return result

    def _actions(self, state: NetworkState, entries: List[LocationEntry]) -> List[Successor]:
        successors: List[Successor] = []
        committed = [entry.location.committed for entry in entries]
        any_committed = any(committed)
        emitters: Dict[str, List[Tuple[int, Edge, Tuple[str, ...]]]] = {}
        receivers: Dict[str, List[Tuple[int, Edge]]] = {}

        for index, (_, internal, emits, receives) in enumerate(entries):
            view = StateView(self, state, index)
            if committed[index] or not any_committed:
                for edge, label in internal:
                    if edge.guard is None or edge.guard(view):
                        successors.append((self._fire(state, ((index, edge),)), label))
            for channel, edge, labels in emits:
                if edge.guard is None or edge.guard(view):
                    emitters.setdefault(channel, []).append((index, edge, labels))
            for channel, edge in receives:
                if edge.guard is None or edge.guard(view):
                    receivers.setdefault(channel, []).append((index, edge))

        for channel, emit_list in emitters.items():
            for emit_index, emit_edge, labels in emit_list:
                for recv_index, recv_edge in receivers.get(channel, ()):
                    if recv_index == emit_index:
                        continue
                    if any_committed and not (committed[emit_index] or committed[recv_index]):
                        continue
                    fired = self._fire(state, ((emit_index, emit_edge), (recv_index, recv_edge)))
                    successors.append((fired, labels[recv_index]))
        return successors

    def _delay(self, state: NetworkState, entries: List[LocationEntry]) -> Optional[Successor]:
        locations = [entry.location for entry in entries]
        for location in locations:
            if location.committed or location.urgent:
                return None
        clocks = [
            value + 1 if ceiling is None or value < ceiling else ceiling
            for value, ceiling in zip(state.clocks, self._clock_ceilings)
        ]
        candidate = NetworkState(state.locations, tuple(clocks), state.variables)
        for automaton_index, location in enumerate(locations):
            if location.invariant is not None:
                if not location.invariant(StateView(self, candidate, automaton_index)):
                    return None
        return candidate, "delay"
