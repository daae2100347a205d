"""Vectorized temporal-spec evaluation on the compiled state graph.

Evaluates :mod:`repro.verification.spec` specifications directly against the
id-indexed CSR arrays of a frozen
:class:`~repro.verification.kernel.CompiledStateGraph` — one compile, many
properties:

* **Atoms** gather bit fields straight out of the interner's ``uint64`` key
  store (``graph.table.state_words``), one numpy slice per field per batch —
  no state is ever decoded on the hot path.
* **Invariants / reachability** are single boolean reductions over the
  interned prefix, plus the pending error transition: compilation stops at
  the first deadline miss and never interns the missing state, so the
  evaluator checks the error successor as a virtual extra state — which
  makes ``always not missed`` *exactly* the feasibility query, witness
  included.
* **Bounded response** (``always (P implies eventually<=k Q)``) and
  **liveness** (``eventually P``) share one Kahn-style peel over a
  predecessor CSR that touches each edge once: it gives every state ``h``,
  its longest goal-avoiding path (``∞`` on and into avoiding cycles).  A
  response fails iff some ``P`` state has ``h >= k``; liveness fails iff a
  ``not P`` state reachable through ``not P`` states has ``h = ∞``, shown
  as a **lasso** (stem + repeating cycle) found by walking that core.

Witness paths are reconstructed through the graph's existing BFS parent
arrays (``parent_ids`` / ``parent_labels``) and replayed on the tuple
semantics via :func:`~repro.verification.result.replay_counterexample`, so
every witness doubles as a cross-check of the packed search.

Because ids ascend within each BFS level and levels are emitted in order,
taking the *minimum* satisfying/violating id always yields a shallowest —
i.e. shortest — witness.

:class:`ReferenceChecker` is the brute-force oracle: the same verdicts from
naive Python walks over *decoded tuple states*, sharing nothing with the
vectorized path but the graph topology.  The test suite cross-checks the
two on randomized corpus scenarios.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse

from .._validation import env_int
from ..exceptions import SpecError
from ..scheduler.slot_system import HOLDING, WAITING
from .result import CounterexampleStep, replay_counterexample
from .spec import (
    And,
    Always,
    Atom,
    Implies,
    Inevitable,
    Not,
    Or,
    Reachable,
    Response,
    Spec,
    Within,
)

__all__ = [
    "SPEC_CACHE_ENV_VAR",
    "SpecVerdict",
    "ReferenceChecker",
    "clear_spec_cache",
    "evaluate_spec",
    "evaluate_specs",
    "spec_cache_stats",
]

_PHASE_TAGS = {"steady": 0, "waiting": 1, "holding": 2, "safe": 3, "done": 4}

# ------------------------------------------------------------- verdict cache
#: Environment variable sizing the per-process verdict LRU (entries);
#: ``0`` (or a negative value) disables caching entirely.
SPEC_CACHE_ENV_VAR = "REPRO_SPEC_CACHE"

_DEFAULT_SPEC_CACHE_ENTRIES = 256

_spec_cache: "OrderedDict[Tuple[str, str], SpecVerdict]" = OrderedDict()
_spec_cache_hits = 0
_spec_cache_misses = 0


def _spec_cache_capacity() -> int:
    capacity = env_int(SPEC_CACHE_ENV_VAR)
    return _DEFAULT_SPEC_CACHE_ENTRIES if capacity is None else capacity


def _cache_key(graph, spec: Spec) -> Optional[Tuple[str, str]]:
    """LRU key for a (graph, spec) pair, or None when the pair is uncacheable.

    Only settled explorations are cacheable: a *complete* graph is uniquely
    determined by its configuration fingerprint (ids ascend in BFS discovery
    order), and an *error-stopped* graph is the deterministic prefix up to
    the first deadline miss — both yield the same verdict in every process.
    A ``max_states``-truncated prefix depends on the cap, so it is never
    cached.
    """
    if not (graph.complete or graph.error is not None):
        return None
    from .kernel import config_fingerprint

    return config_fingerprint(graph.system.config), spec.text


def spec_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the per-process verdict cache."""
    return {
        "hits": _spec_cache_hits,
        "misses": _spec_cache_misses,
        "entries": len(_spec_cache),
    }


def clear_spec_cache() -> None:
    """Drop all cached verdicts and reset the hit/miss counters."""
    global _spec_cache_hits, _spec_cache_misses
    _spec_cache.clear()
    _spec_cache_hits = 0
    _spec_cache_misses = 0


# ------------------------------------------------------------------- verdicts
@dataclass(frozen=True, slots=True)
class SpecVerdict:
    """Outcome of checking one spec against one compiled graph.

    Attributes:
        name: the spec's name.
        source: its canonical source text.
        holds: ``True``/``False``, or ``None`` when the graph cannot decide
            it (truncated exploration, or a temporal form queried against an
            error-stopped prefix) — ``reason`` then says why.
        witness: replayed trace refuting the spec (violating state for
            invariants, satisfying state for reachability, trigger + goal-
            free run for bounded response, lasso for liveness); a
            *satisfied* reachability witness is also populated.  Empty when
            the interesting state is the initial state itself.
        loop_start: for liveness lassos, the index into ``witness`` where
            the repeating cycle begins (``witness[loop_start:]`` returns to
            the state reached after ``witness[:loop_start]``); else None.
        states_checked: states the verdict quantified over (the interned
            prefix, plus the pending error successor when one exists).
        elapsed_seconds: evaluation wall time (compile time excluded).
        reason: explanation of an undecided verdict.
    """

    name: str
    source: str
    holds: Optional[bool]
    witness: Tuple[CounterexampleStep, ...] = ()
    loop_start: Optional[int] = None
    states_checked: int = 0
    elapsed_seconds: float = 0.0
    reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "source": self.source,
            "holds": self.holds,
            "witness": [
                {
                    "sample": step.sample,
                    "arrivals": list(step.arrivals),
                    "occupant": step.occupant,
                    "missed": list(step.missed),
                }
                for step in self.witness
            ],
            "loop_start": self.loop_start,
            "states_checked": self.states_checked,
            "elapsed_seconds": self.elapsed_seconds,
            "reason": self.reason,
        }

    @staticmethod
    def from_dict(payload: Mapping[str, Any]) -> "SpecVerdict":
        holds = payload.get("holds")
        return SpecVerdict(
            name=str(payload["name"]),
            source=str(payload.get("source", "")),
            holds=None if holds is None else bool(holds),
            witness=tuple(
                CounterexampleStep(
                    sample=int(step["sample"]),
                    arrivals=tuple(step["arrivals"]),
                    occupant=step["occupant"],
                    missed=tuple(step.get("missed", ())),
                )
                for step in payload.get("witness", ())
            ),
            loop_start=(
                None
                if payload.get("loop_start") is None
                else int(payload["loop_start"])
            ),
            states_checked=int(payload.get("states_checked", 0)),
            elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
            reason=payload.get("reason"),
        )


# -------------------------------------------------------------- field gather
class _FieldCache:
    """Memoized vectorized atom evaluation over one packed word matrix.

    One instance per (graph, spec-batch): atoms repeat across the specs of a
    bundle, so their boolean arrays are computed once — and so is the
    graph's predecessor CSR, built on first use by a temporal spec.
    """

    def __init__(self, system, words: np.ndarray) -> None:
        self.system = system
        self.words = words
        self.word_count = words.shape[1] if words.ndim == 2 else 1
        self._atoms: Dict[Atom, np.ndarray] = {}
        self._fields: Dict[Tuple[int, int], np.ndarray] = {}
        self._predecessors: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def heights(self, graph, avoiding: np.ndarray, cap: int) -> np.ndarray:
        """:func:`_peel_heights` on ``graph``, the graph whose words this
        cache holds; its predecessor CSR is built once per cache."""
        if self._predecessors is None:
            self._predecessors = _reverse_csr(graph.indptr, graph.successor_ids)
        return _peel_heights(graph.indptr, graph.successor_ids, self._predecessors, avoiding, cap)

    def _extract(self, shift: int, width: int) -> np.ndarray:
        """Bit field of every state row (handles a 64-bit word straddle)."""
        key = (shift, width)
        cached = self._fields.get(key)
        if cached is not None:
            return cached
        matrix = self.words
        col = self.word_count - 1 - shift // 64
        off = shift % 64
        values = matrix[:, col] >> np.uint64(off) if off else matrix[:, col]
        if off and col > 0 and off + width > 64:
            values = values | (matrix[:, col - 1] << np.uint64(64 - off))
        values = values & np.uint64((1 << width) - 1)
        self._fields[key] = values
        return values

    # ------------------------------------------------------------ raw fields
    def _app_index(self, name: Optional[str]) -> int:
        try:
            return self.system.config.index_of(str(name))
        except Exception as error:
            raise SpecError(
                f"unknown application {name!r}; this slot holds "
                f"{', '.join(self.system.config.names)}"
            ) from error

    def _tag(self, index: int) -> np.ndarray:
        system = self.system
        return self._extract(system._app_shift[index], 3)

    def _c1(self, index: int) -> np.ndarray:
        system = self.system
        width = max(1, system._c1_mask[index].bit_length())
        return self._extract(system._app_shift[index] + 3, width)

    def _c2(self, index: int) -> np.ndarray:
        system = self.system
        width = max(1, system._c2_mask[index].bit_length())
        return self._extract(system._app_shift[index] + system._c2_off[index], width)

    def _instances(self, index: int) -> np.ndarray:
        system = self.system
        width = max(1, system._inst_mask[index].bit_length())
        return self._extract(system._app_shift[index] + system._inst_off[index], width)

    def _occupant_field(self) -> np.ndarray:
        system = self.system
        return self._extract(system._occ_shift, system._occ_field.bit_length())

    def _buffer_field(self) -> np.ndarray:
        system = self.system
        return self._extract(system._buf_shift, len(system.config))

    # ----------------------------------------------------------------- atoms
    def atom(self, atom: Atom) -> np.ndarray:
        cached = self._atoms.get(atom)
        if cached is not None:
            return cached
        result = self._atom_uncached(atom)
        self._atoms[atom] = result
        return result

    def _atom_uncached(self, atom: Atom) -> np.ndarray:
        count = self.words.shape[0]
        kind = atom.kind
        if kind == "true":
            return np.ones(count, dtype=bool)
        if kind == "false":
            return np.zeros(count, dtype=bool)
        if kind == "idle":
            return self._occupant_field() == 0
        if kind == "occupant":
            return self._occupant_field() == np.uint64(self._app_index(atom.app) + 1)
        if kind == "queued":
            index = self._app_index(atom.app)
            return (self._buffer_field() >> np.uint64(index)) & np.uint64(1) != 0
        if kind == "phase":
            index = self._app_index(atom.app)
            tag = _PHASE_TAGS[str(atom.value)]
            matches = self._tag(index) == np.uint64(tag)
            return matches if atom.op == "==" else ~matches
        if kind == "missed":
            if atom.app is not None:
                return self._missed(self._app_index(atom.app))
            result = np.zeros(count, dtype=bool)
            for index in range(len(self.system.config)):
                result |= self._missed(index)
            return result
        if kind == "buffer":
            buffer = self._buffer_field()
            depth = np.zeros(count, dtype=np.int64)
            for index in range(len(self.system.config)):
                depth += ((buffer >> np.uint64(index)) & np.uint64(1)).astype(np.int64)
            return _compare(depth, atom.op, int(atom.value))
        index = self._app_index(atom.app)
        if kind == "wait":
            values = np.where(
                self._tag(index) == np.uint64(1), self._c1(index), np.uint64(0)
            )
        elif kind == "dwell":
            values = np.where(
                self._tag(index) == np.uint64(2), self._c2(index), np.uint64(0)
            )
        elif kind == "instances":
            values = self._instances(index)
        else:
            raise SpecError(f"unknown atom kind {kind!r}")
        return _compare(values, atom.op, int(atom.value))

    def _missed(self, index: int) -> np.ndarray:
        """Wait time beyond the maximum (the Error-location event).

        Two shapes of state carry a miss: still waiting in the buffer with
        ``c1 > max_wait``, and *granted too late* — holding, where ``c1``
        retains the wait-at-grant for the whole occupancy.
        """
        tag = self._tag(index)
        pending = (tag == np.uint64(1)) | (tag == np.uint64(2))
        return pending & (self._c1(index) > np.uint64(self.system._max_wait[index]))


def _compare(values: np.ndarray, op: Optional[str], constant: int) -> np.ndarray:
    if op == "==":
        return values == constant
    if op == "!=":
        return values != constant
    if op == "<":
        return values < constant
    if op == "<=":
        return values <= constant
    if op == ">":
        return values > constant
    if op == ">=":
        return values >= constant
    raise SpecError(f"unknown comparator {op!r}")


def _predicate(cache: _FieldCache, node) -> np.ndarray:
    """Boolean array of a predicate over every state row of the cache."""
    if isinstance(node, Atom):
        return cache.atom(node)
    if isinstance(node, Not):
        return ~_predicate(cache, node.operand)
    if isinstance(node, And):
        result = _predicate(cache, node.operands[0])
        for operand in node.operands[1:]:
            result = result & _predicate(cache, operand)
        return result
    if isinstance(node, Or):
        result = _predicate(cache, node.operands[0])
        for operand in node.operands[1:]:
            result = result | _predicate(cache, operand)
        return result
    if isinstance(node, Implies):
        return ~_predicate(cache, node.antecedent) | _predicate(cache, node.consequent)
    if isinstance(node, Within):
        raise SpecError(
            "'eventually <= k' is only valid as a bounded-response consequent"
        )
    raise SpecError(f"unknown predicate node {type(node).__name__}")


# --------------------------------------------------------------- CSR helpers
def _row_positions(indptr: np.ndarray, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flat positions of every entry of CSR ``rows`` (in row order) and
    each row's entry count."""
    counts = (indptr[rows + 1] - indptr[rows]).astype(np.int64)
    offsets = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    return np.repeat(indptr[rows].astype(np.int64), counts) + offsets, counts


def _reverse_csr(indptr: np.ndarray, successor_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Predecessor CSR ``(indptr, source ids)``: one entry per edge, so a
    state reached twice from one source lists that source twice (scipy's
    CSR-to-CSC transpose is one counting pass and keeps duplicates)."""
    count = indptr.shape[0] - 1
    edges = np.ones(successor_ids.size, dtype=np.int8)
    forward = scipy.sparse.csr_matrix((edges, successor_ids, indptr), shape=(count, count))
    backward = forward.tocsc()
    return backward.indptr.astype(np.int64), backward.indices.astype(np.int64)


def _peel_heights(
    indptr: np.ndarray, successor_ids: np.ndarray, predecessors, avoiding: np.ndarray, cap: int
) -> np.ndarray:
    """Longest ``avoiding``-only path (in edges) from every state, capped.

    ``-1`` on states outside ``avoiding``; ``cap`` on states whose longest
    path is ``>= cap`` — every state on or leading to an avoiding cycle
    included, so ``cap = avoiding.size`` marks exactly the states with an
    infinite avoiding path.  Kahn-style peel: count each avoiding state's
    avoiding successors (with multiplicity), drop the states whose count is
    0, decrement only the dropped states' predecessors; the round a state
    drops in is its height.  Each edge is touched once.
    """
    heights = np.where(avoiding, cap, -1).astype(np.int64)
    if 4 * np.count_nonzero(avoiding) < avoiding.size:
        # A small avoiding set (liveness peels one reach set): count over
        # its rows' edges only.  Past a quarter of the states one pass over
        # all edges is cheaper than gathering row positions.
        rows = np.flatnonzero(avoiding)
        positions, counts = _row_positions(indptr, rows)
        hits = avoiding[successor_ids[positions]]
        reached = np.concatenate(([0], np.cumsum(hits, dtype=np.int64)))
        ends = np.cumsum(counts)
        pending = np.zeros(avoiding.size, dtype=np.int64)
        pending[rows] = reached[ends] - reached[ends - counts]
    else:
        reached = np.concatenate(([0], np.cumsum(avoiding[successor_ids], dtype=np.int64)))
        pending = reached[indptr[1:]] - reached[indptr[:-1]]
    frontier = np.flatnonzero(avoiding & (pending == 0))
    reverse_indptr, sources = predecessors
    for depth in range(cap):
        if not frontier.size:
            break
        heights[frontier] = depth
        parents = sources[_row_positions(reverse_indptr, frontier)[0]]
        parents, drops = np.unique(parents[avoiding[parents]], return_counts=True)
        pending[parents] -= drops
        frontier = parents[pending[parents] == 0]
    return heights


def _restricted_reach(
    graph, allowed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BFS from the root through ``allowed`` states only, vectorized per
    level; returns ``(reachable, predecessor, predecessor_mask)`` with the
    predecessors recording an allowed-only path back to the root."""
    indptr = graph.indptr
    count = graph.state_count
    reach = np.zeros(count, dtype=bool)
    predecessor = np.full(count, -1, dtype=np.int64)
    predecessor_mask = np.zeros(count, dtype=np.uint64)
    if count == 0 or not allowed[0]:
        return reach, predecessor, predecessor_mask
    reach[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        rows, counts = _row_positions(indptr, frontier)
        successors = graph.successor_ids[rows].astype(np.int64)
        origins = np.repeat(frontier, counts)
        keep = allowed[successors] & ~reach[successors]
        successors, origins, rows = successors[keep], origins[keep], rows[keep]
        fresh, first_rows = np.unique(successors, return_index=True)
        reach[fresh] = True
        predecessor[fresh] = origins[first_rows]
        predecessor_mask[fresh] = graph.labels[rows[first_rows]]
        frontier = fresh
    return reach, predecessor, predecessor_mask


# ---------------------------------------------------------------- witnesses
def _mask_chain(graph, state_id: int) -> List[int]:
    """Arrival masks of the BFS-tree path from the root to ``state_id``."""
    parent_ids = graph.parent_ids
    parent_labels = graph.parent_labels
    masks: List[int] = []
    while state_id != 0:
        masks.append(int(parent_labels[state_id - 1]))
        state_id = int(parent_ids[state_id - 1])
    masks.reverse()
    return masks


def _replay(system, masks: Sequence[int]) -> Tuple[CounterexampleStep, ...]:
    arrival_sequence = [system.indices_of_mask(int(mask)) for mask in masks]
    return replay_counterexample(system.config, arrival_sequence)


def _error_chain(graph) -> List[int]:
    """Masks of the path root → error parent → (pending) miss state."""
    parent_id = graph.id_of_packed(graph.error[0])
    return _mask_chain(graph, parent_id) + [int(graph.error[1])]


def _error_state_satisfies(graph, node) -> bool:
    """Evaluate a predicate on the single never-interned error successor."""
    cache = _FieldCache(graph.system, graph.system.pack_words([graph.error[2]]))
    return bool(_predicate(cache, node)[0])


# --------------------------------------------------------------- evaluation
def evaluate_specs(graph, specs: Sequence[Spec]) -> List[SpecVerdict]:
    """Check a spec batch against one compiled graph (shared atom cache)."""
    cache = _FieldCache(graph.system, graph.table.state_words)
    return [evaluate_spec(graph, spec, _cache=cache) for spec in specs]


def evaluate_spec(graph, spec: Spec, _cache: Optional[_FieldCache] = None) -> SpecVerdict:
    """Check one spec against a compiled graph; never re-explores.

    Verdicts for settled graphs (complete, or error-stopped) are memoized in
    a per-process LRU keyed on ``(configuration fingerprint, spec text)``, so
    a repeated ``check`` against a warm graph skips label re-propagation
    entirely.  Size the LRU with :data:`SPEC_CACHE_ENV_VAR` (``0`` disables).
    """
    global _spec_cache_hits, _spec_cache_misses
    started = time.perf_counter()
    capacity = _spec_cache_capacity()
    key = _cache_key(graph, spec) if capacity > 0 else None
    if key is not None:
        hit = _spec_cache.get(key)
        if hit is not None:
            _spec_cache.move_to_end(key)
            _spec_cache_hits += 1
            # Same immutable verdict under the caller's spec name, stamped
            # with the (near-zero) lookup time instead of the original's.
            return replace(
                hit, name=spec.name, elapsed_seconds=time.perf_counter() - started
            )
        _spec_cache_misses += 1
    cache = _cache or _FieldCache(graph.system, graph.table.state_words)
    form = spec.form
    if isinstance(form, Always):
        verdict = _check_always(graph, cache, spec, form)
    elif isinstance(form, Reachable):
        verdict = _check_reachable(graph, cache, spec, form)
    elif isinstance(form, Response):
        verdict = _check_response(graph, cache, spec, form)
    elif isinstance(form, Inevitable):
        verdict = _check_inevitable(graph, cache, spec, form)
    else:
        raise SpecError(f"unknown spec form {type(form).__name__}")
    elapsed = time.perf_counter() - started
    object.__setattr__(verdict, "elapsed_seconds", elapsed)
    if key is not None:
        _spec_cache[key] = verdict
        while len(_spec_cache) > capacity:
            _spec_cache.popitem(last=False)
    return verdict


def _base(spec: Spec, graph, **fields) -> SpecVerdict:
    states = graph.state_count + (1 if graph.error is not None else 0)
    return SpecVerdict(
        name=spec.name, source=spec.text, states_checked=states, **fields
    )


def _undecided_reason(graph, temporal: bool) -> str:
    if graph.error is not None:
        return (
            "exploration stopped at the first deadline miss; "
            + (
                "temporal operators need the fully explored graph "
                "(check 'always not missed' instead)"
                if temporal
                else "only the explored prefix was checked"
            )
        )
    return "exploration was truncated by max_states; verdict undecidable"


def _check_always(graph, cache, spec: Spec, form: Always) -> SpecVerdict:
    predicate = _predicate(cache, form.predicate)
    violations = np.flatnonzero(~predicate)
    if violations.size:
        masks = _mask_chain(graph, int(violations[0]))
        return _base(
            spec, graph, holds=False, witness=_replay(graph.system, masks)
        )
    if graph.error is not None and not _error_state_satisfies(graph, form.predicate):
        return _base(
            spec,
            graph,
            holds=False,
            witness=_replay(graph.system, _error_chain(graph)),
        )
    if graph.complete:
        return _base(spec, graph, holds=True)
    return _base(spec, graph, holds=None, reason=_undecided_reason(graph, False))


def _check_reachable(graph, cache, spec: Spec, form: Reachable) -> SpecVerdict:
    predicate = _predicate(cache, form.predicate)
    satisfying = np.flatnonzero(predicate)
    if satisfying.size:
        masks = _mask_chain(graph, int(satisfying[0]))
        return _base(spec, graph, holds=True, witness=_replay(graph.system, masks))
    if graph.error is not None and _error_state_satisfies(graph, form.predicate):
        return _base(
            spec,
            graph,
            holds=True,
            witness=_replay(graph.system, _error_chain(graph)),
        )
    if graph.complete:
        return _base(spec, graph, holds=False)
    return _base(spec, graph, holds=None, reason=_undecided_reason(graph, False))


def _check_response(graph, cache, spec: Spec, form: Response) -> SpecVerdict:
    if not graph.complete:
        return _base(spec, graph, holds=None, reason=_undecided_reason(graph, True))
    trigger = _predicate(cache, form.trigger)
    heights = cache.heights(graph, ~_predicate(cache, form.goal), form.bound)
    violations = np.flatnonzero(trigger & (heights >= form.bound))
    if not violations.size:
        return _base(spec, graph, holds=True)
    # Witness: shallowest violating trigger, then a greedy goal-avoiding
    # suffix descending one height per step.
    state_id = int(violations[0])
    masks = _mask_chain(graph, state_id)
    cursor = state_id
    indptr, successor_ids, labels = graph.indptr, graph.successor_ids, graph.labels
    for depth in range(form.bound, 0, -1):
        for row in range(int(indptr[cursor]), int(indptr[cursor + 1])):
            successor = int(successor_ids[row])
            if heights[successor] >= depth - 1:
                masks.append(int(labels[row]))
                cursor = successor
                break
        else:  # pragma: no cover - a height >= depth guarantees a step
            raise SpecError("internal: avoiding state without a continuing step")
    return _base(spec, graph, holds=False, witness=_replay(graph.system, masks))


def _check_inevitable(graph, cache, spec: Spec, form: Inevitable) -> SpecVerdict:
    if not graph.complete:
        return _base(spec, graph, holds=None, reason=_undecided_reason(graph, True))
    predicate = _predicate(cache, form.predicate)
    avoiding = ~predicate
    if avoiding.size == 0 or not avoiding[0]:
        return _base(spec, graph, holds=True)
    reach, predecessor, predecessor_mask = _restricted_reach(graph, avoiding)
    # The reach set is closed under avoiding successors, so peeling it
    # alone leaves exactly the states with an infinite avoiding path.
    core = cache.heights(graph, reach, reach.size) == reach.size
    survivors = np.flatnonzero(core)
    if not survivors.size:
        return _base(spec, graph, holds=True)
    # Lasso witness: stem through the avoiding-only BFS tree to a core
    # state, then walk inside the core (every core state keeps a core
    # successor) until a state repeats — the cycle.
    entry = int(survivors[0])
    stem: List[int] = []
    cursor = entry
    while cursor != 0:
        stem.append(int(predecessor_mask[cursor]))
        cursor = int(predecessor[cursor])
    stem.reverse()
    indptr, successor_ids, labels = graph.indptr, graph.successor_ids, graph.labels
    seen: Dict[int, int] = {entry: 0}
    walk_masks: List[int] = []
    cursor = entry
    while True:
        for row in range(int(indptr[cursor]), int(indptr[cursor + 1])):
            successor = int(successor_ids[row])
            if core[successor]:
                walk_masks.append(int(labels[row]))
                cursor = successor
                break
        else:  # pragma: no cover - the peel guarantees a core successor
            raise SpecError("internal: live core state without a core successor")
        if cursor in seen:
            loop_entry = seen[cursor]
            break
        seen[cursor] = len(walk_masks)
    masks = stem + walk_masks
    return _base(
        spec,
        graph,
        holds=False,
        witness=_replay(graph.system, masks),
        loop_start=len(stem) + loop_entry,
    )


# ---------------------------------------------------------------- reference
class ReferenceChecker:
    """Brute-force oracle: naive Python walks over decoded tuple states.

    Decodes every interned state back to its
    :class:`~repro.scheduler.slot_system.SlotSystemState` tuple, evaluates
    atoms on the decoded fields and runs the temporal checks with plain
    loops and sets — deliberately sharing nothing with the vectorized
    evaluator beyond the graph's adjacency.  Quadratic-ish and small-scale
    by design; the test suite uses it to cross-check
    :func:`evaluate_specs` on randomized corpus scenarios.
    """

    def __init__(self, graph) -> None:
        self.graph = graph
        self.system = graph.system
        self.config = graph.system.config
        count = graph.state_count
        self.states = [
            self.system.decode(packed) for packed in graph.states_as_ints(0, count)
        ]
        indptr = graph.indptr
        successor_ids = graph.successor_ids
        self.successors: List[List[int]] = [
            successor_ids[indptr[i] : indptr[i + 1]].astype(int).tolist()
            for i in range(len(indptr) - 1)
        ]
        self.error_state = (
            self.system.decode(graph.error[2]) if graph.error is not None else None
        )

    # ------------------------------------------------------------ predicates
    def _atom(self, atom: Atom, state) -> bool:
        config = self.config
        if atom.kind == "true":
            return True
        if atom.kind == "false":
            return False
        if atom.kind == "idle":
            return state.slot_free()
        if atom.kind == "occupant":
            return state.occupant == config.index_of(str(atom.app))
        if atom.kind == "queued":
            return config.index_of(str(atom.app)) in state.buffer
        if atom.kind == "phase":
            index = config.index_of(str(atom.app))
            letter = "SWTFD"[_PHASE_TAGS[str(atom.value)]]
            matches = state.phases[index][0] == letter
            return matches if atom.op == "==" else not matches
        if atom.kind == "missed":
            indices = (
                range(len(config))
                if atom.app is None
                else [config.index_of(str(atom.app))]
            )
            return any(
                state.phases[i][0] in (WAITING, HOLDING)
                and state.phases[i][1] > config.profiles[i].max_wait
                for i in indices
            )
        if atom.kind == "buffer":
            return _scalar_compare(len(state.buffer), atom.op, int(atom.value))
        index = config.index_of(str(atom.app))
        phase = state.phases[index]
        if atom.kind == "wait":
            value = phase[1] if phase[0] == WAITING else 0
        elif atom.kind == "dwell":
            value = phase[2] if phase[0] == HOLDING else 0
        elif atom.kind == "instances":
            value = state.instances_used[index]
        else:
            raise SpecError(f"unknown atom kind {atom.kind!r}")
        return _scalar_compare(value, atom.op, int(atom.value))

    def _holds(self, node, state) -> bool:
        if isinstance(node, Atom):
            return self._atom(node, state)
        if isinstance(node, Not):
            return not self._holds(node.operand, state)
        if isinstance(node, And):
            return all(self._holds(op, state) for op in node.operands)
        if isinstance(node, Or):
            return any(self._holds(op, state) for op in node.operands)
        if isinstance(node, Implies):
            return (not self._holds(node.antecedent, state)) or self._holds(
                node.consequent, state
            )
        raise SpecError(f"unknown predicate node {type(node).__name__}")

    # --------------------------------------------------------------- checks
    def check(self, spec: Spec) -> Optional[bool]:
        """The reference verdict (`holds`) for one spec."""
        graph = self.graph
        form = spec.form
        if isinstance(form, Always):
            if any(not self._holds(form.predicate, s) for s in self.states):
                return False
            if self.error_state is not None and not self._holds(
                form.predicate, self.error_state
            ):
                return False
            return True if graph.complete else None
        if isinstance(form, Reachable):
            if any(self._holds(form.predicate, s) for s in self.states):
                return True
            if self.error_state is not None and self._holds(
                form.predicate, self.error_state
            ):
                return True
            return False if graph.complete else None
        if not graph.complete:
            return None
        if isinstance(form, Response):
            return self._check_response(form)
        if isinstance(form, Inevitable):
            return self._check_inevitable(form)
        raise SpecError(f"unknown spec form {type(form).__name__}")

    def _check_response(self, form: Response) -> bool:
        avoiding = {
            i for i, s in enumerate(self.states) if not self._holds(form.goal, s)
        }
        current = set(avoiding)
        for _ in range(form.bound):
            if not current:
                break
            current = {
                i
                for i in avoiding
                if any(successor in current for successor in self.successors[i])
            }
        return not any(
            i in current
            for i, s in enumerate(self.states)
            if self._holds(form.trigger, s)
        )

    def _check_inevitable(self, form: Inevitable) -> bool:
        avoiding = {
            i for i, s in enumerate(self.states) if not self._holds(form.predicate, s)
        }
        if 0 not in avoiding:
            return True
        # Reachable part of the avoiding subgraph, then iterative
        # white/grey/black DFS for a cycle inside it.
        reachable = {0}
        queue = [0]
        while queue:
            node = queue.pop()
            for successor in self.successors[node]:
                if successor in avoiding and successor not in reachable:
                    reachable.add(successor)
                    queue.append(successor)
        color = dict.fromkeys(reachable, 0)  # 0 white, 1 grey, 2 black
        for root in reachable:
            if color[root]:
                continue
            stack: List[Tuple[int, int]] = [(root, 0)]
            color[root] = 1
            while stack:
                node, position = stack[-1]
                successors = [s for s in self.successors[node] if s in reachable]
                if position < len(successors):
                    stack[-1] = (node, position + 1)
                    successor = successors[position]
                    if color[successor] == 1:
                        return False  # grey → grey back edge: a lasso exists
                    if color[successor] == 0:
                        color[successor] = 1
                        stack.append((successor, 0))
                else:
                    color[node] = 2
                    stack.pop()
        return True


def _scalar_compare(value: int, op: Optional[str], constant: int) -> bool:
    if op == "==":
        return value == constant
    if op == "!=":
        return value != constant
    if op == "<":
        return value < constant
    if op == "<=":
        return value <= constant
    if op == ">":
        return value > constant
    if op == ">=":
        return value >= constant
    raise SpecError(f"unknown comparator {op!r}")
