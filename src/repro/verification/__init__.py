"""Control-performance verification: the exhaustive shared-slot verifier,
the timed-automata models of Figs. 5-7, the verification acceleration of
Sec. 5 and the pluggable exploration engines the searches run on.

Engine selection
----------------

Every packed-state search in this package runs on an exploration engine
from :mod:`repro.verification.engine`; the timed-automata model checker
(:mod:`repro.ta.model_checker`) runs its own loop over network states.
Two engines exist:

* ``"sequential"`` — :class:`~repro.verification.engine.SequentialPackedEngine`,
  the frontier-batched single-process BFS.  Fully deterministic, the
  reference implementation.
* ``"kernel"`` — :class:`~repro.verification.engine.CompiledKernelEngine`,
  the compiled state-graph kernel: the first exploration interns every
  discovered state into a dense ``int32`` id and compiles the transition
  structure into id-indexed CSR arrays cached per configuration; warm
  re-verification (first-fit retries, benchmark rounds) replays the
  frozen graph without re-expanding a single state.

Selection is per call site (``engine=`` argument on
:class:`ExhaustiveVerifier`, :func:`verify_slot_sharing`,
:func:`repro.dimensioning.first_fit.default_admission_test` and
:func:`repro.analysis.verification_times.acceleration_comparison`) or global
through the ``REPRO_VERIFICATION_ENGINE`` environment variable.  The default
``"auto"`` is the compiled kernel (the graph is compiled during the first
exploration and replayed afterwards).  Both engines
explore the identical state space — identical visited counts on feasible instances and, on every *complete* (non-
truncated) run, identical verdicts and witness depths.  A run truncated by
``max_states`` only vouches for the part it explored, and the engines cap
at slightly different points within a BFS level, so truncated verdicts can
legitimately differ (see the module docstring of
:mod:`repro.verification.engine` for the exact guarantees).
"""

from .acceleration import busy_window, describe_budgets, instance_budgets, interference_horizon
from .automata import NO_APP, SlotSharingModelBuilder, verify_with_model_checker
from .engine import (
    ENGINE_ENV_VAR,
    CompiledKernelEngine,
    ExplorationEngine,
    ExplorationOutcome,
    SequentialPackedEngine,
    resolve_engine,
)
from .exhaustive import DEFAULT_MAX_STATES, ExhaustiveVerifier, verify_slot_sharing
from .kernel import (
    GRAPH_DIR_ENV_VAR,
    CompiledStateGraph,
    PackedStateTable,
    compiled_graph_for,
    config_fingerprint,
    graph_cache_path,
    load_graph,
    maybe_load_graph,
    maybe_save_graph,
    save_graph,
)
from .result import CounterexampleStep, VerificationResult, replay_counterexample
from .spec import (
    Spec,
    format_spec,
    parse_spec,
    spec_from_dict,
    spec_to_dict,
    specs_from_wire,
    standard_spec_bundle,
)
from .spec_eval import (
    SPEC_CACHE_ENV_VAR,
    ReferenceChecker,
    SpecVerdict,
    clear_spec_cache,
    evaluate_spec,
    evaluate_specs,
    spec_cache_stats,
)
from .store import STORE_BYTES_ENV_VAR, GraphStore, GraphStoreClaim, store_for

__all__ = [
    "VerificationResult",
    "CounterexampleStep",
    "ExhaustiveVerifier",
    "verify_slot_sharing",
    "DEFAULT_MAX_STATES",
    "SlotSharingModelBuilder",
    "verify_with_model_checker",
    "NO_APP",
    "busy_window",
    "interference_horizon",
    "instance_budgets",
    "describe_budgets",
    "ExplorationEngine",
    "ExplorationOutcome",
    "SequentialPackedEngine",
    "CompiledKernelEngine",
    "resolve_engine",
    "ENGINE_ENV_VAR",
    "replay_counterexample",
    "CompiledStateGraph",
    "PackedStateTable",
    "compiled_graph_for",
    "config_fingerprint",
    "graph_cache_path",
    "load_graph",
    "save_graph",
    "maybe_load_graph",
    "maybe_save_graph",
    "GRAPH_DIR_ENV_VAR",
    "GraphStore",
    "GraphStoreClaim",
    "store_for",
    "STORE_BYTES_ENV_VAR",
    "Spec",
    "SpecVerdict",
    "ReferenceChecker",
    "parse_spec",
    "format_spec",
    "spec_to_dict",
    "spec_from_dict",
    "specs_from_wire",
    "standard_spec_bundle",
    "evaluate_spec",
    "evaluate_specs",
    "SPEC_CACHE_ENV_VAR",
    "clear_spec_cache",
    "spec_cache_stats",
]
