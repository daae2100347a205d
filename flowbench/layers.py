"""Which program functions are traced, and how spans become per-layer metrics.

Every target is patched where its caller resolves it: class attributes for
methods (every instance sees the wrapper), module attributes of the
*calling* module for functions imported with ``from ... import``.

Layer -> end-to-end map (the workload in brackets is where the layer does
most of its work; the figure it should move is ``peak_rss_mb`` or a part
of the workload's ``latency_ms``, see ``run.latency_ms``):

* switching.build_profile_ms, control.simulate_ms/_calls,
  first_fit.trials, acceleration.instance_budgets_ms -> design_ms [design]
* packed.expand_ms/_rows -> unbounded_ms, accelerated_ms
  [verify]; design_ms [design]
* kernel.intern_dedup_ms, kernel.intern_rows, kernel.new_share ->
  unbounded_ms, then accelerated_ms [verify]
* kernel.explore_self_ms (explore minus its expand and dedup children: the
  CSR/parent append and the level loop), kernel.levels, kernel.graph_bytes
  -> witness_ms, accelerated_ms, peak_rss_mb [verify]
* result.replay_counterexample_ms -> witness_ms [verify]
* spec_eval.evaluate_ms, spec_eval.specs -> specs_ms [verify];
  the p99 of serve, through its check ops
* ta.reachable_ms, ta.states -> ta_ms [verify]
* engine.<name>_runs -> context for any shift (which engine ``auto`` chose)
* store.load_ms/_bytes, store.publish_ms/_bytes, store.claim_wait_ms ->
  cold_ms and the p99 [serve]
* protocol.decode_ms/encode_ms/profiles_from_wire_ms, kernel.fingerprint_ms,
  exhaustive.verify_ms (inline warm replay) -> p50_ms and the highest
  rate [serve]
* service.* (from the ``stats`` op) -> p50_ms, cold_ms [serve]
* client.p99_ms, client.max_qps: the serve workload's fixed-rate p99 and
  the highest rate of the traced run's sweep meeting p99 <= 10 ms, kept as
  diagnostics (too noisy on a shared host for a bound);
  client.lateness_ms (generator lag) and host.probe_ms -> diagnostics; a
  change that moves the probe is suspect.
* trace.overhead_pct (traced against untraced samples of the same run) and
  trace.coverage_share (share of each design/verify sample's wall time
  inside traced layer spans, the lowest sample's).

Per-layer ``_ms`` and count values are sums over one sample, reported as
the median over samples; a serve sample is one traced fixed-rate round.
"""

from __future__ import annotations

import os
import statistics
from typing import Dict, List

from tracing import self_times, union_length

#: Engine tags ``result.method`` can carry, as metric-name suffixes.
ENGINES = ("kernel", "kernel_delta", "sharded", "vectorized", "sequential")

#: Every per-layer metric with its unit and direction, in output order.
PER_LAYER = [
    ("switching.build_profile_ms", "ms", "lower"),
    ("control.simulate_ms", "ms", "lower"),
    ("control.simulate_calls", "count", "lower"),
    ("first_fit.trials", "count", "lower"),
    ("acceleration.instance_budgets_ms", "ms", "lower"),
    ("packed.expand_ms", "ms", "lower"),
    ("packed.expand_rows", "count", "lower"),
    ("kernel.intern_dedup_ms", "ms", "lower"),
    ("kernel.intern_rows", "count", "lower"),
    ("kernel.new_share", "share", "higher"),
    ("kernel.explore_self_ms", "ms", "lower"),
    ("kernel.levels", "count", "lower"),
    ("kernel.graph_bytes", "bytes", "lower"),
    ("kernel.fingerprint_ms", "ms", "lower"),
    ("result.replay_counterexample_ms", "ms", "lower"),
    ("spec_eval.evaluate_ms", "ms", "lower"),
    ("spec_eval.specs", "count", "higher"),
    ("ta.reachable_ms", "ms", "lower"),
    ("ta.states", "count", "lower"),
    ("exhaustive.verify_ms", "ms", "lower"),
] + [(f"engine.{name}_runs", "count", "higher") for name in ENGINES] + [
    ("store.load_ms", "ms", "lower"),
    ("store.load_bytes", "bytes", "lower"),
    ("store.publish_ms", "ms", "lower"),
    ("store.publish_bytes", "bytes", "lower"),
    ("store.claim_wait_ms", "ms", "lower"),
    ("protocol.decode_ms", "ms", "lower"),
    ("protocol.encode_ms", "ms", "lower"),
    ("protocol.profiles_from_wire_ms", "ms", "lower"),
    ("service.memory_hit_share", "share", "higher"),
    ("service.store_hit_share", "share", "higher"),
    ("service.compiles", "count", "lower"),
    ("service.coalesced", "count", "higher"),
    ("service.errors", "count", "lower"),
    ("client.lateness_ms", "ms", "lower"),
    ("client.p99_ms", "ms", "lower"),
    ("client.max_qps", "1/s", "higher"),
    ("host.probe_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_share", "share", "higher"),
]


# ------------------------------------------------------------- span fields
def _rows(_result, args, _kwargs):
    return {"rows": int(args[1].shape[0])}


def _dedup(result, args, _kwargs):
    return {"rows": int(args[1].shape[0]), "new": int(result[2].size)}


def _explore(result, args, _kwargs):
    return {"levels": int(result[1]), "peak_bytes": int(args[0].approx_bytes())}


def _engine(result, _args, _kwargs):
    method = result.method
    name = method[method.find("[") + 1 : -1] if "[" in method else "sequential"
    return {"engine:" + name.replace("+", "_"): 1}


def _specs(result, _args, _kwargs):
    return {"specs": len(result)}


def _ta_states(result, _args, _kwargs):
    return {"states": int(result.explored_states)}


def _trials(result, _args, _kwargs):
    return {"trials": int(result.verifications)}


def _file_bytes(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def library_targets():
    """Targets inside the verification library (every process)."""
    from repro.control.simulation import ClosedLoopSimulator
    from repro.dimensioning import first_fit
    from repro.scheduler.packed import PackedSlotSystem
    from repro.switching.dwell import DwellTimeAnalyzer
    from repro.ta.model_checker import ModelChecker
    from repro.verification import exhaustive, kernel, spec_eval
    from repro.verification.store import GraphStore

    fingerprint = kernel.config_fingerprint

    def _loaded(result, args, _kwargs):
        if not result:
            return {"bytes": 0}
        store, system = args[0], args[1]
        return {"bytes": _file_bytes(store.entry_path(fingerprint(system.config)))}

    def _published(result, _args, _kwargs):
        return {"bytes": _file_bytes(result)}

    return [
        (DwellTimeAnalyzer, "build_profile", "switching.build_profile", None),
        (ClosedLoopSimulator, "simulate_batch", "control.simulate", None),
        (ClosedLoopSimulator, "simulate_mode_sequence", "control.simulate", None),
        (first_fit.FirstFitDimensioner, "dimension", "first_fit.dimension", _trials),
        (first_fit, "instance_budgets", "acceleration.instance_budgets", None),
        (exhaustive.ExhaustiveVerifier, "verify", "exhaustive.verify", _engine),
        (exhaustive, "replay_counterexample", "result.replay_counterexample", None),
        (exhaustive, "config_fingerprint", "kernel.fingerprint", None),
        (kernel, "config_fingerprint", "kernel.fingerprint", None),
        (kernel.CompiledStateGraph, "explore", "kernel.explore", _explore),
        (PackedSlotSystem, "successor_tables_words_origin", "packed.expand", _rows),
        (kernel.PackedStateTable, "intern_dedup", "kernel.intern_dedup", _dedup),
        (spec_eval, "evaluate_specs", "spec_eval.evaluate", _specs),
        (ModelChecker, "reachable", "ta.reachable", _ta_states),
        (GraphStore, "load", "store.load", _loaded),
        (GraphStore, "publish", "store.publish", _published),
        (GraphStore, "wait_for", "store.claim_wait", None),
    ]


def server_targets():
    """Names the service module imported into its own namespace."""
    from repro.service import server

    return [
        (server, "decode_message", "protocol.decode", None),
        (server, "encode_message", "protocol.encode", None),
        (server, "profiles_from_wire", "protocol.profiles_from_wire", None),
        (server, "config_fingerprint", "kernel.fingerprint", None),
        (server, "evaluate_specs", "spec_eval.evaluate", _specs),
    ]


# -------------------------------------------------------------- aggregation
_DURATION_METRICS = {
    "switching.build_profile_ms": "switching.build_profile",
    "control.simulate_ms": "control.simulate",
    "acceleration.instance_budgets_ms": "acceleration.instance_budgets",
    "packed.expand_ms": "packed.expand",
    "kernel.intern_dedup_ms": "kernel.intern_dedup",
    "kernel.fingerprint_ms": "kernel.fingerprint",
    "result.replay_counterexample_ms": "result.replay_counterexample",
    "spec_eval.evaluate_ms": "spec_eval.evaluate",
    "ta.reachable_ms": "ta.reachable",
    "exhaustive.verify_ms": "exhaustive.verify",
    "store.load_ms": "store.load",
    "store.publish_ms": "store.publish",
    "store.claim_wait_ms": "store.claim_wait",
    "protocol.decode_ms": "protocol.decode",
    "protocol.encode_ms": "protocol.encode",
    "protocol.profiles_from_wire_ms": "protocol.profiles_from_wire",
}

_FIELD_METRICS = {
    "packed.expand_rows": ("packed.expand", "rows"),
    "kernel.intern_rows": ("kernel.intern_dedup", "rows"),
    "kernel.levels": ("kernel.explore", "levels"),
    "kernel.graph_bytes": ("kernel.explore", "peak_bytes"),
    "spec_eval.specs": ("spec_eval.evaluate", "specs"),
    "ta.states": ("ta.reachable", "states"),
    "first_fit.trials": ("first_fit.dimension", "trials"),
    "store.load_bytes": ("store.load", "bytes"),
    "store.publish_bytes": ("store.publish", "bytes"),
}

#: Spans the benchmark opens itself; coverage counts only program layers.
BENCH_SPANS = ("sample",)


def layer_sums(spans: List[list], sample=None, rename=None) -> Dict[str, float]:
    """Additive per-layer figures of the spans of one process.

    Only spans whose sample id (``span[4]``) equals ``sample`` count, unless
    ``sample`` is None; parents are looked up in the whole list, so it must
    be one process's complete span list.  ``rename`` maps span names (the
    serve workload counts its pool workers' verifications apart from the
    server's inline replays).  Sums of several processes add up; turn them
    into metric values with :func:`layer_values`.
    """
    selfs = self_times(spans)
    sums: Dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for index, span in enumerate(spans):
        if span[0] in BENCH_SPANS or (sample is not None and span[4] != sample):
            continue
        name = rename.get(span[0], span[0]) if rename else span[0]
        add(name, span[2] - span[1])
        add(name + ":self", selfs[index])
        add(name + ":calls", 1)
        for key, value in span[5].items():
            if key.startswith("peak"):
                sums[name + ":" + key] = max(sums.get(name + ":" + key, 0.0), value)
            else:
                add(name + ":" + key, value)
    return sums


def add_sums(*many: Dict[str, float]) -> Dict[str, float]:
    """Merge :func:`layer_sums` of several processes (peaks take the max)."""
    total: Dict[str, float] = {}
    for sums in many:
        for key, value in sums.items():
            if key.split(":")[-1].startswith("peak"):
                total[key] = max(total.get(key, 0.0), value)
            else:
                total[key] = total.get(key, 0.0) + value
    return total


def layer_values(sums: Dict[str, float]) -> Dict[str, float]:
    """Per-layer metric values from (possibly merged) :func:`layer_sums`."""
    values: Dict[str, float] = {}
    for metric, name in _DURATION_METRICS.items():
        values[metric] = sums.get(name, 0.0) * 1e3
    for metric, (name, key) in _FIELD_METRICS.items():
        values[metric] = sums.get(name + ":" + key, 0.0)
    values["control.simulate_calls"] = sums.get("control.simulate:calls", 0.0)
    rows = sums.get("kernel.intern_dedup:rows", 0.0)
    values["kernel.new_share"] = sums.get("kernel.intern_dedup:new", 0.0) / rows if rows else 0.0
    # Self time of explore: minus its expand and dedup children, which
    # leaves the CSR/parent append and the level loop.
    values["kernel.explore_self_ms"] = sums.get("kernel.explore:self", 0.0) * 1e3
    for engine in ENGINES:
        values[f"engine.{engine}_runs"] = sums.get(f"exhaustive.verify:engine:{engine}", 0.0)
    return values


def coverage(spans: List[list], sample_indices: List[int]) -> float:
    """Share of a sample's timed wall time inside traced program-layer spans.

    ``sample_indices`` are the benchmark's ``sample`` spans of one sample
    (one per timed call; probes and cache clearing run between them).
    """
    covered = length = 0.0
    for sample_index in sample_indices:
        sample = spans[sample_index]
        inside = [
            (max(span[1], sample[1]), min(span[2], sample[2]))
            for span in spans
            if span[0] not in BENCH_SPANS and span[3] == sample_index
        ]
        covered += union_length([pair for pair in inside if pair[1] > pair[0]])
        length += sample[2] - sample[1]
    return covered / length if length else 0.0


def median_values(per_sample: List[Dict[str, float]]) -> Dict[str, float]:
    """Median over samples of every per-layer value."""
    if not per_sample:
        return {}
    return {
        key: statistics.median(values[key] for values in per_sample)
        for key in per_sample[0]
    }
