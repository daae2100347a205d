"""End-to-end and per-layer benchmark of the slot-sharing verification flow.

Usage (from the repository root)::

    python3 flowbench/run.py --workload design|verify|serve \
        --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``design`` — the paper's whole flow, cold: the six case-study plants to
  switching profiles to the first-fit 2-slot partition.
* ``verify`` — a slot designer's questions about slot S1, cold: unbounded
  and accelerated verification, the infeasible {C1,C5,C4,C6} witness, the
  14-spec bundle and the timed-automata check of {C1,C5}.
* ``serve`` — open-loop mixed traffic against a freshly spawned
  verification service over its Unix socket (the seed draws the mix).

``--trace 0`` prints the end-to-end metrics (``latency_ms``, see
:func:`latency_ms`; ``peak_rss_mb``; ``setup_s``), ``--trace 1`` the
per-layer metrics of a traced run.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
carries the raw (unnormalised) figures and diagnostics.  Exits non-zero
without a result when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (sockets, graph stores, span files), inside the
#: checkout and removed again by the run that made it.
WORK = os.path.join(ROOT, ".flowbench")

sys.path.insert(0, HERE)
sys.path.insert(0, SRC)

#: The end-to-end metrics every workload prints (``BENCHMARK.json`` holds
#: their units, directions and bounds).
END_TO_END = ("latency_ms", "peak_rss_mb", "setup_s")


def latency_ms(parts) -> float:
    """A workload's ``latency_ms``: the geometric mean of its parts, the
    median (normalised) times of each kind of operation it runs.

    * ``design``: ``design_ms``, the cold plants-to-partition flow;
    * ``verify``: ``unbounded_ms``, ``accelerated_ms``, ``specs_ms`` (the
      14-spec bundle), ``witness_ms`` and ``ta_ms``;
    * ``serve``: ``p50_ms`` at the fixed rate and ``cold_ms``.

    The geometric mean weighs every part alike, whatever its size: a part
    that gets x times slower moves the figure by x ** (1 / len(parts)).
    The parts themselves are printed on the detail line.
    """
    values = list(parts.values())
    return math.exp(sum(math.log(value) for value in values) / len(values))


def setup_child(workload: str) -> int:
    """Set-up of one workload in a fresh interpreter: imports and inputs."""
    import cpu

    cpu.WORKLOADS[workload][0](cpu.Anchors())
    print("ready", flush=True)
    return 0


def measure_setup(workload: str) -> float:
    """Median over fresh interpreters of process start -> inputs ready
    (``serve`` measures its own: fresh servers until they answer)."""
    from serve import SETUP_REPEATS

    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-child", workload],
            stdout=subprocess.PIPE, cwd=ROOT,
        )
        line = child.stdout.readline()
        times.append(time.perf_counter() - start)
        child.stdout.close()
        if child.wait(timeout=120) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up child of {workload} failed")
    return statistics.median(times)


def run_cpu_workload(args, anchors):
    import cpu
    import layers
    from serve import vm_hwm_mb
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    recorder, per_sample, coverages, sample_seconds = cpu.run_cpu(
        args.workload, args.seconds, anchors, tracer
    )
    detail = {
        "samples": len(recorder.probes),
        "errors": recorder.errors[:10],
        "raw_median_ms": {
            key: statistics.median(values) * 1e3 for key, values in recorder.raw.items()
        },
        "normalised_median_ms": {
            key: statistics.median(values) * 1e3
            for key, values in recorder.normalised.items()
        },
        "probe_ms_median": statistics.median(recorder.probes) if recorder.probes else None,
    }
    if tracer is None:
        detail["parts_ms"] = cpu.WORKLOADS[args.workload][2](recorder)
        metrics = {"peak_rss_mb": (vm_hwm_mb("self"), "MiB")}
    else:
        metrics = {
            name: (value, None) for name, value in layers.median_values(per_sample).items()
        }
        traced = statistics.median(sample_seconds[True])
        untraced = statistics.median(sample_seconds[False])
        metrics["trace.overhead_pct"] = ((traced / untraced - 1.0) * 100.0, None)
        metrics["trace.coverage_share"] = (min(coverages), None)
        metrics["host.probe_ms"] = (detail["probe_ms_median"], None)
        detail["traced_sample_ms"] = traced * 1e3
        detail["untraced_sample_ms"] = untraced * 1e3
    return recorder.attempted, recorder.failed, metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("design", "verify", "serve"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--break-anchor", action="store_true",
        help="perturb one expected answer (self-test: must count as failed)",
    )
    parser.add_argument("--setup-child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"program sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_child:
        return setup_child(args.setup_child)
    if args.workload is None:
        parser.error("--workload is required")

    import cpu
    import layers

    anchors = cpu.Anchors(broken=args.break_anchor)
    if args.workload == "serve":
        import serve

        attempted, failed, metrics, detail, setup_s = serve.run_serve(args, anchors, WORK)
    else:
        setup_s = measure_setup(args.workload)
        attempted, failed, metrics, detail = run_cpu_workload(args, anchors)

    if args.trace:
        units = {name: unit for name, unit, _better in layers.PER_LAYER}
        values = {name: value for name, (value, _unit) in metrics.items()}
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": units[name]}
            for name in units
        }
    else:
        metrics = {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        }
        metrics["latency_ms"] = {"value": latency_ms(detail["parts_ms"]), "unit": "ms"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    detail["setup_s"] = setup_s
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
