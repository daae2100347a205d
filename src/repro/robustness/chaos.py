"""Service chaos harness: seeded faults against live verification traffic.

The robustness campaign (:mod:`repro.robustness.campaign`) cross-checks
exploration *engines* against each other on a deterministic scenario
corpus.  This module turns the same corpus into **traffic against a
running verification service** and injects one seeded fault per scenario
while the request is in flight:

* ``kill-pool-worker`` — SIGKILL a cold-compile pool worker mid-request;
  client retries plus the server's pool rebuild must mask it end-to-end.
* ``socket-drop`` — a client connection vanishes mid-exchange (request
  sent, socket closed before the response is read).
* ``socket-garble`` — a client ships a garbled (non-JSON) request line;
  the server must answer structurally and keep serving.
* ``store-truncate`` — a published graph-store entry is truncated on disk
  (the crash window of an interrupted publish); the next query must
  reject the corpse and recompile.
* ``store-flood`` — a burst of distinct cold configurations pushes the
  store past its LRU byte budget while the scenario query runs.
* ``checkpoint-resume`` — a local compile is interrupted mid-exploration
  and resumed from its staged level-boundary checkpoint; the harness
  **counter-asserts** that only post-checkpoint levels were re-expanded
  (``expansion_count == expanded_levels - resumed_levels``).

Every scenario's service answer is compared against a **fault-free
oracle**: the same ``verify_slot_sharing`` call run locally on a cold
cache with no injector armed.  The server path is byte-identical to the
direct call by construction, so any verdict or state-count divergence is
a real robustness bug, not noise.
"""

from __future__ import annotations

import json
import os
import random
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..scheduler.packed import PackedSlotSystem, clear_packed_caches
from ..scheduler.slot_system import SlotSystemConfig
from ..switching.profile import SwitchingProfile
from ..verification.exhaustive import verify_slot_sharing
from ..verification.kernel import (
    CheckpointPolicy,
    compiled_graph_for,
    config_fingerprint,
)
from ..verification.store import GraphStore, store_for
from .generator import ScenarioGenerator

__all__ = [
    "CHAOS_INJECTORS",
    "ChaosReport",
    "ChaosResult",
    "InProcessServer",
    "SpawnedServer",
    "run_chaos",
    "synthetic_config_pool",
    "zipf_weights",
]

#: Injector kinds, in round-robin order over the corpus — a sweep of at
#: least this many scenarios fires every kind at least once.
CHAOS_INJECTORS: Tuple[str, ...] = (
    "kill-pool-worker",
    "socket-drop",
    "socket-garble",
    "store-truncate",
    "store-flood",
    "checkpoint-resume",
)

#: Default per-scenario exploration cap (matches the campaign's).
DEFAULT_MAX_STATES = 200_000


# ----------------------------------------------------------------- reports
@dataclass
class ChaosReport:
    """Outcome of one chaos scenario."""

    index: int
    seed: int
    injector: str
    verdict: str  # "ok" | "divergence"
    feasible: Optional[bool] = None
    fired: bool = False
    divergence: Optional[str] = None
    elapsed_seconds: float = 0.0
    detail: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "seed": self.seed,
            "injector": self.injector,
            "verdict": self.verdict,
            "feasible": self.feasible,
            "fired": self.fired,
            "divergence": self.divergence,
            "elapsed_seconds": self.elapsed_seconds,
            "detail": dict(self.detail),
        }


@dataclass
class ChaosResult:
    """Aggregate of one chaos sweep."""

    seed: int
    start: int
    count: int
    max_states: int
    reports: List[ChaosReport] = field(default_factory=list)
    #: Recovery-machinery counters aggregated across the sweep.
    recovery: Dict[str, int] = field(default_factory=dict)
    #: Server-stat deltas over the sweep (requests, pool_rebuilds, ...).
    server_window: Dict[str, int] = field(default_factory=dict)

    @property
    def divergences(self) -> List[ChaosReport]:
        return [report for report in self.reports if report.verdict == "divergence"]

    def injector_counts(self) -> Dict[str, Dict[str, int]]:
        """Per injector kind: scenarios run / faults actually fired."""
        counts: Dict[str, Dict[str, int]] = {}
        for report in self.reports:
            bucket = counts.setdefault(report.injector, {"run": 0, "fired": 0})
            bucket["run"] += 1
            bucket["fired"] += int(report.fired)
        return dict(sorted(counts.items()))

    def summary(self) -> Dict[str, object]:
        return {
            "seed": self.seed,
            "start": self.start,
            "count": self.count,
            "max_states": self.max_states,
            "ok": sum(1 for report in self.reports if report.verdict == "ok"),
            "divergences": len(self.divergences),
            "injectors": self.injector_counts(),
            "recovery": dict(self.recovery),
            "server_window": dict(self.server_window),
            "total_elapsed_seconds": sum(
                report.elapsed_seconds for report in self.reports
            ),
        }

    def to_dict(self) -> Dict[str, object]:
        payload = self.summary()
        payload["reports"] = [report.to_dict() for report in self.reports]
        return payload


# ----------------------------------------------------------- config pools
def synthetic_config_pool(
    pool_size: int, seed: int
) -> List[List[SwitchingProfile]]:
    """Small seeded synthetic slot configurations (cheap cold compiles).

    The store-flood injector and the campaign's ``--service`` zipf fold-in
    draw from this pool: every entry is a distinct fingerprint whose
    compile is a few thousand states, so a burst of them churns the store
    LRU without dominating wall-clock.
    """
    rng = random.Random(seed)
    pool: List[List[SwitchingProfile]] = []
    for index in range(pool_size):
        max_wait = rng.randint(0, 2)
        min_dwell = [rng.randint(1, 3) for _ in range(max_wait + 1)]
        max_dwell = [low + rng.randint(0, 2) for low in min_dwell]
        pool.append(
            [
                SwitchingProfile.from_arrays(
                    name=f"X{index}",
                    requirement_samples=rng.randint(2, 5),
                    min_inter_arrival=rng.randint(6, 10),
                    min_dwell=min_dwell,
                    max_dwell=max_dwell,
                )
            ]
        )
    return pool


def zipf_weights(count: int, exponent: float = 1.1) -> List[float]:
    """Zipf popularity weights (rank 0 hottest), normalized to sum 1."""
    weights = [1.0 / (rank + 1) ** exponent for rank in range(count)]
    total = sum(weights)
    return [weight / total for weight in weights]


# ---------------------------------------------------------- server handles
class InProcessServer:
    """A :class:`~repro.service.VerificationService` on a daemon thread.

    The tier-1 chaos smoke test runs against this handle: same socket
    protocol and worker pool as a spawned server, but the harness can see
    the service object directly (worker pids, live stats) and teardown is
    deterministic.
    """

    def __init__(
        self, directory: str, *, workers: int = 2, max_states: Optional[int] = None
    ) -> None:
        from ..service import VerificationService

        self.socket_path = os.path.join(str(directory), "chaos.sock")
        self.store_dir = os.path.join(str(directory), "store")
        kwargs = {} if max_states is None else {"max_states": int(max_states)}
        self.service = VerificationService(
            self.socket_path, store_dir=self.store_dir, workers=workers, **kwargs
        )
        self._thread = threading.Thread(target=self.service.run, daemon=True)
        self._thread.start()
        _wait_for_socket(self.socket_path)

    def worker_pids(self) -> List[int]:
        executor = self.service._executor
        if executor is None:
            return []
        return list(dict(executor._processes))

    def stop(self) -> None:
        from ..service import ServiceClient

        try:
            with ServiceClient(self.socket_path, timeout=10.0) as client:
                client.shutdown()
        except Exception:
            pass
        self._thread.join(timeout=30)

    def __enter__(self) -> "InProcessServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


class SpawnedServer:
    """A real server subprocess (``scripts/repro_serve.py``) plus tempdir.

    The chaos campaign script runs against this handle: the server is a
    separate process with its own packed caches and pool, so the local
    oracle shares nothing with it.  ``env`` entries land in the server's
    environment — the campaign sets ``REPRO_CHECKPOINT_LEVELS`` and a
    small ``REPRO_GRAPH_STORE_BYTES`` there to keep the checkpoint and
    eviction machinery hot.
    """

    def __init__(
        self, *, env: Optional[Dict[str, str]] = None, workers: int = 2
    ) -> None:
        script = os.path.join(
            os.path.dirname(os.path.abspath(__file__)),
            "..", "..", "..", "scripts", "repro_serve.py",
        )
        script = os.path.normpath(script)
        if not os.path.exists(script):
            raise RuntimeError(f"server script not found at {script}")
        self._temp_dir = tempfile.mkdtemp(prefix="repro-chaos-")
        self.socket_path = os.path.join(self._temp_dir, "chaos.sock")
        self.store_dir = os.path.join(self._temp_dir, "store")
        source_root = os.path.normpath(
            os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")
        )
        environment = dict(os.environ)
        environment["PYTHONPATH"] = os.pathsep.join(
            [source_root]
            + (
                [environment["PYTHONPATH"]]
                if environment.get("PYTHONPATH")
                else []
            )
        )
        environment.update(env or {})
        self.process = subprocess.Popen(
            [
                sys.executable,
                script,
                "--socket",
                self.socket_path,
                "--store",
                self.store_dir,
                "--workers",
                str(int(workers)),
            ],
            env=environment,
        )
        _wait_for_socket(self.socket_path)

    def worker_pids(self) -> List[int]:
        """The server's pool-worker pids (its direct children, via /proc)."""
        pid = self.process.pid
        try:
            path = f"/proc/{pid}/task/{pid}/children"
            with open(path, "r", encoding="ascii") as handle:
                return [int(child) for child in handle.read().split()]
        except (OSError, ValueError):  # pragma: no cover - non-Linux
            return []

    def stop(self) -> None:
        import shutil

        from ..service import ServiceClient

        try:
            with ServiceClient(self.socket_path, timeout=10.0) as client:
                client.shutdown()
        except Exception:
            self.process.terminate()
        try:
            self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:  # pragma: no cover - hung server
            self.process.kill()
            self.process.wait(timeout=10)
        shutil.rmtree(self._temp_dir, ignore_errors=True)

    def __enter__(self) -> "SpawnedServer":
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def _wait_for_socket(path: str, attempts: int = 400, delay: float = 0.05) -> None:
    for _ in range(attempts):
        if os.path.exists(path):
            return
        time.sleep(delay)
    raise RuntimeError(f"server socket {path} never appeared")


# ------------------------------------------------------------ client legs
def _client(server, retries: int = 5):
    from ..service import ServiceClient

    return ServiceClient(
        server.socket_path,
        timeout=120.0,
        retries=retries,
        backoff_base=0.02,
        backoff_max=0.2,
    )


def _service_verify(server, profiles, budget, max_states):
    """One verify through the service; returns ``(feasible, truncated,
    explored_states)``."""
    with _client(server) as client:
        result = client.verify(
            profiles, instance_budget=budget, max_states=max_states
        )
    return bool(result.feasible), bool(result.truncated), int(result.explored_states)


def _oracle_verify(profiles, budget, max_states):
    """The fault-free oracle: a cold local run of the same front-end."""
    clear_packed_caches()
    try:
        result = verify_slot_sharing(
            profiles,
            instance_budget=budget,
            max_states=max_states,
            with_counterexample=False,
        )
        return (
            bool(result.feasible),
            bool(result.truncated),
            int(result.explored_states),
        )
    finally:
        clear_packed_caches()


def _compare(oracle, observed) -> Optional[str]:
    if oracle != observed:
        return (
            f"verdict mismatch: oracle (feasible, truncated, states)={oracle} "
            f"vs service {observed}"
        )
    return None


# -------------------------------------------------------------- injectors
def _raw_request_line(profiles, budget, max_states) -> bytes:
    from ..service.protocol import profiles_to_wire

    request = {
        "op": "verify",
        "profiles": profiles_to_wire(profiles),
        "instance_budget": budget,
        "max_states": int(max_states),
    }
    return json.dumps(request).encode("utf-8") + b"\n"


def _inject_kill_pool_worker(server, profiles, budget, max_states, report):
    """SIGKILL a pool worker while the scenario's cold compile is in
    flight; client retries must mask the loss entirely."""
    holder: Dict[str, object] = {}
    done = threading.Event()

    def send() -> None:
        try:
            holder["observed"] = _service_verify(server, profiles, budget, max_states)
        except Exception as error:  # noqa: BLE001 - compared by the caller
            holder["error"] = repr(error)
        finally:
            done.set()

    requester = threading.Thread(target=send)
    requester.start()
    deadline = time.monotonic() + 10.0
    killed = None
    while time.monotonic() < deadline and not done.is_set():
        pids = server.worker_pids()
        if pids:
            victim = pids[0]
            try:
                os.kill(victim, signal.SIGKILL)
                killed = victim
            except (ProcessLookupError, PermissionError):
                pass
            break
        time.sleep(0.001)
    requester.join(timeout=120)
    report.fired = killed is not None
    report.detail["killed_pid"] = killed
    if "error" in holder:
        return None, f"request failed despite retries: {holder['error']}"
    return holder.get("observed"), None


def _inject_socket_drop(server, profiles, budget, max_states, report):
    """A connection dies mid-exchange; the follow-up query must be clean."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(5.0)
            raw.connect(server.socket_path)
            raw.sendall(_raw_request_line(profiles, budget, max_states))
            # Vanish without reading the (possibly mid-write) response.
        report.fired = True
    except OSError as error:
        return None, f"socket-drop leg failed: {error!r}"
    return _service_verify(server, profiles, budget, max_states), None


def _inject_socket_garble(server, profiles, budget, max_states, report):
    """Garbled request bytes must get a structured error, not kill the
    server or poison the next request."""
    try:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as raw:
            raw.settimeout(10.0)
            raw.connect(server.socket_path)
            raw.sendall(b'\x00{"op": "ver\xfffy", !!garble!!\n')
            reply = raw.makefile("rb").readline()
        report.fired = True
        response = json.loads(reply.decode("utf-8"))
        if response.get("ok") is not False:
            return None, f"garbled line was not rejected: {response!r}"
    except (OSError, ValueError) as error:
        return None, f"socket-garble leg failed: {error!r}"
    return _service_verify(server, profiles, budget, max_states), None


def _inject_store_truncate(server, profiles, budget, max_states, report):
    """Corrupt the scenario's published store entry between two queries;
    the second must reject the corpse and recompile to the same verdict."""
    first = _service_verify(server, profiles, budget, max_states)
    config = SlotSystemConfig.from_profiles(tuple(profiles), budget)
    entry = store_for(server.store_dir).entry_path(config_fingerprint(config))
    if os.path.exists(entry):
        size = os.path.getsize(entry)
        with open(entry, "r+b") as handle:
            handle.truncate(max(1, size // 2))
        report.fired = True
        report.detail["truncated_entry_bytes"] = size
    second = _service_verify(server, profiles, budget, max_states)
    if first != second:
        return None, (
            f"verdict changed across store truncation: {first} vs {second}"
        )
    return second, None


def _inject_store_flood(server, profiles, budget, max_states, report, rng):
    """Push a burst of distinct cold configurations through the store
    (past a small LRU budget, when the server is configured with one)
    while the scenario query runs."""
    pool = synthetic_config_pool(4, rng.randrange(2**31))
    with _client(server) as client:
        for flood in pool:
            client.admit(flood, max_states=50_000)
    report.fired = True
    report.detail["flooded_configs"] = len(pool)
    return _service_verify(server, profiles, budget, max_states), None


def _inject_checkpoint_resume(profiles, budget, max_states, oracle, report):
    """Local leg: interrupt a checkpointing compile, resume from the
    newest staged checkpoint, counter-assert post-checkpoint-only
    re-exploration, and compare the finished verdict to the oracle."""
    oracle_feasible, oracle_truncated, oracle_states = oracle
    config = SlotSystemConfig.from_profiles(tuple(profiles), budget)
    clear_packed_caches()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-chaos-ckpt-") as directory:
            store = GraphStore(directory)
            system = PackedSlotSystem(config)
            graph = compiled_graph_for(system)
            graph.set_checkpoint_policy(
                CheckpointPolicy(store.publish_checkpoint, every_levels=1)
            )
            # Interrupt mid-exploration: cap at half the oracle's states.
            graph.explore(max(2, oracle_states // 2), with_parents=False)
            interrupted = not (graph.complete or graph.error is not None)
            resumed_system = PackedSlotSystem(config)
            if interrupted and store.load_checkpoint(resumed_system):
                report.fired = True
                resumed = resumed_system.compiled_graph
                resumed.explore(max_states, with_parents=False)
                report.detail["resumed_levels"] = resumed.resumed_levels
                report.detail["re_explored_levels"] = resumed.expansion_count
                # The counter assertion: resuming re-expands exactly the
                # post-checkpoint levels, nothing before them.
                if resumed.expansion_count != (
                    resumed.expanded_levels - resumed.resumed_levels
                ):
                    return None, (
                        "resume re-explored pre-checkpoint levels: expanded "
                        f"{resumed.expansion_count} of "
                        f"{resumed.expanded_levels} total with "
                        f"{resumed.resumed_levels} resumed"
                    )
                feasible = resumed.complete and resumed.error is None
                if not oracle_truncated and feasible != oracle_feasible:
                    return None, (
                        f"resumed verdict {feasible} != oracle {oracle_feasible}"
                    )
                if feasible and not oracle_truncated and (
                    resumed.state_count != oracle_states
                ):
                    return None, (
                        f"resumed state count {resumed.state_count} != "
                        f"oracle {oracle_states}"
                    )
            # Scenarios too small to interrupt simply skip the resume leg
            # (fired stays False; coverage comes from larger scenarios).
    finally:
        clear_packed_caches()
    return oracle, None


# ---------------------------------------------------------------- the sweep
def run_chaos(
    seed: int,
    count: int,
    *,
    server,
    start: int = 0,
    max_states: int = DEFAULT_MAX_STATES,
    injectors: Sequence[str] = CHAOS_INJECTORS,
    progress: Optional[Callable[[ChaosReport], None]] = None,
) -> ChaosResult:
    """Sweep ``count`` scenarios as service traffic, one injector each.

    Injectors rotate round-robin over the corpus (``count >=
    len(injectors)`` fires every kind), with per-scenario randomness (flood
    seeds) drawn from a ``seed``-derived stream so the whole
    sweep replays from ``(seed, start, count)`` alone.

    Args:
        seed: corpus seed (shared with the robustness campaign).
        count: scenario count.
        server: an :class:`InProcessServer` or :class:`SpawnedServer`.
        start: first scenario index.
        max_states: exploration cap for traffic and oracle alike.
        injectors: injector kinds to rotate through.
        progress: optional per-scenario callback.
    """
    from ..service import ServiceClient

    generator = ScenarioGenerator(seed)
    rng = random.Random((int(seed) << 20) ^ int(start))
    result = ChaosResult(
        seed=int(seed), start=int(start), count=int(count), max_states=int(max_states)
    )
    recovery = {"pool_workers_killed": 0, "checkpoint_resumes": 0}
    with ServiceClient(server.socket_path, timeout=30.0) as probe:
        before = probe.stats()["stats"]
    for position, scenario in enumerate(generator.corpus(count, start)):
        injector = injectors[position % len(injectors)]
        report = ChaosReport(
            index=scenario.index, seed=scenario.seed, verdict="ok", injector=injector
        )
        began = time.perf_counter()
        profiles = list(scenario.profiles)
        budget = scenario.effective_budget()
        try:
            oracle = _oracle_verify(profiles, budget, max_states)
            observed, failure = _dispatch_injector(
                injector, server, profiles, budget, max_states, oracle, report, rng
            )
            report.feasible = oracle[0]
            if failure:
                report.verdict = "divergence"
                report.divergence = failure
            elif observed is not None:
                mismatch = _compare(oracle, observed)
                if mismatch:
                    report.verdict = "divergence"
                    report.divergence = mismatch
        finally:
            clear_packed_caches()
        report.elapsed_seconds = time.perf_counter() - began
        if injector == "kill-pool-worker" and report.fired:
            recovery["pool_workers_killed"] += 1
        if injector == "checkpoint-resume" and report.fired:
            recovery["checkpoint_resumes"] += 1
        result.reports.append(report)
        if progress is not None:
            progress(report)
    with ServiceClient(server.socket_path, timeout=30.0) as probe:
        after = probe.stats()["stats"]
    result.server_window = {
        key: int(after[key]) - int(before.get(key, 0)) for key in after
    }
    result.recovery = recovery
    return result


def _dispatch_injector(
    injector, server, profiles, budget, max_states, oracle, report, rng
):
    """Run one injector leg; returns ``(observed_triple_or_None, failure)``.

    ``observed`` of ``None`` with no failure means the leg validated
    internally against the oracle already.
    """
    if injector == "kill-pool-worker":
        return _inject_kill_pool_worker(server, profiles, budget, max_states, report)
    if injector == "socket-drop":
        return _inject_socket_drop(server, profiles, budget, max_states, report)
    if injector == "socket-garble":
        return _inject_socket_garble(server, profiles, budget, max_states, report)
    if injector == "store-truncate":
        return _inject_store_truncate(server, profiles, budget, max_states, report)
    if injector == "store-flood":
        return _inject_store_flood(
            server, profiles, budget, max_states, report, rng
        )
    if injector == "checkpoint-resume":
        return _inject_checkpoint_resume(profiles, budget, max_states, oracle, report)
    raise ValueError(f"unknown injector {injector!r}")
