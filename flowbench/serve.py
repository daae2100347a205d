"""The ``serve`` workload: open-loop mixed traffic against a fresh service.

One client process (this one) drives a freshly spawned
``VerificationService`` on an empty graph store over its Unix socket,
with two connections.  The server answers each connection's requests in
order, so the client pipelines requests on schedule and times each from
when it was *due*: a stall delays every later request and shows in their
latency.  A sending thread keeps the schedule; one reader thread per
connection timestamps the answers.

Where the traffic comes from:

* Connection A, interactive: the repository's load model
  (``scripts/service_loadgen.py``): zipf-popular requests with exponent
  1.1 (:func:`repro.robustness.chaos.zipf_weights`, the loadgen's default
  skew) over a fixed pool, case-study subsets first.  The pool holds 24
  slot configurations (S1, S2 and 2- and 3-subsets of the case study),
  more than the 16-entry in-process ``packed_system_for`` LRU, so the
  popular head is answered from memory and the tail from the
  ``GraphStore``.  The loadgen sends ``admit`` only; the ``verify`` and
  ``check`` shares of :data:`MIX` are assumptions of this benchmark.
* Connection B, background, at :data:`BACKGROUND_QPS` (an assumption):
  ``verify`` of never-seen configurations drawn from
  :func:`repro.robustness.chaos.synthetic_config_pool`, the pool the
  campaign's ``--service`` mode and the chaos store-flood draw from (pool
  compile and store publish: writes beside reads), and, every
  :data:`FIRST_FIT_EVERY`-th request (an assumption), the paper's
  dimensioning question: ``first_fit`` over the six case-study plants.  A
  fixed question, not a seeded subset: which subset came up moved the pool
  worker's peak memory by 15% between seeds.  Kept apart from A so that a
  compile does not stall the interactive queue behind it.

Phases: a warm-up (not timed) compiles the whole pool and the first-fit
trials and replays A's mix for a while.  Then A runs at :data:`FIXED_QPS`
with B beside it, in :data:`FIXED_ROUNDS` rounds.  Its ``latency_ms`` is
the geometric mean of two parts: ``p50_ms``, the median over rounds of
each round's p50, and ``cold_ms``, the median latency of B's compile-tier
answers.  The traced run then sweeps A alone up
:data:`LADDER` until a step misses ``p99 <= 10 ms`` or does not drain;
the highest rate met (``client.max_qps``) and the fixed-rate p99
(``client.p99_ms``) are diagnostics only, because on a shared 2-vCPU host
their run-to-run spread exceeded any usable bound.  The seed draws the
request sequence and the never-seen configurations; the pool and its
popularity ranking are fixed.  Every timed request is compared, after the
timed window, with an in-process ``verify_slot_sharing`` / first-fit
oracle; one left unanswered counts as failed.

Every timed round and step is bracketed by host probes (run while the
service is idle) and its figures are normalised like the CPU-bound
workloads' (:mod:`probe`): the service's own work is CPU-bound, and on the
reference host the normalised p50 spread about half the raw one.  The
service and its pool workers run on the last CPU, the client on the first.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque

import layers
from probe import PROBE_REF_MS, probe_ms
from server_main import children_of
from tracing import load_span_files

HERE = os.path.dirname(os.path.abspath(__file__))

FIXED_QPS = 300
#: Rates of the traced run's sweep (a step lasts ``STEP_SHARE * seconds``).
LADDER = (400, 500, 625, 780, 975, 1220, 1525, 1900, 2380, 2980)
STEP_SHARE = 0.1
P99_LIMIT_MS = 10.0
#: The loadgen's popularity skew.
ZIPF_EXPONENT = 1.1
#: Pool size: above the 16-entry ``packed_system_for`` LRU, so the tail is
#: answered from the store.
POOL_SIZE = 24
#: Operation mix of connection A (assumed: the loadgen sends ``admit``
#: only, and nothing in the repository weighs ``verify`` or ``check``).
MIX = (("admit", 0.7), ("verify", 0.2), ("check", 0.1))
#: Connection B (assumed): requests per second; every FIRST_FIT_EVERY-th
#: is a first-fit run, the others verify never-seen configurations.  Ten a
#: second give about 240 compile-tier answers in a 25 s run, enough for
#: their median to repeat from run to run.
BACKGROUND_QPS = 10.0
FIRST_FIT_EVERY = 32
#: The fixed-rate phase lasts ``--seconds``, in this many rounds.
FIXED_ROUNDS = 16
WARMUP_REPLAY_S = 2.0
SETUP_REPEATS = 5

CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, SERVER_CPU = CPUS[0], CPUS[-1]

CASE_STUDY = ("C1", "C2", "C3", "C4", "C5", "C6")
S1 = ("C1", "C5", "C4", "C3")
S2 = ("C6", "C2")


# ------------------------------------------------------------------- inputs
def pool_names():
    """The fixed configuration pool, most popular first."""
    pool = [S1, S2]
    for size in (2, 3):
        for combo in itertools.combinations(CASE_STUDY, size):
            if set(combo) != set(S2):
                pool.append(combo)
    return pool[:POOL_SIZE]


def client_inputs():
    """Imports, profiles and pre-encoded request lines of the pool."""
    from repro.casestudy import paper_profiles
    from repro.service.protocol import encode_message, profiles_to_wire
    from repro.verification import standard_spec_bundle

    profiles = paper_profiles()
    pool = []
    for names in pool_names():
        members = [profiles[name] for name in names]
        wire = profiles_to_wire(members)
        bundle = standard_spec_bundle(members)
        specs = [bundle[0], bundle[1]]  # no-miss, grant-response(first app)
        pool.append({
            "names": names,
            "profiles": members,
            "specs": specs,
            "admit": encode_message({"op": "admit", "profiles": wire}),
            "verify": encode_message({"op": "verify", "profiles": wire}),
            "check": encode_message({
                "op": "check", "profiles": wire,
                "specs": [spec.to_dict() for spec in specs],
            }),
        })
    first_fit = encode_message({
        "op": "first_fit",
        "profiles": profiles_to_wire([profiles[name] for name in CASE_STUDY]),
    })
    return {"profiles": profiles, "pool": pool, "first_fit": first_fit}


class Traffic:
    """Seeded request draws."""

    def __init__(self, seed: int, inputs, background: int) -> None:
        from repro.robustness.chaos import synthetic_config_pool, zipf_weights

        self.rng = random.Random(seed)
        self.inputs = inputs
        self.weights = zipf_weights(len(inputs["pool"]), ZIPF_EXPONENT)
        self.ops = [op for op, _ in MIX]
        self.op_weights = [share for _, share in MIX]
        #: Never-seen configurations, one per background request at most
        #: (distinct names, so distinct fingerprints).
        self.synthetic = synthetic_config_pool(background, seed)
        self.synthetic_used = 0
        #: Background requests drawn so far (every FIRST_FIT_EVERY-th one is
        #: a first-fit run).
        self.background_count = 0

    def interactive(self):
        index = self.rng.choices(range(len(self.weights)), self.weights)[0]
        op = self.rng.choices(self.ops, self.op_weights)[0]
        return self.inputs["pool"][index][op], (op, index)

    def background(self):
        self.background_count += 1
        if self.background_count % FIRST_FIT_EVERY == 0:
            return self.inputs["first_fit"], ("first_fit", 0)
        from repro.service.protocol import encode_message, profiles_to_wire

        index = self.synthetic_used
        self.synthetic_used += 1
        config = self.synthetic[index]
        line = encode_message({"op": "verify", "profiles": profiles_to_wire(config)})
        return line, ("cold", index)


# ------------------------------------------------------------------- client
class Stream:
    """One connection: requests go out in order, answers come back in order.

    A reader thread timestamps every answer as it arrives, so the sending
    thread's schedule never waits on response handling.
    """

    def __init__(self, socket_path: str) -> None:
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.connect(socket_path)
        self.pending = deque()
        self.done = []
        self.reader = threading.Thread(target=self._read, daemon=True)
        self.reader.start()

    def _read(self) -> None:
        with self.sock.makefile("rb") as answers:
            for line in answers:
                received = time.perf_counter()
                meta, due, sent = self.pending.popleft()
                self.done.append((meta, due, sent, received, line))

    def send(self, line: bytes, meta, due: float) -> None:
        self.pending.append((meta, due, time.perf_counter()))
        self.sock.sendall(line)

    def close(self) -> None:
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.reader.join(timeout=30.0)
        self.sock.close()


def play(schedule) -> None:
    """Send ``(due, stream, line, meta)`` entries when due (open loop)."""
    for due, stream, line, meta in schedule:
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        stream.send(line, meta, due)


def drain(streams, timeout: float) -> bool:
    """Wait until every request sent has its answer."""
    deadline = time.perf_counter() + timeout
    while any(stream.pending for stream in streams):
        if time.perf_counter() > deadline:
            return False
        time.sleep(0.002)
    return True


def request(stream: Stream, line: bytes, timeout: float = 120.0):
    """One request/response outside the timed window."""
    stream.send(line, ("untimed", None), time.perf_counter())
    if not drain([stream], timeout):
        raise TimeoutError("no answer from the service")
    return json.loads(stream.done[-1][4])


def background_requests(seconds: float) -> int:
    return max(1, int(seconds * BACKGROUND_QPS))


def schedule_phase(traffic: Traffic, a: Stream, b: Stream, start: float,
                   seconds: float, qps: float, phase: str):
    entries = []
    count = int(seconds * qps)
    for i in range(count):
        line, meta = traffic.interactive()
        entries.append((start + i / qps, a, line, (phase,) + meta))
    if b is not None:
        for i in range(background_requests(seconds)):
            line, meta = traffic.background()
            entries.append((start + (i + 0.5) / BACKGROUND_QPS, b, line, (phase,) + meta))
    entries.sort(key=lambda entry: entry[0])
    return entries


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (``inf`` entries are failed requests, and
    so is an empty list)."""
    if not values:
        return float("inf")
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, int(-(-fraction * len(ordered) // 1)) - 1))
    return ordered[rank]


def _latencies(done, phase: str, kinds=("admit", "verify", "check")):
    """Latencies (ms, from due) of a phase's answers; failures are ``inf``."""
    result = []
    for meta, due, _sent, received, line in done:
        if meta[0] != phase or meta[1] not in kinds:
            continue
        ok = b'"ok":true' in line
        result.append((received - due) * 1e3 if ok else float("inf"))
    return result


# ------------------------------------------------------------------- server
def spawn_server(work: str, spans_dir):
    socket_path = os.path.relpath(os.path.join(work, "s.sock"))
    store = os.path.join(work, "store")
    shutil.rmtree(store, ignore_errors=True)
    command = [sys.executable, os.path.join(HERE, "server_main.py"),
               "--socket", socket_path, "--store", store]
    if spans_dir:
        command += ["--spans", spans_dir]
    start = time.perf_counter()
    with open(os.path.join(work, "server.log"), "ab") as log:
        process = subprocess.Popen(command, stdout=log, stderr=log)
    # The service (and the pool workers it forks) runs on the last CPU, this
    # client on the first: fixed placement, so runs do not differ by where
    # the scheduler happened to put the three processes.
    os.sched_setaffinity(process.pid, {SERVER_CPU})
    return process, socket_path, start


def connect(socket_path: str, process, timeout: float = 60.0) -> Stream:
    """Open a connection once the server listens."""
    deadline = time.perf_counter() + timeout
    while True:
        if process.poll() is not None:
            raise RuntimeError("the service exited during start-up")
        try:
            return Stream(socket_path)
        except (FileNotFoundError, ConnectionRefusedError):
            if time.perf_counter() > deadline:
                raise
            time.sleep(0.01)


def stop_server(process, timeout: float = 30.0) -> None:
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait(timeout=timeout)


def vm_hwm_mb(pid) -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def measure_setup(work: str) -> float:
    """Median over fresh servers of spawn -> first answered ping."""
    from repro.service.protocol import encode_message

    times = []
    for _ in range(SETUP_REPEATS):
        process, socket_path, start = spawn_server(work, None)
        stream = connect(socket_path, process)
        try:
            request(stream, encode_message({"op": "ping"}))
            times.append(time.perf_counter() - start)
            request(stream, encode_message({"op": "shutdown"}))
        finally:
            stream.close()
            stop_server(process)
    return statistics.median(times)


# -------------------------------------------------------------------- oracle
def check_answers(done, unanswered, inputs, traffic: Traffic, broken: bool = False):
    """Compare every timed answer with an in-process oracle.

    Every timed request sent counts as attempted: ``done`` holds the
    answered ones, ``unanswered`` the metadata of those still pending when
    the connections closed, each a failure.  ``broken`` shifts the
    expected state count of S1 by one (self-test).  Returns
    ``(attempted, failed, problems)``.
    """
    from repro.dimensioning.first_fit import dimension_with_verification
    from repro.verification import instance_budgets, verify_slot_sharing

    cache = {}

    def oracle(kind, index):
        key = ("first_fit" if kind == "first_fit" else "cold" if kind == "cold" else "pool",
               index)
        if key not in cache:
            if key[0] == "first_fit":
                outcome = dimension_with_verification(
                    {name: inputs["profiles"][name] for name in CASE_STUDY}
                )
                cache[key] = [list(slot) for slot in outcome.partition()]
            else:
                if key[0] == "cold":
                    profiles, specs = traffic.synthetic[index], None
                else:
                    profiles = inputs["pool"][index]["profiles"]
                    specs = inputs["pool"][index]["specs"]
                cache[key] = verify_slot_sharing(
                    profiles, instance_budget=instance_budgets(profiles),
                    with_counterexample=False, specs=specs,
                )
        return cache[key]

    timed = [meta for meta in unanswered if meta[0] != "untimed"]
    attempted = failed = len(timed)
    problems = [f"{meta[1]}[{meta[2]}]: no answer" for meta in timed]
    for meta, _due, _sent, _received, line in done:
        if meta[0] == "untimed":
            continue
        attempted += 1
        kind, index = meta[1], meta[2]
        answer = json.loads(line)
        expected = oracle(kind, index) if answer.get("ok") else None
        if expected is None:
            problem = f"error {answer.get('error')!r}"
        elif kind == "first_fit":
            problem = None if answer["partition"] == expected else (
                f"partition {answer['partition']}"
            )
        elif kind == "admit":
            problem = None if (answer["admitted"], answer["truncated"]) == (
                expected.feasible, False
            ) else f"admitted={answer['admitted']}"
        elif kind == "check":
            holds = [verdict["holds"] for verdict in answer["verdicts"]]
            problem = None if holds == [
                verdict.holds for verdict in expected.spec_verdicts
            ] else f"verdicts {holds}"
        else:
            result = answer["result"]
            states = expected.explored_states + (1 if broken and index == 0 else 0)
            problem = None
            if (result["feasible"], result["explored_states"]) != (expected.feasible, states):
                problem = f"{result['feasible']}/{result['explored_states']} states"
            elif kind == "cold" and answer.get("tier") != "cold":
                problem = f"tier {answer.get('tier')} for a never-seen config"
        if problem:
            failed += 1
            problems.append(f"{kind}[{index}]: {problem}")
    return attempted, failed, problems


# ---------------------------------------------------------------------- run
class Probes:
    """Host probes bracketing each timed phase (taken while the service is
    idle)."""

    def __init__(self) -> None:
        self.phases = {}

    def bracket(self, name: str, run):
        before = probe_ms()
        result = run()
        self.phases[name] = (before, probe_ms())
        return result

    def values(self):
        return [value for pair in self.phases.values() for value in pair]

    def factor(self, name: str) -> float:
        """``PROBE_REF_MS / bracketing probe mean`` of a phase: multiply a
        time by it (divide a rate by it) to get reference-host units."""
        before, after = self.phases[name]
        return PROBE_REF_MS / ((before + after) / 2.0)


def _drive(args, inputs, work, spans_dir):
    from repro.service.protocol import encode_message

    seconds = float(args.seconds)
    round_seconds = seconds / FIXED_ROUNDS
    os.sched_setaffinity(0, {CLIENT_CPU})
    setup_s = measure_setup(work)
    process, socket_path, _start = spawn_server(work, spans_dir)
    streams = []
    probes = Probes()
    try:
        a = connect(socket_path, process)
        streams.append(a)
        b = connect(socket_path, process)
        streams.append(b)
        traffic = Traffic(args.seed, inputs, FIXED_ROUNDS * background_requests(round_seconds))
        # Warm-up: compile the pool and the first-fit trials, then replay
        # the interactive mix so the memory/store split settles.
        for entry in inputs["pool"]:
            request(a, entry["admit"])
        request(b, inputs["first_fit"])
        play(schedule_phase(traffic, a, None, time.perf_counter() + 0.05,
                            WARMUP_REPLAY_S, FIXED_QPS, "warmup"))
        drain(streams, 60.0)
        before = request(a, encode_message({"op": "stats"}))["stats"]

        def phase(name, qps, length, background):
            """One timed phase between host probes, after a collection;
            returns whether every answer arrived."""
            gc.collect()
            gc.disable()
            try:
                return probes.bracket(name, lambda: (
                    play(schedule_phase(traffic, a, b if background else None,
                                        time.perf_counter() + 0.05, length, qps, name)),
                    drain(streams, 60.0),
                )[1])
            finally:
                gc.enable()

        # Fixed rate, in rounds.  Traced runs trace every other round: the
        # p50 difference between the two kinds is the tracing overhead.
        windows = []
        for index in range(FIXED_ROUNDS):
            traced = bool(spans_dir) and index % 2 == 1
            if spans_dir:
                os.kill(process.pid, signal.SIGUSR1 if traced else signal.SIGUSR2)
            begin = time.perf_counter()
            phase(f"fixed{index}", FIXED_QPS, round_seconds, True)
            if traced:
                windows.append((f"fixed{index}", begin, time.perf_counter()))
        if spans_dir:
            os.kill(process.pid, signal.SIGUSR2)
        after = request(a, encode_message({"op": "stats"}))["stats"]
        rss = [vm_hwm_mb(pid) for pid in [process.pid] + children_of(process.pid)]

        # The traced run sweeps A alone up the ladder until a step misses
        # the limit or does not drain.
        max_qps = 0.0
        for qps in LADDER if spans_dir else ():
            name = f"step{qps}"
            if not phase(name, qps, STEP_SHARE * seconds, False):
                break
            if percentile(_latencies(a.done, name), 0.99) * probes.factor(name) > P99_LIMIT_MS:
                break
            max_qps = qps / probes.factor(name)
        request(a, encode_message({"op": "shutdown"}))
    finally:
        for stream in streams:
            stream.close()
        stop_server(process)
    return {
        "setup_s": setup_s, "done": a.done + b.done,
        "unanswered": [entry[0] for stream in streams for entry in stream.pending],
        "before": before, "after": after, "max_qps": max_qps, "rss": rss,
        "windows": windows, "server_pid": process.pid, "traffic": traffic,
        "probes": probes,
    }


def run_serve(args, anchors, work_root):
    """Run the workload; returns ``(attempted, failed, metrics, detail, setup_s)``."""
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="serve-", dir=work_root)
    spans_dir = os.path.join(work, "spans") if args.trace else None
    if spans_dir:
        os.makedirs(spans_dir)
    try:
        inputs = client_inputs()
        run = _drive(args, inputs, work, spans_dir)
        attempted, failed, problems = check_answers(
            run["done"], run["unanswered"], inputs, run["traffic"], anchors.broken
        )
        probes = run["probes"]
        names = [f"fixed{index}" for index in range(FIXED_ROUNDS)]
        rounds = {name: _latencies(run["done"], name) for name in names}
        raw_p50 = [percentile(rounds[name], 0.50) for name in names]
        raw_p99 = [percentile(rounds[name], 0.99) for name in names]
        cold_raw = [
            (meta[0], (received - due) * 1e3)
            for meta, due, _sent, received, line in run["done"]
            if meta[0] in rounds and meta[1] == "cold" and b'"tier":"cold"' in line
        ]
        cold = [value * probes.factor(name) for name, value in cold_raw]
        detail = {
            "errors": problems[:10],
            "probes_ms": probes.values(),
            "round_p50_ms_raw": raw_p50,
            "round_p99_ms_raw": raw_p99,
            "fixed_requests": sum(len(values) for values in rounds.values()),
            "cold_requests": len(cold),
            "cold_ms_raw": statistics.median(value for _name, value in cold_raw),
            "peak_rss_mb_server_workers": run["rss"],
        }
        p99 = statistics.median(
            value * probes.factor(name) for value, name in zip(raw_p99, names)
        )
        detail["p99_ms"] = p99
        detail["max_qps"] = run["max_qps"]
        if args.trace:
            metrics = serve_layers(run, spans_dir)
            metrics["client.p99_ms"] = (p99, None)
            metrics["client.max_qps"] = (detail["max_qps"], None)
        else:
            # Each round's p50 is normalised by the probes bracketing it and
            # the figure is the median over rounds, so one round caught by a
            # neighbour's busy spell (or by the service's own occasional
            # pause) does not decide it.
            detail["parts_ms"] = {
                "p50_ms": statistics.median(
                    value * probes.factor(name) for value, name in zip(raw_p50, names)
                ),
                "cold_ms": statistics.median(cold),
            }
            metrics = {"peak_rss_mb": (sum(run["rss"]), "MiB")}
        return attempted, failed, metrics, detail, run["setup_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)


def serve_layers(run, spans_dir):
    """Per-layer values of the traced rounds of the fixed-rate phase.

    A sample is one traced round: the layers' busy time and counts are
    summed over the server and its pool workers, and the median over the
    rounds is reported.
    """
    windows = run["windows"]
    files = [os.path.join(spans_dir, name) for name in sorted(os.listdir(spans_dir))]
    per_round = [dict() for _ in windows]
    for path, spans in zip(files, load_span_files(files)):
        worker = not path.endswith(f"spans-{run['server_pid']}.json")
        for span in spans:
            span[4] = next(
                (index for index, (_name, begin, end) in enumerate(windows)
                 if begin <= span[1] < end),
                None,
            )
        rename = {"exhaustive.verify": "pool.verify"} if worker else None
        for index in range(len(windows)):
            per_round[index] = layers.add_sums(
                per_round[index], layers.layer_sums(spans, index, rename)
            )
    values = layers.median_values([layers.layer_values(sums) for sums in per_round])
    metrics = {name: (value, None) for name, value in values.items()}
    before, after = run["before"], run["after"]
    delta = {key: after[key] - before[key] for key in after}
    answered = delta["memory_hits"] + delta["store_hits"] + delta["compiles"] + delta["coalesced"]
    metrics["service.memory_hit_share"] = (delta["memory_hits"] / answered if answered else 0.0, None)
    metrics["service.store_hit_share"] = (delta["store_hits"] / answered if answered else 0.0, None)
    for key in ("compiles", "coalesced", "errors"):
        metrics[f"service.{key}"] = (float(delta[key]), None)
    fixed = [entry for entry in run["done"] if entry[0][0].startswith("fixed")]
    metrics["client.lateness_ms"] = (
        statistics.median((sent - due) * 1e3 for _meta, due, sent, _r, _l in fixed), None
    )
    metrics["host.probe_ms"] = (statistics.median(run["probes"].values()), None)
    traced = {name for name, _begin, _end in windows}
    p50 = {True: [], False: []}
    for index in range(FIXED_ROUNDS):
        name = f"fixed{index}"
        latencies = _latencies(run["done"], name)
        p50[name in traced].append(percentile(latencies, 0.5) * run["probes"].factor(name))
    overhead = statistics.median(p50[True]) / statistics.median(p50[False]) - 1.0
    metrics["trace.overhead_pct"] = (overhead * 100.0, None)
    return metrics
