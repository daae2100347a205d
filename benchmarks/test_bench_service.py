"""Verification-service benchmarks (group ``service``).

The service PR's contract: a long-running admission server whose hot path
replays frozen compiled graphs inline (target: >= 1,000 sustained warm
queries/s on one client connection) and whose cold path single-flights —
a burst of N concurrent requests for one unseen fingerprint runs exactly
one compile, the other N-1 coalesce onto it.

Both benches run a real server (in-process event-loop thread, private
tempdir socket + graph store) and speak the real JSON-lines protocol
through :class:`~repro.service.ServiceClient`, so the timed path includes
the full parse/dispatch/replay/serialize round trip.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import subprocess
import sys
import threading
import time

import pytest

from _bench_utils import print_block
from repro.casestudy import paper_profiles
from repro.service import ServiceClient, VerificationService
from repro.service.protocol import profiles_to_wire
from repro.switching.profile import SwitchingProfile

#: The hot-path floor the PR commits to (queries/s on one warm connection).
WARM_QPS_FLOOR = 1_000


@contextlib.contextmanager
def _running_server(root):
    socket_path = os.path.join(str(root), "repro.sock")
    service = VerificationService(
        socket_path, store_dir=os.path.join(str(root), "store"), workers=1
    )
    thread = threading.Thread(target=service.run, daemon=True)
    thread.start()
    for _ in range(500):
        if os.path.exists(socket_path):
            break
        time.sleep(0.01)
    else:
        raise RuntimeError("service socket never appeared")
    try:
        yield service
    finally:
        with contextlib.suppress(Exception):
            with ServiceClient(socket_path, timeout=10.0) as client:
                client.shutdown()
        thread.join(timeout=30)


_synthetic_ids = itertools.count()


def _unseen_config():
    """A config no store has ever seen: paper slot S2 plus a fresh app."""
    profiles = paper_profiles()
    index = next(_synthetic_ids)
    synthetic = SwitchingProfile.from_arrays(
        name=f"B{index}",
        requirement_samples=3 + index % 3,
        min_inter_arrival=8,
        min_dwell=[1, 2],
        max_dwell=[2, 3],
    )
    return [profiles["C6"], profiles["C2"], synthetic]


def _warm_admission_child(root):
    """Body of the fresh interpreter that measures warm admissions.

    A private server thread and one client connection: after the priming
    admit it prints ``ready``, then times one batch of admits per line read
    from stdin (the line holds the batch size) and prints the seconds; at
    end of input it prints the server's counters as JSON.
    """
    profiles = paper_profiles()
    config = [profiles["C6"], profiles["C2"]]  # the paper's slot S2
    with _running_server(root) as service:
        with ServiceClient(service.socket_path) as client:
            assert client.admit(config)  # prime: one cold compile
            print("ready", flush=True)
            for line in sys.stdin:
                start = time.perf_counter()
                for _ in range(int(line)):
                    client.admit(config)
                print(time.perf_counter() - start, flush=True)
            window = dict(service.stats)
    print(json.dumps({key: window[key] for key in ("memory_hits", "compiles")}))


@pytest.mark.benchmark(group="service")
def test_bench_service_warm_admission_qps(benchmark, tmp_path):
    """Warm-path admission throughput over one client connection.

    The server and the client run in a fresh interpreter, so the reading
    does not depend on what earlier tests left in this process.
    """
    batch = 500
    rates = []
    code = (
        f"import sys; sys.path.insert(0, {os.path.dirname(__file__)!r}); "
        f"import test_bench_service as bench; bench._warm_admission_child({str(tmp_path)!r})"
    )
    with subprocess.Popen(
        [sys.executable, "-c", code],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)),
    ) as child:
        try:
            assert child.stdout.readline().strip() == "ready"

            def run():
                child.stdin.write(f"{batch}\n")
                child.stdin.flush()
                rates.append(batch / float(child.stdout.readline()))

            benchmark.pedantic(run, iterations=1, rounds=3)
            child.stdin.close()
            window = json.loads(child.stdout.readline())
        finally:
            if not child.stdin.closed:  # the measurement failed part-way
                child.kill()
    assert child.returncode == 0

    best = max(rates)
    print_block(
        "service — warm admission queries/s (one connection, slot S2)",
        [
            f"best round: {best:,.0f} queries/s (floor {WARM_QPS_FLOOR:,})",
            f"memory hits {window['memory_hits']:,}, compiles {window['compiles']}",
        ],
    )
    assert best >= WARM_QPS_FLOOR
    assert window["compiles"] == 1  # everything after the prime replayed warm


@pytest.mark.benchmark(group="service")
def test_bench_service_cold_single_flight_burst(benchmark, tmp_path):
    """A burst of concurrent cold requests for one fingerprint: one compile."""
    fan_out = 8

    with _running_server(tmp_path) as service:
        with ServiceClient(service.socket_path) as client:

            def fresh_burst():
                wire = profiles_to_wire(_unseen_config())
                return (
                    [{"op": "admit", "profiles": wire} for _ in range(fan_out)],
                ), {}

            def run(requests):
                responses = client.batch(requests)
                assert all(response["ok"] for response in responses)
                return responses

            benchmark.pedantic(run, setup=fresh_burst, iterations=1, rounds=3)
            window = dict(service.stats)

    print_block(
        "service — cold single-flight burst (fan-out 8, fresh fingerprints)",
        [
            f"compiles {window['compiles']} for 3 bursts of {fan_out} requests",
            f"coalesced {window['coalesced']:,} (expected {3 * (fan_out - 1)})",
        ],
    )
    # One compile per burst; every other request in the burst coalesced.
    assert window["compiles"] == 3
    assert window["coalesced"] == 3 * (fan_out - 1)
    assert window["errors"] == 0
