"""Start the verification service for the ``serve`` workload.

Usage::

    python3 flowbench/server_main.py --socket PATH --store DIR [--spans DIR]

Without ``--spans`` this is the plain service.  With it, the layer wrappers
of :mod:`layers` are installed before the service starts, and the server
and its forked pool workers record spans between a ``SIGUSR1`` and the
next ``SIGUSR2`` (so one run measures the traced and the untraced
service); the server passes both signals on to its workers.  Each process
writes its own ``spans-<pid>.json`` once, when it exits.
"""

from __future__ import annotations

import argparse
import functools
import multiprocessing.util
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _traced_job(tracer, job, spans_dir):
    """A pool job recorded as a ``pool.job`` span while tracing is on."""

    @functools.wraps(job)
    def run(payload):
        if tracer.pid != os.getpid():
            # First job in a freshly forked worker: drop the spans the
            # worker inherited from the server (keeping its on/off state)
            # and write the worker's own when it exits.
            enabled = tracer.enabled
            tracer.__init__()
            tracer.enabled = enabled
            tracer.pid = os.getpid()
            path = os.path.join(spans_dir, f"spans-{tracer.pid}.json")
            multiprocessing.util.Finalize(None, tracer.dump, args=(path,), exitpriority=0)
        if not tracer.enabled:
            return job(payload)
        index = tracer.begin("pool.job")
        try:
            return job(payload)
        finally:
            tracer.end(index)

    return run


def children_of(pid: int):
    """Pids of a process's children (of the server: its pool workers)."""
    try:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="utf-8") as handle:
            return [int(field) for field in handle.read().split()]
    except OSError:
        return []


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    from repro.service import VerificationService
    from repro.service import server

    tracer = None
    if args.spans:
        import layers
        from tracing import Tracer, install

        tracer = Tracer()
        tracer.enabled = False
        tracer.pid = os.getpid()
        install(tracer, layers.library_targets() + layers.server_targets())
        for name in ("_verify_job", "_first_fit_job"):
            setattr(server, name, _traced_job(tracer, getattr(server, name), args.spans))

        server_pid = os.getpid()

        def switch(signum, _frame):
            tracer.enabled = signum == signal.SIGUSR1
            if os.getpid() == server_pid:
                for pid in children_of(server_pid):
                    try:
                        os.kill(pid, signum)
                    except ProcessLookupError:
                        pass  # a worker that has just exited

        signal.signal(signal.SIGUSR1, switch)
        signal.signal(signal.SIGUSR2, switch)

    service = VerificationService(args.socket, store_dir=args.store)
    service.run()
    if tracer is not None:
        tracer.dump(os.path.join(args.spans, f"spans-{os.getpid()}.json"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
