"""Host-speed probe.

A fixed piece of work, independent of the program under test, whose run
time tracks how fast this host executes the program's kind of work right
now.  CPU-bound samples are bracketed by probes and reported as
``raw * PROBE_REF_MS / mean(probe before, probe after)``, so a host that
is slower for a while (a busy neighbour on a shared core, a lower clock)
moves the raw figure and the probe together and leaves the normalised
figure in place.  The probe runs only while no program work is in flight.

The probe mixes the two kinds of work the workloads do: interpreter-bound
Python (dict updates in a loop) and memory-bound array work (a random
gather over an array larger than the caches, and a sort).  A pure-Python
probe alone over-corrects: on a 2-vCPU shared host its time swung 1.85x
between quiet and busy moments while the array-heavy verification samples
swung about 1.2-1.35x and a memory-bound gather about 1.15x.
"""

from __future__ import annotations

import time

import numpy as np

#: Probe time on a quiet moment of the reference host (2-vCPU shared
#: x86-64 VM at 2.1 GHz), in ms.  A constant, so normalised figures from
#: different runs and commits are comparable; it sets their scale only.
PROBE_REF_MS = 8.0

_ROUNDS = 3
_PY_STEPS = 12_000
_rng = np.random.default_rng(20190602)
_TABLE = _rng.integers(0, 1 << 62, size=1 << 21, dtype=np.uint64)  # 16 MiB
_GATHER = _rng.integers(0, _TABLE.size, size=1 << 20)
_KEYS = _rng.integers(0, 1 << 40, size=1 << 17, dtype=np.uint64)


def _python_work(steps: int) -> int:
    table = {}
    acc = 7
    for _ in range(steps):
        acc = (acc * 1_103_515_245 + 12_345) & 0x7FFFFFFF
        key = acc & 1023
        table[key] = table.get(key, 0) + (acc >> 16)
    return acc + len(table)


def _array_work() -> int:
    return int(_TABLE[_GATHER].sum()) ^ int(np.sort(_KEYS)[-1])


def probe_ms() -> float:
    """Run time of the fixed probe, in ms (the fastest of a few short
    rounds, so a single preemption does not decide the figure)."""
    best = float("inf")
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        _python_work(_PY_STEPS)
        _array_work()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def bracketed(function, *args, **kwargs):
    """Run ``function`` between two probes.

    Returns ``(result, raw_seconds, normalised_seconds, probe_ms)`` where
    ``probe_ms`` is the mean of the two bracketing probes.
    """
    before = probe_ms()
    start = time.perf_counter()
    result = function(*args, **kwargs)
    raw = time.perf_counter() - start
    probe = (before + probe_ms()) / 2.0
    return result, raw, raw * PROBE_REF_MS / probe, probe
