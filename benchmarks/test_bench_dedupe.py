"""Fused dedupe–intern benchmarks (group ``dedupe``).

The per-level set work — deduping the successor multiset and interning the
genuinely new states — bounded cold exploration after PR 4 (the
``np.unique`` void-view sort plus a second probe pass were ~60% of cold
wall-clock on slot S1).  :meth:`PackedStateTable.intern_dedup` fuses both
into one pass over the open-addressing table; these benchmarks pin its
throughput on the two layouts that matter:

* single-word states (the ≤64-bit instances: every case-study slot the
  dimensioning flow verifies, e.g. slot S1 at 62 bits with budgets) —
  radix grouping on the raw 64-bit word,
* two-word states (65- to 128-bit instances, e.g. {C2, C3, C4, C6} with
  budgets at 65 bits) — the fused dedupe-inside-the-probe-loop path that
  replaced the void-view sort.

Each benchmark replays a realistic BFS-level stream (duplicate-laden
batches, ~1/3 new keys per batch, table growing across batches) and
cross-checks the fused pass id-for-id against the historical
``np.unique`` + ``intern`` pipeline before timing.
"""

from __future__ import annotations

import numpy as np
import pytest

from _bench_utils import print_block
from repro.verification.kernel import PackedStateTable, as_void, void_to_words

#: Batches per round and rows per batch of the synthetic level stream.
BATCHES = 24
BATCH_ROWS = 1 << 15


def _level_stream(words: int, seed: int):
    """Duplicate-laden per-level batches over a growing key universe."""
    rng = np.random.default_rng(seed)
    batches = []
    universe = np.unique(
        as_void(rng.integers(0, 2**63, size=(BATCHES * BATCH_ROWS, words), dtype=np.uint64))
    )
    universe = void_to_words(universe, words)
    horizon = BATCH_ROWS
    for _ in range(BATCHES):
        # Draw from the prefix seen so far plus a fresh slab: roughly one
        # third of each batch's distinct keys are new, the rest re-visits
        # and intra-batch duplicates — the shape of a real BFS level.
        picks = rng.integers(0, horizon, size=BATCH_ROWS)
        batches.append(universe[picks])
        horizon = min(horizon + BATCH_ROWS // 3, universe.shape[0])
    return batches


def _reference_ids(batches, words):
    table = PackedStateTable(words)
    out = []
    for batch in batches:
        unique_values, _, inverse = np.unique(
            as_void(batch), return_index=True, return_inverse=True
        )
        unique_ids, _ = table.intern(void_to_words(unique_values, words))
        out.append(unique_ids[inverse])
    return out


@pytest.mark.benchmark(group="dedupe")
@pytest.mark.parametrize("words", [1, 2], ids=["single-word", "two-word"])
def test_bench_intern_dedup_throughput(benchmark, words):
    """Fused dedupe–intern throughput on a synthetic BFS-level stream."""
    batches = _level_stream(words, seed=11 * words)
    reference = _reference_ids(batches, words)

    def run():
        table = PackedStateTable(words)
        last = None
        for batch in batches:
            last = table.intern_dedup(batch)
        return table, last

    table, last = benchmark.pedantic(run, iterations=1, rounds=3, warmup_rounds=1)
    # Correctness anchor: the timed pass is id-for-id the old pipeline.
    assert (last[0] == reference[-1]).all()
    total_rows = BATCHES * BATCH_ROWS
    mean = benchmark.stats.stats.mean
    print_block(
        f"intern_dedup — {words}-word level stream",
        [
            f"{total_rows:,} rows in {BATCHES} batches, "
            f"{table.size:,} distinct keys",
            f"{total_rows / mean / 1e6:.2f} M rows/s "
            f"({table.size / mean / 1e6:.2f} M new keys/s)",
        ],
    )
