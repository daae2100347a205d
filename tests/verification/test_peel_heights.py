"""Property test of the out-degree peel behind bounded response and liveness.

:func:`~repro.verification.spec_eval._peel_heights` must give, on any CSR
graph, what the layered definition gives: ``Avoid_0`` is the avoiding set,
``Avoid_j`` its states with a successor in ``Avoid_{j-1}``, and a state's
height is the last layer holding it (``-1`` outside the avoiding set, the
cap once it reaches ``Avoid_cap``).  The random graphs hold cycles,
self-loops, duplicate edges to one successor and empty rows.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.verification.spec_eval import _peel_heights, _reverse_csr


@st.composite
def graphs(draw):
    count = draw(st.integers(1, 9))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, count - 1), max_size=4), min_size=count, max_size=count
        )
    )
    avoiding = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    return rows, np.array(avoiding, dtype=bool)


def _layered_heights(rows, avoiding, cap):
    layer = [bool(flag) for flag in avoiding]
    heights = [0 if flag else -1 for flag in layer]
    for depth in range(1, cap + 1):
        layer = [avoiding[s] and any(layer[t] for t in rows[s]) for s in range(len(rows))]
        for state, flag in enumerate(layer):
            if flag:
                heights[state] = depth
    return heights


def _csr(rows):
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indptr[1:] = np.cumsum([len(row) for row in rows])
    successor_ids = np.array([t for row in rows for t in row], dtype=np.int32)
    return indptr, successor_ids


@settings(max_examples=300, deadline=None)
@given(graph=graphs(), bound=st.integers(2, 12))
def test_peel_matches_the_layered_definition(graph, bound):
    rows, avoiding = graph
    indptr, successor_ids = _csr(rows)
    predecessors = _reverse_csr(indptr, successor_ids)
    # 0, 1, a bound and uncapped (no finite height reaches the state count).
    for cap in (0, 1, bound, len(rows)):
        heights = _peel_heights(indptr, successor_ids, predecessors, avoiding, cap)
        assert heights.tolist() == _layered_heights(rows, avoiding, cap), cap


def test_reverse_csr_keeps_edge_multiplicity():
    indptr, successor_ids = _csr([[1, 1, 0], [], [1]])
    reverse_indptr, sources = _reverse_csr(indptr, successor_ids)
    assert reverse_indptr.tolist() == [0, 1, 4, 4]
    assert sources.tolist() == [0, 0, 0, 2]
