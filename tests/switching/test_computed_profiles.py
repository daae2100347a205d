"""Golden pin of every recomputed case-study profile.

``data/computed_profiles.json`` holds, for C1-C6, the output of
:func:`repro.casestudy.computed_profiles` as produced by the per-pattern
closed-loop simulation the dwell analysis used before the settling grid:
``J*``, ``Tw^*``, ``J_T``, ``J_E``, ``r`` and every dwell-table entry.  The
values come from the code, not from the paper's Table 1 (C2-C5 differ from
the printed table in places), so any change to the analysis that moves a
single settling sample fails here.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro.casestudy import computed_profiles

GOLDEN = json.loads((Path(__file__).parent / "data" / "computed_profiles.json").read_text())


@pytest.fixture(scope="module")
def profiles():
    return computed_profiles()


def test_golden_covers_all_applications(profiles):
    assert sorted(profiles) == sorted(GOLDEN) == ["C1", "C2", "C3", "C4", "C5", "C6"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_computed_profile_matches_golden(profiles, name):
    profile = profiles[name]
    expected = GOLDEN[name]
    actual = {key: getattr(profile, key) for key in expected if key != "dwell_table"}
    actual["dwell_table"] = [asdict(entry) for entry in profile.dwell_table]
    assert actual == expected
