"""README's "Environment knobs" table lists exactly the knobs the code reads."""

from __future__ import annotations

import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[2]
KNOB = re.compile(r"REPRO_[A-Z_]+")


def _readme_table_knobs():
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("Environment knobs:")
    knobs = []
    for line in lines[start + 1 :]:
        if knobs and not line.startswith("|"):
            break
        match = re.match(r"\| `(REPRO_[A-Z_]+)` \|", line)
        if match:
            knobs.append(match.group(1))
    return knobs


def _source_knobs():
    found = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        found.update(KNOB.findall(path.read_text(encoding="utf-8")))
    return found


def test_readme_knob_table_matches_the_source():
    table = _readme_table_knobs()
    assert len(table) == len(set(table)), "duplicate rows in the knob table"
    assert set(table) == _source_knobs()
