"""The ``REPRO_*`` environment knobs: README's "Environment knobs" table
lists exactly the knobs the code reads, and a malformed integer knob falls
back instead of crashing its reader."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.verification import kernel, spec_eval, store

ROOT = pathlib.Path(__file__).resolve().parents[2]
KNOB = re.compile(r"REPRO_[A-Z_]+")

#: Every knob the code reads, in README-table order.
KNOBS = (
    "REPRO_VERIFICATION_ENGINE",
    "REPRO_GRAPH_DIR",
    "REPRO_GRAPH_STORE_BYTES",
    "REPRO_CHECKPOINT_LEVELS",
    "REPRO_CHECKPOINT_BYTES",
    "REPRO_SPEC_CACHE",
    "REPRO_SERVICE_SOCKET",
)


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
    assert tuple(table) == KNOBS
    assert _source_knobs() == set(KNOBS)



def _checkpoint_policy():
    return kernel.checkpoint_policy_from_env(sink=None)


#: Every integer knob: (name, reader, value read when the knob is malformed).
INTEGER_KNOBS = [
    (spec_eval.SPEC_CACHE_ENV_VAR, spec_eval._spec_cache_capacity, 256),
    (store.STORE_BYTES_ENV_VAR, store._store_budget_bytes, None),
    (kernel.CHECKPOINT_LEVELS_ENV_VAR, _checkpoint_policy, None),
    (kernel.CHECKPOINT_BYTES_ENV_VAR, _checkpoint_policy, None),
]


@pytest.mark.filterwarnings("ignore:ignoring non-numeric:RuntimeWarning")
@pytest.mark.parametrize("raw", ["inf", "-inf", "1e400", "nan", "lots"])
@pytest.mark.parametrize(
    "name, read, fallback", INTEGER_KNOBS, ids=[knob[0] for knob in INTEGER_KNOBS]
)
def test_malformed_integer_knob_falls_back(monkeypatch, name, read, fallback, raw):
    """Non-numeric and non-finite values read as unset instead of raising."""
    monkeypatch.setenv(name, raw)
    assert read() == fallback

def test_env_int_accepts_float_notation(monkeypatch):
    from repro._validation import env_int

    monkeypatch.setenv("REPRO_TEST_KNOB", " 2e6 ")
    assert env_int("REPRO_TEST_KNOB") == 2_000_000
    monkeypatch.setenv("REPRO_TEST_KNOB", "inf")
    messages = []
    assert env_int("REPRO_TEST_KNOB", messages.append) is None
    assert messages == ["ignoring non-numeric REPRO_TEST_KNOB='inf'"]
