"""Fault-injection robustness campaign over the verification stack.

The subsystem has three layers:

* :mod:`repro.robustness.generator` — a seeded, fully deterministic
  scenario generator: any scenario replays from ``(seed, index)`` alone.
* :mod:`repro.robustness.faults` — composable config-level fault models
  (dropped slots, slot jitter, burst arrivals, transient application
  drop/restart) that derive *valid* configurations every exploration
  engine can explore unchanged.
* :mod:`repro.robustness.campaign` — the campaign runner: sweeps a corpus,
  cross-checks the exploration engines against each other, shrinks any
  divergent scenario to a minimal reproducer and persists it as a
  regression fixture.
* :mod:`repro.robustness.chaos` — the service chaos harness: replays the
  corpus as live traffic against a running verification server while
  seeded injectors kill workers, corrupt sockets and stores, and
  interrupt checkpointed compiles — every answer compared against a
  fault-free oracle.
"""

from .campaign import (
    DEFAULT_ENGINES,
    CampaignResult,
    ScenarioReport,
    run_campaign,
    shrink_profiles,
)
from .chaos import (
    CHAOS_INJECTORS,
    ChaosReport,
    ChaosResult,
    InProcessServer,
    SpawnedServer,
    run_chaos,
)
from .faults import (
    FAULT_KINDS,
    AppDrop,
    AppRestart,
    BurstArrivals,
    DroppedSlots,
    SlotJitter,
    apply_faults,
    fault_from_dict,
    fault_to_dict,
)
from .generator import Scenario, ScenarioGenerator
