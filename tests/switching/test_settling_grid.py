"""The closed-form settling grid against per-pattern closed-loop simulation.

``DwellTimeAnalyzer.settling_grid`` settles every dwell of one wait time from
shared power-stack products; the reference semantics stay those of
``ClosedLoopSimulator.simulate_mode_sequence`` on the expanded mode schedule
of each ``(wait, dwell)`` pattern over its normalised horizon.  Every
comparison below is exact.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.casestudy import (
    DISTURBED_STATE,
    all_applications,
    dc_servo_plant,
    et_gain_stable,
    et_gain_unstable,
    tt_gain,
)
from repro.switching.dwell import DwellAnalysisConfig, DwellTimeAnalyzer
from repro.switching.modes import SwitchingPattern


def reference_settling(analyzer, wait, dwell, horizon):
    """Settling sample of one pattern by explicit closed-loop simulation."""
    modes = SwitchingPattern(wait, dwell).to_mode_sequence(horizon)
    trajectory = analyzer.simulator.simulate_mode_sequence(analyzer.disturbed_state, modes)
    return trajectory.settling(threshold=analyzer.config.settling_threshold).samples


def assert_grid_matches_reference(analyzer, wait, max_dwell, horizon):
    grid = analyzer.settling_grid(wait, max_dwell, horizon)
    assert len(grid) == max_dwell + 1
    expected = [
        reference_settling(analyzer, wait, dwell, max(horizon, wait + dwell + 50))
        for dwell in range(max_dwell + 1)
    ]
    assert grid == expected
    return grid


def application_analyzer(name, config=None):
    app = all_applications()[name]
    analyzer = DwellTimeAnalyzer(app.plant, app.kt, app.ke, app.disturbed_state, config)
    return app, analyzer


def servo_analyzer(et_gain, state=DISTURBED_STATE):
    return DwellTimeAnalyzer(dc_servo_plant(), tt_gain(), et_gain, state)


@pytest.mark.parametrize("name", ["C1", "C2", "C3", "C4", "C5", "C6"])
def test_every_analyzed_key_matches_reference(name):
    app, analyzer = application_analyzer(name)
    analyzer.analyze(app.requirement_samples)
    horizon = analyzer._horizon(app.requirement_samples)
    by_wait = defaultdict(dict)
    for (wait, dwell, key_horizon), samples in analyzer._settling_cache.items():
        assert key_horizon == max(horizon, wait + dwell + 50)
        by_wait[wait][dwell] = samples
    assert sorted(by_wait) == list(range(len(by_wait)))
    for wait, cached in by_wait.items():
        assert sorted(cached) == list(range(analyzer.config.max_dwell + 1))
        grid = assert_grid_matches_reference(analyzer, wait, analyzer.config.max_dwell, horizon)
        assert grid == [cached[dwell] for dwell in sorted(cached)]


@pytest.mark.parametrize(
    "et_gain, max_wait, horizon",
    [
        (et_gain_stable, 40, 140),
        (et_gain_unstable, 40, 140),
        (et_gain_stable, 20, 140),
        (et_gain_unstable, 20, 140),
    ],
)
def test_figure3_grid_matches_reference(et_gain, max_wait, horizon):
    analyzer = servo_analyzer(et_gain())
    waits, dwells = range(max_wait + 1), range(11)
    surface = analyzer.settling_surface(waits, dwells, horizon)
    expected = np.full(surface.shape, np.nan)
    for wait in waits:
        for dwell in dwells:
            samples = reference_settling(analyzer, wait, dwell, max(horizon, wait + dwell + 50))
            if samples is not None:
                expected[wait, dwell] = samples * analyzer.plant.sampling_period
    assert np.array_equal(surface, expected, equal_nan=True)


def test_horizon_too_short_to_settle_is_none():
    # A disturbance this large is still outside the band 50 samples on.
    analyzer = servo_analyzer(et_gain_stable(), DISTURBED_STATE * 1e9)
    grid = assert_grid_matches_reference(analyzer, wait=0, max_dwell=5, horizon=10)
    assert grid[0] is None
    assert analyzer.settling_samples(0, 0, 10) is None


def test_horizon_ending_at_the_settling_sample():
    # Settling at sample J needs sample J inside the horizon: one sample
    # shorter and the pattern has not settled yet.
    analyzer = servo_analyzer(et_gain_stable(), DISTURBED_STATE * 1e9)
    settle = analyzer.settling_grid(0, 0, 400)[0]
    assert settle is not None and settle > 51
    grids = [
        assert_grid_matches_reference(analyzer, 0, 0, horizon)[0]
        for horizon in range(settle - 2, settle + 3)
    ]
    assert grids == [None, None, settle, settle, settle]
    # The same boundary reached through the per-dwell bump alone.
    bumped = [
        assert_grid_matches_reference(analyzer, wait, 0, 1)[0]
        for wait in range(settle - 52, settle - 48)
    ]
    assert None in bumped and any(samples is not None for samples in bumped)


def test_per_dwell_horizon_bump():
    analyzer = servo_analyzer(et_gain_stable())
    wait, max_dwell, horizon = 10, 40, 80
    ends = [max(horizon, wait + dwell + 50) for dwell in range(max_dwell + 1)]
    assert ends[0] == horizon and ends[-1] > horizon
    grid = assert_grid_matches_reference(analyzer, wait, max_dwell, horizon)
    assert all(samples is not None for samples in grid)
    for dwell, samples in enumerate(grid):
        assert analyzer.settling_samples(wait, dwell, horizon) == samples
        assert analyzer._settling_cache[wait, dwell, ends[dwell]] == samples


def test_wait_granularity_two_analysis():
    app, analyzer = application_analyzer("C1", DwellAnalysisConfig(wait_granularity=2))
    result = analyzer.analyze(app.requirement_samples)
    assert [entry.wait for entry in result.entries] == list(range(0, result.max_wait + 1, 2))
    waits = {wait for wait, _, _ in analyzer._settling_cache}
    assert waits and all(wait % 2 == 0 for wait in waits)
    for (wait, dwell, horizon), samples in analyzer._settling_cache.items():
        assert samples == reference_settling(analyzer, wait, dwell, horizon)


@settings(max_examples=40, deadline=None)
@given(
    wait=st.integers(min_value=0, max_value=40),
    max_dwell=st.integers(min_value=0, max_value=25),
    horizon=st.integers(min_value=1, max_value=200),
    stable=st.booleans(),
)
def test_random_grids_match_reference(wait, max_dwell, horizon, stable):
    analyzer = servo_analyzer(et_gain_stable() if stable else et_gain_unstable())
    assert_grid_matches_reference(analyzer, wait, max_dwell, horizon)
