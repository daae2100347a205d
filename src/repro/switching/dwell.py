"""Dwell-time analysis for the bi-modal switching strategy (paper Sec. 3).

For an application disturbed at sample 0 the switching strategy keeps the
controller in the event-triggered mode ``ME`` for ``Tw`` samples (the wait
for the TT slot), then in the time-triggered mode ``MT`` for ``Tdw`` samples
(the dwell), and finally returns to ``ME``.  The analysis in this module
answers, exhaustively over the (Tw, Tdw) grid, the three questions the
paper's verification layer needs:

* ``Tdw^-(Tw)``  — the *minimum* dwell time that still meets the settling
  requirement ``J <= J*`` for a given wait time;
* ``Tdw^+(Tw)``  — the *maximum useful* dwell time, beyond which additional
  TT samples do not improve the settling time any further;
* ``Tw^*``       — the *maximum admissible* wait time beyond which no dwell
  time can meet the requirement.

These quantities are exactly the timing abstraction (Fig. 4 / Table 1) that
feeds the timed-automata verification and the slot arbiter.

The settling samples of all dwells of one wait time come from one closed-form
settling grid (:meth:`DwellTimeAnalyzer.settling_grid`): products of the
simulator's cached per-mode power stacks, no per-pattern simulation.  The
reference semantics stay those of
:meth:`~repro.control.simulation.ClosedLoopSimulator.simulate_mode_sequence`
on the expanded pattern (:meth:`DwellTimeAnalyzer.simulate_pattern`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..control.lti import DiscreteLTISystem
from ..control.metrics import DEFAULT_SETTLING_THRESHOLD
from ..control.simulation import ClosedLoopSimulator, ClosedLoopTrajectory
from ..exceptions import ProfileError, SimulationError
from .modes import SwitchingPattern
from .profile import DwellTableEntry, SwitchingProfile


@dataclass(frozen=True)
class DwellAnalysisConfig:
    """Configuration of the dwell-time search.

    Attributes:
        settling_threshold: the output band defining "settled" (paper: 0.02).
        max_dwell: largest dwell time explored for each wait time.
        max_wait: hard upper bound on the explored wait times (a safety net;
            the search already stops at the first infeasible wait time).
        horizon_samples: closed-loop simulation horizon.  Must be long enough
            for the slowest trajectory of interest to settle; the default of
            ``None`` derives it from the requirement (``6 x J*`` samples,
            at least 150).
        wait_granularity: step between explored wait times (paper Sec. 3
            notes a granularity/memory trade-off; 1 reproduces the tables).
    """

    settling_threshold: float = DEFAULT_SETTLING_THRESHOLD
    max_dwell: int = 60
    max_wait: int = 200
    horizon_samples: Optional[int] = None
    wait_granularity: int = 1

    def __post_init__(self) -> None:
        if self.settling_threshold <= 0:
            raise SimulationError("settling threshold must be positive")
        if self.max_dwell <= 0 or self.max_wait <= 0:
            raise SimulationError("max_dwell and max_wait must be positive")
        if self.wait_granularity <= 0:
            raise SimulationError("wait_granularity must be positive")


class DwellTimeAnalyzer:
    """Exhaustive (Tw, Tdw) exploration of the switching closed loop.

    Args:
        plant: the delay-free plant model.
        tt_gain: mode-``MT`` gain ``K_T``.
        et_gain: mode-``ME`` gain ``K_E`` (augmented, shape (m, n + m)).
        disturbed_state: plant state right after a disturbance (the paper's
            motivational example uses ``[1, 0, 0]``).
        config: search configuration.
    """

    def __init__(
        self,
        plant: DiscreteLTISystem,
        tt_gain: np.ndarray,
        et_gain: np.ndarray,
        disturbed_state: Sequence[float],
        config: Optional[DwellAnalysisConfig] = None,
    ) -> None:
        self.plant = plant
        self.simulator = ClosedLoopSimulator(plant, tt_gain=tt_gain, et_gain=et_gain)
        self.disturbed_state = np.asarray(disturbed_state, dtype=float).reshape(
            plant.state_dimension
        )
        self.config = config or DwellAnalysisConfig()
        self._settling_cache: Dict[Tuple[int, int, int], Optional[int]] = {}

    # ----------------------------------------------------------- primitives
    def _horizon(self, requirement_samples: int) -> int:
        if self.config.horizon_samples is not None:
            return max(self.config.horizon_samples, requirement_samples + 2)
        return max(150, 6 * requirement_samples)

    def simulate_pattern(self, pattern: SwitchingPattern, horizon: int) -> ClosedLoopTrajectory:
        """Simulate the closed loop for a wait/dwell pattern over ``horizon`` samples."""
        modes = pattern.to_mode_sequence(horizon)
        return self.simulator.simulate_mode_sequence(self.disturbed_state, modes)

    def settling_samples(self, wait: int, dwell: int, horizon: int) -> Optional[int]:
        """Settling time (in samples) of the ``(wait, dwell)`` pattern, or ``None``.

        ``None`` means the trajectory does not settle within the horizon.
        Results are memoised because the dwell search revisits patterns.
        """
        key = self._normalize_key(wait, dwell, horizon)
        if key not in self._settling_cache:
            self._settle_patterns([key])
        return self._settling_cache[key]

    @staticmethod
    def _normalize_key(wait: int, dwell: int, horizon: int) -> Tuple[int, int, int]:
        """Canonical cache key: the horizon always covers the pattern + margin."""
        return (wait, dwell, max(horizon, wait + dwell + 50))

    def settling_grid(self, wait: int, max_dwell: int, horizon: int) -> List[Optional[int]]:
        """Settling samples of the patterns ``(wait, 0..max_dwell)`` in closed form.

        Every pattern is ``ET^wait TT^dwell ET^rest``, so all dwells share the
        ET prefix ``E^k z0`` and the TT prefix ``T^j z_wait``, and each dwell's
        tail is the cached ET power stack applied to its post-dwell state: all
        tails come from one ``einsum``.  Row ``dwell`` of the gathered
        out-of-band matrix spans that pattern's normalised horizon
        ``max(horizon, wait + dwell + 50)``, exactly what
        :meth:`simulate_pattern` would simulate; its settling sample is the
        last out-of-band index + 1, or ``None`` when the last sample is out
        of band.
        """
        sim = self.simulator
        dwells = np.arange(max_dwell + 1)
        ends = np.maximum(horizon, wait + dwells + 50)
        tail = int(ends[0]) - wait
        z0 = np.concatenate([self.disturbed_state, np.zeros(self.plant.input_dimension)])
        et_powers = sim._powers(sim.ET, max(wait, tail))
        prefix = et_powers[: wait + 1] @ z0
        dwell_states = sim._powers(sim.TT, max_dwell)[: max_dwell + 1] @ prefix[-1]
        tails = np.einsum("lij,dj->dli", et_powers[: tail + 1], dwell_states)
        # Every distinct closed-loop state once: z_0..z_{wait-1}, the dwell
        # states z_wait..z_{wait+max_dwell}, then each dwell's tail block.
        states = np.concatenate([prefix[:wait], dwell_states, tails.reshape(-1, z0.size)])
        outputs = states[:, : self.plant.state_dimension] @ self.plant.c.T
        late = ~(np.linalg.norm(outputs, axis=1) <= self.config.settling_threshold)
        # Row d reads z_k at index k before its tail starts (k < wait + d),
        # then at (wait + max_dwell + 1) + d * (tail + 1) + (k - wait - d).
        k = np.arange(ends[-1] + 1)
        row = dwells[:, None]
        index = np.where(k < wait + row, k, max_dwell + 1 + row * tail + k)
        grid = late[index] & (k <= ends[:, None])
        last = np.where(grid.any(axis=1), grid.shape[1] - np.argmax(grid[:, ::-1], axis=1), 0)
        return [None if grid[d, ends[d]] else int(last[d]) for d in dwells]

    def _settle_patterns(self, patterns: Sequence[Tuple[int, int, int]]) -> None:
        """Fill the settling cache for a batch of ``(wait, dwell, horizon)`` triples.

        Uncached patterns are grouped by ``(wait, horizon)``; one
        :meth:`settling_grid` per group settles every dwell up to the group's
        largest and caches each result under its normalised key.
        """
        groups: Dict[Tuple[int, int], int] = {}
        for wait, dwell, horizon in patterns:
            if self._normalize_key(wait, dwell, horizon) not in self._settling_cache:
                groups[wait, horizon] = max(dwell, groups.get((wait, horizon), 0))
        for (wait, horizon), max_dwell in groups.items():
            for dwell, samples in enumerate(self.settling_grid(wait, max_dwell, horizon)):
                self._settling_cache[self._normalize_key(wait, dwell, horizon)] = samples

    def settling_seconds(self, wait: int, dwell: int, horizon: Optional[int] = None) -> Optional[float]:
        """Settling time in seconds for a ``(wait, dwell)`` pattern."""
        horizon = horizon or self._horizon(50)
        samples = self.settling_samples(wait, dwell, horizon)
        if samples is None:
            return None
        return samples * self.plant.sampling_period

    # -------------------------------------------------------- reference runs
    def tt_only_settling(self, horizon: Optional[int] = None) -> int:
        """Settling time ``J_T`` (samples) with a dedicated TT slot."""
        horizon = horizon or self._horizon(50)
        trajectory = self.simulator.simulate_tt_only(self.disturbed_state, horizon)
        result = trajectory.settling(threshold=self.config.settling_threshold)
        if not result.settled:
            raise ProfileError(
                f"plant {self.plant.name!r} does not settle in mode MT within {horizon} samples"
            )
        return int(result.samples)

    def et_only_settling(self, horizon: Optional[int] = None) -> int:
        """Settling time ``J_E`` (samples) using only the ET resource."""
        horizon = horizon or self._horizon(50)
        trajectory = self.simulator.simulate_et_only(self.disturbed_state, horizon)
        result = trajectory.settling(threshold=self.config.settling_threshold)
        if not result.settled:
            raise ProfileError(
                f"plant {self.plant.name!r} does not settle in mode ME within {horizon} samples"
            )
        return int(result.samples)

    # --------------------------------------------------------------- surface
    def settling_surface(
        self,
        wait_values: Sequence[int],
        dwell_values: Sequence[int],
        horizon: Optional[int] = None,
    ) -> np.ndarray:
        """Settling time (seconds) over a (wait, dwell) grid — the Fig. 3 surface.

        Entries that do not settle within the horizon are reported as ``nan``.
        """
        horizon_samples = horizon or self._horizon(50)
        needed = max(wait_values, default=0) + max(dwell_values, default=0)
        horizon_samples = max(horizon_samples, needed + 10)
        self._settle_patterns(
            [
                (int(wait), int(dwell), horizon_samples)
                for wait in wait_values
                for dwell in dwell_values
            ]
        )
        surface = np.full((len(wait_values), len(dwell_values)), np.nan)
        for i, wait in enumerate(wait_values):
            for j, dwell in enumerate(dwell_values):
                samples = self.settling_samples(int(wait), int(dwell), horizon_samples)
                if samples is not None:
                    surface[i, j] = samples * self.plant.sampling_period
        return surface

    # ----------------------------------------------------------------- table
    def analyze(self, requirement_samples: int) -> "DwellAnalysisResult":
        """Run the full dwell-time analysis for a settling requirement ``J*``.

        Args:
            requirement_samples: the requirement ``J*`` expressed in samples.

        Returns:
            A :class:`DwellAnalysisResult` containing ``J_T``, ``J_E``,
            ``Tw^*`` and the per-wait-time dwell table.

        Raises:
            ProfileError: when the requirement cannot be met even with a
                dedicated TT slot (``J_T > J*``) — the application then needs
                a faster controller, not a switching schedule.
        """
        if requirement_samples <= 0:
            raise ProfileError(f"requirement must be positive, got {requirement_samples}")
        horizon = self._horizon(requirement_samples)
        jt = self.tt_only_settling(horizon)
        je = self.et_only_settling(horizon)
        if jt > requirement_samples:
            raise ProfileError(
                f"plant {self.plant.name!r}: J_T = {jt} samples exceeds the requirement "
                f"J* = {requirement_samples}; no switching schedule can help"
            )

        entries: List[DwellTableEntry] = []
        wait = 0
        while wait <= self.config.max_wait:
            entry = self._analyze_wait(wait, requirement_samples, horizon)
            if entry is None:
                break
            entries.append(entry)
            wait += self.config.wait_granularity
        if not entries:
            raise ProfileError(
                f"plant {self.plant.name!r}: no feasible wait time found — "
                "even an immediate TT grant misses the requirement"
            )
        max_wait = entries[-1].wait
        return DwellAnalysisResult(
            plant_name=self.plant.name,
            requirement_samples=requirement_samples,
            tt_settling_samples=jt,
            et_settling_samples=je,
            max_wait=max_wait,
            entries=tuple(entries),
            sampling_period=self.plant.sampling_period,
            settling_threshold=self.config.settling_threshold,
        )

    def _analyze_wait(
        self,
        wait: int,
        requirement_samples: int,
        horizon: int,
    ) -> Optional[DwellTableEntry]:
        """Dwell analysis for a single wait time; ``None`` when infeasible."""
        min_dwell: Optional[int] = None
        settling_at_min: Optional[int] = None
        best_settling: Optional[int] = None

        self._settle_patterns(
            [(wait, dwell, horizon) for dwell in range(0, self.config.max_dwell + 1)]
        )
        settlings: Dict[int, Optional[int]] = {}
        for dwell in range(0, self.config.max_dwell + 1):
            samples = self.settling_samples(wait, dwell, horizon)
            settlings[dwell] = samples
            if samples is None:
                continue
            if samples <= requirement_samples and min_dwell is None and dwell > 0:
                min_dwell = dwell
                settling_at_min = samples
            if best_settling is None or samples < best_settling:
                best_settling = samples

        if min_dwell is None or best_settling is None:
            return None

        # Maximum useful dwell: smallest dwell achieving the best settling
        # time; dwelling any longer cannot improve performance further.
        max_useful_dwell = None
        for dwell in range(min_dwell, self.config.max_dwell + 1):
            if settlings.get(dwell) == best_settling:
                max_useful_dwell = dwell
                break
        if max_useful_dwell is None:
            max_useful_dwell = min_dwell

        return DwellTableEntry(
            wait=wait,
            min_dwell=min_dwell,
            max_dwell=max_useful_dwell,
            settling_at_min_dwell=settling_at_min,
            settling_at_max_dwell=best_settling,
        )

    # --------------------------------------------------------------- profile
    def build_profile(
        self,
        name: str,
        requirement_samples: int,
        min_inter_arrival: int,
    ) -> SwitchingProfile:
        """Run the analysis and package it as a :class:`SwitchingProfile`."""
        result = self.analyze(requirement_samples)
        return result.to_profile(name=name, min_inter_arrival=min_inter_arrival)


@dataclass(frozen=True)
class DwellAnalysisResult:
    """Complete output of :meth:`DwellTimeAnalyzer.analyze`.

    Attributes:
        plant_name: name of the analysed plant.
        requirement_samples: the settling requirement ``J*`` in samples.
        tt_settling_samples: ``J_T`` — settling time with a dedicated TT slot.
        et_settling_samples: ``J_E`` — settling time with ET only.
        max_wait: ``Tw^*`` — the largest wait time that still admits a
            feasible dwell time.
        entries: the dwell table, one entry per wait time ``0..Tw^*``.
        sampling_period: plant sampling period (for second conversions).
        settling_threshold: settling band used.
    """

    plant_name: str
    requirement_samples: int
    tt_settling_samples: int
    et_settling_samples: int
    max_wait: int
    entries: Tuple[DwellTableEntry, ...]
    sampling_period: float
    settling_threshold: float

    @property
    def min_dwell_array(self) -> List[int]:
        """``Tdw^-`` indexed by wait time (paper Table 1 column ``T-_dw``)."""
        return [entry.min_dwell for entry in self.entries]

    @property
    def max_dwell_array(self) -> List[int]:
        """``Tdw^+`` indexed by wait time (paper Table 1 column ``T+_dw``)."""
        return [entry.max_dwell for entry in self.entries]

    @property
    def worst_min_dwell(self) -> int:
        """``Tdw^-*`` — the largest minimum dwell over all wait times."""
        return max(self.min_dwell_array)

    def to_profile(self, name: str, min_inter_arrival: int) -> SwitchingProfile:
        """Convert the analysis result to a :class:`SwitchingProfile`."""
        return SwitchingProfile(
            name=name,
            requirement_samples=self.requirement_samples,
            max_wait=self.max_wait,
            dwell_table=self.entries,
            min_inter_arrival=min_inter_arrival,
            tt_settling_samples=self.tt_settling_samples,
            et_settling_samples=self.et_settling_samples,
            sampling_period=self.sampling_period,
        )
