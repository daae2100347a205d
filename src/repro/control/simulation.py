"""Closed-loop simulation of the two communication-dependent control modes.

Mode ``MT`` (time-triggered slot): negligible sensing-to-actuation delay,
``u[k] = -K_T x[k]`` applied within the same sample (Eqs. (1)-(3)).

Mode ``ME`` (event-triggered / dynamic segment): one-sample worst-case delay,
``u[k] = -K_E [x[k]; u[k-1]]`` applied at the *next* sample (Eqs. (4)-(5)).

The simulator keeps the pair ``(x, u_prev)`` as its full state so that an
arbitrary interleaving of the two modes — exactly what the switching
strategy produces — can be simulated sample by sample without any loss of
information at the mode boundaries.

Both modes are linear in the augmented state ``z = [x; u_pending]``, so the
simulator precomputes one closed-loop matrix per mode and evaluates whole
runs of same-mode samples with a single batched matrix-power product (the
powers are cached and grown on demand).  ``simulate_batch`` extends this to
many initial states sharing one mode schedule.  The dwell analysis does not
simulate pattern by pattern: its settling grid
(:meth:`repro.switching.dwell.DwellTimeAnalyzer.settling_grid`) applies the
same cached power stacks directly, with ``simulate_mode_sequence`` as the
reference semantics it must reproduce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .._validation import as_matrix
from ..exceptions import DimensionError, SimulationError
from .lti import DiscreteLTISystem
from .metrics import DEFAULT_SETTLING_THRESHOLD, SettlingTimeResult, settling_time


@dataclass(frozen=True)
class ClosedLoopTrajectory:
    """Result of a closed-loop simulation.

    Attributes:
        states: plant states, shape ``(N + 1, n)`` (includes the initial state).
        inputs: applied control inputs, shape ``(N, m)``.
        outputs: plant outputs, shape ``(N + 1, p)``.
        modes: the mode label used at each of the ``N`` simulated samples
            ("TT" or "ET"); empty for single-mode simulations run through
            :func:`simulate_direct_feedback` / :func:`simulate_delayed_feedback`.
        sampling_period: the plant sampling period.
    """

    states: np.ndarray
    inputs: np.ndarray
    outputs: np.ndarray
    modes: tuple
    sampling_period: float

    @property
    def samples(self) -> int:
        """Number of simulated steps ``N``."""
        return self.inputs.shape[0]

    def time_axis(self) -> np.ndarray:
        """Time instants of the state/output samples."""
        return np.arange(self.states.shape[0]) * self.sampling_period

    def settling(
        self,
        threshold: float = DEFAULT_SETTLING_THRESHOLD,
        reference: float = 0.0,
    ) -> SettlingTimeResult:
        """Settling time of the output trajectory."""
        return settling_time(
            self.outputs,
            threshold=threshold,
            sampling_period=self.sampling_period,
            reference=reference,
        )


class ClosedLoopSimulator:
    """Sample-by-sample simulator of the bi-modal closed loop.

    Args:
        plant: the delay-free plant model.
        tt_gain: feedback gain ``K_T`` of shape (m, n) used in mode ``MT``.
        et_gain: feedback gain ``K_E`` of shape (m, n + m) used in mode ``ME``.
    """

    TT = "TT"
    ET = "ET"

    def __init__(
        self,
        plant: DiscreteLTISystem,
        tt_gain: Optional[np.ndarray] = None,
        et_gain: Optional[np.ndarray] = None,
    ) -> None:
        self.plant = plant
        n = plant.state_dimension
        m = plant.input_dimension
        self._tt_gain = None
        self._et_gain = None
        if tt_gain is not None:
            tt_gain = as_matrix(tt_gain, "K_T")
            if tt_gain.shape != (m, n):
                raise DimensionError(f"K_T must be {m}x{n}, got {tt_gain.shape}")
            self._tt_gain = tt_gain
        if et_gain is not None:
            et_gain = as_matrix(et_gain, "K_E")
            if et_gain.shape != (m, n + m):
                raise DimensionError(f"K_E must be {m}x{n + m}, got {et_gain.shape}")
            self._et_gain = et_gain
        # Per-mode closed-loop matrices over z = [x; u_pending] and their
        # cached power stacks (grown on demand by _powers).
        self._mode_matrix: Dict[str, np.ndarray] = {}
        self._power_cache: Dict[str, np.ndarray] = {}

    @property
    def tt_gain(self) -> np.ndarray:
        """The time-triggered mode gain ``K_T``."""
        if self._tt_gain is None:
            raise SimulationError("no TT gain configured for this simulator")
        return self._tt_gain

    @property
    def et_gain(self) -> np.ndarray:
        """The event-triggered mode gain ``K_E``."""
        if self._et_gain is None:
            raise SimulationError("no ET gain configured for this simulator")
        return self._et_gain

    # -------------------------------------------------------------- stepping
    def step(
        self,
        state: np.ndarray,
        previous_input: np.ndarray,
        mode: str,
    ) -> tuple:
        """Advance the closed loop by one sample in the given mode.

        Args:
            state: current plant state ``x[k]``.
            previous_input: control input applied during the previous sample
                (``u[k-1]``), needed by the delayed mode.
            mode: ``"TT"`` or ``"ET"``.

        Returns:
            ``(next_state, applied_input)`` where ``applied_input`` is the
            control input acting on the plant during sample ``k``.
        """
        x = np.asarray(state, dtype=float).reshape(self.plant.state_dimension)
        u_prev = np.asarray(previous_input, dtype=float).reshape(self.plant.input_dimension)
        if mode == self.TT:
            applied = -(self.tt_gain @ x)
        elif mode == self.ET:
            # The freshly computed command only reaches the actuator one
            # sample later; during sample k the plant still sees u[k-1].
            applied = u_prev
        else:
            raise SimulationError(f"unknown mode {mode!r}; expected 'TT' or 'ET'")
        next_state = self.plant.phi @ x + self.plant.gamma @ applied
        return next_state, applied

    def compute_command(self, state: np.ndarray, previous_input: np.ndarray, mode: str) -> np.ndarray:
        """The command computed (not necessarily applied) at the current sample."""
        x = np.asarray(state, dtype=float).reshape(self.plant.state_dimension)
        u_prev = np.asarray(previous_input, dtype=float).reshape(self.plant.input_dimension)
        if mode == self.TT:
            return -(self.tt_gain @ x)
        if mode == self.ET:
            z = np.concatenate([x, u_prev])
            return -(self.et_gain @ z)
        raise SimulationError(f"unknown mode {mode!r}; expected 'TT' or 'ET'")

    # --------------------------------------------------- closed-loop algebra
    def closed_loop_matrix(self, mode: str) -> np.ndarray:
        """The one-step closed-loop matrix of a mode over ``z = [x; u_pending]``.

        ``z[k+1] = A_mode z[k]`` where the pending component is the command
        the actuator will hold during the next event-triggered sample:

        * TT: ``x' = (Phi - Gamma K_T) x``, ``pending' = -K_T x``.
        * ET: ``x' = Phi x + Gamma pending``, ``pending' = -K_E [x; pending]``.
        """
        cached = self._mode_matrix.get(mode)
        if cached is not None:
            return cached
        n = self.plant.state_dimension
        m = self.plant.input_dimension
        matrix = np.zeros((n + m, n + m))
        if mode == self.TT:
            gain = self.tt_gain
            matrix[:n, :n] = self.plant.phi - self.plant.gamma @ gain
            matrix[n:, :n] = -gain
        elif mode == self.ET:
            gain = self.et_gain
            matrix[:n, :n] = self.plant.phi
            matrix[:n, n:] = self.plant.gamma
            matrix[n:, :] = -gain
        else:
            raise SimulationError(f"unknown mode {mode!r}; expected 'TT' or 'ET'")
        self._mode_matrix[mode] = matrix
        return matrix

    def _powers(self, mode: str, length: int) -> np.ndarray:
        """Cached stack ``[I, A, A^2, ..., A^length]`` of a mode matrix."""
        cached = self._power_cache.get(mode)
        if cached is None or cached.shape[0] <= length:
            matrix = self.closed_loop_matrix(mode)
            size = matrix.shape[0]
            target = max(length + 1, 2 * (cached.shape[0] if cached is not None else 8))
            powers = np.empty((target, size, size))
            if cached is None:
                powers[0] = np.eye(size)
                start = 1
            else:
                start = cached.shape[0]
                powers[:start] = cached
            for j in range(start, target):
                powers[j] = matrix @ powers[j - 1]
            self._power_cache[mode] = powers
            cached = powers
        return cached

    @staticmethod
    def _runs(mode_sequence: Sequence[str]) -> List[Tuple[str, int]]:
        """Collapse a per-sample mode schedule into ``(mode, length)`` runs."""
        runs: List[Tuple[str, int]] = []
        for k, mode in enumerate(mode_sequence):
            if mode != ClosedLoopSimulator.TT and mode != ClosedLoopSimulator.ET:
                raise SimulationError(f"unknown mode {mode!r} at sample {k}")
            if runs and runs[-1][0] == mode:
                runs[-1] = (mode, runs[-1][1] + 1)
            else:
                runs.append((mode, 1))
        return runs

    # ------------------------------------------------------------ simulation
    def simulate_mode_sequence(
        self,
        initial_state: np.ndarray,
        mode_sequence: Sequence[str],
        initial_previous_input: Optional[np.ndarray] = None,
    ) -> ClosedLoopTrajectory:
        """Simulate the closed loop under an explicit per-sample mode schedule.

        The semantics follow the paper: in a TT sample the fresh command
        ``-K_T x[k]`` acts immediately; in an ET sample the command computed
        at the previous sample (``-K_E z[k-1]`` or the last TT command) acts,
        and a new ET command is computed for the next sample.

        Each run of same-mode samples is evaluated in one batched
        matrix-power product instead of a per-sample Python loop.

        Args:
            initial_state: plant state at sample 0 (the disturbed state).
            mode_sequence: sequence of ``"TT"`` / ``"ET"`` labels, one per sample.
            initial_previous_input: command pending from before sample 0
                (defaults to zero — the steady-state command).

        Returns:
            The full :class:`ClosedLoopTrajectory`.
        """
        n = self.plant.state_dimension
        m = self.plant.input_dimension
        x = np.asarray(initial_state, dtype=float).reshape(n)
        pending = (
            np.zeros(m)
            if initial_previous_input is None
            else np.asarray(initial_previous_input, dtype=float).reshape(m)
        )
        steps = len(mode_sequence)
        states = np.empty((steps + 1, n))
        inputs = np.empty((steps, m))
        states[0] = x

        z = np.concatenate([x, pending])
        k = 0
        for mode, length in self._runs(mode_sequence):
            trajectory = self._powers(mode, length)[1 : length + 1] @ z
            # The input applied during sample k depends on z *before* the
            # step: the fresh TT command, or the held pending ET command.
            z_before = np.empty((length, n + m))
            z_before[0] = z
            z_before[1:] = trajectory[:-1]
            if mode == self.TT:
                inputs[k : k + length] = -(z_before[:, :n] @ self.tt_gain.T)
            else:
                inputs[k : k + length] = z_before[:, n:]
            states[k + 1 : k + 1 + length] = trajectory[:, :n]
            z = trajectory[-1]
            k += length

        outputs = states @ self.plant.c.T
        return ClosedLoopTrajectory(
            states=states,
            inputs=inputs,
            outputs=outputs,
            modes=tuple(mode_sequence),
            sampling_period=self.plant.sampling_period,
        )

    def simulate_batch(
        self,
        initial_states: Sequence[np.ndarray],
        mode_sequences,
        initial_previous_inputs: Optional[Sequence[np.ndarray]] = None,
    ) -> List[ClosedLoopTrajectory]:
        """Simulate many closed-loop instances in one shot.

        Args:
            initial_states: one plant state per instance, shape ``(B, n)``
                (or any sequence of state vectors).
            mode_sequences: either one shared per-sample mode schedule applied
                to every instance (fully vectorized across the batch), or a
                sequence of ``B`` per-instance schedules.
            initial_previous_inputs: optional per-instance pending commands.

        Returns:
            One :class:`ClosedLoopTrajectory` per instance, in order.
        """
        batch = [
            np.asarray(state, dtype=float).reshape(self.plant.state_dimension)
            for state in initial_states
        ]
        pendings = (
            [np.zeros(self.plant.input_dimension) for _ in batch]
            if initial_previous_inputs is None
            else [
                np.asarray(u, dtype=float).reshape(self.plant.input_dimension)
                for u in initial_previous_inputs
            ]
        )
        if len(pendings) != len(batch):
            raise SimulationError(
                f"{len(batch)} initial states but {len(pendings)} previous inputs"
            )

        shared = bool(mode_sequences) and isinstance(mode_sequences[0], str)
        if not shared:
            sequences = list(mode_sequences)
            if len(sequences) != len(batch):
                raise SimulationError(
                    f"{len(batch)} initial states but {len(sequences)} mode sequences"
                )
            return [
                self.simulate_mode_sequence(state, modes, pending)
                for state, modes, pending in zip(batch, sequences, pendings)
            ]

        mode_sequence = list(mode_sequences)
        n = self.plant.state_dimension
        m = self.plant.input_dimension
        steps = len(mode_sequence)
        size = len(batch)
        states = np.empty((size, steps + 1, n))
        inputs = np.empty((size, steps, m))

        z = np.empty((size, n + m))
        for b, (x, pending) in enumerate(zip(batch, pendings)):
            states[b, 0] = x
            z[b, :n] = x
            z[b, n:] = pending

        k = 0
        for mode, length in self._runs(mode_sequence):
            powers = self._powers(mode, length)[1 : length + 1]
            # (L, s, s) @ (B, s) -> (L, B, s): every instance advances through
            # the same run of same-mode samples in one product.
            trajectory = np.einsum("lij,bj->lbi", powers, z)
            z_before = np.empty((length, size, n + m))
            z_before[0] = z
            z_before[1:] = trajectory[:-1]
            if mode == self.TT:
                applied = -(z_before[:, :, :n] @ self.tt_gain.T)
            else:
                applied = z_before[:, :, n:]
            inputs[:, k : k + length] = applied.transpose(1, 0, 2)
            states[:, k + 1 : k + 1 + length] = trajectory[:, :, :n].transpose(1, 0, 2)
            z = trajectory[-1]
            k += length

        modes = tuple(mode_sequence)
        period = self.plant.sampling_period
        c_t = self.plant.c.T
        return [
            ClosedLoopTrajectory(
                states=states[b],
                inputs=inputs[b],
                outputs=states[b] @ c_t,
                modes=modes,
                sampling_period=period,
            )
            for b in range(size)
        ]

    def simulate_tt_only(self, initial_state: np.ndarray, steps: int) -> ClosedLoopTrajectory:
        """Simulate with a dedicated TT slot for every sample."""
        return self.simulate_mode_sequence(initial_state, [self.TT] * steps)

    def simulate_et_only(self, initial_state: np.ndarray, steps: int) -> ClosedLoopTrajectory:
        """Simulate using only the event-triggered resource."""
        return self.simulate_mode_sequence(initial_state, [self.ET] * steps)


def simulate_direct_feedback(
    plant: DiscreteLTISystem,
    gain: np.ndarray,
    initial_state: np.ndarray,
    steps: int,
) -> ClosedLoopTrajectory:
    """Simulate the delay-free closed loop ``x[k+1] = (Phi - Gamma K) x[k]``."""
    simulator = ClosedLoopSimulator(plant, tt_gain=gain)
    return simulator.simulate_tt_only(initial_state, steps)


def simulate_delayed_feedback(
    plant: DiscreteLTISystem,
    gain: np.ndarray,
    initial_state: np.ndarray,
    steps: int,
) -> ClosedLoopTrajectory:
    """Simulate the one-sample-delay closed loop of Eqs. (4)-(5)."""
    simulator = ClosedLoopSimulator(plant, et_gain=gain)
    return simulator.simulate_et_only(initial_state, steps)
