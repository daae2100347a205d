"""Switching profiles: the timing abstraction handed to the verifier.

A :class:`SwitchingProfile` captures everything the scheduler and the
model-checking layer need to know about one control application:

* the settling requirement ``J*`` (samples),
* the maximum admissible wait ``Tw^*``,
* the dwell table ``Tw -> (Tdw^-, Tdw^+)``,
* the minimum disturbance inter-arrival time ``r``, and
* the reference settling times ``J_T`` and ``J_E``.

The control dynamics themselves are *not* part of the profile — that is the
paper's key abstraction step: once ``Tw^*``, ``Tdw^-`` and ``Tdw^+`` are
known, the verification problem is purely a timing problem.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ProfileError


@dataclass(frozen=True)
class DwellTableEntry:
    """Dwell-time bounds for a single wait time.

    Attributes:
        wait: the wait time ``Tw`` (samples spent in ET after the disturbance).
        min_dwell: ``Tdw^-(Tw)`` — minimum dwell meeting the requirement.
        max_dwell: ``Tdw^+(Tw)`` — maximum useful dwell (no further gain beyond).
        settling_at_min_dwell: settling time (samples) when dwelling exactly
            ``min_dwell`` samples; ``None`` when not recorded.
        settling_at_max_dwell: settling time (samples) when dwelling
            ``max_dwell`` samples (the best achievable for this wait).
    """

    wait: int
    min_dwell: int
    max_dwell: int
    settling_at_min_dwell: Optional[int] = None
    settling_at_max_dwell: Optional[int] = None

    def __post_init__(self) -> None:
        if self.wait < 0:
            raise ProfileError(f"wait time must be non-negative, got {self.wait}")
        if self.min_dwell <= 0:
            raise ProfileError(f"minimum dwell must be positive, got {self.min_dwell}")
        if self.max_dwell < self.min_dwell:
            raise ProfileError(
                f"maximum useful dwell {self.max_dwell} is smaller than the minimum dwell "
                f"{self.min_dwell} for wait {self.wait}"
            )


@dataclass(frozen=True)
class SwitchingProfile:
    """The per-application timing abstraction used by scheduling and verification.

    Attributes:
        name: application identifier (e.g. ``"C1"``).
        requirement_samples: settling requirement ``J*`` in samples.
        max_wait: maximum admissible wait time ``Tw^*`` in samples.
        dwell_table: entries for every wait time ``0, 1, ..., max_wait``.
        min_inter_arrival: minimum disturbance inter-arrival time ``r`` (samples).
        tt_settling_samples: ``J_T`` (samples), settling with a dedicated slot.
        et_settling_samples: ``J_E`` (samples), settling with ET only.
        sampling_period: sampling period in seconds (for reporting).
    """

    name: str
    requirement_samples: int
    max_wait: int
    dwell_table: Tuple[DwellTableEntry, ...]
    min_inter_arrival: int
    tt_settling_samples: Optional[int] = None
    et_settling_samples: Optional[int] = None
    sampling_period: float = 0.02

    def __post_init__(self) -> None:
        entries = tuple(self.dwell_table)
        object.__setattr__(self, "dwell_table", entries)
        if not entries:
            raise ProfileError(f"profile {self.name!r} has an empty dwell table")
        waits = [entry.wait for entry in entries]
        if waits != list(range(len(entries))):
            raise ProfileError(
                f"profile {self.name!r}: dwell table wait times must be 0..{len(entries) - 1}, "
                f"got {waits}"
            )
        if self.max_wait != entries[-1].wait:
            raise ProfileError(
                f"profile {self.name!r}: max_wait {self.max_wait} does not match the last "
                f"dwell-table entry {entries[-1].wait}"
            )
        if self.requirement_samples <= 0:
            raise ProfileError(f"profile {self.name!r}: requirement must be positive")
        if self.min_inter_arrival <= self.requirement_samples:
            raise ProfileError(
                f"profile {self.name!r}: the sporadic model requires J* < r, got "
                f"J* = {self.requirement_samples}, r = {self.min_inter_arrival}"
            )

    # -------------------------------------------------------------- look-ups
    def entry(self, wait: int) -> DwellTableEntry:
        """Dwell-table entry for a wait time; raises when ``wait > Tw^*``."""
        if wait < 0 or wait > self.max_wait:
            raise ProfileError(
                f"profile {self.name!r}: wait {wait} outside the admissible range [0, {self.max_wait}]"
            )
        return self.dwell_table[wait]

    def min_dwell(self, wait: int) -> int:
        """``Tdw^-(wait)``."""
        return self.entry(wait).min_dwell

    def max_dwell(self, wait: int) -> int:
        """``Tdw^+(wait)``."""
        return self.entry(wait).max_dwell

    def deadline(self, elapsed_wait: int) -> int:
        """Remaining slack ``D = Tw^* - Tw`` used by the arbitration policy."""
        return self.max_wait - elapsed_wait

    @property
    def min_dwell_array(self) -> List[int]:
        """``Tdw^-`` for wait times ``0..Tw^*`` (Table 1 format)."""
        return [entry.min_dwell for entry in self.dwell_table]

    @property
    def max_dwell_array(self) -> List[int]:
        """``Tdw^+`` for wait times ``0..Tw^*`` (Table 1 format)."""
        return [entry.max_dwell for entry in self.dwell_table]

    @property
    def worst_min_dwell(self) -> int:
        """``Tdw^-*`` — the largest minimum dwell over all admissible waits.

        Used as the tie-breaker of the first-fit mapping heuristic.
        """
        return max(self.min_dwell_array)

    @property
    def worst_max_dwell(self) -> int:
        """The largest maximum-useful dwell over all admissible waits."""
        return max(self.max_dwell_array)

    def requirement_seconds(self) -> float:
        """The requirement ``J*`` converted to seconds."""
        return self.requirement_samples * self.sampling_period

    # ---------------------------------------------------------- serialization
    def to_dict(self) -> Dict:
        """Plain-dict representation (JSON serialisable)."""
        return {
            "name": self.name,
            "requirement_samples": self.requirement_samples,
            "max_wait": self.max_wait,
            "min_inter_arrival": self.min_inter_arrival,
            "tt_settling_samples": self.tt_settling_samples,
            "et_settling_samples": self.et_settling_samples,
            "sampling_period": self.sampling_period,
            # vars(), not asdict(): its deep copy of plain numbers dominated a request.
            "dwell_table": [dict(vars(entry)) for entry in self.dwell_table],
        }

    def to_json(self, indent: int = 2) -> str:
        """JSON representation of the profile."""
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping) -> "SwitchingProfile":
        """Rebuild a profile from :meth:`to_dict` output."""
        entries = tuple(DwellTableEntry(**entry) for entry in data["dwell_table"])
        return cls(
            name=data["name"],
            requirement_samples=int(data["requirement_samples"]),
            max_wait=int(data["max_wait"]),
            dwell_table=entries,
            min_inter_arrival=int(data["min_inter_arrival"]),
            tt_settling_samples=data.get("tt_settling_samples"),
            et_settling_samples=data.get("et_settling_samples"),
            sampling_period=float(data.get("sampling_period", 0.02)),
        )

    @classmethod
    def from_json(cls, text: str) -> "SwitchingProfile":
        """Rebuild a profile from its JSON representation."""
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_arrays(
        cls,
        name: str,
        requirement_samples: int,
        min_inter_arrival: int,
        min_dwell: Sequence[int],
        max_dwell: Sequence[int],
        tt_settling_samples: Optional[int] = None,
        et_settling_samples: Optional[int] = None,
        sampling_period: float = 0.02,
    ) -> "SwitchingProfile":
        """Build a profile directly from ``Tdw^-`` / ``Tdw^+`` arrays.

        This constructor reproduces Table 1 of the paper, where the arrays
        are indexed by the wait time ``Tw = 0..Tw^*``.
        """
        if len(min_dwell) != len(max_dwell):
            raise ProfileError(
                f"profile {name!r}: min/max dwell arrays have different lengths "
                f"({len(min_dwell)} vs {len(max_dwell)})"
            )
        if not min_dwell:
            raise ProfileError(f"profile {name!r}: dwell arrays are empty")
        entries = tuple(
            DwellTableEntry(wait=w, min_dwell=int(lo), max_dwell=int(hi))
            for w, (lo, hi) in enumerate(zip(min_dwell, max_dwell))
        )
        return cls(
            name=name,
            requirement_samples=requirement_samples,
            max_wait=len(entries) - 1,
            dwell_table=entries,
            min_inter_arrival=min_inter_arrival,
            tt_settling_samples=tt_settling_samples,
            et_settling_samples=et_settling_samples,
            sampling_period=sampling_period,
        )

    # --------------------------------------------------------------- encoding
    def run_length_encoded(self) -> Dict[str, List[Tuple[int, int]]]:
        """Memory-efficient run-length encoding of the dwell arrays.

        The paper notes that ``Tdw^-`` and ``Tdw^+`` take only a few distinct
        values, so a run-length encoding is a compact on-target representation.
        Returns ``{"min_dwell": [(value, count), ...], "max_dwell": [...]}``.
        """
        def encode(values: Sequence[int]) -> List[Tuple[int, int]]:
            encoded: List[Tuple[int, int]] = []
            for value in values:
                if encoded and encoded[-1][0] == value:
                    encoded[-1] = (value, encoded[-1][1] + 1)
                else:
                    encoded.append((value, 1))
            return encoded

        return {
            "min_dwell": encode(self.min_dwell_array),
            "max_dwell": encode(self.max_dwell_array),
        }

    def memory_footprint_entries(self) -> int:
        """Number of stored integers after run-length encoding (2 per run)."""
        encoded = self.run_length_encoded()
        return 2 * (len(encoded["min_dwell"]) + len(encoded["max_dwell"]))
