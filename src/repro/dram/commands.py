"""Tallies of the DRAM commands the memory controller issues."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict


@dataclass
class CommandCounts:
    """Tallies of issued commands, split demand vs mitigative ACTs."""

    demand_acts: int = 0
    mitigative_acts: int = 0
    precharges: int = 0
    reads: int = 0
    writes: int = 0
    refreshes: int = 0
    rfms: int = 0

    @property
    def total_acts(self) -> int:
        return self.demand_acts + self.mitigative_acts

    def merged_with(self, other: "CommandCounts") -> "CommandCounts":
        return CommandCounts(
            demand_acts=self.demand_acts + other.demand_acts,
            mitigative_acts=self.mitigative_acts + other.mitigative_acts,
            precharges=self.precharges + other.precharges,
            reads=self.reads + other.reads,
            writes=self.writes + other.writes,
            refreshes=self.refreshes + other.refreshes,
            rfms=self.rfms + other.rfms,
        )

    def to_json(self) -> Dict[str, int]:
        """Plain-int dict, the exact field set back to :meth:`from_json`."""
        return asdict(self)

    @classmethod
    def from_json(cls, data: Dict[str, int]) -> "CommandCounts":
        """Inverse of :meth:`to_json` (bit-exact: every field is int)."""
        return cls(**{f: int(data[f]) for f in (
            "demand_acts", "mitigative_acts", "precharges", "reads",
            "writes", "refreshes", "rfms",
        )})
