"""Memory-request traces: the interface between workloads and the core model.

A workload is the LLC-miss stream of one core.  :class:`Trace` stores it
as three parallel columns — ``addresses`` (line-aligned byte
addresses), ``writes`` (direction flags) and ``gaps`` (the core-side
think time, in cycles, between retiring the previous request's issue
slot and issuing this one; memory-bound workloads have small gaps,
compute-bound ones large gaps).

Generators append straight to the columns and hand them to
:meth:`Trace.from_columns`, which checks the per-request guarantees
once per trace.  Both engines read the columns directly (the fast one
through :class:`~repro.workloads.compiled.CompiledTrace`).  The
per-request :class:`TraceRequest` view, which only tests index and
iterate, is built on first use and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional


@dataclass(frozen=True)
class TraceRequest:
    """One LLC-miss: a 64-byte line address plus issue spacing."""

    address: int
    is_write: bool = False
    gap_cycles: int = 0

    def __post_init__(self) -> None:
        if self.address < 0:
            raise ValueError("address must be non-negative")
        if self.gap_cycles < 0:
            raise ValueError("gap_cycles must be non-negative")


class Trace:
    """A finite, replayable request stream, stored column-wise.

    The columns are shared, not copied, by derived objects (compiled
    traces, the request view), so nothing may mutate them after
    construction.
    """

    __slots__ = ("addresses", "writes", "gaps", "_requests")

    def __init__(self, requests: Iterable[TraceRequest]) -> None:
        requests = list(requests)
        self.addresses: List[int] = [r.address for r in requests]
        self.writes: List[bool] = [r.is_write for r in requests]
        self.gaps: List[int] = [r.gap_cycles for r in requests]
        self._requests: Optional[List[TraceRequest]] = requests

    @classmethod
    def from_columns(
        cls, addresses: List[int], writes: List[bool], gaps: List[int]
    ) -> "Trace":
        """Adopt three parallel columns (not copied) as a trace.

        Checks, once per trace, what :class:`TraceRequest` checks per
        request: every address and every gap is non-negative.
        """
        if not len(addresses) == len(writes) == len(gaps):
            raise ValueError(
                f"column lengths differ: {len(addresses)} addresses, "
                f"{len(writes)} writes, {len(gaps)} gaps"
            )
        if addresses and min(addresses) < 0:
            raise ValueError("address must be non-negative")
        if gaps and min(gaps) < 0:
            raise ValueError("gap_cycles must be non-negative")
        trace = cls.__new__(cls)
        trace.addresses = addresses
        trace.writes = writes
        trace.gaps = gaps
        trace._requests = None
        return trace

    @property
    def requests(self) -> List[TraceRequest]:
        """The per-request view, built on first use and cached."""
        if self._requests is None:
            self._requests = [
                TraceRequest(address, is_write, gap)
                for address, is_write, gap in zip(
                    self.addresses, self.writes, self.gaps
                )
            ]
        return self._requests

    def __len__(self) -> int:
        return len(self.addresses)

    def __iter__(self) -> Iterator[TraceRequest]:
        return iter(self.requests)

    def __getitem__(self, index: int) -> TraceRequest:
        return self.requests[index]

    def offset_by(self, byte_offset: int) -> "Trace":
        """Shift all addresses — used for rate-mode core copies."""
        return Trace.from_columns(
            [address + byte_offset for address in self.addresses],
            self.writes,
            self.gaps,
        )

    def write_fraction(self) -> float:
        if not self.writes:
            return 0.0
        return sum(self.writes) / len(self.writes)
