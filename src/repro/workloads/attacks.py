"""Attack-pattern generators: Rowhammer, Row-Press, and hybrids.

Two layers:

* **Timed accesses** (:class:`TimedAccess`) drive the security verifier
  and the mitigation schemes directly with exact ACT/close cycles —
  including the Fig-10 decoy pattern that exploits ImPress-N's window
  granularity and the parameterized K-pattern of Fig 17.
* **Traces** feed the performance simulator: classic double-sided
  hammering as a stream of row-conflicting reads, plus the scenario
  subsystem's co-located attacker generators (K-sided hammering,
  Row-Press dwell, decoy closure, refresh-synchronized bursts).  All
  trace generators return ordinary :class:`~repro.workloads.trace.Trace`
  objects, so they compile through
  :class:`~repro.workloads.compiled.CompiledTrace` exactly like the
  benign synthetic workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..dram.address import MopAddressMapper, MappedAddress, LINE_BYTES
from ..dram.timing import CycleTimings
from .trace import Trace


@dataclass(frozen=True)
class TimedAccess:
    """One access: a row opened at ``act_cycle`` and closed at ``close_cycle``.

    ``close_cycle`` is when the precharge is issued; the access's total
    time (for EACT) additionally includes tPRE.
    """

    row: int
    act_cycle: int
    close_cycle: int

    def __post_init__(self) -> None:
        if self.close_cycle <= self.act_cycle:
            raise ValueError("close must come after act")

    def open_cycles(self) -> int:
        return self.close_cycle - self.act_cycle


def rowhammer_accesses(
    row: int, rounds: int, timings: CycleTimings, start_cycle: int = 0
) -> List[TimedAccess]:
    """Back-to-back activations: one ACT per tRC, each open for tRAS."""
    return [
        TimedAccess(
            row=row,
            act_cycle=start_cycle + i * timings.tRC,
            close_cycle=start_cycle + i * timings.tRC + timings.tRAS,
        )
        for i in range(rounds)
    ]


def row_press_accesses(
    row: int,
    rounds: int,
    ton_cycles: int,
    timings: CycleTimings,
    start_cycle: int = 0,
) -> List[TimedAccess]:
    """The Fig-2 pattern: each round keeps the row open for ``ton_cycles``."""
    if ton_cycles < timings.tRAS:
        raise ValueError("tON cannot be below tRAS")
    period = ton_cycles + timings.tPRE
    return [
        TimedAccess(
            row=row,
            act_cycle=start_cycle + i * period,
            close_cycle=start_cycle + i * period + ton_cycles,
        )
        for i in range(rounds)
    ]


def k_pattern_accesses(
    row: int,
    rounds: int,
    k: int,
    timings: CycleTimings,
    start_cycle: int = 0,
) -> List[TimedAccess]:
    """Fig 17: ACT, keep open tRAS + K*tRC, precharge; loop time (K+1)*tRC."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return row_press_accesses(
        row, rounds, timings.tRAS + k * timings.tRC, timings, start_cycle
    )


def decoy_pattern_accesses(
    target_row: int,
    decoy_row: int,
    rounds: int,
    timings: CycleTimings,
    lead_cycles: int | None = None,
) -> List[TimedAccess]:
    """Fig 10: evade ImPress-N's window credits entirely.

    Each round activates the target within the last tACT of a tRC window
    (so the boundary sample sees the row as not-yet-open), keeps it open
    for tRC + tRAS (so it is open at exactly one boundary), then a decoy
    activation forces the close just before the next boundary.  The
    target leaks (1 + alpha) units per round but is recorded as a single
    ACT — the worst case behind Eq 5.
    """
    trc = timings.tRC
    if lead_cycles is None:
        lead_cycles = timings.tACT // 2
    if not 0 < lead_cycles <= timings.tACT:
        raise ValueError("lead must be within the activation latency")
    accesses: List[TimedAccess] = []
    # Period must be a multiple of tRC to keep the window phase locked.
    period = 3 * trc
    for i in range(rounds):
        act = (i * period) + trc - lead_cycles
        close = act + trc + timings.tRAS
        accesses.append(
            TimedAccess(row=target_row, act_cycle=act, close_cycle=close)
        )
        # The decoy row opens as the target closes and stays open only
        # briefly; it is also invisible at the following boundary.
        decoy_act = close
        accesses.append(
            TimedAccess(
                row=decoy_row,
                act_cycle=decoy_act,
                close_cycle=decoy_act + timings.tRAS,
            )
        )
    return accesses


# ----------------------------------------------------------------------
# Trace-level attacks for the performance simulator
# ----------------------------------------------------------------------

def _row_addresses(
    mapper: MopAddressMapper,
    channel: int,
    bank: int,
    rows: List[int],
    n_columns: int,
) -> Dict[int, List[int]]:
    """``row -> [address of column 0 .. n_columns - 1]`` for one bank.

    One ``address_of`` call per distinct (row, column); the generators
    below index these tables instead of mapping every request.
    """
    return {
        row: [
            mapper.address_of(
                MappedAddress(
                    channel=channel, bank=bank, row=row, column=column
                )
            )
            for column in range(n_columns)
        ]
        for row in dict.fromkeys(rows)
    }


def _cycled(pattern: List[int], n: int) -> List[int]:
    """The first ``n`` items of ``pattern`` repeated end to end."""
    if n <= 0:
        return []
    return (pattern * -(-n // len(pattern)))[:n]


def hammer_trace(
    mapper: MopAddressMapper,
    bank: int,
    rows: List[int],
    n_requests: int,
    channel: int = 0,
    gap_cycles: int = 0,
) -> Trace:
    """Alternating same-bank rows: every access is a row conflict (ACT)."""
    if not rows:
        raise ValueError("need at least one aggressor row")
    table = _row_addresses(mapper, channel, bank, rows, 1)
    return Trace.from_columns(
        _cycled([table[row][0] for row in rows], n_requests),
        [False] * n_requests,
        [gap_cycles] * n_requests,
    )


def row_press_trace(
    mapper: MopAddressMapper,
    bank: int,
    row: int,
    n_requests: int,
    hold_gap_cycles: int,
    channel: int = 0,
) -> Trace:
    """Repeated reads to one row, spaced to keep it open (Row-Press-ish).

    With an open-page policy the row stays open between the spaced hits;
    a large ``hold_gap_cycles`` stretches tON toward the refresh limit.
    """
    columns = min(n_requests, mapper.lines_per_row_group)
    table = _row_addresses(mapper, channel, bank, [row], columns)
    return Trace.from_columns(
        _cycled(table[row], n_requests),
        [False] * n_requests,
        [hold_gap_cycles] * n_requests,
    )


def k_sided_rows(victim_row: int, k: int) -> List[int]:
    """The K aggressor rows flanking ``victim_row`` (K-sided pattern).

    Rows alternate around the victim at distance 1, 1, 3, 3, 5, ... so
    K = 1 is single-sided, K = 2 the classic double-sided pair, and
    larger K the many-sided patterns of Fig 17.  Rows below 0 are folded
    to the other side, so small victim rows stay valid.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    rows: List[int] = []
    distance = 1
    while len(rows) < k:
        below = victim_row - distance
        rows.append(below if below >= 0 else victim_row + distance + 1)
        if len(rows) < k:
            rows.append(victim_row + distance)
        distance += 2
    return rows


def k_sided_hammer_trace(
    mapper: MopAddressMapper,
    bank: int,
    victim_row: int,
    k: int,
    n_requests: int,
    channel: int = 0,
    gap_cycles: int = 0,
) -> Trace:
    """K-sided hammering around one victim: round-robin over the K
    flanking aggressor rows, every access a row conflict (ACT)."""
    return hammer_trace(
        mapper, bank, k_sided_rows(victim_row, k), n_requests,
        channel=channel, gap_cycles=gap_cycles,
    )


def row_press_dwell_trace(
    mapper: MopAddressMapper,
    bank: int,
    rows: List[int],
    n_requests: int,
    hold_gap_cycles: int,
    hits_per_dwell: int,
    channel: int = 0,
) -> Trace:
    """Row-Press dwell attack: hold each aggressor open, then switch.

    Each dwell window opens the next row in ``rows`` (a row conflict
    forces the previous one closed, charging its full tON to EACT), then
    issues ``hits_per_dwell - 1`` further column hits spaced by
    ``hold_gap_cycles`` so an open-page controller keeps the row open
    for roughly ``hits_per_dwell * hold_gap_cycles`` cycles.  Sweeping
    ``hold_gap_cycles`` / ``hits_per_dwell`` sweeps the dwell time the
    way Fig 2's tON axis does — from hammer-like (short dwell, many
    ACTs) to Row-Press-like (long dwell, few ACTs, large EACT).

    ``hold_gap_cycles`` must stay below the controller's idle-close
    timer or the dwell is cut short by the idle precharge.
    """
    if not rows:
        raise ValueError("need at least one aggressor row")
    if hits_per_dwell < 1:
        raise ValueError("hits_per_dwell must be at least 1")
    lines = mapper.lines_per_row_group
    table = _row_addresses(
        mapper, channel, bank, rows, min(hits_per_dwell, lines)
    )
    addresses = [
        table[row][hit % lines]
        for row in rows for hit in range(hits_per_dwell)
    ]
    gaps = [0] + [hold_gap_cycles] * (hits_per_dwell - 1)
    return Trace.from_columns(
        _cycled(addresses, n_requests),
        [False] * n_requests,
        _cycled(gaps, n_requests),
    )


def decoy_trace(
    mapper: MopAddressMapper,
    bank: int,
    target_row: int,
    decoy_row: int,
    n_requests: int,
    hold_gap_cycles: int,
    hold_hits: int = 2,
    channel: int = 0,
) -> Trace:
    """Trace analog of the Fig-10 decoy pattern for the system simulator.

    Each round opens the target, keeps it open with ``hold_hits`` spaced
    column hits (accumulating Row-Press dwell), then touches the decoy
    row — the row conflict forces the target closed at a time chosen by
    the attacker rather than by the controller's own timers.  The decoy
    access itself is a brief single-ACT visit, mirroring how the timed
    Fig-10 pattern hides the closure from window-boundary sampling.
    """
    if hold_hits < 1:
        raise ValueError("hold_hits must be at least 1")
    lines = mapper.lines_per_row_group
    table = _row_addresses(
        mapper, channel, bank, [target_row, decoy_row],
        min(hold_hits + 1, lines),
    )
    target = table[target_row]
    addresses = [target[hit % lines] for hit in range(hold_hits + 1)]
    addresses.append(table[decoy_row][0])
    gaps = [0] + [hold_gap_cycles] * hold_hits + [0]
    return Trace.from_columns(
        _cycled(addresses, n_requests),
        [False] * n_requests,
        _cycled(gaps, n_requests),
    )


def refresh_sync_hammer_trace(
    mapper: MopAddressMapper,
    bank: int,
    rows: List[int],
    n_requests: int,
    burst_acts: int,
    idle_gap_cycles: int,
    channel: int = 0,
) -> Trace:
    """Refresh-synchronized hammering: bursts separated by long idles.

    The attacker hammers ``burst_acts`` back-to-back conflicting
    accesses, then sleeps ``idle_gap_cycles`` before the next burst —
    with the idle gap chosen near tREFI the bursts ride the refresh
    cadence, concentrating activations into the window a probabilistic
    or windowed defense samples worst.
    """
    if not rows:
        raise ValueError("need at least one aggressor row")
    if burst_acts < 1:
        raise ValueError("burst_acts must be at least 1")
    if idle_gap_cycles < 0:
        raise ValueError("idle_gap_cycles must be non-negative")
    table = _row_addresses(mapper, channel, bank, rows, 1)
    gaps = _cycled([idle_gap_cycles] + [0] * (burst_acts - 1), n_requests)
    if gaps:
        gaps[0] = 0
    return Trace.from_columns(
        _cycled([table[row][0] for row in rows], n_requests),
        [False] * n_requests,
        gaps,
    )
