"""Security verifier: effective threshold T* and attack replay.

Both drive a mitigation scheme's bank-0 kernels — the act kernel, then
the close kernel, per access, in the controller's order — so what is
verified is the record path the simulator runs.

:func:`effective_threshold` feeds adversarial access patterns to an
:class:`~repro.trackers.base.AccountingTracker` and compares the *true*
charge loss (unified model) against the damage the scheme *records* for
the tracker.  The worst-case ratio between the two is the factor by
which the tolerated Rowhammer threshold shrinks:

    T* = TRH / max_pattern (true damage / recorded damage)

For ImPress-N the search rediscovers Eq 5 (ratio 1 + alpha, achieved by
the Fig-10 decoy pattern); for ImPress-P with full precision the ratio
is 1 (no threshold loss); for a No-RP baseline the ratio is unbounded in
tON, which is exactly why Row-Press breaks plain Rowhammer defenses.

The candidate set is the paper's pattern library (pure RP at several
tON values, K-patterns, the Fig-10 decoy, quantization probes).  It is
not exhaustive: phase-adversarial variants can squeeze an extra
(tACT + tPRE)/tRC of invisible open time out of ImPress-N beyond Eq 5's
one-window statement — see the note in
:class:`repro.core.mitigation.ImpressNScheme`.

:func:`run_security_simulation` replays an attack pattern through a real
tracker, applies the unified charge model to the victims and lets each
mitigation restore their charge.  The peak victim charge relative to
the critical value answers the threat model's question directly: did
the attacker flip a bit anywhere?
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..core.mitigation import (
    ExpressScheme,
    ImpressNScheme,
    ImpressPScheme,
    MitigationScheme,
    NoRpScheme,
)
from ..dram.timing import CycleTimings
from ..trackers.base import AccountingTracker
from ..workloads.attacks import (
    TimedAccess,
    decoy_pattern_accesses,
    k_pattern_accesses,
    row_press_accesses,
)
from .charge_account import VictimChargeState, access_tcl


@dataclass(frozen=True)
class PatternResult:
    """Outcome of one adversarial pattern against one scheme."""

    pattern: str
    true_damage: float
    recorded_damage: float

    @property
    def ratio(self) -> float:
        """True damage per recorded unit — the threshold-reduction factor.

        The scheme's recording happens at access granularity, so a
        pattern whose damage is never recorded at all would be an
        unmitigable design flaw; we report infinity for it.
        """
        if self.recorded_damage <= 0:
            return float("inf")
        return self.true_damage / self.recorded_damage


@dataclass(frozen=True)
class SecurityOutcome:
    """Result of one attack replay."""

    peak_charge: float
    trh: float
    mitigations: int

    @property
    def flipped(self) -> bool:
        return self.peak_charge >= self.trh

    @property
    def margin(self) -> float:
        """Fraction of the critical charge the attacker reached."""
        return self.peak_charge / self.trh


def _drive(
    scheme: MitigationScheme, accesses: Iterable[TimedAccess]
) -> Iterator[Tuple[TimedAccess, int]]:
    """Run bank 0's act then close kernel per access; yield the fires.

    Each fire is one mitigation of the access's row.
    """
    act = scheme.act_kernels()[0]
    close = scheme.close_kernels()[0]
    for access in accesses:
        fired = act(access.row) if act is not None else 0
        if close is not None:
            fired += close(access.row, access.act_cycle, access.close_cycle)
        yield access, fired


def replay_pattern(
    scheme: MitigationScheme,
    accesses: Iterable[TimedAccess],
    target_row: int,
    alpha: float,
    timings: CycleTimings,
) -> PatternResult:
    """Feed accesses through the scheme; account only the target row."""
    tracker = scheme.trackers[0]
    if not isinstance(tracker, AccountingTracker):
        raise TypeError("replay_pattern requires an AccountingTracker")
    true_damage = 0.0
    for access, _fired in _drive(scheme, accesses):
        if access.row == target_row:
            true_damage += access_tcl(access, alpha, timings)
    return PatternResult(
        pattern="custom",
        true_damage=true_damage,
        recorded_damage=tracker.recorded_for(target_row),
    )


def run_security_simulation(
    scheme: MitigationScheme,
    accesses: Iterable[TimedAccess],
    trh: float,
    alpha: float,
    timings: CycleTimings,
) -> SecurityOutcome:
    """Replay ``accesses`` against the scheme's bank-0 tracker.

    No RFM is issued, so an in-DRAM tracker that mitigates only under
    RFM never restores a victim here.
    """
    state = VictimChargeState(alpha=alpha, timings=timings)
    mitigations = 0
    for access, fired in _drive(scheme, accesses):
        state.apply_access(access)
        for _ in range(fired):
            state.apply_mitigation(access.row)
        mitigations += fired
    return SecurityOutcome(
        peak_charge=state.peak_charge, trh=trh, mitigations=mitigations
    )


def _candidate_patterns(
    timings: CycleTimings,
    rounds: int,
    tmro_cycles: Optional[int],
    max_ton_cycles: Optional[int] = None,
) -> List[tuple]:
    """(name, accesses) candidates; tON capped at tMRO when enforced."""
    target, decoy = 1000, 2000
    trc = timings.tRC
    limit = max_ton_cycles or timings.tONMAX
    if tmro_cycles is not None:
        limit = min(limit, tmro_cycles)
    tons = {
        timings.tRAS,
        timings.tRAS + trc // 4,
        timings.tRAS + trc // 2,
        timings.tRAS + trc - 1,
        timings.tRAS + trc,
        timings.tRAS + 2 * trc - 1,
        timings.tRAS + 4 * trc,
        timings.tRAS + 16 * trc,
        timings.tREFI,
    }
    # Quantization probes: a tON whose EACT sits just below the next
    # representable step of a b-bit fractional counter maximizes the
    # truncation loss (Fig 12's worst case).
    for shift in range(8):
        tons.add(timings.tRAS + max(trc >> shift, 1) - 1)
    tons = sorted(tons)
    patterns = []
    for ton in tons:
        if ton > limit:
            continue
        patterns.append(
            (
                f"row-press tON={ton}cyc",
                row_press_accesses(target, rounds, ton, timings),
            )
        )
    for k in (1, 2, 8):
        if timings.tRAS + k * trc <= limit:
            patterns.append(
                (
                    f"k-pattern K={k}",
                    k_pattern_accesses(target, rounds, k, timings),
                )
            )
    if tmro_cycles is None and timings.tRAS + trc <= limit:
        patterns.append(
            (
                "fig10-decoy",
                decoy_pattern_accesses(target, decoy, rounds, timings),
            )
        )
    return patterns


@dataclass(frozen=True)
class ThresholdReport:
    """Effective-threshold verdict for a scheme."""

    scheme: str
    trh: float
    worst_ratio: float
    worst_pattern: str
    results: Sequence[PatternResult]

    @property
    def effective_threshold(self) -> float:
        if self.worst_ratio == float("inf"):
            return 0.0
        return self.trh / self.worst_ratio

    @property
    def relative_threshold(self) -> float:
        return self.effective_threshold / self.trh


def effective_threshold(
    scheme_name: str,
    trh: float,
    alpha: float,
    timings: CycleTimings,
    rounds: int = 32,
    tmro_cycles: Optional[int] = None,
    fraction_bits: int = 7,
    max_ton_cycles: Optional[int] = None,
) -> ThresholdReport:
    """Search adversarial patterns for the worst damage/recorded ratio."""
    target = 1000

    def build_scheme() -> MitigationScheme:
        tracker = AccountingTracker()
        if scheme_name == "no-rp":
            return NoRpScheme([tracker], timings)
        if scheme_name == "express":
            if tmro_cycles is None:
                raise ValueError("express needs tmro_cycles")
            return ExpressScheme([tracker], timings, tmro_cycles)
        if scheme_name == "impress-n":
            return ImpressNScheme([tracker], timings)
        if scheme_name == "impress-p":
            return ImpressPScheme([tracker], timings, fraction_bits)
        raise ValueError(f"unknown scheme: {scheme_name!r}")

    enforced_tmro = tmro_cycles if scheme_name == "express" else None
    results: List[PatternResult] = []
    worst_ratio = 0.0
    worst_pattern = "none"
    for name, accesses in _candidate_patterns(
        timings, rounds, enforced_tmro, max_ton_cycles
    ):
        scheme = build_scheme()
        result = replay_pattern(scheme, accesses, target, alpha, timings)
        result = PatternResult(
            pattern=name,
            true_damage=result.true_damage,
            recorded_damage=result.recorded_damage,
        )
        results.append(result)
        if result.ratio > worst_ratio:
            worst_ratio = result.ratio
            worst_pattern = name
    return ThresholdReport(
        scheme=scheme_name,
        trh=trh,
        worst_ratio=worst_ratio,
        worst_pattern=worst_pattern,
        results=tuple(results),
    )
