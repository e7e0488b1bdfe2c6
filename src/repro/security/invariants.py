"""Online invariant engine: security guarantees checked *during* a run.

The offline verifier (:mod:`repro.security.verifier`) replays finished
patterns; this module instead watches a live simulation and flags the
first moment a defense's guarantee is broken.  An
:class:`InvariantMonitor` attaches to either engine
(:class:`~repro.sim.system.SystemSimulator` or
:class:`~repro.sim.reference.ReferenceSimulator`) by wrapping the
controllers' per-bank kernel slots: each act slot counts the
mitigations it fires, and each close slot — a None one included, so
every row close is seen — runs the per-closure checks below before the
real kernel.  Nothing is wrapped until a monitor attaches, so default
runs are unaffected (perfbench's ``paper_quick``, ``attack_sweep`` and
``serve_mix`` workloads time default runs, monitor detached).

Invariants checked:

``damage-ratio``
    Per row closure, the *true* charge damage of the access (Eq 3's
    conservative linear model) must stay within the scheme's documented
    bound of what the scheme *recorded* to its tracker: exactly 1x for
    ImPress-P up to quantization (Section VI), and the
    ``1 + alpha * (tRC + tACT + tPRE)/tRC`` per-round bound for
    ImPress-N's window accounting (Eq 5 plus the hardware-precision
    caveat).  No-RP is exempt (unbounded by design); ExPress's version
    of this guarantee *is* the tMRO deadline below.

``tmro-deadline``
    When a tMRO is configured, no row stays open past the *intended*
    limit (recomputed here from the raw nanosecond figure, deliberately
    not trusting the controller's enforcement value) plus a small
    scheduling slack.  This is what catches the planted ``lax-tmro``
    fault.

``mitigation-conservation``
    At every checkpoint, mitigations produced by the scheme kernels
    equal mitigations consumed as 4-ACT victim-refresh blocks plus the
    backlog still pending — no mitigation is lost or double-counted,
    and mitigative ACTs only move in whole blocks.

``refresh-monotonic``
    At every checkpoint, each bank's refresh schedule only moves
    forward: ``next_due`` and the issued count never decrease.

Violations carry the simulated cycle and the cycle of the nearest
checkpoint at or before them, which brackets where in the run the
breach happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..core.charge import ConservativeLinearModel
from ..sim.config import DEFAULT_EXPRESS_TMRO_NS

#: Default scheduling slack on the tMRO deadline: an in-flight column
#: burst can delay the expiry service call, and the end-of-run flush can
#: close a row one cycle late.  One tRC plus margin covers both with
#: room to spare while staying far below any real enforcement bug.
DEFAULT_TMRO_SLACK_CYCLES = 192

_EPS = 1e-9


@dataclass(frozen=True)
class Violation:
    """One invariant breach, locatable in simulated time."""

    invariant: str
    cycle: int
    channel: int            # -1 for run-global invariants
    bank: int               # -1 for run-global invariants
    message: str
    checkpoint_cycle: int   # nearest checkpoint at/before, -1 if none

    def describe(self) -> str:
        where = (
            f"channel {self.channel} bank {self.bank}"
            if self.bank >= 0
            else "global"
        )
        return (
            f"[{self.invariant}] cycle {self.cycle} ({where}, "
            f"checkpoint {self.checkpoint_cycle}): {self.message}"
        )


class _ControllerLedger:
    """Per-controller mitigation-conservation bookkeeping."""

    __slots__ = ("controller", "produced", "acts_base", "pending_base")

    def __init__(self, controller) -> None:
        self.controller = controller
        self.produced = 0
        self.acts_base = controller.counts.mitigative_acts
        self.pending_base = sum(
            book.pending_mitigations for book in controller.state
        )


class InvariantMonitor:
    """Live security-invariant checks for one simulation run.

    Construct, then :meth:`attach` to a simulator *before* (or between)
    ``run_until`` steps.  Call :meth:`checkpoint` periodically — it
    polls the checkpoint-scoped invariants and stamps subsequent
    violations with its cycle.  Detached simulators
    pay nothing: the kernel-slot wrappers only exist once a monitor
    attaches.
    """

    def __init__(
        self,
        tmro_slack_cycles: int = DEFAULT_TMRO_SLACK_CYCLES,
        max_violations: int = 64,
    ) -> None:
        self.tmro_slack_cycles = tmro_slack_cycles
        self.max_violations = max_violations
        self.violations: List[Violation] = []
        self.closures_checked = 0
        self.last_checkpoint_cycle = -1
        self._sim = None
        self._ledgers: List[_ControllerLedger] = []
        self._refresh_marks: List[List[tuple]] = []

    # -- wiring -----------------------------------------------------------

    def attach(self, sim, tmro_ns: Optional[float] = None) -> "InvariantMonitor":
        """Wrap ``sim``'s per-bank act and close kernel slots.

        ``tmro_ns`` overrides the defense-derived intended tMRO for
        simulators constructed with an explicit ``tmro_ns`` argument
        (scenario runs); None derives it from ``sim.defense``.
        """
        if self._sim is not None:
            raise RuntimeError("monitor is already attached")
        self._sim = sim
        defense = sim.defense
        timings = sim.system.timings
        trc = timings.tRC
        tact = timings.tACT
        tpre = timings.tPRE
        scheme = defense.scheme
        alpha = defense.alpha
        model = ConservativeLinearModel(
            alpha=alpha,
            tras_trc=timings.tRAS / trc,
            tpre_trc=tpre / trc,
        )
        tcl = model.tcl_of_open_time

        # Intended tMRO, recomputed from the raw nanosecond figure so a
        # buggy/faulted enforcement path cannot vouch for itself.
        if tmro_ns is None:
            tmro_ns = defense.tmro_ns
            if tmro_ns is None and scheme == "express":
                tmro_ns = DEFAULT_EXPRESS_TMRO_NS
        intended_tmro = (
            timings.clock.cycles(tmro_ns) if tmro_ns is not None else None
        )
        deadline = (
            intended_tmro + self.tmro_slack_cycles
            if intended_tmro is not None
            else None
        )

        # Per-scheme recorded-damage model and ratio bound (None skips
        # the ratio check: No-RP records honestly but bounds nothing,
        # and ExPress's bound is the deadline).
        if scheme == "impress-n":
            bound = 1.0 + alpha * (trc + tact + tpre) / trc

            def recorded(act: int, close: int) -> float:
                first = -(-(act + tact) // trc)
                return 1.0 + max(0, close // trc - first)

        elif scheme == "impress-p":
            scale = 1 << defense.tracker_fraction_bits
            if scale > 1:
                bound = max(1.0, alpha) * scale / (scale - 1)
            else:
                bound = 2.0 * max(1.0, alpha)

            def recorded(act: int, close: int) -> float:
                return int((close - act + tpre) / trc * scale) / scale

        else:
            bound = None
            recorded = None

        violations = self.violations

        def violate(
            invariant: str, cycle: int, channel: int, bank: int, message: str
        ) -> None:
            if len(violations) >= self.max_violations:
                return
            violations.append(
                Violation(
                    invariant=invariant,
                    cycle=cycle,
                    channel=channel,
                    bank=bank,
                    message=message,
                    checkpoint_cycle=self.last_checkpoint_cycle,
                )
            )

        self._violate = violate

        def counting(kernel, ledger):
            def counted(row: int) -> int:
                fired = kernel(row)
                ledger.produced += fired
                return fired

            return counted

        def checking(kernel, ledger, channel, bank_id):
            def checked(row: int, act: int, close: int) -> int:
                open_cycles = close - act
                self.closures_checked += 1
                if deadline is not None and open_cycles > deadline:
                    violate(
                        "tmro-deadline", close, channel, bank_id,
                        f"row {row} open {open_cycles} cycles, "
                        f"intended tMRO {intended_tmro} "
                        f"(+{self.tmro_slack_cycles} slack)",
                    )
                if bound is not None:
                    true_damage = tcl(open_cycles / trc)
                    recorded_damage = recorded(act, close)
                    if true_damage > bound * recorded_damage + _EPS:
                        violate(
                            "damage-ratio", close, channel, bank_id,
                            f"row {row}: true damage "
                            f"{true_damage:.4f} exceeds {bound:.4f}x "
                            f"recorded {recorded_damage:.4f}",
                        )
                if kernel is None:
                    return 0
                fired = kernel(row, act, close)
                ledger.produced += fired
                return fired

            return checked

        for channel, controller in enumerate(sim.controllers):
            ledger = _ControllerLedger(controller)
            self._ledgers.append(ledger)
            self._refresh_marks.append(
                [
                    (sched._next_due, sched._issued)
                    for sched in controller.refresh
                ]
            )
            acts = controller._act_kernels
            closes = controller._close_kernels
            for bank_id in range(controller.num_banks):
                if acts[bank_id] is not None:
                    acts[bank_id] = counting(acts[bank_id], ledger)
                closes[bank_id] = checking(
                    closes[bank_id], ledger, channel, bank_id
                )
        return self

    # -- checkpoint-scoped checks ----------------------------------------

    def checkpoint(self) -> None:
        """Poll the run-global invariants and record the stop cycle.

        Safe to call at any stop point, including before the first
        event and after completion.
        """
        if self._sim is None:
            raise RuntimeError("monitor is not attached")
        sim = self._sim
        cycle = sim.now
        for channel, ledger in enumerate(self._ledgers):
            controller = ledger.controller
            consumed_acts = (
                controller.counts.mitigative_acts - ledger.acts_base
            )
            pending = sum(
                book.pending_mitigations for book in controller.state
            ) - ledger.pending_base
            if consumed_acts % 4 != 0:
                self._violate(
                    "mitigation-conservation", cycle, channel, -1,
                    f"mitigative ACTs moved by {consumed_acts}, "
                    f"not a whole 4-ACT victim block",
                )
            elif ledger.produced != consumed_acts // 4 + pending:
                self._violate(
                    "mitigation-conservation", cycle, channel, -1,
                    f"produced {ledger.produced} mitigations but "
                    f"consumed {consumed_acts // 4} + pending {pending}",
                )
            marks = self._refresh_marks[channel]
            for bank_id, sched in enumerate(controller.refresh):
                prev_due, prev_issued = marks[bank_id]
                if sched._next_due < prev_due or sched._issued < prev_issued:
                    self._violate(
                        "refresh-monotonic", cycle, channel, bank_id,
                        f"refresh schedule moved backwards: "
                        f"next_due {prev_due}->{sched._next_due}, "
                        f"issued {prev_issued}->{sched._issued}",
                    )
                marks[bank_id] = (sched._next_due, sched._issued)
        self.last_checkpoint_cycle = cycle

    # -- results -----------------------------------------------------------

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation_names(self) -> tuple:
        """Sorted unique violated invariant names (failure signature)."""
        return tuple(sorted({v.invariant for v in self.violations}))


def monitored_run(
    sim,
    tmro_ns: Optional[float] = None,
    checkpoint_cycles: int = 100_000,
    monitor: Optional[InvariantMonitor] = None,
    max_cycles: int = 1 << 34,
):
    """Run ``sim`` to completion under a monitor with periodic checkpoints.

    Returns ``(result, monitor)``.  The run is stepped ``run_until`` in
    ``checkpoint_cycles`` strides with :meth:`InvariantMonitor.checkpoint`
    between strides — identical simulation behavior to a straight
    ``run()`` (pinned by ``tests/test_run_until.py``).
    """
    if monitor is None:
        monitor = InvariantMonitor()
    monitor.attach(sim, tmro_ns=tmro_ns)
    monitor.checkpoint()
    stop = checkpoint_cycles
    while not sim.run_until(stop_cycle=stop, max_cycles=max_cycles):
        if not sim._heap:
            break
        monitor.checkpoint()
        stop = max(stop + checkpoint_cycles, sim.now + checkpoint_cycles)
    if sim._remaining > 0:
        raise RuntimeError("event heap drained with work remaining")
    result = sim.finish()
    monitor.checkpoint()
    return result, monitor
