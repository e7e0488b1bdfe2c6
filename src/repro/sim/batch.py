"""Batch engine tier: simulate groups of sweep points in lockstep.

The third engine tier (reference → fast → batch).  A sweep grid is many
near-identical points: same workload and topology, different defense
configurations.  Two such points produce *cycle-identical* command
timelines whenever their trackers never fire a synchronous mitigation,
because a tracker can only bend the schedule through three channels:

1. the controller's ``tmro_cycles`` (row-open deadline),
2. the RFM cadence (``use_rfm`` / ``rfmth``), and
3. the act/close kernels' mitigation counts, which queue 4×tRC victim
   blocks on the bank.

(1) and (2) are construction-time scalars — a lane's *timing
signature* — and the traces are the only other input, so lanes are
grouped by a content digest of their compiled traces
(:attr:`~repro.workloads.compiled.CompiledTraceSet.digest`), not by
workload name: ``add``/``triad`` lanes with equal defenses are
simulated once and copied (*aliased*).  Within a digest the batch
engine runs a **leader/replay** worklist:

* **Record** — the least-bending remaining lane (tracker rank, then
  the plainest signature) runs the real fast engine as the *leader*,
  with recording shims wrapped around its per-bank kernel slots,
  capturing every demand ACT, row close and RFM per bank as parallel
  Python lists.
* **Cover** — the leader covers every lane with its own signature.
  If it did not fire and its signature never bound (plain, or
  *inert*: see :meth:`_Recording.inert`), it recorded the plain
  timeline, and it also covers every lane whose tMRO and RFMTH are
  inert on that recording — at ``--quick`` no bank reaches 80 ACTs in
  most workloads, so most RFM lanes join the plain one.
* **Replay** — every covered lane drives the recorded streams through
  its own scheme's act/close/RFM kernels, built by
  :meth:`DefenseConfig.build_scheme` exactly as a real simulation
  builds them (:func:`replay_lane_python`).  A lane whose replay
  proves "no synchronous mitigation anywhere" gets the
  leader's :class:`~repro.sim.stats.SimResult` verbatim with only its
  own ``rfm_mitigations`` substituted — bit-identical to what a full
  fast-engine run would produce (``tests/test_batch_engine.py`` pins
  this against the oracle across the equivalence matrix).
* **Fall back** — if the leader itself fired (its run is still a valid
  fast-engine run) or a covered lane's replay fires a kernel, that
  lane is simulated for real on the fast engine.
* **Repeat** — lanes the leader did not cover form the next round.

A :class:`TimelineStore` lent by the caller (``SweepRunner`` owns one)
keeps plain recordings across calls, so a later call whose lanes all
carry inert tMRO or RFM settings records no leader at all.

The fast engine stays the oracle.  See docs/performance.md § "Batch
engine tier".
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import compress
from operator import sub
from typing import Dict, List, Optional, Sequence, Tuple

from ..workloads.compiled import compiled_point_traces
from .config import DefenseConfig, SystemConfig, _normalize_point
from .stats import SimResult
from .system import SystemSimulator, build_simulator

__all__ = [
    "BatchStats",
    "TimelineStore",
    "simulate_batch",
]

#: Event kinds in a recorded per-bank stream.
EV_ACT = 0      # demand activation of a row
EV_CLOSE = 1    # row close (PRE): carries act_cycle and pre_cycle
EV_RFM = 2      # RFM command arriving at the bank


@dataclass(slots=True)
class BatchStats:
    """How a :func:`simulate_batch` call divided its work.

    ``points`` counts input lanes.  Each unique lane lands in exactly
    one of ``leaders``, ``replayed``, ``fallbacks``, ``singletons`` and
    ``aliased``, so those five sum to the unique lanes.  A round whose
    recorded leader covered no other lane counts its leader as a
    singleton.  ``joined`` counts the replayed or fallback lanes whose
    timing signature differs from their leader's (an inert join).
    ``python_replays`` counts replay attempts (a ``ValueError`` or a
    firing kernel turns an attempt into a fallback).  There is one
    replay path, so ``vector_replays`` always reads 0; the slot stays
    for telemetry readers that report every field.
    """

    points: int = 0        #: input lanes (including duplicates)
    groups: int = 0        #: leaders (recorded or stored) covering a lane
    leaders: int = 0       #: lanes simulated for real, with recording
    replayed: int = 0      #: follower lanes served by replay
    fallbacks: int = 0     #: follower lanes re-simulated for real
    singletons: int = 0    #: lanes simulated with no follower
    aliased: int = 0       #: lanes copying an identical-content lane
    joined: int = 0        #: followers of another timing signature
    vector_replays: int = 0
    python_replays: int = 0


#: Leader preference within a group: lanes whose kernels provably never
#: fire keep every follower replayable.  ``none`` has no kernels at
#: all; MINT/Mithril record-path kernels always return 0 (they mitigate
#: via RFM, which does not touch timing); the counter trackers can
#: fire; PARA fires all the time.
_LEADER_RANK = {
    "none": 0,
    "mint": 0,
    "mithril": 0,
    "graphene": 1,
    "prac": 1,
    "dsac": 1,
    "para": 2,
}


def _timing_signature(defense: Optional[DefenseConfig],
                      tmro_ns: Optional[float], timings) -> tuple:
    """The construction-time scalars that pin a lane's timeline.

    Lanes with equal signatures (and equal workloads) share a command
    timeline until a synchronous mitigation fires — see the module
    docstring for why these three values are the complete set.
    """
    d = defense or DefenseConfig()
    tmro = (
        timings.clock.cycles(tmro_ns)
        if tmro_ns is not None
        else d.express_tmro_cycles(timings)
    )
    if d.uses_rfm:
        return (tmro, True, d.effective_rfmth())
    return (tmro, False, None)


class _BankLog:
    """One bank's recorded events as parallel Python lists (append-hot).

    ``kinds[i]`` is the event kind; ``rows[i]`` the row of an ACT or
    CLOSE (-1 for an RFM); ``a[i]`` the ACT cycle of a CLOSE or the
    start cycle of an RFM; ``b[i]`` the PRE cycle of a CLOSE.  Order is
    the bank's service order, which is all a per-bank tracker sees.
    ``mixed`` is False when a replay may feed the log to one kernel
    with ``map``: it holds only ACTs or only CLOSEs.
    """

    __slots__ = ("kinds", "rows", "a", "b", "mixed")

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.rows: List[int] = []
        self.a: List[int] = []
        self.b: List[int] = []
        self.mixed = True

    def view(self, acts: bool, closes: bool) -> "_BankLog":
        """This log without the ACTs (``acts`` False) or the CLOSEs.

        A lane whose scheme has no act kernel (ImPress-P) or no close
        kernel (No-RP, ExPress) replays the shorter view; tracker state
        only ever sees the kinds it has kernels for, so the result is
        the same.
        """
        if acts and closes:
            return self
        wanted = (acts, closes, True)   # indexed by event kind
        keep = [wanted[kind] for kind in self.kinds]
        view = _BankLog()
        view.kinds = list(compress(self.kinds, keep))
        view.rows = list(compress(self.rows, keep))
        view.a = list(compress(self.a, keep))
        view.b = list(compress(self.b, keep))
        view.mixed = EV_RFM in view.kinds
        return view


class _Recorder:
    """Wraps a leader simulator's kernel slots with recording shims.

    The shims append to per-flat-bank :class:`_BankLog` streams at
    exactly the points the controller would invoke the real kernels, so
    recorded order equals kernel-invocation order.  The real kernels
    still run (the leader's own result must be a genuine fast-engine
    run); ``fired`` flips as soon as any act/close kernel returns a
    mitigation, which invalidates replay for *all* followers (RFM
    returns are timing-neutral and do not count).
    """

    __slots__ = ("logs", "_fired")

    def __init__(self, simulator: SystemSimulator) -> None:
        system = simulator.system
        per = system.banks_per_channel
        self.logs = [
            _BankLog() for _ in range(system.channels * per)
        ]
        self._fired = [False]
        for channel, controller in enumerate(simulator.controllers):
            for bank in range(per):
                self._install(controller, bank, self.logs[channel * per + bank])

    @property
    def fired(self) -> bool:
        """True once any act/close kernel fired a synchronous mitigation."""
        return self._fired[0]

    def _install(self, controller, bank: int, log: _BankLog) -> None:
        real_act = controller._act_kernels[bank]
        real_close = controller._close_kernels[bank]
        real_rfm = controller._rfm_kernels[bank]
        fired = self._fired
        kinds, rows, a, b = log.kinds, log.rows, log.a, log.b

        def act(row):
            kinds.append(EV_ACT)
            rows.append(row)
            a.append(0)
            b.append(0)
            if real_act is None:
                return 0
            count = real_act(row)
            if count:
                fired[0] = True
            return count

        def close(row, act_cycle, pre_cycle):
            kinds.append(EV_CLOSE)
            rows.append(row)
            a.append(act_cycle)
            b.append(pre_cycle)
            if real_close is None:
                return 0
            count = real_close(row, act_cycle, pre_cycle)
            if count:
                fired[0] = True
            return count

        def rfm(start):
            kinds.append(EV_RFM)
            rows.append(-1)
            a.append(start)
            b.append(0)
            return real_rfm(start)

        controller._act_kernels[bank] = act
        controller._close_kernels[bank] = close
        controller._rfm_kernels[bank] = rfm


def _follower_result(leader: SimResult, rfm_mitigations: int) -> SimResult:
    """The leader's result with the follower's own RFM-mitigation count.

    Everything else is shared by construction (identical timeline, and
    RFM-kernel returns only feed the ``rfm_mitigations`` counter).
    Lists and the counts dataclass are copied so callers mutating one
    result cannot corrupt its group siblings.
    """
    return dataclasses.replace(
        leader,
        core_cycles=list(leader.core_cycles),
        core_requests=list(leader.core_requests),
        counts=dataclasses.replace(leader.counts),
        core_demand_acts=list(leader.core_demand_acts),
        rfm_mitigations=rfm_mitigations,
    )


def _leader_order(lane) -> tuple:
    """Sort key putting the least-bending lane first.

    Tracker rank first (a leader that fires serves nobody), then the
    plainest signature: no tMRO before the longest tMRO, no RFM before
    the highest RFMTH.  An inert leader records the plain timeline, so
    every lane inert on it can join.
    """
    (_workload, defense, _tmro_ns), (tmro, uses_rfm, rfmth) = lane
    return (
        _LEADER_RANK[(defense or DefenseConfig()).tracker],
        tmro is not None, -(tmro or 0), uses_rfm, -(rfmth or 0),
    )


@dataclass(frozen=True, slots=True)
class _Recording:
    """A leader's run and what its recorded timeline proves.

    ``logs[flat]`` is the recorded :class:`_BankLog` of flat bank
    ``channel * banks_per_channel + bank``.  ``tmro_floor`` is the
    longest recorded ``pre - act`` plus the system's
    ``idle_close_cycles`` (None when idle close is disabled);
    ``max_bank_acts`` the most demand ACTs any bank recorded.
    ``view_cache`` holds what :meth:`views` built.
    """

    result: SimResult
    logs: List[_BankLog]
    signature: tuple
    fired: bool
    tmro_floor: Optional[int]
    max_bank_acts: int
    view_cache: Dict[tuple, List[_BankLog]] = field(
        default_factory=dict, compare=False
    )

    @classmethod
    def of(cls, result: SimResult, logs: List[_BankLog], signature: tuple,
           fired: bool, idle_close: Optional[int]) -> "_Recording":
        """A recording with its inertness bounds computed from ``logs``.

        ``b - a`` is ``pre - act`` for a CLOSE, 0 for an ACT and
        negative for an RFM, so its maximum is the longest open time.
        """
        longest = max(
            (max(map(sub, log.b, log.a), default=0) for log in logs),
            default=0,
        )
        return cls(
            result, logs, signature, fired,
            None if idle_close is None else longest + idle_close,
            max((log.kinds.count(EV_ACT) for log in logs), default=0),
        )

    def views(self, acts: bool, closes: bool) -> List[_BankLog]:
        """Every bank's :meth:`_BankLog.view`, built on first use."""
        key = (acts, closes)
        views = self.view_cache.get(key)
        if views is None:
            views = self.view_cache[key] = [
                log.view(acts, closes) for log in self.logs
            ]
        return views

    def inert(self, signature: tuple) -> bool:
        """Whether a lane's timing signature never binds on this timeline.

        *RFM* is inert iff every bank recorded fewer ACTs than the
        lane's RFMTH: ``acts_since_rfm`` only grows by one per ACT, so
        the controller's ``acts_since_rfm >= rfmth`` tests (step's RFM
        priority and ``_serve_demand``'s deadline guard) stay false.

        *tMRO* ``T`` is inert iff ``T > (pre - act) + idle_close`` for
        every recorded close, end-of-run flush closes included:

        * every step that sees the row open runs at a cycle ≤ its
          ``pre``, so step's ``cycle - act_cycle >= tmro`` is false;
        * every open-row wake the controller computes (step's idle
          wake, ``_serve_demand``'s deadline) is taken with an empty
          queue, so it also computes ``last_use + idle_close``, and
          ``last_use ≤ pre`` gives ``act + T > last_use + idle_close``:
          ``min(refresh, act + T, idle)`` is the plain
          ``min(refresh, idle)``;
        * so every heap push and every ``bank_wake`` equals the plain
          run's, stale-entry ties included, and by induction the two
          runs take the same steps.
        """
        tmro, uses_rfm, rfmth = signature
        if tmro is not None and (
            self.tmro_floor is None or tmro <= self.tmro_floor
        ):
            return False
        return not uses_rfm or rfmth > self.max_bank_acts

    @property
    def plain(self) -> bool:
        """True when the recording is the plain (no tMRO, no RFM) timeline."""
        return not self.fired and self.inert(self.signature)

    def detached(self) -> "_Recording":
        """A copy sharing the event logs but not the cached views.

        A :class:`TimelineStore` stores a detached copy and lends
        detached copies out, so the views a call builds die with it.
        """
        return _Recording(
            self.result, self.logs, self.signature, self.fired,
            self.tmro_floor, self.max_bank_acts,
        )

    def covers(self, signature: tuple) -> bool:
        """Whether a lane with ``signature`` shares this timeline."""
        return signature == self.signature or (
            self.plain and self.inert(signature)
        )


#: Bound on a :class:`TimelineStore` (entries, one per distinct trace
#: set).  A ``--quick`` paper rebuild stores 5 (~0.2 MB each at 800
#: requests per core).
TIMELINE_STORE_MAX_ENTRIES = 64


class TimelineStore:
    """Plain recorded timelines kept across :func:`simulate_batch` calls.

    Keyed by ``(system, trace digest)``; holds only recordings whose
    leader did not fire and whose signature is plain or inert, without
    their cached views.  Least-recently-used entries
    beyond :data:`TIMELINE_STORE_MAX_ENTRIES` are dropped.
    ``SweepRunner`` owns one, so a figure whose lanes all carry inert
    tMRO or RFM settings replays against the plain timeline an earlier
    figure recorded.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: "OrderedDict[tuple, _Recording]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple) -> Optional[_Recording]:
        """A detached copy of the recording under ``key``, or None."""
        recording = self._entries.get(key)
        if recording is None:
            return None
        self._entries.move_to_end(key)
        return recording.detached()

    def put(self, key: tuple, recording: _Recording) -> None:
        self._entries[key] = recording.detached()
        self._entries.move_to_end(key)
        while len(self._entries) > TIMELINE_STORE_MAX_ENTRIES:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()


def _may_share(leader: tuple, signature: tuple, system: SystemConfig) -> bool:
    """Whether a leader with signature ``leader`` could cover ``signature``.

    Equal signatures always share.  Otherwise both must be able to be
    inert, and a row stays open at least ``tRAS``, so a tMRO at or
    below ``tRAS + idle_close`` never is (ExPress's default 224 cycles
    against 96 + 150, say).
    """
    if signature == leader:
        return True
    idle_close = system.idle_close_cycles
    return all(
        tmro is None or (
            idle_close is not None
            and tmro > system.timings.tRAS + idle_close
        )
        for tmro in (leader[0], signature[0])
    )


def _replay_bank(log: _BankLog, act, close, rfm) -> Optional[int]:
    """Drives one bank's events through its kernels.

    Returns the RFM mitigations, or None as soon as an act or close
    kernel fires.  ``log`` holds only the kinds whose kernel is set.
    """
    if not log.mixed:
        if act is not None:
            fired = any(map(act, log.rows))
        else:
            fired = close is not None and any(
                map(close, log.rows, log.a, log.b)
            )
        return None if fired else 0
    mitigated = 0
    for kind, row, a, b in zip(log.kinds, log.rows, log.a, log.b):
        if kind == EV_ACT:
            if act(row):
                return None
        elif kind == EV_CLOSE:
            if close(row, a, b):
                return None
        elif rfm(a) is not None:
            mitigated += 1
    return mitigated


def replay_lane_python(defense: DefenseConfig, system: SystemConfig,
                       recording: _Recording) -> Tuple[bool, int]:
    """Exact replay of one lane through its real scheme/tracker kernels.

    Builds the lane's own scheme per channel, with the construction,
    seeds and kernel objects a real simulation would use, and drives
    the recorded events through it.  Returns ``(valid,
    rfm_mitigations)``; ``valid`` is False as soon as any act/close
    kernel fires a mitigation, at which point the lane must be
    re-simulated for real.  An exception (PRAC's out-of-range row, say)
    is the caller's cue to re-simulate too, so the error surfaces from
    the real engine.
    """
    per = system.banks_per_channel
    mitigated = 0
    for channel in range(system.channels):
        scheme = defense.build_scheme(system.timings, per)
        kernels = zip(
            scheme.act_kernels(), scheme.close_kernels(),
            scheme.rfm_kernels(),
        )
        for bank, (act, close, rfm) in enumerate(kernels):
            log = recording.views(act is not None, close is not None)[
                channel * per + bank
            ]
            count = _replay_bank(log, act, close, rfm)
            if count is None:
                return False, 0
            mitigated += count
    return True, mitigated


def simulate_batch(
    points: Sequence[object],
    system: Optional[SystemConfig] = None,
    n_requests_per_core: int = 2000,
    seed: int = 0,
    stats: Optional[BatchStats] = None,
    *,
    timelines: Optional[TimelineStore] = None,
) -> List[SimResult]:
    """Simulate a batch of sweep points; results in input order.

    Each point is anything :meth:`SweepRunner.run_many` accepts (a
    workload name, a ``(workload, defense[, tmro_ns])`` tuple, or an
    object with ``sweep_point()``).  Results are bit-identical to
    running each point through :func:`~repro.sim.system.simulate_workload`
    with the same ``system`` / ``n_requests_per_core`` / ``seed`` —
    lanes the replay cannot prove safe are simply simulated for real.
    A single-lane batch therefore degenerates to one fast-engine run.

    ``timelines`` lends plain recordings across calls: lanes it covers
    replay against them, and this call's plain leaders are added.
    Pass a :class:`BatchStats` to observe how the work was divided.
    """
    system = system or SystemConfig()
    timings = system.timings
    st = stats if stats is not None else BatchStats()

    normalized = [_normalize_point(point) for point in points]
    st.points += len(normalized)
    digests: Dict[object, str] = {}
    first_of: Dict[tuple, tuple] = {}
    aliases: Dict[tuple, tuple] = {}
    worklists: Dict[str, List[tuple]] = {}
    for key in dict.fromkeys(normalized):
        workload, defense, tmro_ns = key
        digest = digests.get(workload)
        if digest is None:
            if not isinstance(workload, str):
                system.validate_sources(tuple(workload))
            digest = digests[workload] = compiled_point_traces(
                workload, system.n_cores, n_requests_per_core, seed,
                system.mapper(),
            ).digest
        signature = _timing_signature(defense, tmro_ns, timings)
        first = first_of.setdefault(
            (digest, defense or DefenseConfig(), signature[0]), key
        )
        if first != key:
            aliases[key] = first
            st.aliased += 1
        else:
            worklists.setdefault(digest, []).append((key, signature))

    results: Dict[tuple, SimResult] = {}

    def build(key) -> SystemSimulator:
        # key is (workload, defense, tmro_ns): the builder's own order.
        return build_simulator(system, *key, n_requests_per_core, seed)

    def record(key, signature) -> _Recording:
        simulator = build(key)
        recorder = _Recorder(simulator)
        own = results[key] = simulator.run()
        # The recording keeps a copy: the caller's result stays theirs.
        return _Recording.of(
            _follower_result(own, own.rfm_mitigations), recorder.logs,
            signature, recorder.fired, system.idle_close_cycles,
        )

    def replay(key, recording: _Recording) -> None:
        if recording.fired:
            # The leader bent its own timeline; its result is still a
            # genuine fast-engine run, but no lane can replay it.
            st.fallbacks += 1
            results[key] = build(key).run()
            return
        st.python_replays += 1
        try:
            valid, rfm = replay_lane_python(
                key[1] or DefenseConfig(), system, recording
            )
        except ValueError:
            # PRAC's out-of-range row: re-simulate so the error (or its
            # absence) comes from the real engine.
            valid = False
        if valid:
            st.replayed += 1
            results[key] = _follower_result(recording.result, rfm)
        else:
            st.fallbacks += 1
            results[key] = build(key).run()

    # Per trace digest: take the stored plain recording, or run the
    # least-bending lane as a recorded leader; serve every lane it
    # covers; repeat on the lanes left over.
    for digest, lanes in worklists.items():
        store_key = (system, digest)
        recording = (
            timelines.get(store_key) if timelines is not None else None
        )
        lanes.sort(key=_leader_order)
        while lanes:
            leader = None
            if recording is None:
                (leader, signature), lanes = lanes[0], lanes[1:]
                if not any(
                    _may_share(signature, other, system)
                    for _key, other in lanes
                ):
                    # Nothing left could replay it: skip the recording.
                    st.singletons += 1
                    results[leader] = build(leader).run()
                    continue
                recording = record(leader, signature)
                if timelines is not None and recording.plain:
                    timelines.put(store_key, recording)
            served = [lane for lane in lanes if recording.covers(lane[1])]
            lanes = [lane for lane in lanes if not recording.covers(lane[1])]
            if leader is not None:
                if served:
                    st.leaders += 1
                else:
                    st.singletons += 1
            st.groups += bool(served)
            for key, signature in served:
                st.joined += signature != recording.signature
                replay(key, recording)
            recording = None

    for key, first in aliases.items():
        original = results[first]
        results[key] = _follower_result(original, original.rfm_mitigations)
    return [results[key] for key in normalized]
