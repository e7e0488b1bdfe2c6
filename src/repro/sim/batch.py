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

(1) and (2) are construction-time scalars, so points agreeing on them —
the group's *timing signature* — share a timeline until (3) fires.  The
batch engine exploits this with a **leader/replay** scheme:

* **Record** — one *leader* lane per group runs the real fast engine
  with recording shims wrapped around its per-bank kernel slots,
  capturing every demand ACT, row close and RFM per bank
  (structure-of-arrays int64 NumPy timelines, ``tests`` pin them).
* **Replay** — every *follower* lane replays the recorded streams
  through its own tracker kernels, vectorized per bank
  (:mod:`repro.trackers.batch_kernels`), with an exact scalar replay
  for the combinations the vector kernels cannot decide.  A follower
  whose replay proves "no synchronous mitigation anywhere" gets the
  leader's :class:`~repro.sim.stats.SimResult` verbatim with only its
  own ``rfm_mitigations`` substituted — bit-identical to what a full
  fast-engine run would produce (``tests/test_batch_engine.py`` pins
  this against the oracle across the equivalence matrix).
* **Fall back** — if the leader itself fired (its run is still a valid
  fast-engine run) or a follower's replay diverges, that lane is
  simulated for real on the fast engine.  Correctness never depends on
  the replay verdicts; they only decide which lanes get to skip work.

The fast engine stays the oracle; without NumPy the tier is simply
unavailable (:func:`batch_available`) and every caller falls back to
per-point fast-engine runs.  See docs/performance.md § "Batch engine
tier".
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..trackers.batch_kernels import (
    EV_ACT,
    EV_CLOSE,
    EV_RFM,
    NUMPY_IMPORT_HINT,
    numpy_available,
    replay_lane_python,
    replay_lane_vector,
)
from .config import DefenseConfig, SystemConfig
from .stats import SimResult
from .system import SystemSimulator, build_simulator

__all__ = [
    "BatchStats",
    "batch_available",
    "simulate_batch",
]


def batch_available() -> bool:
    """True when the batch tier can run (NumPy importable)."""
    return numpy_available()


@dataclass(slots=True)
class BatchStats:
    """How a :func:`simulate_batch` call divided its work.

    ``points`` counts input lanes (after the call's own dedup the
    unique lanes are ``leaders + replayed + fallbacks + singletons``).
    ``vector_replays`` / ``python_replays`` count replay *attempts*;
    a lane may appear in both when the vector verdict was "unknown".
    """

    points: int = 0        #: input lanes (including duplicates)
    groups: int = 0        #: multi-lane timing-signature groups
    leaders: int = 0       #: lanes simulated for real, with recording
    replayed: int = 0      #: follower lanes served by replay
    fallbacks: int = 0     #: follower lanes re-simulated for real
    singletons: int = 0    #: lanes alone in their group (plain fast run)
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


def _normalize_point(point) -> Tuple[object, Optional[DefenseConfig],
                                     Optional[float]]:
    """Canonicalize a point spec into the ``(workload, defense, tmro_ns)``
    triple (mirrors ``repro.experiments.common._normalize_point``, kept
    local so the sim package does not import the experiments layer)."""
    sweep_point = getattr(point, "sweep_point", None)
    if sweep_point is not None:
        return sweep_point()
    if isinstance(point, str):
        return (point, None, None)
    workload, *rest = point
    defense = rest[0] if rest else None
    tmro_ns = rest[1] if len(rest) > 1 else None
    return (workload, defense, tmro_ns)


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
    """One bank's recorded events as parallel Python lists (append-hot)."""

    __slots__ = ("kinds", "rows", "a", "b")

    def __init__(self) -> None:
        self.kinds: List[int] = []
        self.rows: List[int] = []
        self.a: List[int] = []
        self.b: List[int] = []


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

    def timeline(self, banks_per_channel: int, timings):
        """The recorded streams as a NumPy :class:`RecordedTimeline`."""
        from ..trackers.batch_kernels import BankEvents, RecordedTimeline

        return RecordedTimeline(
            [
                BankEvents(log.kinds, log.rows, log.a, log.b)
                for log in self.logs
            ],
            banks_per_channel,
            timings,
        )


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


def simulate_batch(
    points: Sequence[object],
    system: Optional[SystemConfig] = None,
    n_requests_per_core: int = 2000,
    seed: int = 0,
    stats: Optional[BatchStats] = None,
) -> List[SimResult]:
    """Simulate a batch of sweep points; results in input order.

    Each point is anything :meth:`SweepRunner.run_many` accepts (a
    workload name, a ``(workload, defense[, tmro_ns])`` tuple, or an
    object with ``sweep_point()``).  Results are bit-identical to
    running each point through :func:`~repro.sim.system.simulate_workload`
    with the same ``system`` / ``n_requests_per_core`` / ``seed`` —
    lanes the replay cannot prove safe are simply simulated for real.
    A single-lane batch therefore degenerates to one fast-engine run.

    Raises ImportError when NumPy is unavailable; callers that want the
    graceful fallback should guard on :func:`batch_available`.  Pass a
    :class:`BatchStats` to observe how the work was divided.
    """
    if not numpy_available():
        raise ImportError(NUMPY_IMPORT_HINT)
    system = system or SystemConfig()
    timings = system.timings
    st = stats if stats is not None else BatchStats()

    normalized = [_normalize_point(point) for point in points]
    st.points += len(normalized)
    unique: List[tuple] = []
    for key in normalized:
        if key not in unique:
            unique.append(key)
    groups: Dict[tuple, List[tuple]] = {}
    for key in unique:
        workload, defense, tmro_ns = key
        signature = (workload, _timing_signature(defense, tmro_ns, timings))
        groups.setdefault(signature, []).append(key)

    results: Dict[tuple, SimResult] = {}

    def build(key) -> SystemSimulator:
        # key is (workload, defense, tmro_ns): the builder's own order.
        return build_simulator(system, *key, n_requests_per_core, seed)

    for lanes in groups.values():
        if len(lanes) == 1:
            st.singletons += 1
            results[lanes[0]] = build(lanes[0]).run()
            continue
        st.groups += 1
        leader_key = min(
            lanes,
            key=lambda key: _LEADER_RANK[
                (key[1] or DefenseConfig()).tracker
            ],
        )
        simulator = build(leader_key)
        recorder = _Recorder(simulator)
        results[leader_key] = simulator.run()
        st.leaders += 1

        followers = [key for key in lanes if key != leader_key]
        if recorder.fired:
            # The leader bent its own timeline; its result is still a
            # genuine fast-engine run, but no follower can replay it.
            for key in followers:
                st.fallbacks += 1
                results[key] = build(key).run()
            continue

        timeline = recorder.timeline(system.banks_per_channel, timings)
        for key in followers:
            defense = key[1] or DefenseConfig()
            st.vector_replays += 1
            verdict, rfm = replay_lane_vector(defense, timeline)
            if verdict == "unknown":
                st.python_replays += 1
                try:
                    valid, rfm = replay_lane_python(
                        defense, timings, system.banks_per_channel,
                        system.channels, recorder.logs,
                    )
                except Exception:
                    # e.g. PRAC's out-of-range row: re-simulate so the
                    # error (or its absence) comes from the real engine.
                    valid = False
                verdict = "valid" if valid else "diverged"
            if verdict == "valid":
                st.replayed += 1
                results[key] = _follower_result(results[leader_key], rfm)
            else:
                st.fallbacks += 1
                results[key] = build(key).run()

    return [results[key] for key in normalized]
