"""Checkpointing: resume-from-snapshot must equal the straight run.

The contract (``repro.sim.snapshot``): pause either engine mid-run with
``run_until``, ``snapshot()`` it, ``restore()`` into a *freshly built*
identical simulator, run that to completion — and every SimResult field
is bit-identical to the uninterrupted run.  Also pinned: snapshotting is
non-destructive (the paused run can itself continue), restores can
rewind a finished run back to the checkpoint, and every tracker's
snapshot/restore round-trips its kernel state including RNG streams.
"""

import dataclasses
import random

import pytest

from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.reference import ReferenceSimulator
from repro.sim.snapshot import capture, state_fingerprint
from repro.sim.system import SystemSimulator
from repro.workloads.synthetic import rate_mode_traces

from test_engine_equivalence import result_fields

REQUESTS = 120

#: One defense per tracker kind, so checkpointing covers every tracker's
#: snapshot/restore implementation plus the undefended path.
DEFENSES = [
    None,
    DefenseConfig(tracker="graphene", scheme="impress-p"),
    DefenseConfig(tracker="graphene", scheme="express", alpha=1.0),
    DefenseConfig(tracker="para", scheme="impress-p", trh=100),
    DefenseConfig(tracker="mithril", scheme="impress-p", rfmth=20),
    DefenseConfig(tracker="mint", scheme="impress-n", trh=1600, rfmth=20),
    DefenseConfig(tracker="prac", scheme="no-rp", trh=150),
    DefenseConfig(tracker="dsac", scheme="impress-p", trh=300),
]

ENGINES = {
    "fast": SystemSimulator,
    "reference": ReferenceSimulator,
}


def _defense_id(defense):
    if defense is None:
        return "none"
    return f"{defense.tracker}-{defense.scheme}"


def _build(engine, workload="mcf", defense=None, seed=7):
    system = SystemConfig(n_cores=2, banks_per_channel=8)
    traces = rate_mode_traces(workload, 2, REQUESTS, seed=seed)
    return ENGINES[engine](system, traces, defense)


class TestResumeEqualsStraightRun:
    @pytest.mark.parametrize("defense", DEFENSES, ids=_defense_id)
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_matrix(self, engine, defense):
        straight = _build(engine, defense=defense).run()

        paused = _build(engine, defense=defense)
        done = paused.run_until(stop_cycle=straight.elapsed_cycles // 2)
        assert not done
        snap = paused.snapshot()

        resumed = _build(engine, defense=defense)
        resumed.restore(snap)
        result = resumed.run()
        assert result_fields(result) == result_fields(straight)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_checkpoint_position_does_not_matter(self, engine, fraction):
        defense = DefenseConfig(tracker="graphene", scheme="impress-p")
        straight = _build(engine, "add_copy", defense).run()
        stop = int(straight.elapsed_cycles * fraction)

        paused = _build(engine, "add_copy", defense)
        paused.run_until(stop_cycle=stop)
        resumed = _build(engine, "add_copy", defense)
        resumed.restore(paused.snapshot())
        assert result_fields(resumed.run()) == result_fields(straight)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_snapshot_is_non_destructive(self, engine):
        defense = DefenseConfig(tracker="mint", scheme="impress-p",
                                trh=1600, rfmth=20)
        straight = _build(engine, defense=defense).run()

        paused = _build(engine, defense=defense)
        paused.run_until(stop_cycle=straight.elapsed_cycles // 3)
        paused.snapshot()
        assert result_fields(paused.run()) == result_fields(straight)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_rewind_a_finished_run(self, engine):
        defense = DefenseConfig(tracker="para", scheme="impress-p", trh=100)
        sim = _build(engine, defense=defense)
        straight = sim.run()

        rewound = _build(engine, defense=defense)
        rewound.run_until(stop_cycle=straight.elapsed_cycles // 2)
        snap = rewound.snapshot()
        first = rewound.run()
        rewound.restore(snap)
        second = rewound.run()
        assert result_fields(first) == result_fields(straight)
        assert result_fields(second) == result_fields(straight)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_repeated_checkpoints(self, engine):
        """Stop-and-go in many small steps equals one straight run."""
        defense = DefenseConfig(tracker="graphene", scheme="impress-n")
        straight = _build(engine, defense=defense).run()

        stepped = _build(engine, defense=defense)
        stop, step = 0, max(1, straight.elapsed_cycles // 13)
        while not stepped.run_until(stop_cycle=stop):
            stepped.snapshot()
            stop += step
        assert result_fields(stepped.finish()) == result_fields(straight)


class TestRunUntilSemantics:
    def test_run_until_none_completes(self):
        sim = _build("fast")
        assert sim.run_until() is True
        assert sim.done

    def test_done_and_now_progress(self):
        sim = _build("fast")
        assert not sim.done
        done = sim.run_until(stop_cycle=2000)
        assert not done and not sim.done
        assert sim.now <= 2000
        assert sim.run_until() is True
        assert sim.done

    def test_cross_engine_restore_rejected(self):
        snap = capture(_build("fast"))
        with pytest.raises(ValueError, match="cannot restore"):
            _build("reference").restore(snap)

    def test_topology_mismatch_rejected(self):
        snap = capture(_build("fast"))
        other = SystemSimulator(
            SystemConfig(n_cores=1, banks_per_channel=8),
            rate_mode_traces("mcf", 1, 50, seed=7),
        )
        with pytest.raises(ValueError, match="topology"):
            other.restore(snap)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_non_int_queue_entry_rejected(self, engine):
        """Queues hold packed ints; a snapshot whose queue holds
        anything else (an older version's request objects) is refused
        before any state is written."""
        sim = _build(engine)
        sim.run_until(stop_cycle=400)
        snap = capture(sim)
        ctrl = snap.controllers[0]
        stale = dataclasses.replace(
            ctrl, queues=((object(),),) + ctrl.queues[1:],
        )
        stale_snap = dataclasses.replace(
            snap, controllers=(stale,) + snap.controllers[1:],
        )
        target = _build(engine)
        before = state_fingerprint(target)
        with pytest.raises(ValueError, match="not a packed int"):
            target.restore(stale_snap)
        assert state_fingerprint(target) == before
        assert target.now == 0

    def test_fingerprints_match_across_engines_at_stop(self):
        """Both engines, stepped to the same stop cycle, agree on all
        observable state — the property divergence bisection relies on."""
        defense = DefenseConfig(tracker="graphene", scheme="impress-p")
        fast = _build("fast", defense=defense)
        reference = _build("reference", defense=defense)
        for stop in (1000, 5000, 20000, None):
            fast_done = fast.run_until(stop_cycle=stop)
            ref_done = reference.run_until(stop_cycle=stop)
            assert fast_done == ref_done
            assert state_fingerprint(fast) == state_fingerprint(reference)


class TestTrackerRoundTrips:
    """snapshot -> perturb -> restore -> replay must be bit-faithful."""

    def _roundtrip(self, tracker, feed):
        feed(tracker, range(0, 40))
        snap = tracker.snapshot()
        baseline = tracker.snapshot()
        feed(tracker, range(40, 80))
        after_once = tracker.snapshot()
        tracker.restore(snap)
        assert tracker.snapshot() == baseline
        feed(tracker, range(40, 80))
        assert tracker.snapshot() == after_once

    def _feed_record(self, tracker, rows):
        for row in rows:
            tracker.record(row % 8)

    def test_graphene(self):
        from repro.trackers.graphene import GrapheneTracker

        self._roundtrip(GrapheneTracker(entries=4, internal_threshold=10),
                        self._feed_record)

    def test_mithril(self):
        from repro.trackers.mithril import MithrilTracker

        def feed(tracker, rows):
            self._feed_record(tracker, rows)
            tracker.on_rfm()

        self._roundtrip(MithrilTracker(entries=4), feed)

    def test_mint_rng_stream(self):
        from repro.trackers.mint import MintTracker

        def feed(tracker, rows):
            self._feed_record(tracker, rows)
            tracker.on_rfm()

        self._roundtrip(MintTracker(rfmth=8, rng=random.Random(3)), feed)

    def test_para_rng_stream(self):
        from repro.trackers.para import ParaTracker

        self._roundtrip(ParaTracker(p=0.25, rng=random.Random(5)),
                        self._feed_record)

    def test_prac(self):
        from repro.trackers.prac import PracTracker

        self._roundtrip(PracTracker(alert_threshold=7), self._feed_record)

    def test_dsac_eviction_order(self):
        from repro.trackers.dsac import DsacLikeTracker

        def feed(tracker, rows):
            for row in rows:
                # Distinct rows so the 4-entry table keeps evicting; the
                # tie-break is insertion order, which the dict snapshot
                # must preserve.
                tracker.record(row, weight=1.0 + (row % 3))

        self._roundtrip(DsacLikeTracker(entries=4, mitigation_threshold=9),
                        feed)

    def test_accounting(self):
        from repro.trackers.base import AccountingTracker

        def feed(tracker, rows):
            for row in rows:
                tracker.record(row % 8, weight=1.5)

        self._roundtrip(AccountingTracker(), feed)

    def test_base_tracker_rejects(self):
        from repro.trackers.base import Tracker

        class Bare(Tracker):
            def record(self, row, weight=1.0, cycle=0):
                return []

            def reset(self):
                pass

        with pytest.raises(NotImplementedError):
            Bare().snapshot()
        with pytest.raises(NotImplementedError):
            Bare().restore(None)
