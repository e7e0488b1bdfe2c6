"""Stepped runs: ``run_until`` in strides must equal one straight ``run()``.

The contract (``SystemSimulator.run_until`` / ``ReferenceSimulator.run_until``):
pause either engine at any stop cycle, continue it — in one more call or
in many strides — and every SimResult field is bit-identical to the
uninterrupted run.  ``monitored_run`` steps every monitored run this way,
and the ``worker-kill-mid-task`` fault stops a worker's run part way.
Also pinned: ``run_until`` semantics (``None`` completes, ``done``/``now``
progress), that a monitored run keeps the straight run's result, that
both engines' per-bank ACT logs (the fuzzer's ``ActLog``) agree at
every shared stop cycle, and the reference's calendar bookkeeping at
every stop.
"""

import pytest

from repro.scenarios.fuzz import ActLog
from repro.security.invariants import monitored_run
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.core import EVENT_BANK, EVENT_CORE
from repro.sim.reference import ReferenceSimulator
from repro.sim.system import SystemSimulator
from repro.workloads.synthetic import rate_mode_traces

REQUESTS = 120

#: One defense per tracker kind, plus the undefended path.
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


def assert_calendar_consistent(sim):
    """``_heap`` holds each pending cycle once, and ``_calendar`` one
    non-empty bucket under each of those cycles and no other.  Every
    entry stands for at least one wakeup, adjacent wakeups of one bank
    share an entry, and a core has at most one issue pending, so core
    entries have nothing to merge with."""
    assert sorted(sim._heap) == sorted(sim._calendar)
    assert all(sim._calendar.values())
    entries = [entry for bucket in sim._calendar.values() for entry in bucket]
    assert all(count >= 1 for _, _, count in entries)
    for bucket in sim._calendar.values():
        assert not any(
            kind == EVENT_BANK and (kind, payload) == nxt[:2]
            for (kind, payload, _), nxt in zip(bucket, bucket[1:])
        )
    cores = [payload for kind, payload, _ in entries if kind == EVENT_CORE]
    assert len(cores) == len(set(cores))


class TestSteppedEqualsStraightRun:
    @pytest.mark.parametrize("defense", DEFENSES, ids=_defense_id)
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_matrix(self, engine, defense):
        """Stop-and-go in 13 strides equals one straight run."""
        straight = _build(engine, defense=defense).run()

        stepped = _build(engine, defense=defense)
        stride = max(1, straight.elapsed_cycles // 13)
        stop, stops = stride, 0
        while not stepped.run_until(stop_cycle=stop):
            stops += 1
            stop += stride
        assert stops >= 12
        assert stepped.finish().to_json() == straight.to_json()

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_stop_position_does_not_matter(self, engine, fraction):
        """One stop anywhere, then ``run()``, equals the straight run;
        the reference's calendar is consistent at the stop and after."""
        defense = DefenseConfig(tracker="graphene", scheme="impress-p")
        straight = _build(engine, "add_copy", defense).run()

        paused = _build(engine, "add_copy", defense)
        assert not paused.run_until(
            stop_cycle=int(straight.elapsed_cycles * fraction)
        )
        if engine == "reference":
            assert_calendar_consistent(paused)
        assert paused.run().to_json() == straight.to_json()
        if engine == "reference":
            assert_calendar_consistent(paused)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_stop_past_the_end_completes(self, engine):
        defense = DefenseConfig(tracker="para", scheme="impress-p", trh=100)
        straight = _build(engine, defense=defense).run()

        sim = _build(engine, defense=defense)
        assert sim.run_until(stop_cycle=2 * straight.elapsed_cycles)
        assert sim.now == straight.elapsed_cycles
        assert sim.finish().to_json() == straight.to_json()


class TestReferenceCalendar:
    @pytest.mark.parametrize("defense", DEFENSES, ids=_defense_id)
    def test_after_a_full_run(self, defense):
        sim = _build("reference", defense=defense)
        sim.run()
        assert_calendar_consistent(sim)

    def test_run_ending_partway_through_a_cycle(self):
        """The last retirement is not the last event of its cycle: with
        a 100-cycle idle-close timer, the one request's completion and
        its bank's idle-close wakeup share cycle 144, completion first.
        The unprocessed wakeup stays pending under its cycle."""
        system = SystemConfig(
            n_cores=1, banks_per_channel=8, idle_close_cycles=100
        )
        traces = rate_mode_traces("mcf", 1, 1, seed=7)
        sim = ReferenceSimulator(system, traces)
        result = sim.run()
        assert sim.now == 144
        assert sim._heap == [144]
        assert len(sim._calendar[144]) == 1
        assert_calendar_consistent(sim)
        assert sim.run_until() is True
        assert sim._heap == [144]
        fast = SystemSimulator(system, traces).run()
        assert result.to_json() == fast.to_json()


class TestMonitoredRunEqualsStraightRun:
    @pytest.mark.parametrize("defense", DEFENSES, ids=_defense_id)
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_matrix(self, engine, defense):
        """``monitored_run`` steps the run between monitor checkpoints;
        with the monitor attached, the result is still the straight
        run's."""
        straight = _build(engine, defense=defense).run()
        monitored, monitor = monitored_run(
            _build(engine, defense=defense),
            checkpoint_cycles=max(1, straight.elapsed_cycles // 9),
        )
        assert monitored.to_json() == straight.to_json()
        assert monitor.last_checkpoint_cycle == straight.elapsed_cycles


class TestRunUntilSemantics:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_run_until_none_completes(self, engine):
        sim = _build(engine)
        assert sim.run_until() is True
        assert sim.done

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_done_and_now_progress(self, engine):
        sim = _build(engine)
        assert not sim.done
        done = sim.run_until(stop_cycle=2000)
        assert not done and not sim.done
        assert sim.now <= 2000
        assert sim.run_until() is True
        assert sim.done

    @pytest.mark.parametrize("defense", DEFENSES, ids=_defense_id)
    def test_fingerprints_match_across_engines_at_stop(self, defense):
        """Both engines, stepped to the same stop cycle, have issued the
        same demand ACTs: same bank, cycle, row, core and queue."""
        fast = _build("fast", defense=defense)
        reference = _build("reference", defense=defense)
        fast_log, reference_log = ActLog(fast), ActLog(reference)
        for stop in (1000, 5000, 20000, None):
            fast_done = fast.run_until(stop_cycle=stop)
            ref_done = reference.run_until(stop_cycle=stop)
            assert fast_done == ref_done
            assert fast_log.banks() == reference_log.banks()
        assert any(fast_log.banks().values())
