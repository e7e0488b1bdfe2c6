"""Stepped runs: ``run_until`` in strides must equal one straight ``run()``.

The contract (``SystemSimulator.run_until`` / ``ReferenceSimulator.run_until``):
pause either engine at any stop cycle, continue it — in one more call or
in many strides — and every SimResult field is bit-identical to the
uninterrupted run.  ``monitored_run`` steps every monitored run this way,
the fuzzer's divergence bisection steps both engines in lockstep, and
the ``worker-kill-mid-task`` fault stops a worker's run part way.  Also
pinned: ``run_until`` semantics (``None`` completes, ``done``/``now``
progress), that a monitored run keeps the straight run's result, and
that both engines agree on ``state_fingerprint`` at every shared stop
cycle.
"""

import pytest

from repro.scenarios.fuzz import state_fingerprint
from repro.security.invariants import monitored_run
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.reference import ReferenceSimulator
from repro.sim.system import SystemSimulator
from repro.workloads.synthetic import rate_mode_traces

from test_engine_equivalence import result_fields

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
        assert result_fields(stepped.finish()) == result_fields(straight)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("fraction", [0.1, 0.5, 0.9])
    def test_stop_position_does_not_matter(self, engine, fraction):
        """One stop anywhere, then ``run()``, equals the straight run."""
        defense = DefenseConfig(tracker="graphene", scheme="impress-p")
        straight = _build(engine, "add_copy", defense).run()

        paused = _build(engine, "add_copy", defense)
        assert not paused.run_until(
            stop_cycle=int(straight.elapsed_cycles * fraction)
        )
        assert result_fields(paused.run()) == result_fields(straight)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_stop_past_the_end_completes(self, engine):
        defense = DefenseConfig(tracker="para", scheme="impress-p", trh=100)
        straight = _build(engine, defense=defense).run()

        sim = _build(engine, defense=defense)
        assert sim.run_until(stop_cycle=2 * straight.elapsed_cycles)
        assert sim.now == straight.elapsed_cycles
        assert result_fields(sim.finish()) == result_fields(straight)


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
        assert result_fields(monitored) == result_fields(straight)
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
        """Both engines, stepped to the same stop cycle, agree on all
        observable state — the property divergence bisection relies on."""
        fast = _build("fast", defense=defense)
        reference = _build("reference", defense=defense)
        for stop in (1000, 5000, 20000, None):
            fast_done = fast.run_until(stop_cycle=stop)
            ref_done = reference.run_until(stop_cycle=stop)
            assert fast_done == ref_done
            assert state_fingerprint(fast) == state_fingerprint(reference)
