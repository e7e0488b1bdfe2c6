"""Online invariant engine: clean runs stay clean, planted faults trip.

Three contracts:

* **No false positives** — every defense in the equivalence matrix,
  including attack traffic, runs violation-free under the monitor.
* **No perturbation** — a monitored run's SimResult is bit-identical to
  an unmonitored one, and an unmonitored simulator's kernel slots hold
  the kernels it was built with (the zero-cost-when-disabled guarantee).
* **True positives** — the planted ``lax-tmro`` fault trips the
  ``tmro-deadline`` invariant; tampering with conservation or refresh
  state trips their checks.
"""

import pytest

from repro.scenarios.registry import get_scenario
from repro.security import faults
from repro.security.invariants import (
    DEFAULT_TMRO_SLACK_CYCLES,
    InvariantMonitor,
    monitored_run,
)
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.reference import ReferenceSimulator
from repro.sim.system import SystemSimulator, build_simulator
from repro.workloads.attacks import hammer_trace, row_press_trace
from repro.workloads.synthetic import rate_mode_traces

REQUESTS = 120

DEFENSES = [
    DefenseConfig(tracker="graphene", scheme="impress-p"),
    DefenseConfig(tracker="graphene", scheme="impress-n"),
    DefenseConfig(tracker="graphene", scheme="express", alpha=1.0),
    DefenseConfig(tracker="para", scheme="impress-p", trh=100),
    DefenseConfig(tracker="mithril", scheme="impress-p", rfmth=20),
    DefenseConfig(tracker="mint", scheme="impress-n", trh=1600, rfmth=20),
    DefenseConfig(tracker="prac", scheme="impress-p", trh=150),
    DefenseConfig(tracker="dsac", scheme="impress-p", trh=300),
]


def _defense_id(defense):
    return f"{defense.tracker}-{defense.scheme}"


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    faults.clear()
    yield
    faults.clear()


class TestCleanRuns:
    @pytest.mark.parametrize("defense", DEFENSES, ids=_defense_id)
    def test_workload_matrix_is_violation_free(self, defense):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces("mcf", 2, REQUESTS, seed=7)
        sim = SystemSimulator(system, traces, defense)
        _, monitor = monitored_run(sim, checkpoint_cycles=20_000)
        assert monitor.ok, [v.describe() for v in monitor.violations]
        assert monitor.closures_checked > 0

    @pytest.mark.parametrize(
        "defense",
        [
            DefenseConfig(tracker="graphene", scheme="impress-p", trh=200),
            DefenseConfig(tracker="graphene", scheme="impress-n", trh=200),
            DefenseConfig(tracker="graphene", scheme="express", trh=200),
        ],
        ids=_defense_id,
    )
    def test_row_press_attack_is_violation_free(self, defense):
        system = SystemConfig(n_cores=1, banks_per_channel=4)
        trace = row_press_trace(
            system.mapper(), bank=0, row=12, n_requests=250,
            hold_gap_cycles=40,
        )
        sim = SystemSimulator(system, [trace], defense)
        _, monitor = monitored_run(sim, checkpoint_cycles=20_000)
        assert monitor.ok, [v.describe() for v in monitor.violations]

    def test_hammer_attack_is_violation_free(self):
        system = SystemConfig(n_cores=1, banks_per_channel=4)
        trace = hammer_trace(
            system.mapper(), bank=0, rows=[10, 30], n_requests=1500
        )
        defense = DefenseConfig(tracker="graphene", scheme="impress-p",
                                trh=60)
        sim = SystemSimulator(system, [trace], defense)
        _, monitor = monitored_run(sim, checkpoint_cycles=20_000)
        assert monitor.ok, [v.describe() for v in monitor.violations]
        # The attack forces mitigations, so conservation was exercised.
        assert any(ledger.produced > 0 for ledger in monitor._ledgers)

    def test_reference_engine_supported(self):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces("copy", 2, REQUESTS, seed=3)
        defense = DefenseConfig(tracker="graphene", scheme="impress-n")
        sim = ReferenceSimulator(system, traces, defense)
        _, monitor = monitored_run(sim, checkpoint_cycles=20_000)
        assert monitor.ok, [v.describe() for v in monitor.violations]


def add_copy():
    """A benign stream mix: ``(simulator, tmro_ns)``."""
    system = SystemConfig(n_cores=2, banks_per_channel=8)
    defense = DefenseConfig(tracker="graphene", scheme="impress-p")
    traces = rate_mode_traces("add_copy", 2, REQUESTS, seed=5)
    return SystemSimulator(system, traces, defense), None


def colocated_hammer_mcf():
    """The co-located attack preset on its own topology and defense."""
    scenario = get_scenario("colocated_hammer_mcf")
    sim = build_simulator(
        scenario.system, scenario.cores, scenario.defense,
        scenario.tmro_ns, REQUESTS, 0,
    )
    return sim, scenario.tmro_ns


class TestNonPerturbation:
    @pytest.mark.parametrize(
        "make_sim", [add_copy, colocated_hammer_mcf],
        ids=lambda make_sim: make_sim.__name__,
    )
    def test_monitored_result_is_bit_identical(self, make_sim):
        straight = make_sim()[0].run()
        sim, tmro_ns = make_sim()
        monitored, monitor = monitored_run(
            sim, tmro_ns=tmro_ns, checkpoint_cycles=7_000,
        )
        assert monitor.ok, [v.describe() for v in monitor.violations]
        assert monitored.to_json() == straight.to_json()
        assert monitor.last_checkpoint_cycle == straight.elapsed_cycles

    def test_unmonitored_simulator_keeps_its_kernels(self):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces("mcf", 2, 40, seed=0)
        sim = SystemSimulator(
            system, traces, DefenseConfig(tracker="graphene",
                                          scheme="impress-p")
        )

        def slots():
            return [
                kernel
                for controller in sim.controllers
                for name in ("_act_kernels", "_close_kernels", "_rfm_kernels")
                for kernel in getattr(controller, name)
            ]

        built = slots()
        sim.run()
        assert list(map(id, slots())) == list(map(id, built))

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize(
        "scheme", ["no-rp", "express", "impress-n", "impress-p"]
    )
    def test_every_closure_is_checked(self, engine, scheme):
        """The monitor's close slot sees one closure per demand ACT,
        None slots (No-RP, ExPress) included."""
        sim = build_simulator(
            SystemConfig(n_cores=2, banks_per_channel=8), "mcf",
            DefenseConfig(tracker="graphene", scheme=scheme),
            n_requests=REQUESTS, engine=engine,
        )
        result, monitor = monitored_run(sim, checkpoint_cycles=7_000)
        assert monitor.ok, [v.describe() for v in monitor.violations]
        assert monitor.closures_checked == result.counts.demand_acts > 0

    def test_double_attach_rejected(self):
        system = SystemConfig(n_cores=1, banks_per_channel=4)
        traces = rate_mode_traces("mcf", 1, 10, seed=0)
        sim = SystemSimulator(system, traces)
        monitor = InvariantMonitor().attach(sim)
        with pytest.raises(RuntimeError, match="already attached"):
            monitor.attach(sim)


def _express_press_sim():
    """An ExPress run whose workload holds rows open against tMRO.

    MOP auto-precharge is disabled so only the tMRO limit (or the
    planted fault's lax version of it) closes the pressed row.
    """
    system = SystemConfig(
        n_cores=1, banks_per_channel=4, mop_burst_lines=None
    )
    trace = row_press_trace(
        system.mapper(), bank=0, row=12, n_requests=250, hold_gap_cycles=40
    )
    defense = DefenseConfig(tracker="graphene", scheme="express", trh=200)
    return SystemSimulator(system, [trace], defense)


class TestPlantedFault:
    def test_lax_tmro_trips_the_deadline_invariant(self):
        with faults.injected("lax-tmro"):
            _, monitor = monitored_run(
                _express_press_sim(), checkpoint_cycles=10_000
            )
        assert not monitor.ok
        assert monitor.violation_names() == ("tmro-deadline",)
        first = monitor.violations[0]
        assert first.cycle > 0
        assert first.checkpoint_cycle >= 0
        assert first.cycle >= first.checkpoint_cycle

    def test_same_run_without_fault_is_clean(self):
        _, monitor = monitored_run(
            _express_press_sim(), checkpoint_cycles=10_000
        )
        assert monitor.ok, [v.describe() for v in monitor.violations]

    def test_slack_covers_legitimate_scheduling_delay(self):
        """The intended tMRO is never overshot by more than the slack on
        a clean run — the margin that makes the deadline check sound."""
        sim = _express_press_sim()
        tight = InvariantMonitor(tmro_slack_cycles=0)
        monitored_run(sim, monitor=tight, checkpoint_cycles=10_000)
        overshoots = [
            v for v in tight.violations if v.invariant == "tmro-deadline"
        ]
        # With zero slack a handful of in-flight-burst overshoots are
        # expected; none may reach the default slack.
        for violation in overshoots:
            open_cycles = int(violation.message.split(" open ")[1].split()[0])
            intended = int(violation.message.split("tMRO ")[1].split()[0])
            assert open_cycles - intended < DEFAULT_TMRO_SLACK_CYCLES


class TestTamperDetection:
    def _run_monitored(self):
        system = SystemConfig(n_cores=1, banks_per_channel=4)
        trace = hammer_trace(
            system.mapper(), bank=0, rows=[10, 30], n_requests=300
        )
        defense = DefenseConfig(tracker="graphene", scheme="impress-p",
                                trh=150)
        sim = SystemSimulator(system, [trace], defense)
        monitor = InvariantMonitor().attach(sim)
        sim.run()
        return sim, monitor

    def test_conservation_catches_partial_blocks(self):
        sim, monitor = self._run_monitored()
        sim.controllers[0].counts.mitigative_acts += 1
        monitor.checkpoint()
        assert "mitigation-conservation" in monitor.violation_names()
        assert "whole 4-ACT" in monitor.violations[0].message

    def test_conservation_catches_lost_mitigations(self):
        sim, monitor = self._run_monitored()
        sim.controllers[0].counts.mitigative_acts += 4
        monitor.checkpoint()
        assert "mitigation-conservation" in monitor.violation_names()

    def test_refresh_monotonicity_catches_rewind(self):
        sim, monitor = self._run_monitored()
        monitor.checkpoint()
        sim.controllers[0].refresh[0]._next_due -= 10
        monitor.checkpoint()
        assert "refresh-monotonic" in monitor.violation_names()
