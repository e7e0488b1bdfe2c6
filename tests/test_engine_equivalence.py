"""Seeded old-vs-new engine equivalence: SimResults must be bit-identical.

The optimized :class:`SystemSimulator` (packed events, bank-wakeup
deduplication, compiled traces, slotted hot structures) must produce
exactly the same :class:`SimResult` as the preserved pre-optimization
:class:`ReferenceSimulator` on every workload/defense combination.  Any
mismatch here means the optimization changed simulation semantics.
"""

import pytest

from repro.memctrl.controller import ChannelController
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.reference import ReferenceSimulator
from repro.sim.system import SystemSimulator
from repro.workloads.attacks import hammer_trace, row_press_trace
from repro.workloads.synthetic import rate_mode_traces
from repro.workloads.trace import Trace

REQUESTS = 150


def assert_equivalent(system, traces, defense=None, tmro_ns=None):
    reference = ReferenceSimulator(
        system, traces, defense, tmro_ns=tmro_ns
    ).run()
    optimized = SystemSimulator(
        system, traces, defense, tmro_ns=tmro_ns
    ).run()
    assert optimized.to_json() == reference.to_json()


#: Every tracker the simulator supports appears at least once, so the
#: bit-identical contract covers the full kernel surface.
DEFENSES = [
    None,
    DefenseConfig(tracker="graphene", scheme="no-rp"),
    DefenseConfig(tracker="graphene", scheme="impress-p"),
    DefenseConfig(tracker="graphene", scheme="express", alpha=1.0),
    DefenseConfig(tracker="graphene", scheme="impress-n"),
    DefenseConfig(tracker="para", scheme="no-rp", trh=100),
    DefenseConfig(tracker="para", scheme="impress-p", trh=100),
    DefenseConfig(tracker="mithril", scheme="no-rp", rfmth=20),
    DefenseConfig(tracker="mithril", scheme="impress-p", rfmth=20),
    DefenseConfig(tracker="mint", scheme="impress-n", trh=1600, rfmth=20),
    DefenseConfig(tracker="mint", scheme="impress-p", trh=1600, rfmth=20),
    DefenseConfig(tracker="prac", scheme="no-rp", trh=150),
    DefenseConfig(tracker="prac", scheme="impress-p", trh=150),
    DefenseConfig(tracker="dsac", scheme="no-rp", trh=300),
    DefenseConfig(tracker="dsac", scheme="impress-p", trh=300),
]


def _defense_id(defense):
    if defense is None:
        return "none"
    return f"{defense.tracker}-{defense.scheme}"


class TestSeededEquivalence:
    @pytest.mark.parametrize("defense", DEFENSES, ids=_defense_id)
    @pytest.mark.parametrize("workload", ["mcf", "copy", "add_copy"])
    def test_workload_defense_matrix(self, workload, defense):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces(workload, 2, REQUESTS, seed=7)
        assert_equivalent(system, traces, defense)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_seeds(self, seed):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces("mcf", 2, REQUESTS, seed=seed)
        assert_equivalent(
            system, traces, DefenseConfig(tracker="graphene",
                                          scheme="impress-p")
        )

    def test_tmro_override(self):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces("copy", 2, REQUESTS, seed=4)
        assert_equivalent(system, traces, None, tmro_ns=66.0)

    def test_multi_channel(self):
        system = SystemConfig(n_cores=2, channels=2, banks_per_channel=8)
        traces = rate_mode_traces("add", 2, REQUESTS, seed=2)
        assert_equivalent(
            system, traces, DefenseConfig(tracker="graphene",
                                          scheme="impress-p")
        )

    def test_eight_core_table2_shape(self):
        system = SystemConfig()
        traces = rate_mode_traces("triad", 8, 60, seed=9)
        assert_equivalent(
            system, traces, DefenseConfig(tracker="mint", scheme="impress-n",
                                          rfmth=20)
        )

    def test_single_core_canonical(self):
        system = SystemConfig(n_cores=1)
        traces = rate_mode_traces("mcf", 1, 400, seed=0)
        assert_equivalent(system, traces)

    def test_empty_traces(self):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        assert_equivalent(system, [Trace([]), Trace([])])

    def test_attack_traffic(self):
        system = SystemConfig(n_cores=1, banks_per_channel=4)
        mapper = system.mapper()
        trace = hammer_trace(mapper, bank=0, rows=[10, 30], n_requests=600)
        assert_equivalent(
            system, [trace],
            DefenseConfig(tracker="graphene", scheme="no-rp", trh=150),
        )

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "ROADMAP item 3: at channel 0, bank 58, cycle 17856 core 2's "
            "and core 4's same-cycle arrivals enter the bank queue in "
            "opposite orders in the two engines (5200/192 vs 5196/188 "
            "demand/mitigative ACTs); drop this marker with that fix"
        ),
    )
    def test_paper_point_para_trh2000(self):
        """The `repro run --quick` point where the engines disagree."""
        system = SystemConfig()
        traces = rate_mode_traces("mcf", system.n_cores, 800, seed=0)
        assert_equivalent(
            system, traces,
            DefenseConfig(tracker="para", scheme="no-rp", trh=2000),
        )

    def test_paper_point_first_differing_act(self):
        """The locator pins the paper point's divergence to one ACT:
        both engines open from the same queue, in opposite orders."""
        from repro.scenarios.fuzz import first_divergence

        located = first_divergence(
            SystemConfig(), "mcf",
            DefenseConfig(tracker="para", scheme="no-rp", trh=2000),
            n_requests=800, seed=0,
        )
        assert (located.channel, located.bank, located.cycle,
                located.kind) == (0, 58, 17856, "queue-order")
        assert (located.fast.row, located.fast.core) == (292430, 2)
        assert (located.reference.row, located.reference.core) == (
            552464, 4)

    def test_row_press_traffic(self):
        system = SystemConfig(n_cores=1, banks_per_channel=4)
        mapper = system.mapper()
        trace = row_press_trace(
            mapper, bank=0, row=12, n_requests=300, hold_gap_cycles=40
        )
        assert_equivalent(
            system, [trace],
            DefenseConfig(tracker="graphene", scheme="impress-p", trh=200),
        )


class TestOracleDiscipline:
    """The reference keeps its event discipline: one push per wakeup,
    no dedup, a ``step`` on every bank event.  The fast engine's dedup
    skips most of those steps, which is why the counts differ."""

    @staticmethod
    def counted_run(engine, monkeypatch):
        calls = [0]
        step = ChannelController.step

        def counting(controller, bank, cycle):
            calls[0] += 1
            return step(controller, bank, cycle)

        monkeypatch.setattr(ChannelController, "step", counting)
        system = SystemConfig()
        traces = rate_mode_traces("mcf", system.n_cores, 160, seed=0)
        sim = engine(
            system, traces,
            DefenseConfig(tracker="graphene", scheme="impress-p"),
        )
        sim.run()
        return sim, traces, calls[0]

    def test_reference_steps_and_pushes(self, monkeypatch):
        sim, _, steps = self.counted_run(ReferenceSimulator, monkeypatch)
        assert steps == 9159
        assert sim._seq == 11783

    def test_fast_engine_steps(self, monkeypatch):
        _, _, steps = self.counted_run(SystemSimulator, monkeypatch)
        assert steps == 2121

    def test_reference_reads_the_trace_columns(self, monkeypatch):
        _, traces, _ = self.counted_run(ReferenceSimulator, monkeypatch)
        assert [trace._requests for trace in traces] == [None] * len(traces)


def _fuzzed_specs(seed=2026, count=8):
    """Pinned-seed fuzzer candidates extending the equivalence matrix.

    The scenario fuzzer's generator reaches configurations the
    hand-written matrix above does not (phase-changing attackers,
    attacker-vs-attacker bank sharing, MOP disabled, mixed topologies),
    so a fixed sample of its space rides along here.
    """
    import random

    from repro.scenarios.fuzz import mutate_spec, random_spec

    rng = random.Random(seed)
    return [mutate_spec(rng, random_spec(rng, index)) for index in range(count)]


class TestFuzzedEquivalence:
    @pytest.mark.parametrize("index", range(8))
    def test_fuzzed_scenario_matrix(self, index):
        from repro.workloads.compiled import compiled_source_traces

        spec = _fuzzed_specs()[index]
        compiled = compiled_source_traces(
            spec.cores, REQUESTS, 0, spec.system.mapper()
        )
        traces = [entry.trace for entry in compiled]
        assert_equivalent(
            spec.system, traces, spec.defense, tmro_ns=spec.tmro_ns
        )


class TestCompiledPathInvariants:
    def test_precompiled_matches_on_the_fly(self):
        from repro.workloads.compiled import compile_traces

        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces("mcf", 2, REQUESTS, seed=11)
        compiled = compile_traces(traces, system.mapper())
        from_traces = SystemSimulator(system, traces).run()
        from_compiled = SystemSimulator(system, compiled=compiled).run()
        assert from_traces.to_json() == from_compiled.to_json()

    def test_wrong_mapper_rejected(self):
        from repro.dram.address import MopAddressMapper
        from repro.workloads.compiled import compile_traces

        system = SystemConfig(n_cores=1, banks_per_channel=8)
        traces = rate_mode_traces("mcf", 1, 20, seed=0)
        wrong = compile_traces(
            traces, MopAddressMapper(channels=2, banks_per_channel=4)
        )
        with pytest.raises(ValueError):
            SystemSimulator(system, compiled=wrong)

    def test_rerun_determinism(self):
        system = SystemConfig(n_cores=2, banks_per_channel=8)
        traces = rate_mode_traces("add", 2, REQUESTS, seed=1)
        first = SystemSimulator(system, traces).run()
        second = SystemSimulator(system, traces).run()
        assert first.to_json() == second.to_json()
