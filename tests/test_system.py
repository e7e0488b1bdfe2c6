"""Integration tests for the full system simulator."""

import pytest

from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.metrics import normalized_weighted_speedup
from repro.sim.system import SystemSimulator, simulate_workload
from repro.workloads.synthetic import rate_mode_traces

SMALL = 150  # requests per core: enough to exercise every path, fast


def small_system(**kwargs):
    defaults = dict(n_cores=2, banks_per_channel=8)
    defaults.update(kwargs)
    return SystemConfig(**defaults)


class TestBasicRuns:
    def test_all_requests_retire(self):
        system = small_system()
        traces = rate_mode_traces("mcf", 2, SMALL, seed=0)
        result = SystemSimulator(system, traces).run()
        assert result.core_requests == [SMALL, SMALL]
        assert all(cycles > 0 for cycles in result.core_cycles)

    def test_deterministic(self):
        system = small_system()
        traces = rate_mode_traces("add", 2, SMALL, seed=1)
        a = SystemSimulator(system, traces).run()
        b = SystemSimulator(system, traces).run()
        assert a.elapsed_cycles == b.elapsed_cycles
        assert a.counts.demand_acts == b.counts.demand_acts

    def test_trace_core_mismatch_rejected(self):
        system = small_system()
        traces = rate_mode_traces("mcf", 1, SMALL)
        with pytest.raises(ValueError):
            SystemSimulator(system, traces)

    def test_negative_extra_latency_rejected(self):
        # A completion before its column command would schedule an
        # event in the past of the cycle being processed.
        with pytest.raises(ValueError, match="extra_latency_cycles"):
            SystemConfig(extra_latency_cycles=-1)

    def test_stream_has_higher_hit_rate_than_spec(self):
        stream = simulate_workload(
            "copy", system=small_system(), n_requests_per_core=400
        )
        spec = simulate_workload(
            "mcf", system=small_system(), n_requests_per_core=400
        )
        assert stream.hit_rate > spec.hit_rate + 0.2

    def test_refresh_happens_on_long_runs(self):
        result = simulate_workload(
            "xalancbmk", system=small_system(), n_requests_per_core=600
        )
        assert result.counts.refreshes > 0

    def test_empty_traces_complete(self):
        from repro.workloads.trace import Trace

        system = small_system()
        result = SystemSimulator(system, [Trace([]), Trace([])]).run()
        assert result.core_requests == [0, 0]


class TestTmroInSystem:
    def test_tmro_closures_counted(self):
        result = simulate_workload(
            "copy", system=small_system(), n_requests_per_core=300,
            tmro_ns=66.0,
        )
        assert result.tmro_closures > 0

    def test_tmro_slows_stream(self):
        base = simulate_workload(
            "copy", system=small_system(), n_requests_per_core=400
        )
        limited = simulate_workload(
            "copy", system=small_system(), n_requests_per_core=400,
            tmro_ns=36.0,
        )
        assert normalized_weighted_speedup(limited, base) < 1.0


class TestDefensesInSystem:
    def test_graphene_no_overhead_benign(self):
        system = small_system()
        base = simulate_workload(
            "gcc", system=system, n_requests_per_core=300
        )
        protected = simulate_workload(
            "gcc",
            DefenseConfig(tracker="graphene", scheme="impress-p"),
            system=system,
            n_requests_per_core=300,
        )
        speedup = normalized_weighted_speedup(protected, base)
        assert speedup == pytest.approx(1.0, abs=0.02)

    def test_para_mitigations_occur(self):
        result = simulate_workload(
            "mcf",
            DefenseConfig(tracker="para", scheme="no-rp", trh=100),
            system=small_system(),
            n_requests_per_core=400,
        )
        assert result.counts.mitigative_acts > 0

    def test_mint_rfm_issued(self):
        result = simulate_workload(
            "mcf",
            DefenseConfig(tracker="mint", scheme="impress-p", trh=1600,
                          rfmth=20),
            system=small_system(),
            n_requests_per_core=400,
        )
        assert result.counts.rfms > 0

    def test_express_increases_demand_acts_on_stream(self):
        system = small_system()
        base = simulate_workload(
            "copy",
            DefenseConfig(tracker="graphene", scheme="no-rp"),
            system=system, n_requests_per_core=400,
        )
        express = simulate_workload(
            "copy",
            DefenseConfig(tracker="graphene", scheme="express", alpha=1.0),
            system=system, n_requests_per_core=400,
        )
        assert express.counts.demand_acts > base.counts.demand_acts

    def test_defense_validation(self):
        with pytest.raises(ValueError):
            DefenseConfig(tracker="bogus")
        with pytest.raises(ValueError):
            DefenseConfig(scheme="bogus")
        with pytest.raises(ValueError):
            DefenseConfig(trh=-1)

    def test_mint_rfmth_tightens_for_impress_n(self):
        impress_n = DefenseConfig(tracker="mint", scheme="impress-n",
                                  alpha=1.0, rfmth=80)
        assert impress_n.effective_rfmth() == 40
        alpha035 = DefenseConfig(tracker="mint", scheme="impress-n",
                                 alpha=0.35, rfmth=80)
        assert alpha035.effective_rfmth() == 60

    def test_target_scale_override(self):
        defense = DefenseConfig(
            tracker="graphene", scheme="express", trh=4000,
            target_scale=0.62, tmro_ns=186.0,
        )
        assert defense.target_threshold == pytest.approx(2480.0)


class TestAttackTraffic:
    def test_hammer_trace_triggers_graphene(self):
        from repro.dram.address import MopAddressMapper
        from repro.workloads.attacks import hammer_trace

        system = SystemConfig(n_cores=1, banks_per_channel=4,
                              channels=1)
        mapper = system.mapper()
        # FR-FCFS batches queued same-row requests into hits, so only a
        # fraction of the hammer stream becomes activations; size the
        # threshold below the per-row activation count.
        trace = hammer_trace(mapper, bank=0, rows=[10, 30], n_requests=800)
        defense = DefenseConfig(tracker="graphene", scheme="no-rp", trh=150)
        simulator = SystemSimulator(system, [trace], defense)
        result = simulator.run()
        assert result.counts.mitigative_acts > 0
