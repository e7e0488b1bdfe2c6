"""Unit tests for the channel memory controller.

A step that did work shows as a change in the command counters; a
finished demand request shows in ``done_core``/``done_cycle``.
"""

import dataclasses

import pytest

from repro.core.mitigation import ImpressPScheme, NoRpScheme
from repro.memctrl.controller import (
    BANK_QUEUE_CAPACITY,
    VICTIMS_PER_MITIGATION,
    ChannelController,
)
from repro.memctrl.request import (
    CORE_ID_MASK,
    pack_request,
    unpack_request,
)
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.reference import ReferenceSimulator
from repro.sim.system import SystemSimulator, build_simulator
from repro.trackers.base import AccountingTracker
from repro.trackers.para import ParaTracker
from repro.workloads.trace import Trace


def make_controller(timings, scheme_cls=NoRpScheme, num_banks=2, **kwargs):
    trackers = [AccountingTracker() for _ in range(num_banks)]
    scheme = scheme_cls(trackers, timings)
    return ChannelController(
        timings=timings, num_banks=num_banks, scheme=scheme, **kwargs
    )


def demand(core, bank, row, write=False):
    """``enqueue`` arguments: the bank and the packed request."""
    return bank, pack_request(row, core, write)


def commands(controller):
    """The command counters; a step did work iff they moved."""
    return dataclasses.astuple(controller.counts)


class TestDemandPath:
    def test_miss_then_hit(self, timings):
        controller = make_controller(timings)
        controller.enqueue(*demand(0, 0, 5))
        controller.enqueue(*demand(1, 0, 5))
        assert controller.done_core == -1
        before = commands(controller)
        first = controller.step(0, 0)
        assert commands(controller) != before
        # Miss: ACT at 0, column at tRCD, read data tCAS later.
        assert controller.done_core == 0
        assert controller.done_cycle == timings.tRCD + timings.tCAS
        controller.done_core = -1
        before = commands(controller)
        second = controller.step(0, first)
        assert commands(controller) != before
        # Hit: next column tCCD after the first.
        assert controller.done_core == 1
        assert controller.done_cycle == (
            timings.tRCD + timings.tCCD + timings.tCAS
        )
        assert controller.row_misses == 1
        assert controller.row_hits == 1
        assert controller.counts.demand_acts == 1

    def test_conflict_closes_and_reopens(self, timings):
        controller = make_controller(timings, idle_close_cycles=None,
                                     mop_burst_lines=None)
        controller.enqueue(*demand(0, 0, 5))
        controller.step(0, 0)
        controller.enqueue(*demand(0, 0, 9))
        # Step at busy_until: the returned wake now reports the real
        # next deadline (refresh/tMRO/idle), not the bank-free cycle.
        cycle = max(controller.state[0].busy_until, timings.tRAS)
        controller.step(0, cycle)
        assert controller.row_conflicts == 1
        assert controller.counts.precharges >= 1

    def test_fr_fcfs_prefers_hit(self, timings):
        controller = make_controller(timings, idle_close_cycles=None,
                                     mop_burst_lines=None)
        controller.enqueue(*demand(0, 0, 5))
        controller.step(0, 0)
        # Queue a conflicting row first, then a hit to the open row.
        controller.enqueue(*demand(0, 0, 9))
        controller.enqueue(*demand(0, 0, 5))
        controller.step(0, controller.state[0].busy_until)
        assert controller.row_hits == 1  # the younger hit won

    def test_hit_scan_takes_first_match_and_keeps_order(self, timings):
        controller = make_controller(timings, idle_close_cycles=None,
                                     mop_burst_lines=None)
        controller.enqueue(*demand(0, 0, 5))
        controller.step(0, 0)
        controller.enqueue(*demand(2, 0, 9))
        controller.enqueue(*demand(3, 0, 5))
        controller.enqueue(*demand(1, 0, 5))
        controller.done_core = -1
        controller.step(0, controller.state[0].busy_until)
        assert controller.done_core == 3
        assert controller.state[0].queue == [
            pack_request(9, 2, False), pack_request(5, 1, False),
        ]

    def test_write_completes_at_column_issue(self, timings):
        controller = make_controller(timings)
        controller.enqueue(*demand(0, 0, 5, write=True))
        controller.step(0, 0)
        # A write completes at its column issue (ACT at 0 + tRCD), not
        # tCAS later as a read would.
        assert controller.done_core == 0
        assert controller.done_cycle == timings.tRCD
        assert controller.counts.writes == 1

    def test_queue_capacity(self, timings):
        controller = make_controller(timings)
        for i in range(BANK_QUEUE_CAPACITY):
            controller.enqueue(*demand(0, 0, i))
        assert not controller.can_accept(0)
        with pytest.raises(RuntimeError):
            controller.enqueue(*demand(0, 0, 99))


class TestPackedRequest:
    @pytest.mark.parametrize("core", [0, 1, CORE_ID_MASK])
    @pytest.mark.parametrize("row", [0, 1, 12345, 2**40])
    @pytest.mark.parametrize("write", [False, True])
    def test_round_trip(self, core, row, write):
        request = pack_request(row, core, write)
        assert type(request) is int
        assert unpack_request(request) == (row, core, write)

    def test_core_id_limits(self):
        assert CORE_ID_MASK == 65535
        with pytest.raises(ValueError):
            pack_request(0, CORE_ID_MASK + 1, False)
        with pytest.raises(ValueError):
            pack_request(0, -1, False)


class TestMopAndIdleClose:
    def test_mop_burst_closes_after_n_columns(self, timings):
        controller = make_controller(timings, mop_burst_lines=2,
                                     idle_close_cycles=None)
        controller.enqueue(*demand(0, 0, 5))
        controller.enqueue(*demand(0, 0, 5))
        wake = controller.step(0, 0)
        controller.step(0, wake)
        assert not controller.banks[0].is_open
        assert controller.counts.precharges == 1

    def test_idle_close_fires(self, timings):
        controller = make_controller(timings, mop_burst_lines=None,
                                     idle_close_cycles=100)
        controller.enqueue(*demand(0, 0, 5))
        wake = controller.step(0, 0)
        # With nothing queued, the demand step reports the idle-close
        # deadline directly as its next wake.
        assert wake == controller.state[0].last_use + 100
        assert controller.banks[0].is_open
        before = commands(controller)
        controller.step(0, wake + 200)
        assert commands(controller) != before
        assert not controller.banks[0].is_open


class TestTmro:
    def test_tmro_closes_open_row(self, timings):
        tmro = timings.tRAS + timings.tRC
        controller = make_controller(
            timings, tmro_cycles=tmro, mop_burst_lines=None,
            idle_close_cycles=None,
        )
        controller.enqueue(*demand(0, 0, 5))
        controller.step(0, 0)
        before = commands(controller)
        controller.step(0, tmro + 10)
        assert commands(controller) != before
        assert controller.tmro_closures == 1
        assert not controller.banks[0].is_open

    def test_idle_wake_includes_tmro(self, timings):
        tmro = timings.tRAS + timings.tRC
        controller = make_controller(
            timings, tmro_cycles=tmro, mop_burst_lines=None,
            idle_close_cycles=None,
        )
        controller.enqueue(*demand(0, 0, 5))
        wake = controller.step(0, 0)
        idle = controller.step(0, wake)
        assert idle <= tmro + timings.tRC


class TestRefresh:
    def test_refresh_issues_when_due(self, timings):
        controller = make_controller(timings)
        due = controller.refresh[0].next_due
        before = commands(controller)
        controller.step(0, due)
        assert commands(controller) != before
        assert controller.counts.refreshes == 1

    def test_refresh_closes_open_row_first(self, timings):
        controller = make_controller(timings, mop_burst_lines=None,
                                     idle_close_cycles=None)
        due = controller.refresh[0].next_due
        controller.enqueue(*demand(0, 0, 5))
        controller.step(0, due - timings.tRC)
        before = commands(controller)
        controller.step(0, due)
        assert commands(controller) != before
        assert controller.counts.refreshes == 1
        assert controller.counts.precharges == 1


class TestRfm:
    def test_rfm_after_threshold_acts(self, timings):
        controller = make_controller(
            timings, use_rfm=True, rfmth=2,
            mop_burst_lines=1, idle_close_cycles=None,
        )
        cycle = 0
        for row in (1, 2):
            controller.enqueue(*demand(0, 0, row))
            controller.step(0, cycle)
            cycle = controller.state[0].busy_until + timings.tRC
        controller.step(0, cycle)
        assert controller.counts.rfms == 1


class TestMitigations:
    def test_para_mitigation_blocks_bank(self, timings):
        scheme = NoRpScheme([ParaTracker(p=1.0)], timings)
        controller = ChannelController(
            timings=timings, num_banks=1, scheme=scheme,
        )
        controller.enqueue(*demand(0, 0, 5))
        first = controller.step(0, 0)
        before = commands(controller)
        controller.step(0, first)
        assert commands(controller) != before  # the mitigation block
        assert controller.counts.mitigative_acts == VICTIMS_PER_MITIGATION

    def test_impress_p_records_eact_on_close(self, timings):
        tracker = AccountingTracker()
        scheme = ImpressPScheme([tracker], timings)
        controller = ChannelController(
            timings=timings, num_banks=1, scheme=scheme,
            mop_burst_lines=None, idle_close_cycles=None,
        )
        controller.enqueue(*demand(0, 0, 5))
        controller.step(0, 0)
        controller.flush_open_rows(timings.tRAS + timings.tRC)
        assert tracker.recorded_for(5) > 1.0

    def test_hit_rate(self, timings):
        controller = make_controller(timings)
        assert controller.hit_rate() == 0.0


class TestCompletionHandoff:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_no_completion_left_after_run_until(self, engine):
        """Each engine consumes a step's completion before the next
        event, so none can leak across a stop or a snapshot."""
        sim = build_simulator(
            SystemConfig(n_cores=2, banks_per_channel=8), "mcf",
            DefenseConfig(tracker="graphene", scheme="impress-p"),
            n_requests=150, engine=engine,
        )
        stop = 0
        done = False
        while not done:
            done = sim.run_until(stop_cycle=stop)
            assert [c.done_core for c in sim.controllers] == [-1] * len(
                sim.controllers
            )
            stop += 97
        assert sum(sim.finish().core_requests) == 300


class TestEngineRequestPath:
    @pytest.mark.parametrize("engine", [SystemSimulator, ReferenceSimulator])
    def test_core_count_must_fit_core_id_field(self, engine):
        system = SystemConfig(n_cores=CORE_ID_MASK + 1)
        with pytest.raises(ValueError, match="core-id field"):
            engine(system, [Trace([])] * system.n_cores)

    @staticmethod
    def _hooked_run(engine, defense):
        """One run with an ACT and a close hook on every bank; returns
        the per-bank hook logs and the result."""
        sim = build_simulator(
            SystemConfig(n_cores=2, banks_per_channel=8), "mcf", defense,
            n_requests=300, engine=engine,
        )
        logs = []
        for controller in sim.controllers:
            for bank in controller.banks:
                log = []
                bank.add_activate_hook(
                    lambda row, cycle, log=log: log.append(("act", row, cycle))
                )
                bank.add_close_hook(
                    lambda row, open_cycles, total, log=log: log.append(
                        ("close", row, open_cycles, total)
                    )
                )
                logs.append(log)
        return logs, sim.run()

    @pytest.mark.parametrize("defense", [
        DefenseConfig(tracker="graphene", scheme="impress-p"),
        DefenseConfig(tracker="para", scheme="no-rp", trh=100),
    ])
    def test_bank_hooks_fire_alike_in_both_engines(self, defense):
        """Every demand ACT and every close reaches the bank's hooks, in
        the same order and with the same arguments in both engines."""
        fast_logs, fast = self._hooked_run("fast", defense)
        ref_logs, ref = self._hooked_run("reference", defense)
        assert fast_logs == ref_logs
        for logs, result in ((fast_logs, fast), (ref_logs, ref)):
            acts = sum(entry[0] == "act" for log in logs for entry in log)
            assert acts == result.counts.demand_acts > 0
        if defense.tracker == "para":
            assert fast.counts.mitigative_acts > 0
