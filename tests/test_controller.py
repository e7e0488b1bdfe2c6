"""Unit tests for the channel memory controller.

A step that did work shows as a change in the command counters; a
finished demand request shows in ``done_core``/``done_cycle``.
"""

import dataclasses

import pytest

from repro.core.mitigation import ImpressPScheme, NoRpScheme
from repro.dram.address import MappedAddress
from repro.memctrl.controller import (
    BANK_QUEUE_CAPACITY,
    VICTIMS_PER_MITIGATION,
    ChannelController,
)
from repro.memctrl.request import InFlightRequest
from repro.sim.config import DefenseConfig, SystemConfig
from repro.sim.system import build_simulator
from repro.trackers.base import AccountingTracker
from repro.trackers.para import ParaTracker


def make_controller(timings, scheme_cls=NoRpScheme, num_banks=2, **kwargs):
    trackers = [AccountingTracker() for _ in range(num_banks)]
    scheme = scheme_cls(trackers, timings)
    return ChannelController(
        timings=timings, num_banks=num_banks, scheme=scheme, **kwargs
    )


def demand(core, bank, row, column=0, cycle=0, write=False):
    return InFlightRequest(
        core_id=core,
        mapped=MappedAddress(channel=0, bank=bank, row=row, column=column),
        is_write=write,
        enqueue_cycle=cycle,
    )


def commands(controller):
    """The command counters; a step did work iff they moved."""
    return dataclasses.astuple(controller.counts)


class TestDemandPath:
    def test_miss_then_hit(self, timings):
        controller = make_controller(timings)
        controller.enqueue(demand(0, 0, 5, 0))
        controller.enqueue(demand(1, 0, 5, 1))
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
        controller.enqueue(demand(0, 0, 5))
        controller.step(0, 0)
        controller.enqueue(demand(0, 0, 9))
        # Step at busy_until: the returned wake now reports the real
        # next deadline (refresh/tMRO/idle), not the bank-free cycle.
        cycle = max(controller.state[0].busy_until, timings.tRAS)
        controller.step(0, cycle)
        assert controller.row_conflicts == 1
        assert controller.counts.precharges >= 1

    def test_fr_fcfs_prefers_hit(self, timings):
        controller = make_controller(timings, idle_close_cycles=None,
                                     mop_burst_lines=None)
        controller.enqueue(demand(0, 0, 5))
        controller.step(0, 0)
        # Queue a conflicting row first, then a hit to the open row.
        controller.enqueue(demand(0, 0, 9, 2))
        controller.enqueue(demand(0, 0, 5, 1))
        controller.step(0, controller.state[0].busy_until)
        assert controller.row_hits == 1  # the younger hit won

    def test_write_completes_at_column_issue(self, timings):
        controller = make_controller(timings)
        controller.enqueue(demand(0, 0, 5, write=True))
        controller.step(0, 0)
        # A write completes at its column issue (ACT at 0 + tRCD), not
        # tCAS later as a read would.
        assert controller.done_core == 0
        assert controller.done_cycle == timings.tRCD
        assert controller.counts.writes == 1

    def test_queue_capacity(self, timings):
        controller = make_controller(timings)
        for i in range(BANK_QUEUE_CAPACITY):
            controller.enqueue(demand(0, 0, i))
        assert not controller.can_accept(0)
        with pytest.raises(RuntimeError):
            controller.enqueue(demand(0, 0, 99))


class TestInFlightRequest:
    def test_requires_an_address(self):
        with pytest.raises(TypeError):
            InFlightRequest(core_id=0, is_write=True, enqueue_cycle=5)

    def test_rejects_mixed_address_forms(self):
        mapped = MappedAddress(channel=0, bank=1, row=2, column=0)
        with pytest.raises(TypeError):
            InFlightRequest(core_id=0, mapped=mapped, row=7)

    def test_flattened_coordinates_match_mapped(self):
        mapped = MappedAddress(channel=1, bank=3, row=7, column=2)
        via_mapped = InFlightRequest(core_id=0, mapped=mapped)
        via_ints = InFlightRequest(core_id=0, channel=1, bank=3, row=7,
                                   column=2)
        assert via_mapped.mapped == via_ints.mapped == mapped
        assert (via_ints.channel, via_ints.bank, via_ints.row) == (1, 3, 7)


class TestMopAndIdleClose:
    def test_mop_burst_closes_after_n_columns(self, timings):
        controller = make_controller(timings, mop_burst_lines=2,
                                     idle_close_cycles=None)
        controller.enqueue(demand(0, 0, 5, 0))
        controller.enqueue(demand(0, 0, 5, 1))
        wake = controller.step(0, 0)
        controller.step(0, wake)
        assert not controller.banks[0].is_open
        assert controller.counts.precharges == 1

    def test_idle_close_fires(self, timings):
        controller = make_controller(timings, mop_burst_lines=None,
                                     idle_close_cycles=100)
        controller.enqueue(demand(0, 0, 5))
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
        controller.enqueue(demand(0, 0, 5))
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
        controller.enqueue(demand(0, 0, 5))
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
        controller.enqueue(demand(0, 0, 5))
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
            controller.enqueue(demand(0, 0, row))
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
        controller.enqueue(demand(0, 0, 5))
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
        controller.enqueue(demand(0, 0, 5))
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
