"""Unit tests for victim rows, the device side of RFM and command tallies.

The device side of RFM (per-bank ACT counts against RFMTH) and the
command tallies are kept by the memory controller, so those tests
drive a :class:`ChannelController`.
"""

import pytest

from repro.core.mitigation import NoRpScheme
from repro.dram.commands import CommandCounts
from repro.dram.device import BLAST_RADIUS, victim_rows
from repro.memctrl.controller import (
    VICTIMS_PER_MITIGATION,
    ChannelController,
)
from repro.memctrl.request import pack_request
from repro.trackers.base import AccountingTracker
from repro.trackers.para import ParaTracker


def make_controller(timings, num_banks=4, trackers=None, **kwargs):
    if trackers is None:
        trackers = [AccountingTracker() for _ in range(num_banks)]
    kwargs.setdefault("mop_burst_lines", 1)
    kwargs.setdefault("idle_close_cycles", None)
    return ChannelController(
        timings=timings, num_banks=num_banks,
        scheme=NoRpScheme(trackers, timings), **kwargs
    )


def serve(controller, timings, rows, bank=0, write=False, cycle=0):
    """Serve one demand request per row on ``bank``, one at a time.

    Returns the first cycle after the last one at which the bank is
    free again.
    """
    for row in rows:
        controller.enqueue(bank, pack_request(row, 0, write))
        controller.step(bank, cycle)
        cycle = controller.state[bank].busy_until + timings.tRC
    return cycle


class TestVictimRows:
    def test_blast_radius_two_gives_four_victims(self):
        assert victim_rows(100) == [99, 101, 98, 102]

    def test_edge_of_array_clips_low_side(self):
        assert victim_rows(0) == [1, 2]

    def test_blast_radius_one(self):
        assert victim_rows(100, blast_radius=1) == [99, 101]

    def test_default_blast_radius(self):
        assert BLAST_RADIUS == 2


class TestDramDevice:
    """Per-bank RFM bookkeeping: an RFM falls due every RFMTH ACTs."""

    def test_rfm_due_after_threshold_acts(self, timings):
        controller = make_controller(timings, use_rfm=True, rfmth=3)
        cycle = serve(controller, timings, (1, 2))
        assert controller.state[0].acts_since_rfm == 2
        cycle = serve(controller, timings, (3,), cycle=cycle)
        assert controller.counts.rfms == 0
        assert controller.state[0].acts_since_rfm == 3
        assert controller.state[1].acts_since_rfm == 0
        controller.step(0, cycle)
        assert controller.counts.rfms == 1

    def test_issue_rfm_resets_counter(self, timings):
        controller = make_controller(timings, use_rfm=True, rfmth=2)
        cycle = serve(controller, timings, (1, 2))
        assert controller.state[0].acts_since_rfm == 2
        done = controller.step(0, cycle)
        assert controller.state[0].acts_since_rfm == 0
        assert done >= cycle + timings.tRFM   # the RFM blocks the bank
        # The count starts over: one more ACT is one, not three.
        serve(controller, timings, (3,), cycle=done)
        assert controller.state[0].acts_since_rfm == 1
        assert controller.counts.rfms == 1

    def test_rejects_bad_banks(self, timings):
        with pytest.raises(ValueError):
            make_controller(timings, num_banks=0, trackers=[])


class TestCommandCounts:
    def test_demand_vs_mitigative_split(self, timings):
        controller = make_controller(
            timings, num_banks=1, trackers=[ParaTracker(p=1.0)],
        )
        cycle = serve(controller, timings, (5,))
        assert controller.counts.demand_acts == 1
        assert controller.counts.mitigative_acts == 0
        controller.step(0, cycle)   # PARA's victim refreshes
        assert controller.counts.demand_acts == 1
        assert controller.counts.mitigative_acts == VICTIMS_PER_MITIGATION
        assert controller.counts.total_acts == 1 + VICTIMS_PER_MITIGATION

    def test_merged_with(self):
        a = CommandCounts(demand_acts=1, reads=2)
        b = CommandCounts(demand_acts=3, mitigative_acts=1, writes=4)
        merged = a.merged_with(b)
        assert merged.demand_acts == 4
        assert merged.mitigative_acts == 1
        assert merged.total_acts == 5
        assert merged.reads == 2
        assert merged.writes == 4

    def test_record_each_kind(self, timings):
        """Each command the controller issues lands in its own tally."""
        controller = make_controller(timings, use_rfm=True, rfmth=2)
        cycle = serve(controller, timings, (1,))
        cycle = serve(controller, timings, (2,), write=True, cycle=cycle)
        controller.step(0, cycle)   # RFMTH reached: an RFM
        controller.step(0, controller.refresh[0].next_due)
        counts = controller.counts
        assert counts.demand_acts == 2
        assert counts.precharges == 2   # MOP-1 closes after each column
        assert counts.reads == 1
        assert counts.writes == 1
        assert counts.rfms == 1
        assert counts.refreshes == 1
        assert counts.mitigative_acts == 0
        assert CommandCounts.from_json(counts.to_json()) == counts
