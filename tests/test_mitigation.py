"""Unit tests for the Row-Press mitigation schemes."""

import pytest

from repro.core.mitigation import (
    ExpressScheme,
    ImpressNScheme,
    ImpressPScheme,
    NoRpScheme,
)
from repro.trackers.base import AccountingTracker
from repro.trackers.graphene import GrapheneTracker


def make(scheme_cls, timings, **kwargs):
    tracker = AccountingTracker()
    return scheme_cls([tracker], timings, **kwargs), tracker


def access(scheme, row, act_cycle, close_cycle, bank=0):
    """One access in the controller's order: act kernel, close kernel."""
    act = scheme.act_kernels()[bank]
    close = scheme.close_kernels()[bank]
    fired = act(row) if act is not None else 0
    if close is not None:
        fired += close(row, act_cycle, close_cycle)
    return fired


class TestNoRp:
    def test_records_one_per_act(self, timings):
        scheme, tracker = make(NoRpScheme, timings)
        access(scheme, 7, 0, timings.tREFI)
        assert tracker.recorded_for(7) == 1.0

    def test_no_tmro(self, timings):
        scheme, _ = make(NoRpScheme, timings)
        assert scheme.tmro_cycles() is None

    def test_requires_trackers(self, timings):
        with pytest.raises(ValueError):
            NoRpScheme([], timings)


class TestExpress:
    def test_publishes_tmro(self, timings):
        scheme, _ = make(ExpressScheme, timings, tmro_cycles=224)
        assert scheme.tmro_cycles() == 224

    def test_rejects_tmro_below_tras(self, timings):
        with pytest.raises(ValueError):
            ExpressScheme([AccountingTracker()], timings, tmro_cycles=10)

    def test_records_like_no_rp(self, timings):
        scheme, tracker = make(ExpressScheme, timings, tmro_cycles=224)
        scheme.act_kernels()[0](7)
        assert tracker.recorded_for(7) == 1.0
        assert scheme.close_kernels() == [None]


class TestImpressN:
    def test_act_records_one(self, timings):
        scheme, tracker = make(ImpressNScheme, timings)
        scheme.act_kernels()[0](7)
        assert tracker.recorded_for(7) == 1.0

    def test_full_window_earns_credit(self, timings):
        scheme, tracker = make(ImpressNScheme, timings)
        trc = timings.tRC
        # Open from 0 (visible from tACT) through three full windows.
        access(scheme, 7, 0, 3 * trc)
        # Visible at boundaries tRC, 2 tRC, 3 tRC -> two boundary pairs.
        assert tracker.recorded_for(7) == 1.0 + 2.0

    def test_fig10_decoy_earns_no_credit(self, timings):
        # ACT within tACT of the boundary, open for tRC + tRAS: the row
        # is visible at only one boundary, so no window credit (Eq 5).
        scheme, tracker = make(ImpressNScheme, timings)
        trc = timings.tRC
        act = trc - timings.tACT // 2
        access(scheme, 7, act, act + trc + timings.tRAS)
        assert tracker.recorded_for(7) == 1.0

    def test_trefi_open_earns_many_credits(self, timings):
        scheme, tracker = make(ImpressNScheme, timings)
        access(scheme, 7, 0, timings.tREFI)
        credits = tracker.recorded_for(7) - 1.0
        expected = timings.tREFI // timings.tRC - 1
        assert credits == pytest.approx(expected)

    def test_storage_is_four_bytes(self, timings):
        scheme, _ = make(ImpressNScheme, timings)
        assert scheme.storage_bytes_per_bank() == 4


class TestImpressP:
    def test_act_records_nothing_until_close(self, timings):
        scheme, _ = make(ImpressPScheme, timings)
        assert scheme.act_kernels() == [None]

    def test_minimal_access_records_one(self, timings):
        scheme, tracker = make(ImpressPScheme, timings)
        access(scheme, 7, 0, timings.tRAS)
        assert tracker.recorded_for(7) == pytest.approx(1.0)

    def test_fractional_eact(self, timings):
        scheme, tracker = make(ImpressPScheme, timings)
        # tON = tRAS + tRC/2: EACT = 1.5 (the paper's example).
        access(scheme, 7, 0, timings.tRAS + timings.tRC // 2)
        assert tracker.recorded_for(7) == pytest.approx(1.5)

    def test_quantization_truncates(self, timings):
        scheme, tracker = make(ImpressPScheme, timings, fraction_bits=0)
        access(scheme, 7, 0, timings.tRAS + timings.tRC - 1)
        assert tracker.recorded_for(7) == 1.0

    def test_fig10_decoy_fully_charged(self, timings):
        # Against ImPress-P the decoy pattern gains nothing: the full
        # open time is measured regardless of window phase.
        scheme, tracker = make(ImpressPScheme, timings)
        trc = timings.tRC
        act = trc - timings.tACT // 2
        close = act + trc + timings.tRAS
        access(scheme, 7, act, close)
        assert tracker.recorded_for(7) == pytest.approx(2.0)

    def test_rejects_negative_bits(self, timings):
        with pytest.raises(ValueError):
            ImpressPScheme([AccountingTracker()], timings, fraction_bits=-1)

    def test_rejects_tracker_at_another_scale(self, timings):
        # A 0-bit Graphene has no raw kernel at 2**7: the scheme refuses
        # it rather than recording through a different path.
        tracker = GrapheneTracker(
            entries=4, internal_threshold=4, fraction_bits=0
        )
        with pytest.raises(ValueError, match="fraction bits"):
            ImpressPScheme([tracker], timings, fraction_bits=7)

    def test_per_bank_isolation(self, timings):
        trackers = [AccountingTracker(), AccountingTracker()]
        scheme = ImpressPScheme(trackers, timings)
        access(scheme, 7, 0, timings.tRAS, bank=1)
        assert trackers[0].recorded_for(7) == 0.0
        assert trackers[1].recorded_for(7) == pytest.approx(1.0)
