"""Unit tests for PRAC (per-row activation counting, Section VI-F)."""

import pytest
from hypothesis import given, strategies as st

from repro.core.mitigation import ImpressPScheme
from repro.dram.timing import default_cycle_timings
from repro.security.verifier import replay_pattern
from repro.trackers.base import AccountingTracker
from repro.trackers.prac import DEFAULT_ROWS_PER_BANK, PracTracker


class TestAlertFlow:
    def test_alert_at_threshold(self):
        tracker = PracTracker(alert_threshold=3, rows_per_bank=16)
        assert tracker.record_unit(5) == 0
        assert tracker.record_unit(5) == 0
        assert tracker.record_unit(5) == 1
        assert tracker.alerts == 1

    def test_counter_resets_after_alert(self):
        tracker = PracTracker(alert_threshold=2, rows_per_bank=16)
        tracker.record_unit(5)
        tracker.record_unit(5)
        assert tracker.count_for(5) == 0.0

    def test_every_row_has_its_own_counter(self):
        # PRAC's defining property: no Misra-Gries eviction, every row
        # is tracked exactly no matter how many distinct rows are hit.
        tracker = PracTracker(alert_threshold=1000, rows_per_bank=4096)
        for row in range(4096):
            tracker.record_unit(row)
        assert all(tracker.count_for(row) == 1.0 for row in range(4096))

    def test_rejects_out_of_range_row(self):
        tracker = PracTracker(alert_threshold=2, rows_per_bank=4)
        with pytest.raises(ValueError):
            tracker.record_unit(4)

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            PracTracker(alert_threshold=0)
        with pytest.raises(ValueError):
            PracTracker(alert_threshold=2, rows_per_bank=0)
        with pytest.raises(ValueError):
            PracTracker(alert_threshold=2, fraction_bits=-1)

    def test_reset(self):
        tracker = PracTracker(alert_threshold=5, rows_per_bank=16)
        tracker.record_unit(3)
        tracker.reset()
        assert tracker.count_for(3) == 0.0


class TestImpressOnPrac:
    def test_fractional_eact_counts(self):
        tracker = PracTracker(
            alert_threshold=3, rows_per_bank=16, fraction_bits=7
        )
        kernel = tracker.raw_kernel(128)
        assert kernel(5, 192) == 0  # EACT 1.5
        assert kernel(5, 192) == 1

    def test_impress_p_scheme_drives_prac(self):
        timings = default_cycle_timings()
        tracker = PracTracker(
            alert_threshold=4, rows_per_bank=2048, fraction_bits=7
        )
        scheme = ImpressPScheme([tracker], timings)
        # Two accesses each open for tRAS + tRC (EACT = 2) reach the
        # alert threshold of 4.
        ton = timings.tRAS + timings.tRC
        assert scheme.act_kernels() == [None]
        close = scheme.close_kernels()[0]
        assert close(9, 0, ton) == 0
        assert close(9, 10_000, 10_000 + ton) == 1

    def test_storage_widens_by_fraction_bits(self):
        base = PracTracker(alert_threshold=1000, fraction_bits=0)
        precise = PracTracker(alert_threshold=1000, fraction_bits=7)
        assert (
            precise.storage_bits_per_row()
            == base.storage_bits_per_row() + 7
        )

    def test_storage_kib_scale(self):
        tracker = PracTracker(alert_threshold=1000)
        # 64K rows x 10 bits = 80 KiB per bank.
        assert tracker.rows_per_bank == DEFAULT_ROWS_PER_BANK
        assert tracker.storage_kib_per_bank() == pytest.approx(80.0)

    @given(st.integers(min_value=96, max_value=8 * 128))
    def test_prac_never_undercounts_vs_accounting(self, ton):
        # With full fractional precision, PRAC under ImPress-P matches
        # the exact EACT within one quantum per access.
        timings = default_cycle_timings()
        prac = PracTracker(
            alert_threshold=10_000, rows_per_bank=16, fraction_bits=7
        )
        close = ImpressPScheme([prac], timings).close_kernels()[0]
        for _ in range(10):
            close(3, 0, ton)
        exact = 10 * (ton + timings.tPRE) / timings.tRC
        assert prac.count_for(3) >= exact - 10 / 128


class TestPracSecurity:
    def test_prac_impress_p_keeps_threshold(self):
        # The Fig-10 decoy gains nothing against PRAC + ImPress-P.
        from repro.workloads.attacks import decoy_pattern_accesses

        timings = default_cycle_timings()
        tracker = AccountingTracker()
        scheme = ImpressPScheme([tracker], timings, fraction_bits=7)
        accesses = decoy_pattern_accesses(7, 8, 32, timings)
        result = replay_pattern(scheme, accesses, 7, 1.0, timings)
        assert result.ratio <= 1.0 + 1e-9
