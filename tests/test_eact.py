"""EACT arithmetic (Section VI) as ImPress-P's close kernel computes it.

The close kernel converts an access's row-open time into the Equivalent
Activation Count, EACT = (tON + tPRE) / tRC (Figure 11), truncates it
to the scheme's fraction bits and records it.  An accounting tracker
shows exactly what was recorded.
"""

import pytest
from hypothesis import given, strategies as st

from repro.core.mitigation import ImpressPScheme
from repro.trackers.base import AccountingTracker

ROW = 7


def recorded(timings, tons, fraction_bits=7):
    """Total EACT the close kernel records for accesses open ``tons``."""
    tracker = AccountingTracker()
    scheme = ImpressPScheme([tracker], timings, fraction_bits)
    close = scheme.close_kernels()[0]
    act = 0
    for ton in tons:
        assert close(ROW, act, act + ton) == 0
        act += ton + timings.tPRE
    return tracker.recorded_for(ROW)


def true_eact(timings, ton):
    return (ton + timings.tPRE) / timings.tRC


class TestEactFromTimes:
    def test_minimal_access_is_one(self, timings):
        # tON = tRAS plus tPRE equals tRC: EACT = 1 (Fig 11).
        assert recorded(timings, [timings.tRAS]) == 1.0

    def test_two_trc_access(self, timings):
        assert recorded(timings, [timings.tRAS + timings.tRC]) == 2.0

    def test_fractional(self, timings):
        # tON = tRAS + tRC/2 gives EACT = 1.5, the paper's example.
        assert recorded(timings, [timings.tRAS + timings.tRC // 2]) == 1.5


class TestQuantize:
    def test_full_precision_exact_for_7bit_values(self, timings):
        # tRC is 128 cycles, so 7 bits hold every cycle-exact EACT.
        assert timings.tRC == 128
        assert recorded(timings, [timings.tRAS + 1]) == 129 / 128

    def test_rejects_negative_bits(self, timings):
        with pytest.raises(ValueError):
            ImpressPScheme([AccountingTracker()], timings, fraction_bits=-1)

    def test_truncates_down(self, timings):
        assert recorded(timings, [timings.tRAS + timings.tRC - 1], 0) == 1.0
        # EACT 161/128 = 1.2578 keeps 1.25 at 2 bits.
        assert recorded(timings, [timings.tRAS + 33], 2) == 1.25

    def test_never_below_one_for_real_accesses(self, timings):
        for bits in range(8):
            assert recorded(timings, [timings.tRAS], bits) == 1.0
            assert recorded(timings, [timings.tRAS + 1], bits) >= 1.0

    @given(
        st.integers(min_value=0, max_value=100 * 128),
        st.integers(min_value=0, max_value=7),
    )
    def test_quantized_never_exceeds_true(self, timings, extra, bits):
        ton = timings.tRAS + extra
        assert recorded(timings, [ton], bits) <= true_eact(timings, ton)

    @given(
        st.integers(min_value=0, max_value=100 * 128),
        st.integers(min_value=0, max_value=7),
    )
    def test_truncation_error_bounded(self, timings, extra, bits):
        ton = timings.tRAS + extra
        error = true_eact(timings, ton) - recorded(timings, [ton], bits)
        assert error < 2.0**-bits


class TestFixedPointCounter:
    def test_default_is_7_bits(self, timings):
        scheme = ImpressPScheme([AccountingTracker()], timings)
        assert scheme.fraction_bits == 7

    def test_integer_increments(self, timings):
        assert recorded(timings, [timings.tRAS] * 2, 0) == 2.0

    def test_fractional_accumulation(self, timings):
        ton = timings.tRAS + timings.tRC // 4  # EACT 1.25
        assert recorded(timings, [ton] * 4) == 5.0

    @given(
        st.lists(
            st.integers(min_value=0, max_value=10 * 128),
            min_size=1,
            max_size=50,
        ),
        st.integers(min_value=0, max_value=7),
    )
    def test_accumulation_close_to_exact_sum(self, timings, extras, bits):
        tons = [timings.tRAS + extra for extra in extras]
        total = recorded(timings, tons, bits)
        exact = sum(true_eact(timings, ton) for ton in tons)
        # Each access truncates by less than one quantum.
        assert exact - total <= len(tons) * 2.0**-bits + 1e-9
        assert total <= exact + 1e-9
