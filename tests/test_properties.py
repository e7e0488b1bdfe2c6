"""Cross-module property-based tests on core invariants."""

import random

from hypothesis import given, settings, strategies as st

from repro.core.charge import ConservativeLinearModel, TRAS_TRC
from repro.core.mitigation import ImpressNScheme, ImpressPScheme
from repro.dram.timing import default_cycle_timings
from repro.security.verifier import replay_pattern
from repro.trackers.base import AccountingTracker
from repro.trackers.graphene import GrapheneTracker
from repro.trackers.mithril import MithrilTracker
from repro.workloads.attacks import TimedAccess

TIMINGS = default_cycle_timings()


class TestMisraGriesInvariants:
    @given(
        st.lists(st.integers(min_value=0, max_value=30), min_size=1,
                 max_size=400),
        st.integers(min_value=2, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_graphene_counts_never_undercount(self, rows, entries):
        """A tracked row's counter is at least its true count minus the
        spillover — the Misra-Gries frequency guarantee, which is what
        makes Graphene's mitigation *secure* rather than best-effort."""
        tracker = GrapheneTracker(entries=entries, internal_threshold=10**9)
        true_counts = {}
        for row in rows:
            tracker.record_unit(row)
            true_counts[row] = true_counts.get(row, 0) + 1
        for row, true in true_counts.items():
            if row in tracker.tracked_rows():
                assert tracker.count_for(row) >= true - tracker.spillover
            else:
                # An untracked row's count never exceeded the spillover.
                assert true <= tracker.spillover

    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                 max_size=300),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_mithril_table_never_overflows(self, rows, entries):
        tracker = MithrilTracker(entries=entries)
        for row in rows:
            tracker.record_unit(row)
        assert len(tracker._table) <= entries

    @given(
        st.lists(st.integers(min_value=0, max_value=10), min_size=20,
                 max_size=300)
    )
    @settings(max_examples=40, deadline=None)
    def test_mithril_rfm_picks_a_maximum(self, rows):
        tracker = MithrilTracker(entries=4)
        for row in rows:
            tracker.record_unit(row)
        snapshot = dict(tracker._table)
        winner = tracker.on_rfm()
        if winner is not None:
            assert snapshot[winner] == max(snapshot.values())


class TestSchemeConservativeness:
    @given(
        st.integers(min_value=0, max_value=10_000),   # act phase
        st.integers(min_value=0, max_value=40),       # extra open, tRC
        st.integers(min_value=0, max_value=127),      # sub-tRC remainder
    )
    @settings(max_examples=80, deadline=None)
    def test_impress_p_records_within_one_quantum(self, act, extra, rem):
        """ImPress-P's recorded EACT is never more than the true damage
        at alpha=1 and never more than one quantum below it."""
        scheme = ImpressPScheme([AccountingTracker()], TIMINGS, 7)
        ton = TIMINGS.tRAS + extra * TIMINGS.tRC + rem
        access = TimedAccess(row=3, act_cycle=act, close_cycle=act + ton)
        result = replay_pattern(scheme, [access], 3, 1.0, TIMINGS)
        true, recorded = result.true_damage, result.recorded_damage
        assert recorded <= true + 1e-9
        assert recorded >= true - 1 / 128 - 1e-9

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=127),
    )
    @settings(max_examples=80, deadline=None)
    def test_impress_n_undercount_bounded_by_invisible_window(
        self, act, extra, rem
    ):
        """Eq 5 as an invariant, at hardware precision.

        The ORA mechanism cannot see a row during its activation (tACT)
        and the attacker can close just before a boundary, so per
        recorded ACT the unmitigated open time is bounded by one tRC
        plus that slack: true damage (alpha = 1) never exceeds
        (1 + (tRC + tACT + tPRE)/tRC) = 2.5 per record.  The paper's
        idealized Eq 5 bound (2.0) corresponds to rounding the slack
        into the one-window statement; the canonical Fig-10 pattern
        achieves exactly 2.0 (see test_mitigation / test_security).
        """
        scheme = ImpressNScheme([AccountingTracker()], TIMINGS)
        ton = TIMINGS.tRAS + extra * TIMINGS.tRC + rem
        access = TimedAccess(row=3, act_cycle=act, close_cycle=act + ton)
        result = replay_pattern(scheme, [access], 3, 1.0, TIMINGS)
        true, recorded = result.true_damage, result.recorded_damage
        slack = (TIMINGS.tRC + TIMINGS.tACT + TIMINGS.tPRE) / TIMINGS.tRC
        assert true <= (1.0 + slack) * recorded + 1e-9


class TestModelQuantizationComposition:
    @given(
        st.integers(min_value=TIMINGS.tRAS, max_value=200 * TIMINGS.tRC),
        st.integers(min_value=0, max_value=7),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100)
    def test_quantized_eact_bounds_clm(self, ton, bits, alpha):
        """ImPress-P's quantized EACT (alpha=1) dominates the CLM damage
        for any alpha <= 1 up to the quantization quantum."""
        assert TIMINGS.tRAS / TIMINGS.tRC == TRAS_TRC
        model = ConservativeLinearModel(alpha=alpha)
        tracker = AccountingTracker()
        close = ImpressPScheme([tracker], TIMINGS, bits).close_kernels()[0]
        close(3, 0, ton)
        recorded = tracker.recorded_for(3)
        ton_trc = ton / TIMINGS.tRC
        assert model.tcl_of_open_time(ton_trc) <= recorded + 2.0**-bits + 1e-9


class TestSimulatorDeterminism:
    @given(st.integers(min_value=0, max_value=5))
    @settings(max_examples=4, deadline=None)
    def test_same_seed_same_result(self, seed):
        from repro.sim.config import SystemConfig
        from repro.sim.system import simulate_workload

        system = SystemConfig(n_cores=2, banks_per_channel=8)
        a = simulate_workload("gcc", system=system,
                              n_requests_per_core=100, seed=seed)
        b = simulate_workload("gcc", system=system,
                              n_requests_per_core=100, seed=seed)
        assert a.elapsed_cycles == b.elapsed_cycles
        assert a.counts.demand_acts == b.counts.demand_acts
        assert a.row_hits == b.row_hits
