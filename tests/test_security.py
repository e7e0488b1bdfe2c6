"""Security tests: the verifier must rediscover the paper's thresholds."""

import pytest

from repro.core.mitigation import ImpressNScheme, ImpressPScheme, NoRpScheme
from repro.dram.timing import default_cycle_timings
from repro.security.charge_account import (
    VictimChargeState,
    access_tcl,
    pattern_tcl,
)
from repro.security.verifier import (
    effective_threshold,
    replay_pattern,
    run_security_simulation,
)
from repro.trackers.base import AccountingTracker
from repro.trackers.graphene import GrapheneTracker
from repro.workloads.attacks import (
    TimedAccess,
    k_pattern_accesses,
    row_press_accesses,
    rowhammer_accesses,
)

TRH = 4000.0


@pytest.fixture(scope="module")
def cyc():
    return default_cycle_timings()


class TestChargeAccount:
    def test_rowhammer_access_is_one_unit(self, cyc):
        access = TimedAccess(row=1, act_cycle=0, close_cycle=cyc.tRAS)
        assert access_tcl(access, alpha=1.0, timings=cyc) == pytest.approx(1.0)

    def test_pattern_tcl_filters_by_row(self, cyc):
        accesses = rowhammer_accesses(1, 5, cyc) + rowhammer_accesses(
            2, 3, cyc, start_cycle=10_000
        )
        assert pattern_tcl(accesses, 1, 1.0, cyc) == pytest.approx(5.0)

    def test_victim_state_accumulates_neighbors(self, cyc):
        state = VictimChargeState(alpha=1.0, timings=cyc)
        access = TimedAccess(row=10, act_cycle=0, close_cycle=cyc.tRAS)
        state.apply_access(access)
        assert state.charge[9] == pytest.approx(1.0)
        assert state.charge[11] == pytest.approx(1.0)

    def test_mitigation_refreshes_blast_radius(self, cyc):
        state = VictimChargeState(alpha=1.0, timings=cyc)
        for access in rowhammer_accesses(10, 5, cyc):
            state.apply_access(access)
        refreshed = state.apply_mitigation(10)
        assert set(refreshed) == {8, 9, 11, 12}
        assert state.max_charge() == 0.0
        assert state.peak_charge == pytest.approx(5.0)


class TestNoRpVulnerability:
    def test_row_press_breaks_no_rp(self, cyc):
        # A tREFI-long Row-Press round is recorded as a single ACT but
        # leaks ~tens of units: T* collapses far below TRH.
        report = effective_threshold("no-rp", TRH, alpha=0.48, timings=cyc)
        assert report.relative_threshold < 0.05

    def test_pure_rowhammer_is_fully_recorded(self, cyc):
        scheme = NoRpScheme([AccountingTracker()], cyc)
        result = replay_pattern(
            scheme, rowhammer_accesses(1000, 50, cyc), 1000, 1.0, cyc
        )
        assert result.ratio == pytest.approx(1.0)


class TestExpress:
    def test_express_threshold_matches_clm(self, cyc):
        # With tON capped at tMRO, the worst ratio is TCL(tMRO).
        tmro = cyc.tRAS + cyc.tRC
        report = effective_threshold(
            "express", TRH, alpha=0.35, timings=cyc, tmro_cycles=tmro
        )
        assert report.relative_threshold == pytest.approx(1 / 1.35, rel=0.01)

    def test_express_requires_tmro(self, cyc):
        with pytest.raises(ValueError):
            effective_threshold("express", TRH, alpha=0.35, timings=cyc)


class TestImpressN:
    def test_eq5_alpha_035(self, cyc):
        report = effective_threshold("impress-n", TRH, alpha=0.35, timings=cyc)
        assert report.relative_threshold == pytest.approx(1 / 1.35, rel=0.01)
        # Worst case is a round open ~tRAS + tRC seen as one ACT — the
        # decoy pattern or the phase-free equivalent tON probe.
        assert report.worst_pattern in ("fig10-decoy", "row-press tON=224cyc")

    def test_eq5_alpha_1(self, cyc):
        report = effective_threshold("impress-n", TRH, alpha=1.0, timings=cyc)
        assert report.relative_threshold == pytest.approx(0.5, rel=0.01)

    def test_long_row_press_is_mitigated(self, cyc):
        # ImPress-N credits full windows, so a tREFI-long RP round is
        # almost fully accounted (ratio close to 1, not 18x).
        scheme = ImpressNScheme([AccountingTracker()], cyc)
        accesses = row_press_accesses(1000, 8, cyc.tREFI - cyc.tPRE, cyc)
        result = replay_pattern(scheme, accesses, 1000, 0.48, cyc)
        assert result.ratio < 1.0  # alpha 0.48 < 1 credit per window


class TestImpressP:
    def test_full_precision_keeps_threshold(self, cyc):
        report = effective_threshold(
            "impress-p", TRH, alpha=1.0, timings=cyc, fraction_bits=7
        )
        assert report.relative_threshold == pytest.approx(1.0, abs=1e-6)

    def test_fig12_quantization_curve(self, cyc):
        # Verified T* must sit at or above the paper's 1 - 2^-b bound
        # and degrade monotonically with fewer bits.
        previous = 0.0
        for bits in range(8):
            report = effective_threshold(
                "impress-p", TRH, alpha=1.0, timings=cyc, fraction_bits=bits
            )
            bound = 0.5 if bits == 0 else 1.0 - 2.0**-bits
            assert report.relative_threshold >= bound - 1e-6
            assert report.relative_threshold >= previous - 1e-6
            previous = report.relative_threshold

    def test_decoy_gains_nothing(self, cyc):
        scheme = ImpressPScheme([AccountingTracker()], cyc, fraction_bits=7)
        from repro.workloads.attacks import decoy_pattern_accesses

        accesses = decoy_pattern_accesses(1000, 2000, 16, cyc)
        result = replay_pattern(scheme, accesses, 1000, 1.0, cyc)
        assert result.ratio <= 1.0 + 1e-9

    def test_verifier_runs_the_simulator_kernel(self, cyc, monkeypatch):
        # Plant a fault in the close kernel the controller binds: it
        # drops EACT's fraction.  The verifier must see the lost damage.
        def integer_eact_kernels(scheme):
            scale = 1 << scheme.fraction_bits
            trc, tpre = scheme.timings.tRC, scheme.timings.tPRE
            kernels = []
            for tracker in scheme.trackers:
                raw_record = tracker.raw_kernel(scale)

                def kernel(row, act_cycle, close_cycle, raw_record=raw_record):
                    eact = (close_cycle - act_cycle + tpre) // trc
                    return raw_record(row, eact * scale)

                kernels.append(kernel)
            return kernels

        monkeypatch.setattr(
            ImpressPScheme, "_build_close_kernels", integer_eact_kernels
        )
        report = effective_threshold("impress-p", TRH, alpha=1.0, timings=cyc)
        assert report.relative_threshold < 1.0

    def test_unknown_scheme_rejected(self, cyc):
        with pytest.raises(ValueError):
            effective_threshold("bogus", TRH, alpha=1.0, timings=cyc)


class TestEndToEndSecurity:
    def _graphene_scheme(self, cyc, scheme_cls, threshold):
        tracker = GrapheneTracker(
            entries=8, internal_threshold=threshold, fraction_bits=7
        )
        return scheme_cls([tracker], cyc)

    def test_impress_p_graphene_stops_k_pattern(self, cyc):
        # Graphene + ImPress-P sized for TRH: no victim ever reaches
        # the critical charge even under a heavy K-pattern.
        trh = 64.0  # small threshold keeps the test fast
        scheme = self._graphene_scheme(cyc, ImpressPScheme, trh / 4)
        accesses = k_pattern_accesses(1000, rounds=200, k=3, timings=cyc)
        outcome = run_security_simulation(
            scheme, accesses, trh, alpha=1.0, timings=cyc
        )
        assert not outcome.flipped
        assert outcome.mitigations > 0

    def test_no_rp_graphene_broken_by_row_press(self, cyc):
        # The same tracker without RP awareness lets a long-open-row
        # pattern reach critical charge: the Row-Press attack works.
        trh = 64.0
        scheme = self._graphene_scheme(cyc, NoRpScheme, trh / 4)
        ton = cyc.tREFI - cyc.tPRE  # one refresh interval per round
        accesses = row_press_accesses(1000, rounds=30, ton_cycles=ton,
                                      timings=cyc)
        outcome = run_security_simulation(
            scheme, accesses, trh, alpha=0.48, timings=cyc
        )
        assert outcome.flipped

    def test_impress_n_bounds_damage_to_eq5(self, cyc):
        # ImPress-N with a tracker sized for TRH/(1+alpha) stops the
        # decoy pattern.
        from repro.workloads.attacks import decoy_pattern_accesses

        trh = 64.0
        scheme = self._graphene_scheme(cyc, ImpressNScheme, trh / 2 / 4)
        accesses = decoy_pattern_accesses(1000, 2000, 300, cyc)
        outcome = run_security_simulation(
            scheme, accesses, trh, alpha=1.0, timings=cyc
        )
        assert not outcome.flipped
