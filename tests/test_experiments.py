"""Integration tests for the experiment modules (small sizes).

Each test checks the *shape* the paper reports, not absolute numbers:
who wins, what is flat, where the crossovers are.
"""

import pytest

from repro.experiments import (
    fig3,
    fig4,
    fig5,
    fig6_7_8,
    fig12,
    fig15,
    fig18_19,
    tables,
)
from repro.experiments import registry
from repro.experiments.common import SweepRunner
from repro.experiments.registry import RunContext

#: Analytic experiments read nothing from their context.
ANALYTIC = RunContext()


@pytest.fixture(scope="module")
def ctx():
    # Small but stable: 2 cores, few banks would distort contention, so
    # keep the real system shape and cut requests instead.  One context
    # shares one SweepRunner across the module's tests.
    return RunContext(quick=True, n_requests=400)


class TestAnalyticExperiments:
    def test_fig4_clm_below_measured(self):
        for row in fig4.run(ANALYTIC):
            assert (
                row["relative_threshold_clm"]
                <= row["relative_threshold_measured"] + 1e-9
            )

    def test_fig6_is_linear(self, monkeypatch):
        monkeypatch.setattr(fig6_7_8, "MAX_ACTS", 5)
        series = fig6_7_8.fig6(ANALYTIC)
        assert series == [(k, float(k)) for k in range(1, 6)]

    def test_fig7_cover_holds(self):
        data = fig6_7_8.fig7(ANALYTIC)
        assert data["fitted_alpha"] <= data["clm_alpha"]
        clm = dict(data["clm_line"])
        for time_trc, tcl in data["device_points"]:
            assert tcl <= clm[time_trc] + 1e-9

    def test_fig8_alpha_is_035(self):
        assert fig6_7_8.fig8(ANALYTIC)["clm_alpha"] == pytest.approx(0.35)

    def test_fig12_monotone_and_converges(self):
        rows = fig12.run(ANALYTIC)
        verified = [row["relative_threshold_verified"] for row in rows]
        assert verified == sorted(verified)
        assert verified[-1] == pytest.approx(1.0, abs=1e-6)
        assert verified[0] == pytest.approx(0.5, abs=0.01)

    def test_fig18_flat_in_k(self):
        series = fig18_19.fig18(ANALYTIC)
        slowdowns = {row["slowdown_pct"] for row in series[4000.0]}
        assert len(slowdowns) == 1

    def test_fig19_saturates_then_decays(self):
        series = fig18_19.fig19(ANALYTIC)
        rows = series[1000.0]
        assert rows[0]["slowdown_pct"] == pytest.approx(400 / 21, rel=0.01)
        assert rows[-1]["slowdown_pct"] < rows[0]["slowdown_pct"]

    def test_tables(self):
        assert tables.table1(ANALYTIC)["tRC"] == 48.0
        assert tables.table2(ANALYTIC)["cores"] == 8
        by_scheme = {row["scheme"]: row for row in tables.table3(ANALYTIC)}
        assert by_scheme["impress-p"]["relative_threshold"] == 1.0
        assert by_scheme["express"]["limits_ton"]
        assert not by_scheme["impress-n"]["limits_ton"]
        storage = tables.storage(ANALYTIC)
        assert storage["graphene_entries"]["no-rp"] == 448
        assert storage["mithril_entries"]["no-rp"] == 383


@pytest.mark.slow
class TestSimulationExperiments:
    def test_fig3_stream_sensitive_spec_not(self, ctx, monkeypatch):
        monkeypatch.setattr(fig3, "TMRO_VALUES_NS", (36.0, 636.0))
        series = registry.get("fig3").run(ctx)
        # STREAM suffers at tMRO = 36 ns; at 636 ns nothing changes.
        assert series[36.0]["STREAM (GMean)"] < 0.97
        assert series[636.0]["STREAM (GMean)"] == pytest.approx(1.0, abs=0.03)
        assert series[36.0]["SPEC (GMean)"] == pytest.approx(1.0, abs=0.07)

    def test_fig13_impress_p_beats_express(self, ctx):
        data = registry.get("fig13").run(ctx)
        for tracker in ("graphene", "para"):
            express = data[tracker]["express"]["STREAM (GMean)"]
            impress_p = data[tracker]["impress-p"]["STREAM (GMean)"]
            assert impress_p > express
            assert impress_p == pytest.approx(1.0, abs=0.05)

    def test_fig13_mint_impress_p_matches_no_rp(self, ctx):
        data = registry.get("fig13").run(ctx)
        assert data["mint"]["impress-p"]["SPEC (GMean)"] == pytest.approx(
            1.0, abs=0.03
        )

    def test_fig14_express_demand_acts_inflate(self, ctx):
        data = registry.get("fig14").run(ctx)
        for tracker in ("graphene", "para"):
            assert data[tracker]["express"]["demand"] > 1.1
            assert data[tracker]["impress-p"]["demand"] == pytest.approx(
                1.0, abs=0.05
            )

    def test_fig15_impress_p_tracks_no_rp(self, ctx, monkeypatch):
        monkeypatch.setattr(fig15, "THRESHOLDS", (4000.0, 1000.0))
        data = registry.get("fig15").run(ctx)
        for tracker in ("graphene", "para"):
            for trh in (4000.0, 1000.0):
                no_rp = data[tracker]["no-rp"][trh]
                impress_p = data[tracker]["impress-p"][trh]
                assert impress_p == pytest.approx(no_rp, abs=0.05)

    def test_fig16_impress_n_at_least_express_on_stream(self, ctx):
        data = registry.get("fig16").run(ctx)
        for tracker in ("graphene", "para"):
            for alpha in (0.35, 1.0):
                express = data[tracker][f"express a={alpha}"]["STREAM (GMean)"]
                impress_n = data[tracker][f"impress-n a={alpha}"][
                    "STREAM (GMean)"
                ]
                assert impress_n >= express - 0.02

    def test_fig5_low_tmro_hurts_stream(self, ctx, monkeypatch):
        monkeypatch.setattr(fig5, "TMRO_VALUES_NS", (36.0, 636.0))
        data = registry.get("fig5").run(ctx)
        for tracker in ("graphene", "para"):
            stream = data[tracker]["STREAM"]
            assert stream[36.0] < stream[float("inf")] + 0.02
            assert stream[36.0] < 0.97

    def test_energy_express_worst(self, ctx):
        data = registry.get("energy").run(ctx)
        share = data["baseline"]["activation_share"]
        assert 0.03 < share < 0.35
        for tracker in ("graphene", "para"):
            assert data[tracker]["express"] >= data[tracker]["impress-p"] - 0.01


@pytest.mark.slow
def test_simulated_experiments_take_their_runner_from_the_context(
    monkeypatch,
):
    # perfbench/pin.py pins through the oracle path by rebinding
    # RunContext.sweep_runner; a figure that built its own SweepRunner
    # would escape it.  ablation is exempt: its studies vary the
    # SystemConfig, which a shared runner fixes.  Experiment.run
    # evaluates the declared points through the context's runner
    # itself, so only the assembly step (the registered function) is
    # watched: it must read through ctx.sweep_runner() and build no
    # runner of its own.
    context = RunContext(quick=True, n_requests=40)
    runner = context.sweep_runner()
    calls = []
    original = RunContext.sweep_runner

    def counting(self):
        calls.append(self)
        return original(self)

    def private_runner(self, *args, **kwargs):
        raise AssertionError("an experiment built its own SweepRunner")

    simulated = [
        experiment
        for experiment in registry.select(tags=("simulation",))
        if experiment.name != "ablation"
    ]
    assert len(simulated) == 7
    for experiment in simulated:
        runner.run_many(experiment.points(context))
        before = runner.cache_stats()
        del calls[:]
        with monkeypatch.context() as patch:
            patch.setattr(RunContext, "sweep_runner", counting)
            patch.setattr(SweepRunner, "__init__", private_runner)
            experiment.fn(context)
        assert calls, f"{experiment.name} never called ctx.sweep_runner()"
        assert runner.cache_stats().hits > before.hits, experiment.name
