"""Benchmarks regenerating Figures 6, 7 and 8 (charge-loss model)."""

from repro.experiments import fig6_7_8


def test_fig6(benchmark, quick):
    series = benchmark(fig6_7_8.fig6, quick)
    print("\nFig 6 (Rowhammer TCL): first points", series[:5])
    assert all(tcl == k for k, tcl in series)


def test_fig7(benchmark, quick):
    data = benchmark(fig6_7_8.fig7, quick)
    print(
        f"\nFig 7: {len(data['device_points'])} device points; "
        f"fitted alpha {data['fitted_alpha']:.3f} <= cover "
        f"{data['clm_alpha']}"
    )
    by_time = {}
    for time_trc, tcl in data["device_points"]:
        by_time.setdefault(time_trc, []).append(tcl)
    for time_trc, tcls in sorted(by_time.items()):
        print(
            f"  t={time_trc:7.0f} tRC: TCL min {min(tcls):6.1f} "
            f"mean {sum(tcls) / len(tcls):6.1f} max {max(tcls):6.1f}"
        )
    assert data["fitted_alpha"] <= data["clm_alpha"]
    # RowPress headline: ~18x at 1 tREFI, ~156x at 9 tREFI on average.
    mean_1 = sum(by_time[162.0]) / len(by_time[162.0])
    mean_9 = sum(by_time[1462.0]) / len(by_time[1462.0])
    assert 13 < mean_1 < 23
    assert 120 < mean_9 < 195


def test_fig8(benchmark, quick):
    data = benchmark(fig6_7_8.fig8, quick)
    print(f"\nFig 8: CLM alpha {data['clm_alpha']:.3f}; "
          f"power fit a={data['power_fit'][0]:.3f} b={data['power_fit'][1]:.3f}")
    print("  time(tRC)  data  CLM  power-fit")
    for (t, tcl), (_, clm), (_, power) in zip(
        data["data_points"], data["clm_line"], data["power_line"]
    ):
        print(f"  {t:9.2f}  {tcl:.3f}  {clm:.3f}  {power:.3f}")
    assert abs(data["clm_alpha"] - data["paper_alpha"]) < 1e-9
    # CLM covers every data point; the power fit crosses through them.
    for (t, tcl), (_, clm) in zip(data["data_points"], data["clm_line"]):
        assert clm >= tcl - 1e-9
