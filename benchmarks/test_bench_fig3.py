"""Benchmark regenerating Figure 3: performance vs tMRO per workload."""

from conftest import run_once

from repro.experiments import fig3


def test_fig3(benchmark, full):
    series = run_once(benchmark, fig3.run, full)
    workloads = list(next(iter(series.values())))
    print("\nFig 3 (perf normalized to no-tMRO):")
    header = "  ".join(f"{t:>7.0f}" for t in series)
    print(f"{'workload':>16}  {header}")
    for name in workloads:
        cells = "  ".join(f"{series[t][name]:7.3f}" for t in series)
        print(f"{name:>16}  {cells}")
    # Shape: STREAM hurts at low tMRO, SPEC does not; both flat by 636.
    assert series[36.0]["STREAM (GMean)"] < 0.95
    assert series[36.0]["SPEC (GMean)"] > 0.93
    assert series[636.0]["STREAM (GMean)"] > 0.97
    assert (
        series[36.0]["STREAM (GMean)"]
        < series[186.0]["STREAM (GMean)"] + 0.02
    )
