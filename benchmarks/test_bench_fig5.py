"""Benchmark regenerating Figure 5: Graphene/PARA vs tMRO (ExPress)."""

from conftest import run_once

from repro.experiments import fig5


def test_fig5(benchmark, quick):
    data = run_once(benchmark, fig5.run, quick)
    print("\nFig 5 (geomean perf vs tMRO, ExPress-provisioned trackers):")
    for tracker, categories in data.items():
        for category, series in categories.items():
            cells = "  ".join(
                f"{('noMRO' if t == float('inf') else f'{t:.0f}')}:{v:.3f}"
                for t, v in series.items()
            )
            print(f"  {tracker:>8} {category:>6}  {cells}")
    for tracker in ("graphene", "para"):
        stream = data[tracker]["STREAM"]
        spec = data[tracker]["SPEC"]
        # Stream suffers at low tMRO; SPEC stays near 1 throughout.
        assert stream[36.0] < 0.97
        assert spec[36.0] > 0.9
        assert stream[636.0] > stream[36.0]
