"""Benchmark regenerating Figure 4: relative T* vs tMRO."""

from repro.experiments import fig4


def test_fig4(benchmark, quick):
    rows = benchmark(fig4.run, quick)
    print("\nFig 4 (T* vs tMRO):")
    print("  tMRO(ns)  T*(measured)  T*(CLM)")
    for row in rows:
        print(
            f"  {row['tmro_ns']:8.0f}  "
            f"{row['relative_threshold_measured']:12.3f}  "
            f"{row['relative_threshold_clm']:7.3f}"
        )
    measured = {row["tmro_ns"]: row["relative_threshold_measured"]
                for row in rows}
    # Paper anchors: no reduction at tRAS, 0.62 at 186 ns, ~0.45 floor.
    assert measured[36.0] == 1.0
    assert abs(measured[186.0] - 0.62) < 0.01
    assert measured[636.0] < 0.5
