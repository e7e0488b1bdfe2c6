"""Benchmark regenerating Figure 12: T* vs fractional counter bits."""

from repro.experiments import fig12


def test_fig12(benchmark, quick):
    rows = benchmark(fig12.run, quick)
    print("\nFig 12 (ImPress-P T* vs fraction bits):")
    print("  bits  analytic  verified")
    for row in rows:
        print(
            f"  {row['fraction_bits']:4d}  "
            f"{row['relative_threshold_analytic']:8.4f}  "
            f"{row['relative_threshold_verified']:8.4f}"
        )
    by_bits = {row["fraction_bits"]: row for row in rows}
    # Paper: 7 bits lossless, 0 bits degenerate to 0.5; the verifier's
    # exact search never does worse than the analytic bound.
    assert by_bits[7]["relative_threshold_verified"] == 1.0
    assert abs(by_bits[0]["relative_threshold_verified"] - 0.5) < 0.01
    for row in rows:
        assert (
            row["relative_threshold_verified"]
            >= row["relative_threshold_analytic"] - 1e-6
        )
