"""Benchmark regenerating Figure 13: scheme comparison per tracker."""

from conftest import run_once

from repro.experiments import fig13


def test_fig13(benchmark, full):
    data = run_once(benchmark, fig13.run, full)
    print("\nFig 13 (perf normalized to No-RP, alpha=1):")
    for tracker, schemes in data.items():
        for scheme, rows in schemes.items():
            print(
                f"  {tracker:>8} {scheme:>10}  "
                f"SPEC {rows['SPEC (GMean)']:.3f}  "
                f"STREAM {rows['STREAM (GMean)']:.3f}"
            )
    for tracker in ("graphene", "para"):
        express = data[tracker]["express"]["STREAM (GMean)"]
        impress_n = data[tracker]["impress-n"]["STREAM (GMean)"]
        impress_p = data[tracker]["impress-p"]["STREAM (GMean)"]
        # Paper's ordering on stream: ImPress-P ~ No-RP > ImPress-N
        # (no tON limit) > ExPress (reduced row-buffer hits).
        assert impress_p > express
        assert impress_n > express
        assert impress_p > 0.95
    # MINT: ImPress-P identical to No-RP; ImPress-N (RFM-40) pays a
    # small RFM-rate cost.
    assert data["mint"]["impress-p"]["SPEC (GMean)"] > 0.97
    assert data["mint"]["impress-n"]["SPEC (GMean)"] <= 1.01
