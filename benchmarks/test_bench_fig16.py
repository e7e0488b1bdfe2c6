"""Benchmark regenerating Figure 16 (Appendix A): alpha sensitivity."""

from conftest import run_once

from repro.experiments import fig16


def test_fig16(benchmark, quick):
    data = run_once(benchmark, fig16.run, quick)
    print("\nFig 16 (ExPress vs ImPress-N at alpha 0.35 / 1):")
    for tracker, variants in data.items():
        for label, rows in variants.items():
            spec = rows.get("SPEC (GMean)")
            stream = rows.get("STREAM (GMean)")
            print(f"  {tracker:>8} {label:>28}  SPEC {spec:.3f}  "
                  f"STREAM {stream:.3f}")
    for tracker in ("graphene", "para"):
        for alpha in (0.35, 1.0):
            express = data[tracker][f"express a={alpha}"]["STREAM (GMean)"]
            impress_n = data[tracker][f"impress-n a={alpha}"]["STREAM (GMean)"]
            # Appendix A: ImPress-N avoids the tON limit, so it beats
            # (or at worst matches) ExPress on stream workloads.
            assert impress_n >= express - 0.02
    # MINT keeps its threshold by tightening RFMTH; the cost is small.
    for label, rows in data["mint"].items():
        assert rows["SPEC (GMean)"] > 0.9
        assert rows["STREAM (GMean)"] > 0.9
