"""Benchmark regenerating Figure 15: scaling to lower TRH."""

from conftest import run_once

from repro.experiments import fig15


def test_fig15(benchmark, quick):
    data = run_once(benchmark, fig15.run, quick)
    print("\nFig 15 (perf vs unprotected, TRH sweep):")
    for tracker, schemes in data.items():
        for scheme, series in schemes.items():
            cells = "  ".join(
                f"TRH={int(t)}:{v:.3f}" for t, v in series.items()
            )
            print(f"  {tracker:>8} {scheme:>10}  {cells}")
    for tracker in ("graphene", "para"):
        for trh in (4000.0, 2000.0, 1000.0):
            no_rp = data[tracker]["no-rp"][trh]
            express = data[tracker]["express"][trh]
            impress_p = data[tracker]["impress-p"][trh]
            # ImPress-P stays near the No-RP line; ExPress is the
            # costly one at every threshold.
            assert impress_p >= express - 0.01
            assert abs(impress_p - no_rp) < 0.06
