"""Benchmark regenerating Figure 14: demand vs mitigative activations."""

from conftest import run_once

from repro.experiments import fig14


def test_fig14(benchmark, quick):
    data = run_once(benchmark, fig14.run, quick)
    print("\nFig 14 (ACTs relative to unprotected baseline):")
    for tracker, schemes in data.items():
        for scheme, acts in schemes.items():
            print(
                f"  {tracker:>8} {scheme:>10}  demand {acts['demand']:.3f}  "
                f"mitigative {acts['mitigative']:.3f}"
            )
    for tracker in ("graphene", "para"):
        # ExPress inflates demand ACTs (paper: +56%); ImPress-P does not.
        assert data[tracker]["express"]["demand"] > 1.15
        assert abs(data[tracker]["impress-p"]["demand"] - 1.0) < 0.05
        assert abs(data[tracker]["no-rp"]["demand"] - 1.0) < 0.03
    # PARA + ImPress-P pays in mitigative ACTs (paper: +12%) instead.
    assert (
        data["para"]["impress-p"]["mitigative"]
        > data["graphene"]["impress-p"]["mitigative"]
    )
