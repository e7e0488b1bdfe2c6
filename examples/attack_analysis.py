#!/usr/bin/env python
"""Attack analysis: how Row-Press breaks a Rowhammer-only defense.

Replays three attack patterns — pure Rowhammer, short Row-Press and a
tREFI-long Row-Press — against Graphene with and without ImPress-P,
tracking the victims' accumulated charge with the unified model.
"""

from repro.core.charge import ALPHA_LONG, ConservativeLinearModel
from repro.core.mitigation import ImpressPScheme, NoRpScheme
from repro.dram.timing import default_cycle_timings
from repro.security.verifier import run_security_simulation
from repro.trackers.graphene import GrapheneTracker
from repro.workloads.attacks import (
    decoy_pattern_accesses,
    row_press_accesses,
    rowhammer_accesses,
)

TRH = 256.0  # scaled-down threshold so the demo runs instantly


def build(scheme_cls):
    tracker = GrapheneTracker(
        entries=16, internal_threshold=TRH / 4, fraction_bits=7
    )
    return scheme_cls([tracker], default_cycle_timings())


def main() -> None:
    timings = default_cycle_timings()
    model = ConservativeLinearModel(alpha=ALPHA_LONG)
    trefi_ton = timings.tREFI - timings.tPRE

    print(f"Charge per round (alpha = {ALPHA_LONG}):")
    print(f"  Rowhammer ACT:           1.00 units")
    print(f"  Row-Press 1 tREFI round: "
          f"{model.tcl_of_open_time(trefi_ton / timings.tRC):.1f} units")

    patterns = {
        "rowhammer x400": rowhammer_accesses(1000, 400, timings),
        "row-press tREFI x40": row_press_accesses(
            1000, 40, trefi_ton, timings
        ),
        "fig10 decoy x400": decoy_pattern_accesses(1000, 2000, 400, timings),
    }
    print(f"\n{'pattern':>22} | {'no-RP defense':>22} | {'ImPress-P':>22}")
    for name, accesses in patterns.items():
        cells = []
        for scheme_cls in (NoRpScheme, ImpressPScheme):
            outcome = run_security_simulation(
                build(scheme_cls), accesses, TRH, ALPHA_LONG, timings
            )
            verdict = "BIT FLIP" if outcome.flipped else "safe"
            cells.append(
                f"{verdict:>9} ({outcome.margin:5.2f} TRH)"
            )
        print(f"{name:>22} | {cells[0]:>22} | {cells[1]:>22}")

    print(
        "\nThe Rowhammer-only defense stops hammering but lets the "
        "long-open-row patterns\nreach critical charge; ImPress-P "
        "converts the open time into EACT and stays safe."
    )


if __name__ == "__main__":
    main()
