#!/usr/bin/env python
"""CI chaos smoke: kill a real worker mid-run, demand identical bytes.

Runs one full chaos experiment (the same harness the test matrix
uses): a serial reference sweep, then the same task recipes through
the distributed queue with two real ``repro worker`` subprocesses —
one of which is SIGKILLed while it holds the first claim — and
finally a byte-for-byte comparison of every result blob against the
serial run.

Exit 0 means the fault fired, the sweep completed and every blob is
byte-identical.
Any other outcome exits 1 after printing the report, and leaves the
queue/store directories in place (CI uploads them as the forensic
artifact).

Usage:
    PYTHONPATH=src python tools/chaos_smoke.py [--base-dir DIR]
        [--fault NAME] [--requests N] [--workers N]
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.chaos import EXTERNAL_FAULTS, run_chaos_case  # noqa: E402
from repro.distrib.coordinator import shard_points  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402
from repro.security.faults import KNOWN_FAULTS  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402


def main(argv=None):
    """Run the chaos smoke and return a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--base-dir", default="chaos-smoke",
        help="directory for the serial reference, queue and stores "
             "(kept on failure for artifact upload)",
    )
    parser.add_argument(
        "--fault", default="sigkill-claim-holder",
        # The worker case's faults: the two external ones that hit a
        # claim, and the in-process worker-* ones.
        choices=sorted(
            name for name in [*EXTERNAL_FAULTS, *KNOWN_FAULTS]
            if "claim" in name or name.startswith("worker-")
        ),
        help="which death to inject (default: SIGKILL the claim holder)",
    )
    parser.add_argument(
        "--requests", type=int, default=60_000,
        help="requests per core per task (sized so the lease expires "
             "mid-simulation on the CI runner)",
    )
    parser.add_argument("--workers", type=int, default=2)
    args = parser.parse_args(argv)

    system = SystemConfig(n_cores=2, banks_per_channel=8)
    specs = [
        ScenarioSpec.benign("mcf", system=system),
        ScenarioSpec.benign("add_copy", system=system),
    ]
    recipes = shard_points(specs, args.requests, 0)

    print(f"chaos smoke: fault={args.fault}, {len(recipes)} task(s), "
          f"{args.workers} worker(s)")
    report = run_chaos_case(
        Path(args.base_dir),
        recipes,
        fault=args.fault,
        n_workers=args.workers,
        lease_s=0.5,
        checkpoint_stride=300_000,
        timeout_s=300.0,
    )
    for line in report.summary_lines():
        print(line)
    for line in report.outcome.summary_lines():
        print(line)
    if not report.fault_fired:
        print("FAIL: the injected fault never fired (vacuous run)")
        return 1
    if not report.ok:
        print("FAIL: distributed blobs differ from the serial reference")
        return 1
    print("OK: sweep completed; every blob byte-identical to serial")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
