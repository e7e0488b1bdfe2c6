#!/usr/bin/env python
"""CI serve smoke: SIGKILL the daemon mid-flight, demand full recovery.

Runs one serve chaos case (the same harness ``tests/test_serve_chaos.py``
uses) with the ``sigkill-after-accept`` fault, which drives the serving
layer's whole crash-recovery contract in one pass:

1. start a real ``repro serve`` daemon;
2. send three concurrent requests — two *identical* (they must
   coalesce onto one journal entry and one execution) and one
   distinct — all with ``wait_s=0`` so they are 202-accepted and in
   flight;
3. SIGKILL the daemon (no drain, no cleanup);
4. assert the journal holds exactly the two accepted keys;
5. restart the daemon and let journal replay finish both requests;
6. SIGTERM the daemon and require a clean drain: exit 0, empty
   journal, endpoint file retired;
7. assert the store holds *exactly* the expected result blobs,
   byte-identical to a serial reference run.

Exit 0 means every assertion held.  Any other outcome exits 1 after
printing the forensics, and leaves the base directory in place (CI
uploads it as the failure artifact).

Usage:
    PYTHONPATH=src python tools/serve_smoke.py [--base-dir DIR]
        [--requests N]
"""

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.chaos import run_serve_chaos_case  # noqa: E402
from repro.distrib.worker import sweep_task_recipe  # noqa: E402
from repro.scenarios.spec import ScenarioSpec  # noqa: E402
from repro.sim.config import SystemConfig  # noqa: E402


def main(argv=None):
    """Run the serve smoke and return a process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--base-dir", default="serve-smoke",
        help="directory for the serial reference and the daemon's "
             "world (kept on failure for artifact upload)",
    )
    parser.add_argument(
        "--requests", type=int, default=20_000,
        help="requests per core per task (sized so the SIGKILL lands "
             "mid-flight on the CI runner)",
    )
    args = parser.parse_args(argv)

    system = SystemConfig(n_cores=1, banks_per_channel=8)
    shared = sweep_task_recipe(
        ScenarioSpec.benign("mcf", system=system).recipe(),
        args.requests, 0,
    )
    distinct = sweep_task_recipe(
        ScenarioSpec.benign("add_copy", system=system).recipe(),
        args.requests, 0,
    )
    print("serve smoke: 2x identical + 1 distinct request")
    report = run_serve_chaos_case(
        Path(args.base_dir), [shared, shared, distinct],
        fault="sigkill-after-accept", timeout_s=180.0,
    )
    for line in report.summary_lines():
        print(line)
    if not report.ok:
        print("FAIL: the daemon did not recover to the serial reference")
        return 1
    print("OK: coalesced journal, full replay, clean drain, "
          "byte-identical blobs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
