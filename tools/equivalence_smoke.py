#!/usr/bin/env python3
"""CI smoke: one batched sweep grid must be bit-identical to the fast engine.

Runs a small mixed-tracker grid twice — once through
``repro.sim.batch.simulate_batch`` (the leader/replay tier) and
once per-point through ``simulate_workload`` (the fast engine oracle) —
and asserts every lane's canonical JSON blob is byte-identical.  Also
asserts the batch run actually exercised each sharing path, so a
silent degradation to per-lane full simulations cannot pass as
equivalence:

* the replay path (``replayed > 0``);
* trace-content aliasing (``aliased > 0``): ``add`` and ``triad``
  generate byte-identical traces;
* an inert join (``joined > 0``): a long-tMRO ExPress lane and a MINT
  lane whose RFMTH no bank reaches replay against the plain timeline.

Exit codes: 0 identical, 1 any lane diverged or a sharing path went
unused.

Usage (the CI perf-smoke equivalence gate):

    PYTHONPATH=src python tools/equivalence_smoke.py
"""

from __future__ import annotations

import json
import sys


def result_blob(result) -> bytes:
    return json.dumps(result.to_json(), sort_keys=True).encode()


def main() -> int:
    from repro.sim.batch import BatchStats, simulate_batch
    from repro.sim.config import DefenseConfig, SystemConfig
    from repro.sim.system import simulate_workload

    system = SystemConfig(n_cores=2, banks_per_channel=8)
    requests = 120
    seed = 11
    points = [
        ("mcf", None, None),
        ("mcf", DefenseConfig(tracker="graphene", scheme="no-rp"), None),
        ("mcf", DefenseConfig(tracker="graphene", scheme="impress-p"), None),
        ("mcf", DefenseConfig(tracker="prac", scheme="no-rp", trh=150), None),
        ("mcf", DefenseConfig(tracker="dsac", scheme="no-rp"), None),
        ("mcf", DefenseConfig(tracker="para", scheme="no-rp", trh=200.0),
         None),
        ("mcf", DefenseConfig(tracker="mint", scheme="no-rp", rfmth=20),
         None),
        ("mcf", DefenseConfig(tracker="mithril", scheme="no-rp", rfmth=20),
         None),
        ("copy", None, 66.0),
        ("copy", DefenseConfig(tracker="graphene", scheme="no-rp"), 66.0),
        ("add", None, None),
        ("triad", None, None),
        ("add", DefenseConfig(tracker="graphene", scheme="express",
                              tmro_ns=4000.0), None),
        ("triad", DefenseConfig(tracker="mint", scheme="no-rp",
                                rfmth=10_000), None),
    ]

    stats = BatchStats()
    batched = simulate_batch(
        points, system=system, n_requests_per_core=requests, seed=seed,
        stats=stats,
    )

    mismatches = 0
    for (workload, defense, tmro_ns), result in zip(points, batched):
        oracle = simulate_workload(
            workload, defense, system=system,
            n_requests_per_core=requests, tmro_ns=tmro_ns, seed=seed,
        )
        label = (
            f"{workload}/"
            f"{defense.tracker + ':' + defense.scheme if defense else 'none'}"
            f"{'/tmro=' + str(tmro_ns) if tmro_ns else ''}"
        )
        if result_blob(result) == result_blob(oracle):
            print(f"  {label:<40} identical")
        else:
            print(f"  {label:<40} DIVERGED")
            mismatches += 1

    print(
        f"equivalence-smoke: {len(points)} lanes -> "
        f"{stats.leaders} leaders, {stats.replayed} replayed "
        f"(of {stats.python_replays} replay attempts), "
        f"{stats.fallbacks} fallbacks, {stats.singletons} singletons, "
        f"{stats.aliased} aliased; {stats.joined} joined across signatures"
    )
    if mismatches:
        print(f"FAIL: {mismatches} lane(s) diverged from the fast engine")
        return 1
    if stats.replayed == 0:
        print("FAIL: no lane took the replay path; the smoke proved nothing")
        return 1
    if stats.aliased == 0:
        print("FAIL: no lane shared an identical-content lane's run")
        return 1
    if stats.joined == 0:
        print("FAIL: no lane joined a timeline of another timing signature")
        return 1
    print("OK: batch engine bit-identical to the fast engine")
    return 0


if __name__ == "__main__":
    sys.exit(main())
