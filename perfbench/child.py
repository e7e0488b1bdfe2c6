"""One iteration of one workload in a fresh interpreter.

Started by ``run.py`` for every timed iteration, so process-level caches
(compiled traces, sweep caches, imports) start empty each time.  Writes
one JSON document to ``--out``::

    python3 perfbench/child.py --workload attack_sweep --seed 3 \\
        --size full --trace 0 --t0 <monotonic spawn time> \\
        --workdir <scratch dir> --out <result.json>

The child pins itself (and so the serve daemon it spawns) to one CPU
and runs a :class:`SpeedProbe` beside the workload; ``setup_s`` and
``wall_s`` are host time scaled to the probe's reference speed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

#: Seconds the probe's fixed loop takes on a host at reference speed;
#: about its median on the 2-core container the benchmark was built on.
REFERENCE_PROBE_S = 50e-6
#: Seconds the probe sleeps between samples.
PROBE_EVERY_S = 0.005
#: Seconds of a window scaled by one median of the probe's samples.
PROBE_SLICE_S = 0.25


class SpeedProbe:
    """Times a fixed pure-Python loop every few milliseconds.

    A shared host runs the same code up to twice as slowly for seconds
    at a time, and one CPU's speed hardly tracks the other's.  The probe
    thread shares the workload's CPU (the process is pinned) and takes
    the interpreter lock between the workload's bytecodes, so its
    samples see the speed the workload ran at, moment by moment.
    Dividing a window's host time by its samples' median, relative to
    :data:`REFERENCE_PROBE_S`, removes most of the host's drift; each
    sample costs about 1% of the window.
    """

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_EVERY_S):
            started = time.monotonic()
            total = 0
            for step in range(1000):
                total += step
            self.samples.append((started, time.monotonic() - started))

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def scaled(self, start: float, end: float) -> float:
        """Monotonic window ``[start, end]`` in seconds at reference
        speed.

        The host's speed changes within a window, so each slice of
        :data:`PROBE_SLICE_S` is scaled by its own samples' median; a
        slice with fewer than 3 samples uses the whole window's.
        """
        inside = [(t, s) for t, s in self.samples if start <= t <= end]
        if len(inside) < 3:
            inside = self.samples
        if not inside:
            return end - start
        overall = statistics.median(s for _, s in inside)
        slices: Dict[int, List[float]] = {}
        for t, s in inside:
            slices.setdefault(int((t - start) / PROBE_SLICE_S), []).append(s)
        total = 0.0
        lower = start
        while lower < end:
            index = int(round((lower - start) / PROBE_SLICE_S))
            upper = min(end, start + (index + 1) * PROBE_SLICE_S)
            durations = slices.get(index, [])
            speed = (statistics.median(durations) if len(durations) >= 3
                     else overall)
            total += (upper - lower) * REFERENCE_PROBE_S / speed
            lower = upper
        return total


def pin_to_one_cpu() -> None:
    """Keep the probe, the workload and its children on one CPU."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(args: argparse.Namespace, probe: SpeedProbe) -> dict:
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](
        args.seed, args.size, workdir, traced=bool(args.trace)
    )
    try:
        workload.prepare()
        ready = time.monotonic()
        setup_host_s = (
            workload.setup_s if workload.setup_s is not None
            else ready - args.t0
        )
        tracer = holders = root = None
        if args.trace:
            from tracing import ROOT, Tracer, instrument

            tracer = Tracer()
            holders = instrument(tracer)
            root = tracer.begin(ROOT)
        started = time.monotonic()
        outputs = workload.execute()
        ended = time.monotonic()
        if tracer is not None:
            tracer.end(root)
            tracer.uninstall()
        probe.stop()
        check = workload.check(outputs)
        out = {
            "setup_s": probe.scaled(ready - setup_host_s, ready),
            "wall_s": probe.scaled(started, ended),
            "setup_host_s": setup_host_s,
            "wall_host_s": ended - started,
            "attempted": check.attempted,
            "failed": check.failed,
            "notes": check.notes,
            "extras": check.extras,
        }
        if tracer is not None:
            from tracing import layer_metrics

            out["per_layer"] = layer_metrics(
                tracer, holders, workload.layer_counts(outputs)
            )
            out["self_s"] = tracer.self_times()
            tracer.write(Path(args.spans))
    finally:
        workload.close()
    out["peak_rss_mb"] = workload.peak_rss_mb()
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()
    pin_to_one_cpu()
    probe = SpeedProbe()
    try:
        result = run(args, probe)
        code = 0
    except Exception:
        result = {"error": traceback.format_exc()}
        code = 1
    finally:
        probe.stop()
    Path(args.out).write_text(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
