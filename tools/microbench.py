#!/usr/bin/env python3
"""Tracker-kernel microbench and its same-runner regression gate.

perfbench (``BENCHMARK.json``) times four workloads end to end.  This
script times what those cannot show one by one: each tracker's record
kernel alone (``ukernel_*``), the fast engine against the reference
engine (``single_core`` / ``single_core_reference``), the invariant
monitor's per-close path (``single_core_monitored``), and the batch
tier against per-point runs on one defense grid
(``tracker_grid_serial`` / ``tracker_grid_batch``)::

    python tools/microbench.py [--row NAME ...]
    python tools/microbench.py --against PARENT_SRC [--row NAME ...]

Without ``--against`` it times every row on the ``src/`` tree next to
this script and prints each row's throughput, then both speedups.

``--against`` is the gate.  Two long-lived children, one importing
``repro`` from this tree (HEAD) and one from ``PARENT_SRC``, are pinned
to the same CPU.  Each builds every row once and runs one untimed
warm-up.  The driver then alternates single timed passes between them
for :data:`ROUNDS` rounds, swapping which side goes first each round.
A row fails when the median over rounds of HEAD work/s over parent
work/s is below :data:`FAIL_BELOW`.  A row the parent tree cannot
build is reported as skipped and not gated; no compared row at all
exits 2.  The harness is the same code on both sides because it lives
outside the trees it measures.

Both modes exit 1 when a speedup pair simulated different work (a
speedup between two runs that diverged means nothing), and both end
with one JSON line.  Profile one row with::

    python -m cProfile -s cumulative tools/microbench.py --row ukernel_mithril
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

TOOLS_DIR = Path(__file__).resolve().parent
REPO_SRC = TOOLS_DIR.parent / "src"

#: Requests per core of each row family's run shape.
KERNEL_REQUESTS = 400
PAIR_REQUESTS = 1500
#: Large enough that per-lane simulation dominates the batch tier's
#: replay overhead (its speedup saturates above ~600 requests/core).
GRID_REQUESTS = 600

#: Kernel records per configured request: 400 requests drive 12k
#: records, enough churn to fill every tracker's table.
KERNEL_RECORDS_PER_REQUEST = 30
#: RFM cadence for the in-DRAM trackers in the kernel rows.
KERNEL_RFM_EVERY = 32

#: Timed passes per row; in the gate, rounds of one pass per side.
ROUNDS = 15
#: A row fails the gate when its median HEAD/parent ratio is below
#: this.  Same-tree runs read 0.98-1.01; a 6-iteration empty loop in
#: one kernel reads ~0.78.
FAIL_BELOW = 0.85

#: The two speedups, as (label, faster row, slower row).  The rows of a
#: pair must simulate identical work.
PAIRS = (
    ("fast vs reference engine", "single_core", "single_core_reference"),
    ("batch tier vs per point", "tracker_grid_batch", "tracker_grid_serial"),
)

TimedPass = Callable[[], int]


def kernel_row(tracker: str, requests: int = KERNEL_REQUESTS) -> TimedPass:
    """One tracker's raw record kernel on a seeded skewed stream.

    Each pass feeds a fresh tracker ``requests * 30`` pre-generated
    (row, raw weight) records, calling ``on_rfm`` every
    :data:`KERNEL_RFM_EVERY` records for the in-DRAM trackers.  Work is
    the record count.
    """
    import random

    from repro.sim.config import DefenseConfig

    defense = DefenseConfig(tracker=tracker, scheme="impress-p", trh=4000.0)
    scale = 1 << defense.fraction_bits
    n_records = requests * KERNEL_RECORDS_PER_REQUEST
    rng = random.Random(1234)
    rows: List[int] = []
    raws: List[int] = []
    for _ in range(n_records):
        # A few hot aggressors over a light tail, like the goldens.
        rows.append(
            rng.randrange(8) if rng.random() < 0.25 else rng.randrange(4096)
        )
        raws.append(scale + rng.randrange(2 * scale))
    uses_rfm = tracker in ("mithril", "mint")

    def timed_pass() -> int:
        tracker_ = defense._build_tracker(0)
        kernel = tracker_.raw_kernel(scale)
        if uses_rfm:
            on_rfm = tracker_.on_rfm
            step = 0
            for row, raw in zip(rows, raws):
                kernel(row, raw)
                step += 1
                if not step % KERNEL_RFM_EVERY:
                    on_rfm(step)
        else:
            for row, raw in zip(rows, raws):
                kernel(row, raw)
        return n_records

    return timed_pass


def single_core_row(engine: str, requests: int = PAIR_REQUESTS) -> TimedPass:
    """``mcf`` on one core with no defense, on the ``engine`` named.

    Work is simulated DRAM cycles.
    """
    from repro.sim.config import SystemConfig
    from repro.sim.system import build_simulator

    system = SystemConfig(n_cores=1)

    def timed_pass() -> int:
        return build_simulator(
            system, "mcf", None, None, requests, 0, engine
        ).run().elapsed_cycles

    return timed_pass


def single_core_monitored_row(requests: int = PAIR_REQUESTS) -> TimedPass:
    """``mcf`` on one core under ExPress, through ``monitored_run``.

    ExPress's close slots start as None, so every row close runs the
    invariant monitor's close shim alone.  Work is simulated DRAM
    cycles.
    """
    from repro.security.invariants import monitored_run
    from repro.sim.config import DefenseConfig, SystemConfig
    from repro.sim.system import build_simulator

    system = SystemConfig(n_cores=1)
    defense = DefenseConfig(tracker="graphene", scheme="express")

    def timed_pass() -> int:
        sim = build_simulator(system, "mcf", defense, None, requests, 0)
        return monitored_run(sim)[0].elapsed_cycles

    return timed_pass


def grid_defenses() -> list:
    """The pinned 16-lane defense grid of the serial/batch pair.

    Shaped like the paper's K-sweeps: every tracker appears, several at
    two thresholds (a threshold changes tracker state, not timing, so
    those lanes share a recorded timeline, the redundancy the batch
    tier amortizes).  PARA's probabilistic mitigations defeat replay
    and force the per-lane fallback, so the pair measures the tier as
    real sweeps hit it, not a best case.
    """
    from repro.sim.config import DefenseConfig

    return [
        None,
        DefenseConfig(tracker="graphene", scheme="no-rp"),
        DefenseConfig(tracker="graphene", scheme="no-rp", trh=2000.0),
        DefenseConfig(tracker="graphene", scheme="impress-n"),
        DefenseConfig(tracker="graphene", scheme="impress-p"),
        DefenseConfig(tracker="graphene", scheme="impress-p", trh=2000.0),
        DefenseConfig(tracker="prac", scheme="no-rp"),
        DefenseConfig(tracker="prac", scheme="no-rp", trh=2000.0),
        DefenseConfig(tracker="prac", scheme="impress-p"),
        DefenseConfig(tracker="dsac", scheme="no-rp"),
        DefenseConfig(tracker="dsac", scheme="no-rp", trh=2000.0),
        DefenseConfig(tracker="para", scheme="no-rp"),
        DefenseConfig(tracker="mint", scheme="no-rp"),
        DefenseConfig(tracker="mint", scheme="impress-p"),
        DefenseConfig(tracker="mithril", scheme="no-rp"),
        DefenseConfig(tracker="mithril", scheme="impress-p"),
    ]


def grid_row(batch: bool, requests: int = GRID_REQUESTS) -> TimedPass:
    """The pinned grid on 8-core ``mcf``, per point or batched.

    Per point is one fast-engine run per lane, the way a sweep ran
    before the batch tier; batched is one ``simulate_batch`` call.
    Work is the summed simulated cycles of every lane.
    """
    from repro.sim.config import SystemConfig

    system = SystemConfig(n_cores=8)
    defenses = grid_defenses()
    if batch:
        from repro.sim.batch import simulate_batch

        points = [("mcf", defense, None) for defense in defenses]

        def timed_pass() -> int:
            return sum(
                result.elapsed_cycles
                for result in simulate_batch(
                    points, system=system, n_requests_per_core=requests,
                    seed=0,
                )
            )
    else:
        from repro.sim.system import simulate_workload

        def timed_pass() -> int:
            total = 0
            for defense in defenses:
                total += simulate_workload(
                    "mcf", defense, system=system,
                    n_requests_per_core=requests,
                ).elapsed_cycles
            return total

    return timed_pass


#: Row name -> builder of its timed pass.  Each builder takes the run
#: size as ``requests`` and defaults to the row's pinned shape.
ROWS: Dict[str, Callable[..., TimedPass]] = {
    **{
        f"ukernel_{tracker}": functools.partial(kernel_row, tracker)
        for tracker in ("graphene", "para", "mithril", "mint", "prac", "dsac")
    },
    "single_core": functools.partial(single_core_row, "fast"),
    "single_core_reference": functools.partial(single_core_row, "reference"),
    "single_core_monitored": single_core_monitored_row,
    "tracker_grid_serial": functools.partial(grid_row, False),
    "tracker_grid_batch": functools.partial(grid_row, True),
}


def timed(timed_pass: TimedPass) -> Tuple[int, float]:
    """``(work, seconds)`` of one pass."""
    start = time.perf_counter()
    work = timed_pass()
    return work, time.perf_counter() - start


def self_check(work: Dict[str, int]) -> List[str]:
    """One line per speedup pair whose two rows did different work."""
    return [
        f"self-check: {fast} did {work[fast]} work, {slow} did {work[slow]}"
        for _, fast, slow in PAIRS
        if fast in work and slow in work and work[fast] != work[slow]
    ]


def verdict(
    samples: Dict[str, List[Tuple[float, float]]],
    skipped: Dict[str, str],
    problems: List[str],
) -> Tuple[List[str], int]:
    """The gate's report lines (the last one JSON) and exit code.

    ``samples`` maps each compared row to one (HEAD work/s, parent
    work/s) pair per round.  ``skipped`` maps each row the parent could
    not build to the reason.  ``problems`` fail the gate whatever the
    timings: a row HEAD could not build, a self-check mismatch.
    """
    lines: List[str] = []
    ratios: Dict[str, float] = {}
    failed: List[str] = []
    for name, pairs in samples.items():
        ratio = ratios[name] = statistics.median(
            head / parent for head, parent in pairs
        )
        if ratio < FAIL_BELOW:
            failed.append(name)
        lines.append(
            f"  {name:<24}{ratio:>7.3f}  "
            f"{'FAIL' if ratio < FAIL_BELOW else 'ok'}"
        )
    for name, reason in skipped.items():
        lines.append(f"  {name:<24}skipped ({reason})")
    lines.extend(problems)
    if problems:
        code = 1
    elif not samples:
        code = 2
        lines.append("error: no row was compared")
    elif failed:
        code = 1
        lines.append(f"FAIL: below {FAIL_BELOW}: {', '.join(failed)}")
    else:
        code = 0
        lines.append(f"OK: {len(samples)} row(s) at or above {FAIL_BELOW}")
    lines.append(json.dumps({
        "ratios": ratios, "skipped": skipped, "failed": failed,
        "problems": problems, "exit": code,
    }))
    return lines, code


def run_here(names: Sequence[str]) -> int:
    """Time ``names`` on this tree in-process; the exit code."""
    sys.path.insert(0, str(REPO_SRC))
    import repro

    passes = {name: ROWS[name]() for name in names}
    work = {name: timed_pass() for name, timed_pass in passes.items()}
    rates: Dict[str, List[float]] = {name: [] for name in names}
    for _ in range(ROUNDS):
        for name, timed_pass in passes.items():
            done, seconds = timed(timed_pass)
            rates[name].append(done / seconds)
    medians = {name: statistics.median(rates[name]) for name in names}
    print(f"microbench: repro from {Path(repro.__file__).parent}, "
          f"median of {ROUNDS} timed passes")
    for name in names:
        print(f"  {name:<24}{medians[name]:>14,.0f} work/s  "
              f"({work[name]:,} per pass)")
    ratios = {
        label: medians[fast] / medians[slow]
        for label, fast, slow in PAIRS
        if fast in medians and slow in medians
    }
    for label, ratio in ratios.items():
        print(f"{label}: {ratio:.2f}x")
    problems = self_check(work)
    for line in problems:
        print(line)
    print(json.dumps({
        "work_per_s": medians, "speedups": ratios, "problems": problems,
    }))
    return 1 if problems else 0


# -- the gate ---------------------------------------------------------------


def _send(stream, message: dict) -> None:
    stream.write(json.dumps(message) + "\n")
    stream.flush()


def child(names: Sequence[str]) -> None:
    """Gate child: build ``names``, warm up, then time passes on demand.

    Imports ``repro`` from ``PYTHONPATH``, which the driver points at
    one tree.  Sends one JSON line ``{"repro", "work", "errors"}``, then
    answers each row name read from stdin with ``{"work", "seconds"}``
    of one timed pass, until stdin closes.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # The protocol owns stdout; anything the code under test prints
    # goes to stderr.
    protocol, sys.stdout = sys.stdout, sys.stderr
    import repro

    passes: Dict[str, TimedPass] = {}
    work: Dict[str, int] = {}
    errors: Dict[str, str] = {}
    for name in names:
        try:
            timed_pass = ROWS[name]()
            work[name] = timed_pass()
        except Exception as error:  # reported; the driver decides
            errors[name] = f"{type(error).__name__}: {error}"
            continue
        passes[name] = timed_pass
    _send(protocol, {
        "repro": str(Path(repro.__file__).parent),
        "work": work, "errors": errors,
    })
    for line in iter(sys.stdin.readline, ""):
        done, seconds = timed(passes[line.strip()])
        _send(protocol, {"work": done, "seconds": seconds})


class Child:
    """The driver's handle on one gate child."""

    def __init__(self, side: str, src: Path, names: Sequence[str]) -> None:
        self.side = side
        entry = (
            f"import sys; sys.path.insert(0, {str(TOOLS_DIR)!r}); "
            "import microbench; microbench.child(sys.argv[1:])"
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-c", entry, *names],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0"),
        )

    def read(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"{self.side} child exited ({self.proc.wait()}); "
                "see its traceback above"
            )
        return json.loads(line)

    def rate(self, name: str) -> float:
        """Work/s of one timed pass of ``name``."""
        self.proc.stdin.write(name + "\n")
        self.proc.stdin.flush()
        reply = self.read()
        return reply["work"] / reply["seconds"]

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def gate(parent_src: Path, names: Sequence[str]) -> int:
    """HEAD against ``parent_src`` on one CPU; the exit code."""
    children = {
        "HEAD": Child("HEAD", REPO_SRC, names),
        "parent": Child("parent", parent_src, names),
    }
    try:
        ready = {side: child.read() for side, child in children.items()}
        compared = [
            name for name in names
            if all(name in ready[side]["work"] for side in children)
        ]
        samples: Dict[str, List[Tuple[float, float]]] = {
            name: [] for name in compared
        }
        for round_ in range(ROUNDS):
            order = ("HEAD", "parent") if round_ % 2 == 0 else (
                "parent", "HEAD"
            )
            for name in compared:
                rate = {side: children[side].rate(name) for side in order}
                samples[name].append((rate["HEAD"], rate["parent"]))
    finally:
        for child_ in children.values():
            child_.close()
    print(f"microbench gate: HEAD {ready['HEAD']['repro']} vs parent "
          f"{ready['parent']['repro']}, {ROUNDS} rounds, "
          f"fail below {FAIL_BELOW}")
    problems = [
        f"{name} failed on HEAD: {error}"
        for name, error in ready["HEAD"]["errors"].items()
    ] + [
        f"{side} {line}"
        for side in children for line in self_check(ready[side]["work"])
    ]
    skipped = {
        name: f"parent: {error}"
        for name, error in ready["parent"]["errors"].items()
        if name not in ready["HEAD"]["errors"]
    }
    lines, code = verdict(samples, skipped, problems)
    for line in lines:
        print(line)
    return code


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="microbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--row", action="append", choices=list(ROWS), metavar="NAME",
        help=f"time only this row (repeatable; default all): "
             f"{', '.join(ROWS)}",
    )
    parser.add_argument(
        "--against", metavar="PARENT_SRC",
        help="gate this tree against the repro package under PARENT_SRC",
    )
    args = parser.parse_args(argv)
    names = [name for name in ROWS if name in (args.row or ROWS)]
    if args.against is None:
        return run_here(names)
    parent_src = Path(args.against).resolve()
    if not (parent_src / "repro" / "__init__.py").is_file():
        parser.error(f"no repro package under {parent_src}")
    return gate(parent_src, names)


if __name__ == "__main__":
    raise SystemExit(main())
