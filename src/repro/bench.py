"""Perf-benchmark harness: tracked cycles-per-second measurements.

Times the canonical simulations (per tracker, per workload class, plus
the frozen :class:`~repro.sim.reference.ReferenceSimulator` on the
canonical single-core config) and writes ``BENCH_<n>.json`` artifacts so
the engine's throughput trajectory is measurable across PRs.

The metric is **simulated DRAM cycles per wall-clock second** — the
quantity that decides how long a paper sweep takes.  Each artifact also
records a pure-Python *calibration score* (fixed-work loop, ops/sec) so
:mod:`tools.bench_compare` can normalize away machine-speed differences
when CI compares a run against the committed baseline.

Entry points:

* ``repro bench`` (see :mod:`repro.cli`) and ``tools/perf_bench.py``
  both call :func:`main`.
* Tests drive :func:`run_benchmarks` / :func:`write_artifact` directly.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from .experiments.common import SweepRunner
from .sim.config import DefenseConfig, SystemConfig
from .sim.system import build_simulator
from .workloads.compiled import (
    compiled_cache_stats,
    compiled_rate_mode_traces,
)

ARTIFACT_SCHEMA = 1
ARTIFACT_PATTERN = re.compile(r"BENCH_(\d+)\.json$")
DEFAULT_OUT_DIR = Path("benchmarks") / "baselines"

#: Requests per core: full mode for local trend tracking, quick mode for
#: the CI smoke gate.
FULL_REQUESTS = 1500
QUICK_REQUESTS = 400

#: The canonical single-core configuration the acceptance speedup is
#: measured on (also run through the reference engine each time).
CANONICAL_WORKLOAD = "mcf"


@dataclass(frozen=True)
class BenchSpec:
    """One timed benchmark configuration.

    ``engine`` selects what is measured:

    * ``"fast"`` / ``"reference"`` — a full simulation; ``cycles`` are
      simulated DRAM cycles.
    * ``"tracker-kernel"`` — the tracker's record kernel alone, driven
      by a seeded synthetic activation stream; ``cycles`` counts kernel
      record calls, so ``cycles_per_sec`` reads as records/second.
    * ``"sweep"`` — a fresh ``SweepRunner.run_many`` batch over a small
      (workload x defense) grid; ``cycles`` sums the simulated cycles
      of every point, so ``cycles_per_sec`` is sweep throughput
      including trace compilation and cache management.
    * ``"scenario"`` — a full simulation of the scenario preset named
      by ``workload`` (its own topology and defense; see
      ``repro scenario list``), measuring the engine under co-located
      attacker traffic; ``cycles`` are simulated DRAM cycles.
    * ``"scenario-invariants"`` — the same scenario preset run under an
      attached :class:`~repro.security.invariants.InvariantMonitor`
      with periodic checkpoints, so the cost of online checking is a
      tracked number rather than a guess.
    * ``"distributed-sweep"`` — a small (workload x defense) grid
      executed through the full :mod:`repro.distrib` machinery (queue
      submit, claim, lease, checkpoint, store put, collect) with the
      coordinator in degraded in-process mode — single-core CI safe,
      so the row tracks the coordination overhead itself; ``cycles``
      sums the simulated cycles of every task.
    * ``"serial-grid"`` / ``"batch-grid"`` — the same pinned
      12-defense grid (:func:`grid_defenses`) on ``workload``, run
      point-by-point on the fast engine vs. through the NumPy batch
      tier (:func:`repro.sim.batch.simulate_batch`); ``cycles`` sums
      the simulated cycles of every lane, so the two rows' ratio *is*
      the batch-tier speedup (``batch-grid`` is skipped when NumPy is
      unavailable).  ``tracker``/``scheme`` are the markers
      ``"mixed"``/``"grid"`` — grid rows have no single defense, and
      :meth:`defense` must not be called for them.
    """

    name: str
    workload: str
    tracker: str = "none"
    scheme: str = "no-rp"
    n_cores: int = 8
    engine: str = "fast"
    #: Pin this benchmark's request count regardless of quick/full mode.
    #: The canonical single-core pair uses it so the headline speedup is
    #: measured on the same run shape in every artifact.
    fixed_requests: Optional[int] = None

    def defense(self) -> Optional[DefenseConfig]:
        """The defense configuration this benchmark simulates under."""
        if self.engine in ("serial-grid", "batch-grid"):
            raise ValueError(
                f"{self.name}: grid rows sweep {len(grid_defenses())} "
                "defenses (grid_defenses()); there is no single defense"
            )
        if self.tracker == "none" and self.scheme == "no-rp":
            return None
        return DefenseConfig(tracker=self.tracker, scheme=self.scheme)

    def system(self) -> SystemConfig:
        """The simulated machine for this benchmark."""
        return SystemConfig(n_cores=self.n_cores)


#: Kernel-microbench records per configured request (quick mode's 400
#: requests drive 12k records — enough churn to fill every table).
KERNEL_RECORDS_PER_REQUEST = 30

#: RFM cadence for in-DRAM trackers in the kernel microbench.
KERNEL_RFM_EVERY = 32

#: The sweep-throughput row's pinned grid shape.
SWEEP_BENCH_REQUESTS = 200

#: Pinned request budget for the serial-vs-batch grid rows.  Large
#: enough that per-lane simulation dominates the batch tier's replay
#: overhead (the speedup saturates above ~600 requests/core), small
#: enough for the CI smoke gate.
GRID_BENCH_REQUESTS = 600


def grid_defenses() -> List[Optional[DefenseConfig]]:
    """The pinned defense grid the serial/batch grid rows sweep.

    Shaped like the paper's K-sweeps: every tracker appears, several at
    two provisioning thresholds (a threshold change alters tracker
    state, not timing, so the lanes share a recorded timeline — exactly
    the redundancy the batch tier amortizes).  PARA rides along too:
    its probabilistic mitigations defeat replay and force the per-lane
    fallback path, so the rows measure the tier as real sweeps hit it,
    not a best case.
    """
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

#: The canonical benchmark set: the acceptance pair (fast + reference on
#: the single-core config), one benchmark per workload class, one
#: simulation per tracker, a record-kernel microbench per tracker, and
#: the sweep-batch row.
CANONICAL_BENCHMARKS: Sequence[BenchSpec] = (
    BenchSpec(
        "single_core", CANONICAL_WORKLOAD, n_cores=1,
        fixed_requests=FULL_REQUESTS,
    ),
    BenchSpec(
        "single_core_reference", CANONICAL_WORKLOAD, n_cores=1,
        engine="reference", fixed_requests=FULL_REQUESTS,
    ),
    BenchSpec("class_spec", "mcf"),
    BenchSpec("class_stream", "add"),
    BenchSpec("class_mix", "add_copy"),
    BenchSpec("tracker_graphene", "mcf", tracker="graphene",
              scheme="impress-p"),
    BenchSpec("tracker_para", "mcf", tracker="para", scheme="no-rp"),
    BenchSpec("tracker_mithril", "mcf", tracker="mithril", scheme="no-rp"),
    BenchSpec("tracker_mint", "mcf", tracker="mint", scheme="impress-n"),
    BenchSpec("tracker_prac", "mcf", tracker="prac", scheme="impress-p"),
    BenchSpec("tracker_dsac", "mcf", tracker="dsac", scheme="no-rp"),
    BenchSpec("tracker_grid_serial", "mcf", tracker="mixed", scheme="grid",
              engine="serial-grid", fixed_requests=GRID_BENCH_REQUESTS),
    BenchSpec("tracker_grid_batch", "mcf", tracker="mixed", scheme="grid",
              engine="batch-grid", fixed_requests=GRID_BENCH_REQUESTS),
    BenchSpec("ukernel_graphene", "synthetic", tracker="graphene",
              scheme="kernel", n_cores=1, engine="tracker-kernel"),
    BenchSpec("ukernel_para", "synthetic", tracker="para",
              scheme="kernel", n_cores=1, engine="tracker-kernel"),
    BenchSpec("ukernel_mithril", "synthetic", tracker="mithril",
              scheme="kernel", n_cores=1, engine="tracker-kernel"),
    BenchSpec("ukernel_mint", "synthetic", tracker="mint",
              scheme="kernel", n_cores=1, engine="tracker-kernel"),
    BenchSpec("ukernel_prac", "synthetic", tracker="prac",
              scheme="kernel", n_cores=1, engine="tracker-kernel"),
    BenchSpec("ukernel_dsac", "synthetic", tracker="dsac",
              scheme="kernel", n_cores=1, engine="tracker-kernel"),
    BenchSpec("sweep_run_many", "mcf+add", tracker="graphene",
              scheme="impress-p", n_cores=2, engine="sweep",
              fixed_requests=SWEEP_BENCH_REQUESTS),
    BenchSpec("distributed_sweep", "mcf+add", tracker="graphene",
              scheme="impress-p", n_cores=2, engine="distributed-sweep",
              fixed_requests=SWEEP_BENCH_REQUESTS),
    BenchSpec("colocated_attack", "colocated_hammer_mcf",
              tracker="graphene", scheme="impress-p", n_cores=8,
              engine="scenario"),
    BenchSpec("scenario_invariants", "colocated_hammer_mcf",
              tracker="graphene", scheme="impress-p", n_cores=8,
              engine="scenario-invariants"),
)


@dataclass
class BenchResult:
    """One benchmark's measurement."""

    spec: BenchSpec
    n_requests: int
    cycles: int
    seconds: float
    repeats: int

    @property
    def cycles_per_sec(self) -> float:
        return self.cycles / self.seconds if self.seconds else 0.0

    def to_json(self) -> Dict:
        """The artifact row for this measurement."""
        return {
            "name": self.spec.name,
            "workload": self.spec.workload,
            "tracker": self.spec.tracker,
            "scheme": self.spec.scheme,
            "n_cores": self.spec.n_cores,
            "engine": self.spec.engine,
            "n_requests": self.n_requests,
            "cycles": self.cycles,
            "seconds": self.seconds,
            "repeats": self.repeats,
            "cycles_per_sec": self.cycles_per_sec,
        }


@dataclass
class BenchReport:
    """A full benchmark run, ready to serialize."""

    results: List[BenchResult]
    quick: bool
    repeats: int
    n_requests: int
    calibration_ops_per_sec: float
    sweep_cache: Dict[str, float] = field(default_factory=dict)
    trace_cache: Dict[str, float] = field(default_factory=dict)

    def speedup_vs_reference(self) -> Optional[float]:
        """Fast-engine over reference-engine throughput, canonical config."""
        by_name = {result.spec.name: result for result in self.results}
        fast = by_name.get("single_core")
        reference = by_name.get("single_core_reference")
        if fast is None or reference is None or not reference.cycles_per_sec:
            return None
        return fast.cycles_per_sec / reference.cycles_per_sec

    def batch_speedup(self) -> Optional[float]:
        """Batch-tier over per-point throughput on the pinned grid pair.

        Both rows run in the same process on the same machine, so the
        ratio is calibration-normalized by construction.  None when
        either row is absent (e.g. NumPy missing skipped the batch leg).
        """
        by_name = {result.spec.name: result for result in self.results}
        batch = by_name.get("tracker_grid_batch")
        serial = by_name.get("tracker_grid_serial")
        if batch is None or serial is None or not serial.cycles_per_sec:
            return None
        return batch.cycles_per_sec / serial.cycles_per_sec

    def to_json(self) -> Dict:
        """Serialize the run to the ``BENCH_<n>.json`` artifact shape."""
        return {
            "schema": ARTIFACT_SCHEMA,
            "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "quick": self.quick,
            "repeats": self.repeats,
            "n_requests": self.n_requests,
            "machine": machine_metadata(),
            "calibration_ops_per_sec": self.calibration_ops_per_sec,
            "speedup_vs_reference": self.speedup_vs_reference(),
            "batch_grid_speedup": self.batch_speedup(),
            "sweep_cache": self.sweep_cache,
            "trace_cache": self.trace_cache,
            "benchmarks": [result.to_json() for result in self.results],
        }


def machine_metadata() -> Dict[str, object]:
    """Hardware/software context recorded in every artifact."""
    meta: Dict[str, object] = {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "processor": platform.processor() or platform.machine(),
        "cpu_count": os.cpu_count(),
    }
    try:
        # Resolve against the tree this module lives in, not the CWD —
        # otherwise running from inside an unrelated repository would
        # record that repository's revision in the artifact.
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        if rev.returncode == 0:
            meta["git_rev"] = rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return meta


def calibrate(target_seconds: float = 0.05, samples: int = 3) -> float:
    """Fixed-work pure-Python loop score, in operations per second.

    Used to normalize cycles-per-second numbers across machines of
    different single-thread speed: the simulator is pure Python, so its
    throughput tracks this score closely.  Takes the best of ``samples``
    windows — interference (a scheduler stall on a loaded CI host) can
    only *lower* a sample, so the maximum is the stable machine score
    and a single noisy window cannot swing the normalized gate.
    """
    chunk = 200_000

    def spin(n: int) -> int:
        total = 0
        for i in range(n):
            total += i & 7
        return total

    def one_sample() -> float:
        ops = 0
        start = time.perf_counter()
        while True:
            spin(chunk)
            ops += chunk
            elapsed = time.perf_counter() - start
            if elapsed >= target_seconds:
                return ops / elapsed

    spin(chunk)  # warm up
    return max(one_sample() for _ in range(max(1, samples)))


#: Keep sampling a benchmark until this much wall time has been spent
#: measuring it (or MAX_REPEATS is hit).  Quick-mode benches finish in
#: tens of milliseconds, where a single scheduler stall can swing one
#: sample by >30%; the minimum over ~a third of a second of samples is
#: stable enough for the CI gate.
MIN_MEASURE_SECONDS = 0.3
MAX_REPEATS = 20


def _simulation_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the ``fast`` / ``reference`` engines.

    Trace generation and compilation stay outside the timed region —
    the benchmark measures engine throughput, not trace synthesis.
    """
    system = spec.system()
    defense = spec.defense()
    compiled_rate_mode_traces(
        spec.workload, system.n_cores, n_requests, 0, system.mapper()
    )
    if spec.engine == "batch":
        # A single point degenerates to one fast run inside the batch
        # tier; this row exists to time the plumbing, not to show wins
        # (those are the batch-grid rows).
        from .sim.batch import simulate_batch

        points = [(spec.workload, defense, None)]

        def timed_pass() -> int:
            return simulate_batch(
                points, system=system, n_requests_per_core=n_requests,
                seed=0,
            )[0].elapsed_cycles
    else:
        def timed_pass() -> int:
            return build_simulator(
                system, spec.workload, defense, None, n_requests, 0,
                spec.engine,
            ).run().elapsed_cycles
    return timed_pass


def _tracker_kernel_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the per-tracker record microbench.

    Replays a pre-generated skewed (row, raw-weight) stream straight
    into the tracker's raw kernel (a fresh tracker per pass), issuing
    ``on_rfm`` every :data:`KERNEL_RFM_EVERY` records for the in-DRAM
    trackers.  Returns the record count, so the artifact row's
    ``cycles_per_sec`` reads as kernel records per second.
    """
    import random

    defense = DefenseConfig(
        tracker=spec.tracker, scheme="impress-p", trh=4000.0
    )
    scale = 1 << defense.fraction_bits
    n_records = n_requests * KERNEL_RECORDS_PER_REQUEST
    rng = random.Random(1234)
    rows: List[int] = []
    raws: List[int] = []
    for _ in range(n_records):
        # A few hot aggressors over a light tail, like the goldens.
        rows.append(
            rng.randrange(8) if rng.random() < 0.25
            else rng.randrange(4096)
        )
        raws.append(scale + rng.randrange(2 * scale))
    uses_rfm = spec.tracker in ("mithril", "mint")

    def timed_pass() -> int:
        tracker = defense._build_tracker(0)
        kernel = tracker.raw_kernel(scale)
        if uses_rfm:
            on_rfm = tracker.on_rfm
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


def _sweep_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the ``run_many`` sweep-throughput row.

    Each pass batches a small (workload x defense) grid through a fresh
    :class:`SweepRunner` (serial — the row must be comparable on
    single-core CI hosts) and returns the summed simulated cycles, so
    the row tracks end-to-end sweep throughput including cache
    management and result merging.
    """
    workloads = spec.workload.split("+")
    defense = spec.defense()

    def timed_pass() -> int:
        runner = SweepRunner(
            system=SystemConfig(
                n_cores=spec.n_cores, banks_per_channel=8
            ),
            n_requests=n_requests,
        )
        results = runner.run_many(
            [(workload, None) for workload in workloads]
            + [(workload, defense) for workload in workloads]
        )
        return sum(result.elapsed_cycles for result in results)

    return timed_pass


def _scenario_builder(spec: BenchSpec, n_requests: int):
    """``(scenario, build)`` for the preset ``spec.workload`` names.

    ``build()`` returns a fresh simulator of the preset on its own
    topology and defense.  One build happens here, so the preset's
    heterogeneous per-core traces (benign victims + attacker
    generators) are compiled and cached outside any timed region.
    """
    from .scenarios.registry import get_scenario

    scenario = get_scenario(spec.workload)

    def build():
        return build_simulator(
            scenario.system, scenario.cores, scenario.defense,
            scenario.tmro_ns, n_requests, 0,
        )

    build()
    return scenario, build


def _scenario_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the co-located scenario row.

    Times the engine alone on the preset named by ``spec.workload`` —
    the same contract as the ``fast`` rows, but under adversarial
    co-located traffic on the preset's own topology and defense.
    """
    _scenario, build = _scenario_builder(spec, n_requests)

    def timed_pass() -> int:
        return build().run().elapsed_cycles

    return timed_pass


def _scenario_invariants_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the monitored co-located scenario row.

    The same preset and trace set as the ``scenario`` row, but each
    pass runs under a fresh :class:`InvariantMonitor` with periodic
    checkpoints (:func:`repro.security.invariants.monitored_run`).  The
    gap between this row and ``colocated_attack`` is the full online
    checking overhead; the monitor-disabled row itself must stay within
    noise of earlier artifacts — the hooks are zero-cost when detached.
    """
    from .security.invariants import monitored_run

    scenario, build = _scenario_builder(spec, n_requests)

    def timed_pass() -> int:
        result, monitor = monitored_run(
            build(), tmro_ns=scenario.tmro_ns, checkpoint_cycles=50_000
        )
        if not monitor.ok:
            raise AssertionError(
                "benchmark preset violated invariants: "
                + ", ".join(monitor.violation_names())
            )
        return result.elapsed_cycles

    return timed_pass


def _distributed_sweep_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the distributed-sweep throughput row.

    Each pass runs the same grid shape as ``sweep_run_many`` through
    the whole :mod:`repro.distrib` stack in a fresh temporary
    directory: tasks submitted to a real filesystem queue, claimed and
    executed through the lease/checkpoint path, results put into a
    content-addressed store and collected.  No workers are spawned —
    the coordinator's degraded serial mode executes in-process, which
    keeps the row meaningful on single-core CI hosts and makes the gap
    to ``sweep_run_many`` read directly as coordination overhead.
    """
    import tempfile

    from .distrib.coordinator import run_distributed_sweep, shard_points
    from .distrib.queue import FileWorkQueue
    from .results.store import ResultStore
    from .scenarios.spec import ScenarioSpec

    workloads = spec.workload.split("+")
    system = SystemConfig(n_cores=spec.n_cores, banks_per_channel=8)
    defense = spec.defense()
    specs = [
        ScenarioSpec.benign(workload, system=system, defense=d)
        for workload in workloads
        for d in (None, defense)
    ]
    recipes = shard_points(specs, n_requests, 0)

    def timed_pass() -> int:
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            queue = FileWorkQueue(root / "queue")
            store = ResultStore(root / "store")
            outcome = run_distributed_sweep(
                recipes, queue, store,
                poll_s=0.0, serial_grace_s=0.0,
            )
            return sum(
                result.elapsed_cycles for result in outcome.results
            )

    return timed_pass


def _serial_grid_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the per-point leg of the grid pair.

    Runs the pinned :func:`grid_defenses` sweep one fast-engine
    simulation per lane — the way a sweep executed before the batch
    tier existed.  Trace compilation is warmed outside the timed
    region, same as the other simulation rows.
    """
    from .sim.system import simulate_workload

    system = spec.system()
    compiled_rate_mode_traces(
        spec.workload, system.n_cores, n_requests, 0, system.mapper()
    )
    defenses = grid_defenses()

    def timed_pass() -> int:
        total = 0
        for defense in defenses:
            total += simulate_workload(
                spec.workload, defense, system=system,
                n_requests_per_core=n_requests,
            ).elapsed_cycles
        return total

    return timed_pass


def _batch_grid_pass(spec: BenchSpec, n_requests: int):
    """Timed-pass closure for the batch-tier leg of the grid pair.

    The identical grid through :func:`repro.sim.batch.simulate_batch`;
    the ratio against ``tracker_grid_serial`` is the tier's speedup on
    an honest defense mix (PARA forces one fallback lane).  Raises
    ImportError when NumPy is missing — ``run_benchmarks`` skips the
    row with a note.
    """
    from .sim.batch import simulate_batch

    system = spec.system()
    compiled_rate_mode_traces(
        spec.workload, system.n_cores, n_requests, 0, system.mapper()
    )
    points = [(spec.workload, defense, None) for defense in grid_defenses()]

    def timed_pass() -> int:
        return sum(
            result.elapsed_cycles
            for result in simulate_batch(
                points, system=system, n_requests_per_core=n_requests,
                seed=0,
            )
        )

    return timed_pass


_ENGINE_PASSES = {
    "fast": _simulation_pass,
    "reference": _simulation_pass,
    "batch": _simulation_pass,
    "tracker-kernel": _tracker_kernel_pass,
    "sweep": _sweep_pass,
    "scenario": _scenario_pass,
    "scenario-invariants": _scenario_invariants_pass,
    "distributed-sweep": _distributed_sweep_pass,
    "serial-grid": _serial_grid_pass,
    "batch-grid": _batch_grid_pass,
}


def run_one(spec: BenchSpec, n_requests: int, repeats: int) -> BenchResult:
    """Time one benchmark: the best (minimum) wall time over its samples.

    Takes at least ``repeats`` samples, and keeps sampling until
    :data:`MIN_MEASURE_SECONDS` of measurement has accumulated (capped
    at :data:`MAX_REPEATS`), so short benchmarks get enough samples for
    the minimum to be a stable machine-speed estimate.
    """
    if spec.fixed_requests is not None:
        n_requests = spec.fixed_requests
    timed_pass = _ENGINE_PASSES[spec.engine](spec, n_requests)
    best = float("inf")
    cycles = 0
    total = 0.0
    samples = 0
    while samples < max(1, repeats) or (
        total < MIN_MEASURE_SECONDS and samples < MAX_REPEATS
    ):
        start = time.perf_counter()
        cycles = timed_pass()
        elapsed = time.perf_counter() - start
        total += elapsed
        samples += 1
        best = min(best, elapsed)
    return BenchResult(
        spec=spec, n_requests=n_requests, cycles=cycles,
        seconds=best, repeats=samples,
    )


def _sweep_cache_sample(n_requests: int) -> Dict[str, float]:
    """Exercise a small SweepRunner sweep and report its cache behavior."""
    runner = SweepRunner(
        system=SystemConfig(n_cores=2, banks_per_channel=8),
        n_requests=min(n_requests, 200),
    )
    defense = DefenseConfig(tracker="graphene", scheme="impress-p")
    start = time.perf_counter()
    for workload in ("mcf", "add"):
        # Each speedup() call re-requests the shared baseline: the
        # second-and-later lookups must come from the run cache.
        runner.speedup(workload, defense)
        runner.speedup(workload, None)
    elapsed = time.perf_counter() - start
    payload = runner.cache_stats().to_json()
    payload["seconds"] = elapsed
    return payload


def run_benchmarks(
    quick: bool = False,
    repeats: Optional[int] = None,
    n_requests: Optional[int] = None,
    specs: Optional[Sequence[BenchSpec]] = None,
    progress=None,
) -> BenchReport:
    """Run the canonical benchmark set and return the report."""
    if repeats is None:
        repeats = 2 if quick else 3
    if n_requests is None:
        n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    if specs is None:
        specs = CANONICAL_BENCHMARKS
    calibration = calibrate()
    results: List[BenchResult] = []
    for spec in specs:
        try:
            result = run_one(spec, n_requests, repeats)
        except ImportError as error:
            # The batch-grid row needs NumPy; without it the row is
            # skipped (never silently zeroed) and the pure-Python rows
            # still produce a complete artifact.
            if progress is not None:
                progress(f"  {spec.name:<24} skipped: {error}")
            continue
        results.append(result)
        if progress is not None:
            progress(
                f"  {spec.name:<24} {result.cycles_per_sec:>12,.0f} cyc/s "
                f"({result.cycles} cycles, best of {result.repeats})"
            )
    return BenchReport(
        results=results,
        quick=quick,
        repeats=repeats,
        n_requests=n_requests,
        calibration_ops_per_sec=calibration,
        sweep_cache=_sweep_cache_sample(n_requests),
        trace_cache=compiled_cache_stats().to_json(),
    )


# -- profiling ------------------------------------------------------------


def profile_row(
    name: str,
    quick: bool = False,
    n_requests: Optional[int] = None,
    top: int = 25,
    progress=print,
) -> int:
    """Run one bench row under cProfile and print the hottest functions.

    The row's timed pass runs once unprofiled (warming trace and sweep
    caches, exactly like the sampling loop does) and once under the
    profiler, so the table reflects steady-state behavior.  This is the
    ``repro bench --profile <row>`` entry point: perf work should start
    from this table, not from guesses.
    """
    import cProfile
    import io
    import pstats

    specs = {spec.name: spec for spec in CANONICAL_BENCHMARKS}
    spec = specs.get(name)
    if spec is None:
        progress(
            f"error: unknown benchmark {name!r}; "
            f"choose from: {', '.join(sorted(specs))}"
        )
        return 2
    if n_requests is None:
        n_requests = QUICK_REQUESTS if quick else FULL_REQUESTS
    if spec.fixed_requests is not None:
        n_requests = spec.fixed_requests
    timed_pass = _ENGINE_PASSES[spec.engine](spec, n_requests)
    timed_pass()  # warm-up: steady-state caches, like the sampling loop
    profiler = cProfile.Profile()
    profiler.enable()
    cycles = timed_pass()
    profiler.disable()
    buffer = io.StringIO()
    stats = pstats.Stats(profiler, stream=buffer)
    stats.sort_stats("cumulative").print_stats(top)
    progress(
        f"profile of {name} ({spec.engine} engine, "
        f"{n_requests} requests, {cycles} cycles):"
    )
    progress(buffer.getvalue().rstrip())
    return 0


# -- artifacts ------------------------------------------------------------


def artifact_index(path: Path) -> Optional[int]:
    """The ``<n>`` of a ``BENCH_<n>.json`` path, or None."""
    match = ARTIFACT_PATTERN.search(path.name)
    return int(match.group(1)) if match else None


def list_artifacts(out_dir: Path) -> List[Path]:
    """All ``BENCH_<n>.json`` files in ``out_dir``, oldest index first."""
    if not out_dir.is_dir():
        return []
    found = [
        path for path in out_dir.iterdir() if artifact_index(path) is not None
    ]
    return sorted(found, key=lambda path: artifact_index(path))


def latest_artifact(out_dir: Path) -> Optional[Path]:
    """The highest-numbered artifact in ``out_dir``, if any."""
    artifacts = list_artifacts(out_dir)
    return artifacts[-1] if artifacts else None


def next_artifact_path(out_dir: Path) -> Path:
    """The next free ``BENCH_<n>.json`` slot in ``out_dir``."""
    artifacts = list_artifacts(out_dir)
    next_index = (artifact_index(artifacts[-1]) + 1) if artifacts else 1
    return out_dir / f"BENCH_{next_index:04d}.json"


def write_artifact(report: BenchReport, out_dir: Path) -> Path:
    """Serialize ``report`` into the next ``BENCH_<n>.json`` slot."""
    out_dir.mkdir(parents=True, exist_ok=True)
    path = next_artifact_path(out_dir)
    path.write_text(json.dumps(report.to_json(), indent=2) + "\n")
    return path


def compare_to_previous(
    report: BenchReport, previous_path: Optional[Path]
) -> List[str]:
    """Human-readable per-benchmark comparison lines vs. an artifact.

    Applies the same calibration normalization as
    ``tools/bench_compare.py`` (when both sides carry a score), so the
    printed ratios reflect engine changes rather than machine speed.
    """
    if previous_path is None or not previous_path.is_file():
        return ["no previous baseline to compare against"]
    previous = json.loads(previous_path.read_text())
    by_name = {row["name"]: row for row in previous.get("benchmarks", [])}
    previous_calibration = previous.get("calibration_ops_per_sec")
    if previous_calibration and report.calibration_ops_per_sec:
        # ratio = (cur/cur_cal) / (base/base_cal); fold the calibration
        # legs into one machine-speed factor applied to every row.
        scale = previous_calibration / report.calibration_ops_per_sec
        label = "normalized "
    else:
        scale = 1.0
        label = "raw "
    lines = [f"vs {previous_path.name} ({label.strip()} throughput):"]
    for result in report.results:
        row = by_name.get(result.spec.name)
        if row is None or not row.get("cycles_per_sec"):
            lines.append(f"  {result.spec.name:<24} (new benchmark)")
            continue
        if row.get("engine", result.spec.engine) != result.spec.engine:
            # A name measured on a different engine tier (e.g. a
            # --engine override) is a different quantity: never ratio
            # across tiers.  Legacy artifacts without the field are
            # assumed to match the spec's engine.
            lines.append(
                f"  {result.spec.name:<24} (engine changed: "
                f"{row.get('engine')} -> {result.spec.engine}; "
                f"not comparable)"
            )
            continue
        if (
            row.get("n_requests") != result.n_requests
            or row.get("n_cores") != result.spec.n_cores
        ):
            # Same guard tools/bench_compare.py applies: throughput is
            # not comparable across different run shapes.
            lines.append(
                f"  {result.spec.name:<24} (run shape changed; "
                f"not comparable)"
            )
            continue
        ratio = result.cycles_per_sec * scale / row["cycles_per_sec"]
        lines.append(
            f"  {result.spec.name:<24} {ratio:6.2f}x {label}"
            f"({row['cycles_per_sec']:,.0f} -> "
            f"{result.cycles_per_sec:,.0f} raw cyc/s)"
        )
    return lines


# -- CLI ------------------------------------------------------------------


def engine_override_specs(engine: str) -> List[BenchSpec]:
    """The canonical set with the ``fast`` simulation rows remapped.

    ``repro bench --engine reference|batch`` re-times the plain
    simulation rows on another tier under the same names; the ``engine``
    field in each row (and the guard in :func:`compare_to_previous` /
    ``tools/bench_compare.py``) keeps the results from ever being
    ratioed against fast-engine baselines.  Non-``fast`` rows
    (microbenches, sweep/scenario/grid rows) are left untouched.
    """
    import dataclasses

    return [
        dataclasses.replace(spec, engine=engine)
        if spec.engine == "fast" else spec
        for spec in CANONICAL_BENCHMARKS
    ]


def run_bench_command(
    quick: bool = False,
    repeats: Optional[int] = None,
    n_requests: Optional[int] = None,
    out_dir: Path = DEFAULT_OUT_DIR,
    write: bool = True,
    compare_to: Optional[Path] = None,
    engine: str = "fast",
    progress=print,
) -> int:
    """Drive a full ``repro bench`` invocation; returns an exit code."""
    mode = "quick" if quick else "full"
    progress(f"perf bench ({mode} mode):")
    if compare_to is not None:
        if not compare_to.is_file():
            progress(f"error: --compare-to {compare_to} does not exist")
            return 2
        baseline = compare_to
    else:
        baseline = latest_artifact(out_dir)
    specs = (
        engine_override_specs(engine) if engine != "fast" else None
    )
    report = run_benchmarks(
        quick=quick, repeats=repeats, n_requests=n_requests, specs=specs,
        progress=progress,
    )
    speedup = report.speedup_vs_reference()
    if speedup is not None:
        progress(
            f"engine speedup vs reference (canonical single-core): "
            f"{speedup:.2f}x"
        )
    batch_speedup = report.batch_speedup()
    if batch_speedup is not None:
        progress(
            f"batch tier speedup on the defense grid: {batch_speedup:.2f}x"
        )
    cache = report.sweep_cache
    progress(
        f"sweep cache: {cache['hits']:.0f} hits / "
        f"{cache['misses']:.0f} misses "
        f"(hit rate {cache['hit_rate']:.2f})"
    )
    for line in compare_to_previous(report, baseline):
        progress(line)
    if write:
        path = write_artifact(report, out_dir)
        progress(f"artifact: {path}")
    return 0


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``bench`` options on ``parser``.

    Shared by ``repro bench`` (:mod:`repro.cli`) and the standalone
    ``tools/perf_bench.py`` script so the two surfaces cannot drift.
    """
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced request counts and repeats (the CI smoke mode)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="timing repeats per benchmark (best-of)",
    )
    parser.add_argument(
        "--requests", type=int, default=None,
        help="override requests per core",
    )
    parser.add_argument(
        "--out-dir", default=str(DEFAULT_OUT_DIR),
        help="artifact directory (default: benchmarks/baselines)",
    )
    parser.add_argument(
        "--no-write", action="store_true",
        help="measure and compare only; do not write an artifact",
    )
    parser.add_argument(
        "--compare-to", default=None,
        help="explicit BENCH_<n>.json to compare against "
             "(default: latest in --out-dir)",
    )
    parser.add_argument(
        "--engine", choices=("fast", "reference", "batch"), default="fast",
        help="re-time the plain simulation rows on another engine tier "
             "(rows keep their names; the recorded engine field stops "
             "cross-tier ratio comparisons)",
    )
    parser.add_argument(
        "--profile", default=None, metavar="ROW",
        help="run one benchmark row under cProfile and print the "
             "hottest functions instead of benchmarking",
    )
    parser.add_argument(
        "--profile-top", type=int, default=25,
        help="rows of the cProfile table to print (with --profile)",
    )


def command_from_args(args: argparse.Namespace) -> int:
    """Run :func:`run_bench_command` from parsed bench arguments."""
    if args.profile is not None:
        return profile_row(
            args.profile,
            quick=args.quick,
            n_requests=args.requests,
            top=args.profile_top,
        )
    return run_bench_command(
        quick=args.quick,
        repeats=args.repeats,
        n_requests=args.requests,
        out_dir=Path(args.out_dir),
        write=not args.no_write,
        compare_to=Path(args.compare_to) if args.compare_to else None,
        engine=args.engine,
    )


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the standalone ``tools/perf_bench.py`` script."""
    parser = argparse.ArgumentParser(
        prog="perf_bench", description=__doc__,
    )
    add_bench_arguments(parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point shared by ``repro bench`` and ``tools/perf_bench.py``."""
    return command_from_args(build_parser().parse_args(argv))
