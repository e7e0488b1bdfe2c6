"""The repo benchmark: four workloads, timed end to end, traced per layer.

    python3 perfbench/run.py --workload paper_quick --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Each timed iteration runs in a fresh interpreter (``child.py``), so
process-level caches start empty; iterations repeat until ``--seconds``
have passed and every timing is the median over them.  Timings are
host time scaled to a reference host speed (``child.SpeedProbe``);
host times print beside them.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced iteration and prints the per-layer metrics instead.  Human
readable lines go first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER, is_outer, layer_of  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

#: End-to-end metrics every workload reports with tracing off.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
)

#: No iteration starts that would end past this many seconds of the run,
#: however few it has, so a run's length stays bounded on a slow host.
RUN_LIMIT_S = 60.0
#: Per size: the fewest timed iterations a run makes, even when they
#: outlast ``--seconds``, and fresh interpreters timing
#: ``import repro.cli``.
RUN_SHAPE = {
    "full": {"fewest": 2, "import_probes": 3},
    "small": {"fewest": 1, "import_probes": 1},
}
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 150.0

IMPORT_PROBE = (
    "import json, sys, time\n"
    "started = time.perf_counter()\n"
    "import repro.cli\n"
    "print(json.dumps([time.perf_counter() - started,"
    " 'numpy' in sys.modules]))\n"
)


def env_with_src(root: Path) -> Dict[str, str]:
    """The environment a child interpreter imports the program with."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


class ChildFailed(RuntimeError):
    """A child interpreter crashed, timed out or wrote no result."""


class Runner:
    """Spawns the children of one benchmark run inside a scratch dir."""

    def __init__(self, workload: str, seed: int, size: str,
                 scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.size = size
        self.scratch = scratch
        self.shape = RUN_SHAPE[size]
        self.env = env_with_src(ROOT)
        self._ids = itertools.count()

    def _wait(self, command: List[str]) -> None:
        # A new session per child, so a timeout can take down the child
        # and anything it started (the serve daemon) together.
        process = subprocess.Popen(
            command, env=self.env, cwd=ROOT, stdout=sys.stderr,
            start_new_session=True,
        )
        try:
            process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
            raise ChildFailed(f"{command[1]} timed out") from None

    def child(self, trace: int = 0,
              spans: Optional[Path] = None) -> Dict[str, Any]:
        index = next(self._ids)
        out = self.scratch / f"child-{index}.json"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--size", self.size, "--trace", str(trace),
            "--workdir", str(self.scratch / f"work-{index}"),
            "--out", str(out),
        ]
        if spans is not None:
            command += ["--spans", str(spans)]
        command += ["--t0", repr(time.monotonic())]
        self._wait(command)
        try:
            result = json.loads(out.read_text())
        except (OSError, json.JSONDecodeError):
            raise ChildFailed("child wrote no result") from None
        if "error" in result:
            raise ChildFailed(result["error"])
        shutil.rmtree(self.scratch / f"work-{index}", ignore_errors=True)
        return result

    def import_probe(self) -> Dict[str, float]:
        """``import repro.cli`` in fresh interpreters: median seconds and
        whether numpy came with it."""
        samples = []
        for _ in range(self.shape["import_probes"]):
            done = subprocess.run(
                [sys.executable, "-c", IMPORT_PROBE], env=self.env, cwd=ROOT,
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                check=True,
            )
            samples.append(json.loads(done.stdout.strip().splitlines()[-1]))
        return {
            "import.repro_cli_s": statistics.median(s[0] for s in samples),
            "import.numpy_eager": int(any(s[1] for s in samples)),
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def fmt(values: Iterable[float]) -> str:
    return ", ".join(f"{value:.4g}" for value in values)


def untraced(runner: Runner, seconds: float) -> Dict[str, Any]:
    """Iterate until ``seconds`` have passed and the run shape's
    ``fewest`` are done, starting none that would end past
    :data:`RUN_LIMIT_S`; end-to-end metrics."""
    iterations: List[Dict[str, Any]] = []
    started = time.monotonic()
    last = 0.0
    while True:
        elapsed = time.monotonic() - started
        if iterations and (
            elapsed + last > RUN_LIMIT_S
            or (elapsed >= seconds
                and len(iterations) >= runner.shape["fewest"])
        ):
            break
        iteration_started = time.monotonic()
        iterations.append(runner.child())
        last = time.monotonic() - iteration_started
    setups = [it["setup_s"] for it in iterations]
    probe = runner.import_probe()

    attempted = sum(it["attempted"] for it in iterations)
    failed = sum(it["failed"] for it in iterations)
    notes = [note for it in iterations for note in it["notes"]]
    digests = {it["extras"].get("digest") for it in iterations}
    if len(digests) > 1:
        failed += len(digests) - 1
        notes.append(f"iterations disagree: digests {sorted(digests)}")
    walls = [it["wall_s"] for it in iterations]
    rss = [it["peak_rss_mb"] for it in iterations]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": 1.0 - failed / attempted,
    }
    lines = [
        f"{runner.workload}: seed {runner.seed}, {len(iterations)} "
        f"iteration(s), one fresh interpreter each",
        f"  setup_s      {metrics['setup_s']:.4f} s    "
        f"(median of {len(setups)}: {fmt(setups)}; host time "
        f"{fmt(it['setup_host_s'] for it in iterations)})",
        f"  import.repro_cli_s {probe['import.repro_cli_s']:.4f} s, "
        f"import.numpy_eager {probe['import.numpy_eager']}  "
        "(fresh-interpreter probe)",
        f"  wall_s       {metrics['wall_s']:.4f} s    "
        f"(median of {len(walls)}: {fmt(walls)}; host time "
        f"{fmt(it['wall_host_s'] for it in iterations)})",
        f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB",
        f"  ok_frac      {metrics['ok_frac']:.4f}     "
        f"({failed} failed of {attempted} attempted)",
    ]
    lines += workload_lines(runner.workload, iterations)
    lines += [f"  FAILED: {note}" for note in notes[:20]]
    return {"metrics": metrics, "units": dict(END_TO_END),
            "attempted": attempted, "failed": failed, "lines": lines}


def workload_lines(workload: str,
                   iterations: List[Dict[str, Any]]) -> List[str]:
    """Workload-specific figures printed beside the end-to-end metrics."""
    extras = [it["extras"] for it in iterations]
    if workload == "paper_quick" and extras[0].get("paper_err") is not None:
        return [f"  paper_err    {extras[0]['paper_err']:.4f}     "
                "(mean |measured - paper| / |paper| over paper_values; "
                "the only accuracy reference)"]
    if workload != "serve_mix":
        return []
    pooled: Dict[str, List[float]] = {}
    for extra in extras:
        for source, values in extra["latency_ms"].items():
            pooled.setdefault(source, []).extend(values)
    requests = sum(len(v) for v in extras[0]["latency_ms"].values())
    rps = [
        sum(len(v) for v in it["extras"]["latency_ms"].values())
        / it["wall_host_s"]
        for it in iterations
    ]
    lines = [f"  serve_rps    {statistics.median(rps):.2f} 1/s   "
             f"({requests} requests per iteration, 2 closed-loop clients)"]
    for source, metric, q in (("hit", "hit_p50_ms", 50),
                              ("hit", "hit_p95_ms", 95),
                              ("accepted", "miss_p50_ms", 50),
                              ("accepted", "miss_p90_ms", 90)):
        values = pooled.get(source, [])
        if values:
            beyond = sum(1 for v in values if v > percentile(values, q))
            lines.append(f"  {metric:12s} {percentile(values, q):.3f} ms  "
                         f"(n={len(values)}, {beyond} beyond)")
    coalesced = pooled.get("coalesced", [])
    lines.append(f"  coalesced    {len(coalesced)} request(s)")
    firsts = [it["extras"]["first_ms"] for it in iterations]
    lines.append(f"  first_miss_ms {fmt(firsts)}  "
                 "(includes the daemon's serial grace period)")
    lines.append(f"  server stats {json.dumps(extras[0]['server'])}")
    return lines


def traced(runner: Runner, trace_dir: Path) -> Dict[str, Any]:
    """One untraced and one traced iteration; per-layer metrics."""
    plain = runner.child()
    spans = trace_dir / f"{runner.workload}-seed{runner.seed}.jsonl"
    traced_run = runner.child(trace=1, spans=spans)
    per_layer = dict(traced_run["per_layer"])
    per_layer.update(runner.import_probe())
    per_layer["trace.overhead_s"] = traced_run["wall_s"] - plain["wall_s"]
    by_layer: Dict[str, float] = {}
    for name, seconds in traced_run["self_s"].items():
        layer = layer_of(name)
        by_layer[layer] = by_layer.get(layer, 0.0) + seconds
    lines = [
        f"{runner.workload}: seed {runner.seed}, traced wall "
        f"{traced_run['wall_s']:.4f} s, untraced wall "
        f"{plain['wall_s']:.4f} s (host time {traced_run['wall_host_s']:.4f}"
        f" and {plain['wall_host_s']:.4f} s), spans in "
        f"{spans.relative_to(ROOT)}",
        "  self time by layer (host time):",
    ]
    lines += [f"    {layer:20s} {seconds:9.4f} s"
              for layer, seconds in sorted(by_layer.items(),
                                           key=lambda kv: -kv[1])]
    outer = sum(seconds for name, seconds in traced_run["self_s"].items()
                if is_outer(name))
    lines.append(f"  trace.coverage {per_layer['trace.coverage']:.4f} "
                 "(self time below the outermost layer / traced wall; "
                 f"{outer:.4f} s of outer-layer self time is unattributed)")
    lines += [f"  {name:32s} {per_layer[name]:.6g} {unit}"
              for name, unit in PER_LAYER]
    notes = plain["notes"] + traced_run["notes"]
    lines += [f"  FAILED: {note}" for note in notes[:20]]
    return {"metrics": per_layer, "units": dict(PER_LAYER),
            "attempted": plain["attempted"] + traced_run["attempted"],
            "failed": plain["failed"] + traced_run["failed"],
            "lines": lines}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 size: str, state_dir: Path) -> Dict[str, Any]:
    scratch = state_dir / f"tmp-{os.getpid()}-{workload}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(workload, seed, size, scratch)
        if trace:
            return traced(runner, state_dir / "traces")
        return untraced(runner, seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def result_line(results: Dict[str, Dict[str, Any]],
                prefix: bool) -> Dict[str, Any]:
    metrics = {}
    for workload, result in results.items():
        for name, value in result["metrics"].items():
            label = f"{workload}.{name}" if prefix else name
            metrics[label] = {"value": value, "unit": result["units"][name]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="'small' is the self-test's reduced size")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    state_dir = ROOT / ".perfbench_run"
    results = {}
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds,
                                  args.trace, args.size, state_dir)
            print("\n".join(result["lines"]), flush=True)
            results[workload] = result
    except (ChildFailed, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result_line(results, prefix=len(workloads) > 1)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
