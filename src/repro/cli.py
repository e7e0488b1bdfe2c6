"""Command-line interface: ``python -m repro.cli <command>``.

Commands:

* ``run`` — the one way to run the paper's experiments: orchestrate
  registered experiments across a process pool (``--jobs N --only
  fig13,table2 --force``; ``--only table`` for the tables, ``--only
  paper`` for the whole evaluation), with disk-backed result caching
  and JSON/Markdown artifacts under ``results/`` (the full series of
  each experiment in ``results/<name>.json``).
* ``list-experiments`` — show every registered experiment with its
  tags, cost estimate and paper reference.
* ``verify`` — report the effective threshold of every scheme under
  adversarial Row-Press patterns.
* ``size`` — print tracker provisioning for a threshold/alpha.
* ``simulate`` — run one workload (a profile, a STREAM mix, or a named
  scenario preset) against one defense configuration.
* ``scenario`` — the declarative scenario subsystem
  (see docs/scenarios.md): ``list`` the presets, ``run`` one preset
  with security metrics and a content-addressed results artifact,
  ``sweep`` a preset grid across defense configurations, ``report``
  a metric diff between two result stores/commits.
* ``fuzz`` — seeded random walk over the scenario space under the
  online invariant monitor in both engines, shrinking any failure to a
  minimal stored reproducer (see docs/fuzzing.md); ``--replay KEY``
  re-runs a stored reproducer.
* ``results`` — inspect and maintain the content-addressed result
  store: ``list`` the recorded artifacts (name, key, kind, timestamp,
  git SHA); ``gc`` deletes blobs unreferenced by the index plus stale
  crash-debris temp files (``--dry-run`` reports reclaimable bytes,
  ``--json`` emits the machine-readable report).
* ``sweep`` — execute a batch of scenario presets as content-addressed
  tasks, serially or (``--distributed``) through the fault-tolerant
  work queue with external ``repro worker`` processes (see
  docs/distributed.md).
* ``worker`` — the distributed-sweep worker loop: claim leased tasks
  from a queue directory, simulate each straight through, put result
  blobs into the shared store.
* ``queue`` — inspect the distributed work queue: ``status`` prints a
  census (pending/claimed/done/poisoned, live leases, poison
  tracebacks; ``--json`` for machines); ``drain`` cancels all
  unfinished work.
* ``serve`` — long-lived request daemon over the queue + store stack:
  write-ahead journaled crash recovery, admission control with
  Retry-After shedding, graceful SIGTERM drain (see docs/serving.md).
* ``request`` — submit one scenario request to a running daemon with
  deadline/retry/backoff semantics and idempotent resubmission.
* ``check`` — AST-based contract checker: mechanizes the repo's
  determinism, atomicity, and hot-path invariants (canonical-key
  hygiene, rename finality, atomic writes, ``__slots__``,
  allocation-free kernels, seeded RNGs, SimResult parity) with
  ``--json``/``--rule``/``--changed`` modes and counted inline
  suppressions (see docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from pathlib import Path
from typing import List, Optional

from .core.analysis import impress_n_effective_threshold
from .dram.timing import default_cycle_timings
from .security.verifier import effective_threshold
from .sim.config import DefenseConfig, SCHEME_NAMES, TRACKER_NAMES
from .sim.system import ENGINE_NAMES, simulate_workload
from .trackers.para import para_probability
from .trackers.sizing import (
    MITHRIL_BASE_PER_RFMTH,
    graphene_entries,
    graphene_storage,
    mithril_entries,
)

def _not_positive(flag: str, value: Optional[float]) -> bool:
    """Print an error and return True when an option is not positive.

    ``None`` (an optional flag left unset) passes.  A zero or negative
    ``--requests`` simulates nothing, a zero or negative ``--budget``
    fuzzes nothing (so a fuzz gate would pass vacuously), and a zero or
    negative ``--lease`` expires every claim the moment it is made; all
    are rejected before anything touches a store.
    """
    if value is None or value > 0:
        return False
    print(f"error: {flag} must be positive, got {value:g}")
    return True


def _negative(flag: str, value: float) -> bool:
    """Print an error and return True when an option is negative."""
    if value >= 0:
        return False
    print(f"error: {flag} must be non-negative, got {value:g}")
    return True


def _not_finite(flag: str, value: float) -> bool:
    """Print an error and return True when an option is inf or nan."""
    if math.isfinite(value):
        return False
    print(f"error: {flag} must be finite, got {value:g}")
    return True


def _bad_threshold(args: argparse.Namespace) -> bool:
    """Reject a ``--trh`` or ``--alpha`` that is not finite, a
    non-positive ``--trh`` or a negative ``--alpha`` before any sizing
    arithmetic divides by, or provisions for, them."""
    return (_not_finite("--trh", args.trh)
            or _not_finite("--alpha", args.alpha)
            or _not_positive("--trh", args.trh)
            or _negative("--alpha", args.alpha))


def _cmd_run(args: argparse.Namespace) -> int:
    if _not_positive("--requests", args.requests):
        return 2
    from .experiments.orchestrator import Orchestrator

    only = None
    if args.only:
        only = [name.strip() for name in args.only.split(",") if name.strip()]
    try:
        orchestrator = Orchestrator(
            results_dir=Path(args.results_dir),
            jobs=args.jobs,
            force=args.force,
            quick=not args.full,
            n_requests=args.requests,
            seed=args.seed,
            progress=print,
        )
        report = orchestrator.run(only=only)
    except (KeyError, ValueError) as exc:
        print(exc.args[0])
        return 2
    executed = sum(1 for o in report.outcomes if not o.cached)
    print(
        f"\n{len(report.outcomes)} experiment(s) "
        f"({executed} executed, {len(report.outcomes) - executed} cached) "
        f"in {report.wall_s:.1f}s with {report.jobs} job(s)"
    )
    print(f"artifacts: {report.results_dir}/  "
          f"report: {report.results_dir}/REPORT.md")
    for row in report.comparison_rows():
        if row["paper"] is None:
            continue
        print(
            f"  {row['experiment']:>8} {row['metric']:<28} "
            f"paper {row['paper']:>8.4g}  measured {row['measured']:>8.4g}"
        )
    return 0


def _cmd_list_experiments(args: argparse.Namespace) -> int:
    from .experiments import registry

    print(f"{'name':<10} {'cost':>6}  {'tags':<28} {'paper ref':<28} title")
    for exp in registry.all_experiments():
        tags = ",".join(exp.tags)
        print(
            f"{exp.name:<10} {exp.cost:>6.1f}  {tags:<28} "
            f"{exp.paper_ref:<28} {exp.title}"
        )
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if (_bad_threshold(args)
            or _negative("--fraction-bits", args.fraction_bits)):
        return 2
    timings = default_cycle_timings()
    tmro = timings.tRAS + timings.tRC
    print(f"Effective thresholds at TRH={args.trh:.0f}, "
          f"alpha={args.alpha}:")
    for scheme in SCHEME_NAMES:
        report = effective_threshold(
            scheme,
            args.trh,
            alpha=args.alpha,
            timings=timings,
            tmro_cycles=tmro if scheme == "express" else None,
            fraction_bits=args.fraction_bits,
        )
        print(f"  {scheme:>10}: T* = {report.effective_threshold:8.1f} "
              f"({report.relative_threshold:.3f} TRH), "
              f"worst: {report.worst_pattern}")
    return 0


def _cmd_size(args: argparse.Namespace) -> int:
    if _bad_threshold(args):
        return 2
    trh, alpha = args.trh, args.alpha
    reduced = impress_n_effective_threshold(trh, alpha)
    if reduced < 1:
        print(f"error: --trh {trh:g} at --alpha {alpha:g} leaves ImPress-N "
              f"a target of {reduced:g}, below one activation")
        return 2
    # Mithril's calibrated model tolerates nothing at or below this TRH
    # at RFM-80; mithril_entries raises there.
    floor = MITHRIL_BASE_PER_RFMTH * 80
    print(f"Provisioning for TRH={trh:.0f} (alpha={alpha}):")
    for scheme, target in (("no-rp / impress-p", trh),
                           ("express / impress-n", reduced)):
        mithril = (
            f"{mithril_entries(target)} entries" if target > floor
            else f"n/a (below the RFM-80 floor {floor:.0f})"
        )
        print(f"  {scheme:>20}: target T={target:.0f}, "
              f"graphene {graphene_entries(target)} entries, "
              f"mithril {mithril}, "
              f"PARA p=1/{1 / para_probability(target):.0f}")
    precise = graphene_storage(trh, 1.0, fraction_bits=7)
    base = graphene_storage(trh, 1.0)
    print(f"  ImPress-P storage factor: "
          f"{precise.total_bits_per_channel / base.total_bits_per_channel:.2f}x")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .staticcheck.cli import command_from_args

    return command_from_args(args)


def _cmd_simulate(args: argparse.Namespace) -> int:
    if _not_positive("--requests", args.requests) or _bad_threshold(args):
        return 2
    from .scenarios import is_scenario

    if is_scenario(args.workload):
        # Scenario names delegate to the scenario runner: the preset
        # carries its own topology and defense, so the tracker/scheme
        # flags do not apply.
        return _print_scenario_run(
            args.workload, n_requests=args.requests, seed=0
        )
    defense = DefenseConfig(
        tracker=args.tracker, scheme=args.scheme, trh=args.trh,
        alpha=args.alpha,
    )
    try:
        # A defense can parse and still not build (Mithril provisioned
        # below its RFM-rate floor); one bank shows the checks every
        # bank of the run would fail.
        defense.build_scheme(default_cycle_timings(), 1)
    except ValueError as error:
        print(f"error: {error}")
        return 2
    result = simulate_workload(
        args.workload, defense, n_requests_per_core=args.requests,
        engine=args.engine,
    )
    print(f"{args.workload} + {args.tracker}/{args.scheme}: "
          f"{result.elapsed_cycles} cycles, hit rate {result.hit_rate:.3f}")
    print(f"  demand ACTs {result.counts.demand_acts}, "
          f"mitigative ACTs {result.counts.mitigative_acts}, "
          f"REF {result.counts.refreshes}, RFM {result.counts.rfms}")
    energy = result.energy()
    print(f"  energy {energy.total:.0f} units "
          f"(ACT share {energy.activation_share:.2f})")
    return 0


# -- scenario subsystem ---------------------------------------------------


def _print_scenario_run(
    name: str,
    n_requests: int,
    seed: int,
    results_dir: Optional[str] = None,
    force: bool = False,
) -> int:
    from .scenarios import run_scenario, run_scenarios_cached

    try:
        if results_dir is None:
            report = run_scenario(name, n_requests=n_requests, seed=seed)
            cached = False
        else:
            [(report, path, cached)] = run_scenarios_cached(
                [name], Path(results_dir), n_requests=n_requests,
                seed=seed, force=force,
            )
    except KeyError as exc:
        print(exc.args[0])
        return 2
    payload = report.to_json()
    metrics = payload["metrics"]
    slowdown = metrics["victim_slowdown"]
    act_rate = metrics["attacker_act_rate_per_cycle"]
    print(f"scenario {name} ({'cached' if cached else 'simulated'}):")
    print(f"  cores:   {payload['cores']}")
    print(f"  defense: {payload['defense']}")
    if slowdown is not None:
        print(f"  victim slowdown: {slowdown:.3f}x vs idle-attacker "
              f"baseline")
    if act_rate is not None:
        print(f"  attacker ACT rate: {act_rate:.5f} ACTs/cycle "
              f"({metrics['attacker_acts_per_sec']:,.0f} ACTs/s)")
    if slowdown is None and act_rate is None:
        print("  benign scenario: no attacker cores")
    print(f"  elapsed {metrics['elapsed_cycles']} cycles, "
          f"hit rate {metrics['hit_rate']:.3f}, "
          f"demand ACTs {metrics['demand_acts']}, "
          f"mitigative ACTs {metrics['mitigative_acts']}")
    if results_dir is not None:
        print(f"  artifact: {path}")
    return 0


def _cmd_scenario_list(args: argparse.Namespace) -> int:
    from .scenarios import SCENARIOS

    print(f"{'name':<26} {'defense':<22} cores")
    for spec in SCENARIOS.values():
        print(f"{spec.name:<26} {spec.defense_summary():<22} "
              f"{spec.core_summary()}")
        if args.verbose and spec.description:
            print(f"{'':<26} {spec.description}")
    return 0


def _cmd_scenario_run(args: argparse.Namespace) -> int:
    if _not_positive("--requests", args.requests):
        return 2
    return _print_scenario_run(
        args.name,
        n_requests=args.requests,
        seed=args.seed,
        results_dir=args.results_dir,
        force=args.force,
    )


def _cmd_scenario_report(args: argparse.Namespace) -> int:
    from .results.report import run_report

    return run_report(Path(args.dir_a), Path(args.dir_b))


def _cmd_scenario_sweep(args: argparse.Namespace) -> int:
    if _not_positive("--requests", args.requests):
        return 2
    from .scenarios import get_scenario, run_scenarios_cached

    try:
        points = [get_scenario(name) for name in args.names]
    except KeyError as exc:
        print(exc.args[0])
        return 2
    if args.trackers is not None or args.schemes is not None:
        axes = [
            [name.strip() for name in text.split(",") if name.strip()]
            for text in (
                "graphene" if args.trackers is None else args.trackers,
                "impress-p" if args.schemes is None else args.schemes,
            )
        ]
        if not all(axes):
            print("error: --trackers and --schemes need at least one name")
            return 2
        try:
            defenses = [
                DefenseConfig(tracker=tracker, scheme=scheme)
                for tracker, scheme in itertools.product(*axes)
            ]
        except ValueError as exc:
            print(f"error: {exc.args[0]}")
            return 2
        # Named apart, so they never shadow the preset's own alias.
        points = [
            spec.with_defense(defense, name=f"{spec.name}[{defense.tracker}"
                                            f"/{defense.scheme}]")
            for spec in points
            for defense in defenses
        ]
    runs = run_scenarios_cached(
        points, Path(args.results_dir), n_requests=args.requests,
        seed=args.seed,
    )
    width = max(26, *(len(point.name) for point in points))
    print(f"{'scenario':<{width}} {'defense':<22} {'slowdown':>9} "
          f"{'ACTs/cycle':>11}")
    for report, _, _ in runs:
        if report.victim_slowdown is not None:
            slowdown = f"{report.victim_slowdown:9.3f}"
            rate = f"{report.attacker_act_rate:11.5f}"
        else:
            slowdown, rate = f"{'-':>9}", f"{'-':>11}"
        print(f"{report.spec.name:<{width}} "
              f"{report.spec.defense_summary():<22} {slowdown} {rate}")
    cached = sum(1 for _, _, hit in runs if hit)
    print(f"({len(runs)} scenario points: {cached} cached, "
          f"{len(runs) - cached} simulated; store {args.results_dir}/store)")
    return 0


# -- fuzzing and the result store -----------------------------------------


def _cmd_fuzz(args: argparse.Namespace) -> int:
    if (_not_positive("--requests", args.requests)
            or _not_positive("--budget", args.budget)):
        return 2
    from .results.store import store_for
    from .scenarios.fuzz import (
        DEFAULT_FUZZ_REQUESTS,
        fuzz,
        replay_reproducer,
    )
    from .security import faults

    store = store_for(Path(args.results_dir))
    requests = (
        DEFAULT_FUZZ_REQUESTS if args.requests is None else args.requests
    )
    if args.replay is not None:
        try:
            spec, outcome, located = replay_reproducer(store, args.replay)
        except KeyError as exc:
            print(exc.args[0])
            return 2
        print(f"replayed {args.replay}: {spec.core_summary()} under "
              f"{spec.defense_summary()}")
        if outcome.ok:
            print("  no violations — the failure no longer reproduces")
            return 0
        for line in outcome.violations:
            print(f"  {line}")
        if located:
            print(f"    {located}")
        return 1
    if args.fault is not None:
        try:
            faults.inject(args.fault)
        except ValueError as exc:
            print(exc.args[0])
            return 2
    try:
        report = fuzz(
            seed=args.seed,
            budget=args.budget,
            n_requests=requests,
            store=store,
            progress=print,
        )
    finally:
        if args.fault is not None:
            faults.clear(args.fault)
    print(f"\n{report.candidates} candidate(s) at seed {report.seed}: "
          f"{len(report.failures)} failure(s)")
    for failure in report.failures:
        print(f"  [{'+'.join(failure.signature)}] "
              f"{failure.spec.core_summary()} under "
              f"{failure.spec.defense_summary()} "
              f"@ {failure.n_requests} requests -> {failure.store_key}")
        if failure.first_divergence:
            print(f"    {failure.first_divergence}")
    return 1 if report.failures else 0


def _cmd_results_list(args: argparse.Namespace) -> int:
    from .results.store import store_for

    store = store_for(Path(args.results_dir))
    entries = store.entries(name=args.name, kind=args.kind)
    if not entries:
        print(f"no matching result artifacts recorded under {store.root}")
        return 0
    print(f"{'name':<34} {'key':<18} {'kind':<18} "
          f"{'timestamp':<22} git")
    for entry in entries:
        print(f"{entry.get('name', '-'):<34} {entry['key']:<18} "
              f"{entry.get('kind', '-'):<18} "
              f"{entry.get('timestamp', '-'):<22} "
              f"{entry.get('git_sha', '-')}")
    return 0


def _cmd_results_gc(args: argparse.Namespace) -> int:
    # A negative or nan --blob-grace deletes a blob written a moment
    # ago; a negative --tmp-grace sweeps a live writer's temp file.
    if any(_not_finite(flag, value) or _negative(flag, value)
           for flag, value in (("--blob-grace", args.blob_grace),
                               ("--tmp-grace", args.tmp_grace))):
        return 2
    from .results.store import store_for

    store = store_for(Path(args.results_dir))
    if not store.root.is_dir():
        print(f"no result store at {store.root}")
        return 0
    report = store.gc(
        dry_run=args.dry_run, tmp_grace_s=args.tmp_grace,
        blob_grace_s=args.blob_grace,
    )
    if args.json:
        import json

        print(json.dumps(report.to_json(), indent=2))
        return 0
    for line in report.summary_lines():
        print(line)
    return 0


# -- distributed sweeps ----------------------------------------------------


def _cmd_sweep(args: argparse.Namespace) -> int:
    if (_not_positive("--lease", args.lease)
            or _not_positive("--requests", args.requests)):
        return 2
    from .distrib.coordinator import (
        DistributedSweepError,
        run_distributed_sweep,
        run_serial_sweep,
        shard_points,
    )
    from .results.store import store_for
    from .scenarios import get_scenario

    try:
        specs = [get_scenario(name) for name in args.names]
    except KeyError as exc:
        print(exc.args[0])
        return 2
    recipes = shard_points(specs, args.requests, args.seed)
    store = store_for(Path(args.results_dir))
    workers = []
    try:
        if not args.distributed:
            outcome = run_serial_sweep(recipes, store)
        else:
            import time

            from .chaos import reap, spawn, worker_command
            from .distrib.queue import FileWorkQueue

            queue_dir = Path(
                args.queue_dir
                if args.queue_dir is not None
                else Path(args.results_dir) / "queue"
            )
            queue = FileWorkQueue(queue_dir, lease_s=args.lease)
            for i in range(args.spawn_workers):
                workers.append(spawn(
                    worker_command(
                        queue_dir, Path(args.results_dir), args.lease,
                    ),
                    queue_dir / f"worker-{i}.log",
                ))
            # A worker-less first poll degrades at once, so give the
            # fleet up to the grace to announce itself.
            deadline = time.monotonic() + args.serial_grace
            while (
                workers and not queue.live_workers()
                and time.monotonic() < deadline
            ):
                time.sleep(0.05)
            try:
                outcome = run_distributed_sweep(
                    recipes, queue, store,
                    serial_grace_s=args.serial_grace,
                    timeout_s=args.timeout,
                )
            except DistributedSweepError as exc:
                print(f"error: {exc}")
                return 1
    finally:
        for proc in workers:
            reap(proc, 30.0)
    print(f"{'scenario':<26} {'task/result key':<18} {'cycles':>12}")
    for spec, key, result in zip(specs, outcome.task_ids, outcome.results):
        print(f"{spec.name:<26} {key:<18} {result.elapsed_cycles:>12,}")
    for line in outcome.summary_lines():
        print(line)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    if _not_positive("--lease", args.lease):
        return 2
    from .distrib.queue import FileWorkQueue
    from .distrib.worker import install_shutdown_handler, run_worker
    from .results.store import store_for

    queue = FileWorkQueue(Path(args.queue_dir), lease_s=args.lease)
    store = store_for(Path(args.results_dir))
    stop_event = install_shutdown_handler()
    try:
        summary = run_worker(
            queue, store,
            max_tasks=args.max_tasks,
            idle_exit_s=args.idle_exit,
            fault=args.fault,
            stop_event=stop_event,
        )
    except ValueError as exc:   # unknown --fault name
        print(f"error: {exc.args[0]}")
        return 2
    print(f"worker {summary.owner}: {summary.executed} task(s) executed "
          f"({summary.deduplicated} deduplicated), "
          f"{summary.failed} failed"
          + (" [graceful shutdown]" if summary.stopped else ""))
    return 1 if summary.failed else 0


# -- the serve daemon ------------------------------------------------------


def _cmd_serve(args: argparse.Namespace) -> int:
    if _not_positive("--lease", args.lease):
        return 2
    import os

    from .security import faults
    from .serve.server import ServeDaemon

    if args.fault is not None:
        try:
            faults.inject(args.fault)
        except ValueError as exc:
            print(f"error: {exc.args[0]}")
            return 2
    daemon = ServeDaemon(
        Path(args.results_dir),
        queue_dir=Path(args.queue_dir) if args.queue_dir else None,
        host=args.host,
        port=args.port,
        lease_s=args.lease,
        max_inflight=args.max_inflight,
        max_waiters=args.max_waiters,
        queue_watermark=args.queue_watermark,
        serial_grace_s=args.serial_grace,
        log=print,
    )
    replayed = daemon.start()
    host, port = daemon.address
    print(f"serving on http://{host}:{port} (pid {os.getpid()}, "
          f"{replayed} journal entr{'y' if replayed == 1 else 'ies'} "
          f"replayed); SIGTERM drains gracefully", flush=True)
    drained = daemon.run(drain_timeout_s=args.drain_timeout)
    return 0 if drained else 1


def _cmd_request(args: argparse.Namespace) -> int:
    if _not_positive("--requests", args.requests):
        return 2
    from .serve.client import DeadlineExceeded, ServeClient, ServeError
    from .sim.stats import SimResult

    try:
        if args.host is not None:
            if not args.port:
                print("error: --host needs --port")
                return 2
            client = ServeClient(args.host, args.port)
        else:
            client = ServeClient.from_results_dir(Path(args.results_dir))
        outcome = client.request(
            {
                "scenario": args.name,
                "n_requests": args.requests,
                "seed": args.seed,
            },
            deadline_s=args.deadline,
            wait_s=args.wait,
        )
    except DeadlineExceeded as exc:
        print(f"error: {exc}")
        if exc.key:
            print("the daemon keeps working; rerun the same request "
                  "to pick the result up (resubmission is idempotent)")
        return 3
    except ServeError as exc:
        print(f"error: {exc}")
        return 2
    result = SimResult.from_json(outcome.payload)
    print(f"{args.name} -> key {outcome.key} ({outcome.source}, "
          f"{outcome.elapsed_s:.2f}s; {outcome.submits} submit(s), "
          f"{outcome.polls} poll(s), {outcome.retries} retr"
          f"{'y' if outcome.retries == 1 else 'ies'})")
    print(f"  elapsed {result.elapsed_cycles} cycles, "
          f"hit rate {result.hit_rate:.3f}")
    return 0


def _queue_at(queue_dir: str):
    from .distrib.queue import FileWorkQueue

    root = Path(queue_dir)
    if not root.is_dir():
        return None
    return FileWorkQueue(root)


def _cmd_queue_status(args: argparse.Namespace) -> int:
    queue = _queue_at(args.queue_dir)
    if queue is None:
        print(f"no queue directory at {args.queue_dir}")
        return 2
    status = queue.status()
    if args.json:
        import json

        print(json.dumps(status.to_json(), indent=2))
        return 0
    for line in status.summary_lines():
        print(line)
    return 0


def _cmd_queue_drain(args: argparse.Namespace) -> int:
    queue = _queue_at(args.queue_dir)
    if queue is None:
        print(f"no queue directory at {args.queue_dir}")
        return 2
    removed = queue.drain()
    print(f"drained: {removed['pending']} pending and "
          f"{removed['claimed']} claimed marker(s) removed "
          "(done/poison records kept)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run",
        help="orchestrate registered experiments (parallel, cached)",
    )
    run.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = serial in-process)",
    )
    run.add_argument(
        "--only", default=None,
        help="comma-separated experiment names and/or tags "
             "(e.g. fig13,table2, table, or paper for the whole "
             "evaluation)",
    )
    run.add_argument(
        "--force", action="store_true",
        help="re-run even when a cached result exists",
    )
    run.add_argument(
        "--full", action="store_true",
        help="full 20-workload sweeps instead of the quick set",
    )
    run.add_argument(
        "--requests", type=int, default=800,
        help="requests per core for simulation experiments",
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--results-dir", default="results",
        help="artifact/cache directory (default: results/)",
    )
    run.set_defaults(func=_cmd_run)

    list_experiments = sub.add_parser(
        "list-experiments", help="list every registered experiment"
    )
    list_experiments.set_defaults(func=_cmd_list_experiments)

    verify = sub.add_parser("verify", help="verify effective thresholds")
    verify.add_argument("--trh", type=float, default=4000.0)
    verify.add_argument("--alpha", type=float, default=1.0)
    verify.add_argument("--fraction-bits", type=int, default=7)
    verify.set_defaults(func=_cmd_verify)

    size = sub.add_parser("size", help="tracker provisioning")
    size.add_argument("--trh", type=float, default=4000.0)
    size.add_argument("--alpha", type=float, default=1.0)
    size.set_defaults(func=_cmd_size)

    from .staticcheck.cli import add_check_arguments

    check = sub.add_parser(
        "check",
        help="AST contract checker: determinism/atomicity/hot-path rules",
    )
    add_check_arguments(check)
    check.set_defaults(func=_cmd_check)

    simulate = sub.add_parser(
        "simulate",
        help="run one workload: a profile (mcf), a STREAM mix "
             "(add_copy), or a scenario preset (colocated_hammer_mcf)",
    )
    simulate.add_argument(
        "workload",
        help="profile, mix, or scenario name (see `repro scenario list`; "
             "scenario presets carry their own defense, so the flags "
             "below apply to profile/mix runs only)",
    )
    simulate.add_argument("--tracker", choices=TRACKER_NAMES,
                          default="graphene")
    simulate.add_argument("--scheme", choices=SCHEME_NAMES,
                          default="impress-p")
    simulate.add_argument("--trh", type=float, default=4000.0)
    simulate.add_argument("--alpha", type=float, default=1.0)
    simulate.add_argument("--requests", type=int, default=1000)
    simulate.add_argument(
        "--engine", choices=ENGINE_NAMES, default="fast",
        help="engine tier: the pinned reference loop or the fast event "
             "engine (default; scenario presets always use the fast "
             "engine)",
    )
    simulate.set_defaults(func=_cmd_simulate)

    scenario = sub.add_parser(
        "scenario",
        help="declarative workload x attacker x defense scenarios",
    )
    scenario_sub = scenario.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_list = scenario_sub.add_parser(
        "list", help="list the registered scenario presets"
    )
    scenario_list.add_argument(
        "--verbose", action="store_true",
        help="include the one-line description of each preset",
    )
    scenario_list.set_defaults(func=_cmd_scenario_list)

    scenario_run = scenario_sub.add_parser(
        "run",
        help="run one preset (plus its victim-only baseline) and "
             "report victim slowdown and attacker ACT rate",
    )
    scenario_run.add_argument("name", help="a preset from `scenario list`")
    scenario_run.add_argument("--requests", type=int, default=800,
                              help="requests per core")
    scenario_run.add_argument("--seed", type=int, default=0)
    scenario_run.add_argument(
        "--results-dir", default="results",
        help="artifact/cache directory (default: results/; the "
             "artifact lands in the content-addressed store under "
             "<dir>/store/, indexed by preset name)",
    )
    scenario_run.add_argument(
        "--force", action="store_true",
        help="re-simulate even when a matching artifact exists",
    )
    scenario_run.set_defaults(func=_cmd_scenario_run)

    scenario_sweep = scenario_sub.add_parser(
        "sweep",
        help="sweep presets across defense configurations; both legs "
             "of every point are stored like `scenario run`'s",
    )
    scenario_sweep.add_argument(
        "names", nargs="+", help="presets from `scenario list`"
    )
    scenario_sweep.add_argument(
        "--trackers", default=None,
        help="comma-separated trackers to cross with --schemes "
             "(default: keep each preset's own defense)",
    )
    scenario_sweep.add_argument(
        "--schemes", default=None,
        help="comma-separated RP schemes to cross with --trackers",
    )
    scenario_sweep.add_argument("--requests", type=int, default=400,
                                help="requests per core")
    scenario_sweep.add_argument("--seed", type=int, default=0)
    scenario_sweep.add_argument(
        "--results-dir", default="results",
        help="artifact/cache directory (default: results/; legs are "
             "read from and stored in <dir>/store/)",
    )
    scenario_sweep.set_defaults(func=_cmd_scenario_sweep)

    scenario_report = scenario_sub.add_parser(
        "report",
        help="diff scenario metrics between two result stores "
             "(results dirs or store roots; compare runs across "
             "commits)",
    )
    scenario_report.add_argument(
        "dir_a", help="results dir or store root of side A"
    )
    scenario_report.add_argument(
        "dir_b", help="results dir or store root of side B"
    )
    scenario_report.set_defaults(func=_cmd_scenario_report)

    fuzz_cmd = sub.add_parser(
        "fuzz",
        help="fuzz the scenario space under the invariant monitor in "
             "both engines; shrink and store failing reproducers",
    )
    fuzz_cmd.add_argument("--seed", type=int, default=0,
                          help="grammar seed (fixes the whole run)")
    fuzz_cmd.add_argument("--budget", type=int, default=25,
                          help="number of candidates to generate")
    fuzz_cmd.add_argument(
        "--requests", type=int, default=None,
        help="requests per core per candidate (default: the fuzzer's)",
    )
    fuzz_cmd.add_argument(
        "--results-dir", default="results",
        help="reproducers land in <dir>/store/, indexed as "
             "fuzz/<signature>",
    )
    fuzz_cmd.add_argument(
        "--fault", default=None,
        help="inject a known defense fault for the run (the planted-"
             "violation path; see repro.security.faults)",
    )
    fuzz_cmd.add_argument(
        "--replay", default=None, metavar="KEY",
        help="re-run the stored reproducer with this content key "
             "instead of fuzzing",
    )
    fuzz_cmd.set_defaults(func=_cmd_fuzz)

    results_cmd = sub.add_parser(
        "results",
        help="inspect the content-addressed result store",
    )
    results_sub = results_cmd.add_subparsers(
        dest="results_command", required=True
    )
    results_list = results_sub.add_parser(
        "list",
        help="list recorded artifacts: name, key, kind, timestamp, "
             "git SHA",
    )
    results_list.add_argument(
        "--results-dir", default="results",
        help="results directory holding the store (default: results/)",
    )
    results_list.add_argument(
        "--kind", default=None,
        help="only entries of this kind (scenario, fuzz-repro, ...)",
    )
    results_list.add_argument(
        "--name", default=None, help="only entries aliased to this name"
    )
    results_list.set_defaults(func=_cmd_results_list)

    results_gc = results_sub.add_parser(
        "gc",
        help="delete blobs no alias names and stale crash-"
             "debris temp files; --dry-run reports reclaimable bytes",
    )
    results_gc.add_argument(
        "--results-dir", default="results",
        help="results directory holding the store (default: results/)",
    )
    results_gc.add_argument(
        "--dry-run", action="store_true",
        help="report what would be reclaimed without deleting anything",
    )
    results_gc.add_argument(
        "--tmp-grace", type=float, default=3600.0,
        help="age (seconds) past which an unjudgeable *.tmp file "
             "counts as stale (dead-pid temp files are always stale)",
    )
    results_gc.add_argument(
        "--blob-grace", type=float, default=60.0,
        help="age (seconds) below which an unreferenced blob is kept "
             "— a concurrent writer may not have recorded its alias "
             "yet",
    )
    results_gc.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable GC report instead of prose",
    )
    results_gc.set_defaults(func=_cmd_results_gc)

    sweep_cmd = sub.add_parser(
        "sweep",
        help="execute scenario presets as content-addressed tasks, "
             "serially or --distributed via the fault-tolerant queue",
    )
    sweep_cmd.add_argument(
        "names", nargs="+", help="presets from `repro scenario list`"
    )
    sweep_cmd.add_argument("--requests", type=int, default=400,
                           help="requests per core")
    sweep_cmd.add_argument("--seed", type=int, default=0)
    sweep_cmd.add_argument(
        "--results-dir", default="results",
        help="result blobs land in <dir>/store/ keyed by task recipe",
    )
    sweep_cmd.add_argument(
        "--distributed", action="store_true",
        help="submit tasks to the work queue and supervise external "
             "`repro worker` processes instead of running in-process",
    )
    sweep_cmd.add_argument(
        "--queue-dir", default=None,
        help="work-queue directory (default: <results-dir>/queue)",
    )
    sweep_cmd.add_argument(
        "--spawn-workers", type=int, default=0, metavar="N",
        help="convenience: launch N local `repro worker` subprocesses "
             "against the queue for the duration of the sweep",
    )
    sweep_cmd.add_argument(
        "--lease", type=float, default=30.0,
        help="lease seconds before an unheartbeaten claim is reclaimed",
    )
    sweep_cmd.add_argument(
        "--serial-grace", type=float, default=5.0,
        help="seconds with no task progress, while some worker is "
             "live, before the coordinator degrades to executing tasks "
             "in-process (with no live worker it degrades at once)",
    )
    sweep_cmd.add_argument(
        "--timeout", type=float, default=None,
        help="fail the sweep after this many seconds",
    )
    sweep_cmd.set_defaults(func=_cmd_sweep)

    worker_cmd = sub.add_parser(
        "worker",
        help="distributed-sweep worker: claim leased tasks, simulate "
             "them, put result blobs into the store",
    )
    worker_cmd.add_argument(
        "--queue-dir", required=True,
        help="work-queue directory shared with the coordinator",
    )
    worker_cmd.add_argument(
        "--results-dir", default="results",
        help="results directory holding the shared store",
    )
    worker_cmd.add_argument(
        "--lease", type=float, default=30.0,
        help="lease seconds (heartbeats refresh at a third of this)",
    )
    worker_cmd.add_argument(
        "--max-tasks", type=int, default=None,
        help="exit after executing this many tasks",
    )
    worker_cmd.add_argument(
        "--idle-exit", type=float, default=10.0,
        help="exit after this many seconds without finding work",
    )
    worker_cmd.add_argument(
        "--fault", default=None,
        help="inject a known process-layer chaos fault (see "
             "repro.security.faults; test/chaos use only)",
    )
    worker_cmd.set_defaults(func=_cmd_worker)

    queue_cmd = sub.add_parser(
        "queue",
        help="inspect or drain the distributed work queue",
    )
    queue_sub = queue_cmd.add_subparsers(
        dest="queue_command", required=True
    )
    queue_status = queue_sub.add_parser(
        "status",
        help="census: pending/claimed/done/poisoned counts, live "
             "leases with deadlines, poison-list tracebacks",
    )
    queue_status.add_argument("--queue-dir", required=True)
    queue_status.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable census instead of prose",
    )
    queue_status.set_defaults(func=_cmd_queue_status)
    queue_drain = queue_sub.add_parser(
        "drain",
        help="cancel all unfinished work (keeps done/poison records)",
    )
    queue_drain.add_argument("--queue-dir", required=True)
    queue_drain.set_defaults(func=_cmd_queue_drain)

    serve_cmd = sub.add_parser(
        "serve",
        help="long-lived request daemon over the queue + store: "
             "journaled crash recovery, admission control, graceful "
             "SIGTERM drain (see docs/serving.md)",
    )
    serve_cmd.add_argument(
        "--results-dir", default="results",
        help="results directory: store, journal and endpoint file all "
             "live under it (default: results/)",
    )
    serve_cmd.add_argument(
        "--queue-dir", default=None,
        help="work-queue directory (default: <results-dir>/queue)",
    )
    serve_cmd.add_argument("--host", default="127.0.0.1")
    serve_cmd.add_argument(
        "--port", type=int, default=0,
        help="0 picks a free port; the bound address is advertised in "
             "<results-dir>/serve/endpoint.json",
    )
    serve_cmd.add_argument(
        "--lease", type=float, default=30.0,
        help="queue lease seconds for submitted tasks",
    )
    serve_cmd.add_argument(
        "--max-inflight", type=int, default=8,
        help="admission: bound on concurrently-resolving requests",
    )
    serve_cmd.add_argument(
        "--max-waiters", type=int, default=64,
        help="admission: bound on handler threads parked in wait()",
    )
    serve_cmd.add_argument(
        "--queue-watermark", type=int, default=256,
        help="admission: shed new work past this many open queue tasks",
    )
    serve_cmd.add_argument(
        "--serial-grace", type=float, default=2.0,
        help="seconds with no worker progress, while some worker is "
             "live, before the daemon executes requests in-process "
             "(sticky degraded mode; with no live worker it degrades "
             "at once)",
    )
    serve_cmd.add_argument(
        "--drain-timeout", type=float, default=None,
        help="bound the SIGTERM graceful drain (default: wait for all "
             "in-flight requests; unfinished ones stay journaled)",
    )
    serve_cmd.add_argument(
        "--fault", default=None,
        help="inject a known chaos fault (see repro.security.faults; "
             "test/chaos use only)",
    )
    serve_cmd.set_defaults(func=_cmd_serve)

    request_cmd = sub.add_parser(
        "request",
        help="submit one scenario request to a running `repro serve` "
             "daemon (deadline/retry semantics; resubmission is "
             "idempotent by content key)",
    )
    request_cmd.add_argument(
        "name", help="a preset from `repro scenario list`"
    )
    request_cmd.add_argument("--requests", type=int, default=400,
                             help="requests per core")
    request_cmd.add_argument("--seed", type=int, default=0)
    request_cmd.add_argument(
        "--results-dir", default="results",
        help="discover the daemon via <dir>/serve/endpoint.json",
    )
    request_cmd.add_argument(
        "--host", default=None,
        help="connect directly instead of endpoint discovery "
             "(requires --port)",
    )
    request_cmd.add_argument("--port", type=int, default=None)
    request_cmd.add_argument(
        "--deadline", type=float, default=120.0,
        help="total client budget in seconds; on expiry the daemon "
             "keeps working and rerunning the command picks it up",
    )
    request_cmd.add_argument(
        "--wait", type=float, default=10.0,
        help="per-round-trip server-side wait before a 202",
    )
    request_cmd.set_defaults(func=_cmd_request)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left (``repro fuzz | head -1``).  Exit as a process
        # killed by SIGPIPE does, not with a command's own failure code;
        # stdout goes to devnull so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    return code


if __name__ == "__main__":
    raise SystemExit(main())
