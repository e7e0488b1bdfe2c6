"""Experiment registry: every figure/table experiment self-registers.

Each experiment module declares its experiments with the
:func:`register` decorator on the one public function that computes
each, which takes only the :class:`RunContext`.  A simulated
experiment also declares ``points``: the ``(workload, defense,
tmro_ns)`` triples the function reads back through the runner::

    @register(
        name="fig13",
        title="Scheme comparison per tracker at alpha = 1",
        paper_ref="Section VI-D, Figure 13",
        tags=("figure", "simulation", "paper"),
        cost=40.0,
        points=points,  # def points(ctx) -> List[SweepPoint]
    )
    def run(ctx: RunContext):
        runner = ctx.sweep_runner()
        ...  # runner.speedup(...) on declared points: cache hits

:meth:`Experiment.run` simulates the points in one ``run_many``
before calling the function; a serial ``repro run`` simulates the
union of every scheduled experiment's points in one call first.

The registry is the single source of truth that
:mod:`repro.experiments.orchestrator` and the ``repro run`` /
``repro list-experiments`` CLI commands derive their experiment lists
from; the orchestrator is the only thing that executes them.

``cost`` is a relative wall-clock estimate (arbitrary units; analytic
experiments ~0, full workload sweeps ~100).  The orchestrator schedules
costliest-first so the longest experiments never end up serialized at
the tail of a parallel run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from .common import DEFAULT_REQUESTS, SweepPoint, SweepRunner

#: Tag carried by every experiment that belongs to the paper's
#: evaluation proper (``repro run --only paper`` runs exactly these);
#: ablations carry the ``ablation`` tag instead.
PAPER_TAG = "paper"


@dataclass
class RunContext:
    """Options shared by every experiment in one orchestrated run.

    The context is cheap state (``quick``, ``n_requests``, ``seed``);
    the :class:`~repro.experiments.common.SweepRunner` it hands out is
    created lazily and shared by every experiment executed against the
    same context, so a serial run reuses cached baselines across
    experiments.
    """

    quick: bool = True
    n_requests: int = DEFAULT_REQUESTS
    seed: int = 0
    _runner: Optional[SweepRunner] = field(
        default=None, repr=False, compare=False
    )

    def sweep_runner(self) -> SweepRunner:
        """The shared (lazily created) simulation sweep runner."""
        if self._runner is None:
            self._runner = SweepRunner(
                n_requests=self.n_requests, seed=self.seed
            )
        return self._runner


@dataclass(frozen=True)
class Experiment:
    """One registered figure/table experiment."""

    name: str
    fn: Callable[[RunContext], Any]
    title: str
    paper_ref: str
    tags: Tuple[str, ...]
    #: Relative wall-clock estimate used for costliest-first scheduling.
    cost: float
    #: Dotted module the experiment lives in (``repro.experiments.fig13``).
    module: str
    #: Optional reduction of the raw result to headline scalar metrics.
    summarize: Optional[Callable[[Any], Dict[str, float]]] = None
    #: Paper-quoted values for (a subset of) the summarized metrics,
    #: used by the orchestrator's paper-vs-measured report.
    paper_values: Mapping[str, float] = field(default_factory=dict)
    #: The sweep triples ``fn`` reads back through the context's runner
    #: (None for experiments that simulate nothing through it).
    points: Optional[Callable[[RunContext], List[SweepPoint]]] = None

    def run(self, ctx: RunContext) -> Any:
        """Evaluate the declared points in one batch, then assemble."""
        if self.points is not None:
            ctx.sweep_runner().run_many(self.points(ctx))
        return self.fn(ctx)

    def summary_of(self, result: Any) -> Dict[str, float]:
        """Headline metrics of ``result`` ({} when none are defined)."""
        if self.summarize is None:
            return {}
        return {key: float(value)
                for key, value in self.summarize(result).items()}


_REGISTRY: Dict[str, Experiment] = {}


def register(
    name: str,
    title: str,
    paper_ref: str,
    tags: Sequence[str] = (),
    cost: float = 1.0,
    summarize: Optional[Callable[[Any], Dict[str, float]]] = None,
    paper_values: Optional[Mapping[str, float]] = None,
    points: Optional[Callable[[RunContext], List[SweepPoint]]] = None,
) -> Callable[[Callable[[RunContext], Any]], Callable[[RunContext], Any]]:
    """Decorator registering ``fn`` as the experiment ``name``.

    Registration happens at import time of the experiment module, so
    importing :mod:`repro.experiments` populates the whole registry in a
    deterministic order.  Duplicate names are a programming error.
    """

    def decorator(fn: Callable[[RunContext], Any]) -> Callable[[RunContext], Any]:
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} registered twice")
        _REGISTRY[name] = Experiment(
            name=name,
            fn=fn,
            title=title,
            paper_ref=paper_ref,
            tags=tuple(tags),
            cost=float(cost),
            module=fn.__module__,
            summarize=summarize,
            paper_values=dict(paper_values or {}),
            points=points,
        )
        return fn

    return decorator


def ensure_loaded() -> None:
    """Import the experiment package so every module has registered.

    Safe to call repeatedly; needed by worker processes under spawn
    start methods and by callers that import :mod:`registry` directly.
    """
    importlib.import_module("repro.experiments")


def all_experiments() -> List[Experiment]:
    """Every registered experiment, in registration order."""
    ensure_loaded()
    return list(_REGISTRY.values())


def names() -> List[str]:
    """Registered experiment names, in registration order."""
    return [exp.name for exp in all_experiments()]


def get(name: str) -> Experiment:
    """Look up one experiment; raises KeyError with the known names."""
    ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(
            f"unknown experiment {name!r}; choose from: {known}"
        ) from None


def select(
    only: Optional[Iterable[str]] = None,
    tags: Optional[Iterable[str]] = None,
) -> List[Experiment]:
    """Experiments filtered by name and/or tag, registration order.

    ``only`` entries may be experiment names *or* tags (so
    ``--only simulation`` selects every simulation experiment); unknown
    entries raise KeyError.  ``tags`` keeps experiments carrying at
    least one of the given tags.
    """
    experiments = all_experiments()
    if tags is not None:
        wanted = set(tags)
        experiments = [e for e in experiments if wanted & set(e.tags)]
    if only is None:
        return experiments
    requested = list(only)
    known_names = {e.name for e in experiments}
    known_tags = {tag for e in experiments for tag in e.tags}
    for entry in requested:
        if entry not in known_names and entry not in known_tags:
            known = ", ".join(sorted(known_names | known_tags))
            raise KeyError(
                f"unknown experiment or tag {entry!r}; "
                f"choose from: {known}"
            )
    chosen = set(requested)
    return [
        e for e in experiments
        if e.name in chosen or chosen & set(e.tags)
    ]
