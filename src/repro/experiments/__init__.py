"""One module per table/figure of the paper's evaluation.

Each module's public function (``run(ctx)``, or one per experiment
such as ``fig6(ctx)`` / ``table1(ctx)``) takes the
:class:`~repro.experiments.registry.RunContext`, returns the data
series, and is registered with :mod:`repro.experiments.registry`
(name, tags, cost estimate).  The registry's only executor is
:mod:`repro.experiments.orchestrator` (``repro run``: serial or
parallel, cached, writing the full series to ``results/<name>.json``);
see ``docs/adding_an_experiment.md`` for the API.
"""

from . import (  # noqa: F401
    ablation,
    common,
    energy,
    fig3,
    fig4,
    fig5,
    fig6_7_8,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig18_19,
    orchestrator,
    registry,
    tables,
)

__all__ = [
    "ablation",
    "common",
    "energy",
    "fig3",
    "fig4",
    "fig5",
    "fig6_7_8",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig18_19",
    "orchestrator",
    "registry",
    "tables",
]
