"""Scenario grids: declarative cross-products over the design space.

A :class:`ScenarioGrid` is a frozen value describing *(workloads ×
(defense, tMRO) points)* against one topology.  ``expand()`` yields the
individual :class:`~repro.scenarios.spec.ScenarioSpec` points and
``sweep_points()`` their canonical SweepRunner cache triples, so a
whole grid can be evaluated by one
:meth:`~repro.experiments.common.SweepRunner.run_many` call, which
routes it through the batch engine tier.

The defense axis is a sequence of *(defense, tmro_ns)* pairs rather
than two independent axes because real sweeps pair them: a Fig-5 tMRO
sweep provisions a different tracker per tMRO point.  Use
:meth:`ScenarioGrid.cross` when the axes really are independent.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..sim.config import DefenseConfig, SystemConfig
from .spec import ScenarioSpec, WorkloadKey

#: One defense-axis entry: the (defense, tmro_ns) pair of a sweep point.
DefensePoint = Tuple[Optional[DefenseConfig], Optional[float]]


@dataclass(frozen=True)
class ScenarioGrid:
    """A cross-product of per-core workloads and defense points."""

    workloads: Tuple[WorkloadKey, ...]
    defense_points: Tuple[DefensePoint, ...] = ((None, None),)
    system: SystemConfig = field(default_factory=SystemConfig)
    name: str = "grid"

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("grid needs at least one workload")
        if not self.defense_points:
            raise ValueError("grid needs at least one defense point")
        object.__setattr__(self, "workloads", tuple(self.workloads))
        object.__setattr__(
            self, "defense_points", tuple(self.defense_points)
        )

    @classmethod
    def cross(
        cls,
        workloads: Sequence[WorkloadKey],
        defenses: Sequence[Optional[DefenseConfig]] = (None,),
        tmros_ns: Sequence[Optional[float]] = (None,),
        system: Optional[SystemConfig] = None,
        name: str = "grid",
    ) -> "ScenarioGrid":
        """Independent axes: every defense at every tMRO."""
        return cls(
            workloads=tuple(workloads),
            defense_points=tuple(
                itertools.product(tuple(defenses), tuple(tmros_ns))
            ),
            system=system or SystemConfig(),
            name=name,
        )

    def __len__(self) -> int:
        return len(self.workloads) * len(self.defense_points)

    def expand(self) -> List[ScenarioSpec]:
        """Every grid point as a ScenarioSpec, workload-major order."""
        specs: List[ScenarioSpec] = []
        for index, (workload, (defense, tmro_ns)) in enumerate(
            itertools.product(self.workloads, self.defense_points)
        ):
            specs.append(
                ScenarioSpec(
                    name=f"{self.name}[{index}]",
                    cores=workload,
                    system=self.system,
                    defense=defense,
                    tmro_ns=tmro_ns,
                )
            )
        return specs

    def sweep_points(self) -> List[tuple]:
        """The grid's SweepRunner cache triples, in expansion order."""
        return [spec.sweep_point() for spec in self.expand()]
