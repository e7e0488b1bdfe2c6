"""Shared cache instrumentation.

One counters shape for every process-local cache in the repo (the
compiled-trace cache, the :class:`~repro.experiments.common.SweepRunner`
run cache), so every reader sees the same counters.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss/size counters for a process-local cache."""

    hits: int = 0
    misses: int = 0
    size: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
