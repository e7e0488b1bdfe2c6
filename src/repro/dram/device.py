"""Victim rows of an aggressor: the rows a mitigation refreshes.

The device side of RFM (per-bank ACT counts against the RFM threshold,
Section III-A) lives in the memory controller, which both simulator
engines share; the charge accounting uses the row geometry here.
"""

from __future__ import annotations

from typing import List

BLAST_RADIUS = 2  #: victim rows refreshed on each side of an aggressor


def victim_rows(row: int, blast_radius: int = BLAST_RADIUS) -> List[int]:
    """Rows refreshed when ``row`` is mitigated (2 each side by default)."""
    victims = []
    for distance in range(1, blast_radius + 1):
        if row - distance >= 0:
            victims.append(row - distance)
        victims.append(row + distance)
    return victims
