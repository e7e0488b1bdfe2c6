"""Queued demand requests as packed ints.

A bank queue holds one int per LLC miss waiting at that bank, laid out
most-significant first as ``row | core_id | is_write``::

    request = row << ROW_SHIFT | core_id << 1 | is_write

The controller reads exactly these three fields; the channel and bank
are implied by the queue the request sits in.  Building the int costs
two shifts and two ORs on the issue path and allocates no object.

:data:`CORE_ID_BITS` is the width of the core-id field.  The fast
engine's event payload (``repro.sim.system``) is the same width, and
both engines reject a core count that does not fit it.
"""

from __future__ import annotations

from typing import Tuple

#: Width of the core-id field (and of the fast engine's event payload).
CORE_ID_BITS = 16
#: Largest core id the field holds; both engines reject ``n_cores``
#: above it.
CORE_ID_MASK = (1 << CORE_ID_BITS) - 1
#: The row sits above the core id and the write flag.
ROW_SHIFT = CORE_ID_BITS + 1


def pack_request(row: int, core_id: int, is_write: bool) -> int:
    """One queued demand as an int (see the module docstring)."""
    if not 0 <= core_id <= CORE_ID_MASK:
        raise ValueError(f"core id {core_id} does not fit {CORE_ID_BITS} bits")
    return row << ROW_SHIFT | core_id << 1 | bool(is_write)


def unpack_request(request: int) -> Tuple[int, int, bool]:
    """Inverse of :func:`pack_request`: ``(row, core_id, is_write)``."""
    return (
        request >> ROW_SHIFT,
        (request >> 1) & CORE_ID_MASK,
        bool(request & 1),
    )
