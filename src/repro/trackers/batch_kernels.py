"""Vectorized batch-replay tracker kernels (the NumPy half of the batch tier).

The batch engine (:mod:`repro.sim.batch`) simulates one *leader* lane of
a compatible sweep-point group on the fast engine while recording the
per-bank command timeline (demand ACTs, row closes, RFMs).  Every other
lane of the group shares that timeline cycle for cycle as long as its
trackers never fire a synchronous mitigation — mitigations are the only
channel through which a tracker can bend the schedule — so the lane can
be *replayed* against the recorded events instead of re-simulated.

This module holds the replay side:

* :class:`RecordedTimeline` — the recorded per-bank event streams as
  structure-of-arrays int64 NumPy arrays, with a per-scheme cache of
  derived record streams.
* :func:`derive_records` — turns one bank's event stream into the
  ``(row, raw_weight)`` record stream the lane's Row-Press scheme would
  feed its tracker (No-RP/ExPress per-ACT records, ImPress-N window
  credits, ImPress-P truncated fixed-point EACTs), vectorized.
* :func:`replay_lane_vector` — replays a whole lane through per-tracker
  vectorized kernels.  Verdicts: ``"valid"`` (no synchronous mitigation
  anywhere; the returned RFM-mitigation count is exact), ``"diverged"``
  (a mitigation *would* fire, so the lane needs a real simulation), or
  ``"unknown"`` (the cheap vector check cannot decide — the caller
  falls back to :func:`replay_lane_python`).
* :func:`replay_lane_python` — exact scalar replay through the real
  scheme/tracker kernel objects; the oracle for the vector kernels and
  the path for combinations they do not cover (DSAC under ImPress-P,
  whose per-record ``log2`` re-weighting is replayed rather than
  re-derived in floating point).

Exactness notes (all pinned by ``tests/test_batch_engine.py``):

* ImPress-P raw weights: ``int(((close - act + tPRE) / tRC) * scale)``
  is computed in float64 both here and in the scalar kernel; operands
  are exact integers below 2**53, so the NumPy result is bit-identical.
* PARA draws: :func:`numpy_rng_from` transplants a ``random.Random``
  Mersenne-Twister state into ``numpy.random.RandomState``; both
  generate doubles with the same 53-bit construction from the same
  stream, so ``random_sample(n)`` equals ``n`` sequential ``random()``
  calls bit for bit.
* MINT SAN draws replay the tracker's own ``random.Random`` consumption
  (one ``randrange`` at construction, one per RFM).
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

try:
    import numpy as np
except ImportError:  # pragma: no cover - exercised only without numpy
    np = None

#: Actionable message for every surface that needs the batch tier.
NUMPY_IMPORT_HINT = (
    "the batch engine tier requires numpy (declared in pyproject.toml); "
    "install it with `pip install numpy`, or use engine='fast' — the "
    "pure-Python engines cover every feature, just without batching"
)

#: Event kinds in a recorded per-bank stream.
EV_ACT = 0      # demand activation of a row
EV_CLOSE = 1    # row close (PRE): carries act_cycle and pre_cycle
EV_RFM = 2      # RFM command arriving at the bank


def numpy_available() -> bool:
    """True when numpy imported and the vectorized kernels can run."""
    return np is not None


class BankEvents:
    """One bank's recorded event stream as parallel int64 arrays.

    ``kinds[i]`` is the event kind; ``rows[i]`` the row for ACT/CLOSE
    events (-1 for RFM); ``a[i]`` the ACT cycle of a CLOSE or the start
    cycle of an RFM; ``b[i]`` the PRE cycle of a CLOSE.  Order is the
    bank's service order, which is all a per-bank tracker ever sees.
    """

    __slots__ = ("kinds", "rows", "a", "b", "rfm_orders", "n")

    def __init__(self, kinds, rows, a, b) -> None:
        self.kinds = np.asarray(kinds, dtype=np.int64)
        self.rows = np.asarray(rows, dtype=np.int64)
        self.a = np.asarray(a, dtype=np.int64)
        self.b = np.asarray(b, dtype=np.int64)
        self.n = len(self.kinds)
        self.rfm_orders = np.nonzero(self.kinds == EV_RFM)[0]


class RecordedTimeline:
    """All banks' recorded streams plus a per-scheme record-stream cache.

    ``banks[flat]`` is the :class:`BankEvents` of flat bank id ``flat``
    (``channel * banks_per_channel + local_bank``).  Derived record
    streams depend only on ``(scheme, scale)``, so followers sharing a
    scheme shape reuse one derivation.
    """

    __slots__ = ("banks", "banks_per_channel", "timings", "_derived")

    def __init__(self, banks: List[BankEvents],
                 banks_per_channel: int, timings) -> None:
        self.banks = banks
        self.banks_per_channel = banks_per_channel
        self.timings = timings
        self._derived = {}

    def max_open_cycles(self) -> int:
        """The longest ``pre - act`` over every recorded close (0 if none)."""
        longest = 0
        for events in self.banks:
            close = events.kinds == EV_CLOSE
            if close.any():
                longest = max(
                    longest, int((events.b[close] - events.a[close]).max())
                )
        return longest

    def max_bank_acts(self) -> int:
        """The most demand ACTs any one bank recorded."""
        return max(
            (int(np.count_nonzero(events.kinds == EV_ACT))
             for events in self.banks),
            default=0,
        )

    def records(self, scheme: str, scale: int):
        """Per-bank derived record streams for one scheme shape (cached)."""
        key = (scheme, scale)
        cached = self._derived.get(key)
        if cached is None:
            cached = [
                derive_records(events, scheme, scale, self.timings)
                for events in self.banks
            ]
            self._derived[key] = cached
        return cached


def derive_records(events: BankEvents, scheme: str, scale: int, timings):
    """The ``(rows, raws, orders)`` record stream a scheme feeds one bank.

    ``raws`` are fixed-point weights in units of ``1/scale`` — exactly
    what the scalar kernels receive.  ``orders`` is each record's index
    in the original event stream, used to place records relative to the
    bank's RFM markers (MINT intervals, Mithril occupancy).  ImPress-N
    window credits repeat the close event's index, matching the scalar
    kernel's consecutive ``record_unit`` calls.
    """
    kinds = events.kinds
    if scheme in ("no-rp", "express"):
        mask = kinds == EV_ACT
        orders = np.nonzero(mask)[0]
        rows = events.rows[mask]
        raws = np.full(len(rows), scale, dtype=np.int64)
        return rows, raws, orders
    if scheme == "impress-n":
        trc = timings.tRC
        tact = timings.tACT
        counts = (kinds == EV_ACT).astype(np.int64)
        close = kinds == EV_CLOSE
        # One credit per full tRC window the row stayed open; the row
        # becomes visible tACT after its ACT (ceil division, like the
        # scalar kernel's -(-x // trc)).
        first_boundary = -((-(events.a + tact)) // trc)
        credits = np.clip(events.b // trc - first_boundary, 0, None)
        counts[close] = credits[close]
        counts[kinds == EV_RFM] = 0
        rows = np.repeat(events.rows, counts)
        orders = np.repeat(np.arange(events.n, dtype=np.int64), counts)
        raws = np.full(len(rows), scale, dtype=np.int64)
        return rows, raws, orders
    if scheme == "impress-p":
        trc = timings.tRC
        tpre = timings.tPRE
        mask = kinds == EV_CLOSE
        orders = np.nonzero(mask)[0]
        rows = events.rows[mask]
        # int(eact * scale) in float64, truncated toward zero — the
        # operands are exact ints < 2**53, so this is bit-identical to
        # the scalar ImPress-P close kernel.
        eact = (events.b[mask] - events.a[mask] + tpre).astype(np.float64) / trc
        raws = (eact * scale).astype(np.int64)
        return rows, raws, orders
    raise ValueError(f"unknown scheme: {scheme!r}")


def numpy_rng_from(py_rng: "random.Random"):
    """A ``numpy.random.RandomState`` continuing ``py_rng``'s MT stream.

    Both generators run the same Mersenne-Twister core and build
    doubles from two 32-bit outputs with the same 53-bit construction,
    so after the transplant ``random_sample(n)`` is bit-identical to
    ``n`` sequential ``py_rng.random()`` calls.
    """
    version, internal, _gauss = py_rng.getstate()
    if version != 3:  # pragma: no cover - CPython has used 3 since 2.4
        raise RuntimeError(f"unsupported random.Random state version {version}")
    state = np.random.RandomState()
    state.set_state(
        ("MT19937", np.asarray(internal[:-1], dtype=np.uint32), internal[-1])
    )
    return state


def _bank_seed(defense, local_bank: int) -> int:
    """The per-bank tracker RNG seed ``DefenseConfig.build_scheme`` uses."""
    return defense.seed * 7919 + local_bank


def _sum_checks(per_bank_records, entries: Optional[int], threshold) -> str:
    """Shared validity check for table trackers: sums stay sub-threshold.

    Valid when every bank's distinct positive-weight rows fit the table
    (``entries``; None = per-row counters, no capacity bound) and every
    per-row raw sum stays strictly below ``threshold`` — then no spill,
    eviction or reset dynamics can occur and no mitigation can fire.
    Anything else is ``"unknown"``: the exact outcome depends on update
    order, which the scalar replay resolves.
    """
    for rows, raws, _orders in per_bank_records:
        positive = raws > 0
        rows = rows[positive]
        if not len(rows):
            continue
        unique, inverse = np.unique(rows, return_inverse=True)
        if entries is not None and len(unique) > entries:
            return "unknown"
        sums = np.bincount(inverse, weights=raws[positive])
        if sums.max() >= threshold:
            return "unknown"
    return "valid"


def replay_lane_vector(defense, timeline: RecordedTimeline
                       ) -> Tuple[str, int]:
    """Vectorized replay of one follower lane against the timeline.

    Returns ``(verdict, rfm_mitigations)``; the count is meaningful
    only for a ``"valid"`` verdict.  See the module docstring for the
    verdict contract.
    """
    if np is None:
        raise ImportError(NUMPY_IMPORT_HINT)
    tracker = defense.tracker
    if tracker == "none":
        return "valid", 0
    scale = 1 << defense.tracker_fraction_bits
    probe = defense._build_tracker(_bank_seed(defense, 0))
    records = timeline.records(defense.scheme, scale)

    if tracker == "graphene":
        return _sum_checks(records, probe.entries, probe._threshold_raw), 0

    if tracker == "prac":
        rows_per_bank = probe.rows_per_bank
        for rows, _raws, _orders in records:
            if len(rows) and (
                rows.min() < 0 or rows.max() >= rows_per_bank
            ):
                # The scalar kernel raises for out-of-range rows; rerun
                # the lane on the fast engine so the error is faithful.
                return "diverged", 0
        verdict = _sum_checks(records, None, probe._alert_raw)
        # Per-row counters only reset when an alert fires, so a raw sum
        # reaching the threshold *is* an alert: the check is exact.
        return ("diverged" if verdict == "unknown" else verdict), 0

    if tracker == "dsac":
        if defense.scheme == "impress-p":
            # The ImPress-P path re-weighs each record with log2();
            # leave float transcendentals to the exact scalar replay.
            return "unknown", 0
        # Unit records weigh exactly 1, so per-row sums are the counts.
        return _sum_checks(records, probe.entries,
                           probe.mitigation_threshold), 0

    if tracker == "para":
        p = probe.p
        impress_p = defense.scheme == "impress-p"
        per = timeline.banks_per_channel
        for flat, (rows, raws, _orders) in enumerate(records):
            if impress_p:
                raws = raws[raws > 0]   # zero-weight records skip the draw
                n_draws = len(raws)
            else:
                n_draws = len(rows)
            if not n_draws:
                continue
            rng = numpy_rng_from(
                random.Random(_bank_seed(defense, flat % per))
            )
            samples = rng.random_sample(n_draws)
            if impress_p:
                thresholds = np.minimum(
                    1.0, p * (raws.astype(np.float64) / scale)
                )
            else:
                thresholds = p
            if np.any(samples < thresholds):
                return "diverged", 0
        return "valid", 0

    if tracker == "mint":
        span = probe.rfmth * probe._scale  # the tracker's own SAN span
        per = timeline.banks_per_channel
        mitigated = 0
        for flat, (rows, raws, orders) in enumerate(records):
            rfm_orders = timeline.banks[flat].rfm_orders
            if not len(rfm_orders):
                continue
            rng = random.Random(_bank_seed(defense, flat % per))
            san = rng.randrange(span) + 1     # drawn at construction
            # CAN is a running raw sum reset at each RFM, so the SAN
            # slot is covered within an interval iff the interval's raw
            # sum reaches it.
            intervals = np.searchsorted(rfm_orders, orders)
            sums = np.bincount(
                intervals, weights=raws, minlength=len(rfm_orders) + 1
            )
            for i in range(len(rfm_orders)):
                if sums[i] >= san:
                    mitigated += 1
                san = rng.randrange(span) + 1  # redrawn by every on_rfm
        return "valid", mitigated

    if tracker == "mithril":
        mitigated = 0
        for flat, (rows, raws, orders) in enumerate(records):
            rfm_orders = timeline.banks[flat].rfm_orders
            if not len(rfm_orders):
                continue
            positive = np.nonzero(raws > 0)[0]
            if not len(positive):
                continue
            # Entries are never removed (eviction replaces), so on_rfm
            # mitigates at every RFM after the first positive record.
            first = orders[positive[0]]
            mitigated += int(np.count_nonzero(rfm_orders > first))
        return "valid", mitigated

    return "unknown", 0


def replay_lane_python(defense, timings, banks_per_channel: int,
                       channels: int, bank_logs) -> Tuple[bool, int]:
    """Exact scalar replay through the real scheme/tracker kernels.

    ``bank_logs`` is the recorder's raw per-bank event lists (flat bank
    order, one ``(kinds, rows, a, b)`` quadruple per bank).  Builds the
    lane's own scheme per channel — the same construction, seeds and
    kernel objects a real simulation would use — and drives the events
    through it.  Returns ``(valid, rfm_mitigations)``; ``valid`` is
    False as soon as any act/close kernel fires a mitigation, at which
    point the lane must be re-simulated for real.  Exceptions (e.g.
    PRAC's out-of-range row) are the caller's cue to re-simulate too,
    so the error surfaces from the real engine.
    """
    mitigated = 0
    for channel in range(channels):
        scheme = defense.build_scheme(timings, banks_per_channel)
        act_kernels = scheme.act_kernels()
        close_kernels = scheme.close_kernels()
        rfm_kernels = scheme.rfm_kernels()
        for bank in range(banks_per_channel):
            log = bank_logs[channel * banks_per_channel + bank]
            act_kernel = act_kernels[bank]
            close_kernel = close_kernels[bank]
            rfm_kernel = rfm_kernels[bank]
            for kind, row, a, b in zip(log.kinds, log.rows, log.a, log.b):
                if kind == EV_ACT:
                    if act_kernel is not None and act_kernel(row):
                        return False, 0
                elif kind == EV_CLOSE:
                    if close_kernel is not None and close_kernel(row, a, b):
                        return False, 0
                elif rfm_kernel(a) is not None:
                    mitigated += 1
    return True, mitigated
