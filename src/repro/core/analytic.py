"""Closed-form multi-iteration folding for the wear-leveling engine.

The per-PE count delta of one full network iteration is a fixed
``(h, w)`` array for each carried-state residue: open-loop policies
(baseline, RWL, RWL+RO) turn a layer's geometry plus the carried
coordinate into a deterministic stride sequence (Eqs. 5-11 of the
paper), so iterating a fixed stream list is iterating a deterministic
map on the finite ``(u, v)`` state space. That map's orbit is eventually
periodic with period at most ``w * h``, which reduces ``iterations=N``
to

* a **tail** of at-most-once-visited states, replayed explicitly;
* **whole periods** of the cycle, folded as ``q x (cycle delta)`` in one
  batched addition;
* a **remainder**, folded as one intra-cycle prefix sum.

This module holds the pure numpy machinery of that fold — per-iteration
aggregates, cycle prefix tables, vectorized per-iteration trace extrema
(counts within the cycle are affine in the cycle index, so a whole
block of trace points is two reductions over a broadcast matrix),
per-iteration usage snapshots (Fig. 7, read off the same prefix table
as ``base + q x C + prefix[r]``), and the budget-guarded jump bound
that keeps the fold exact in the presence of wear-out deaths. The engine (:mod:`repro.core.engine`) owns the
orbit detection and memo plumbing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Cap on the element count of one broadcast trace block; bigger
#: remainders are processed in chunks of this many matrix cells.
TRACE_CHUNK_ELEMENTS = 1 << 22


@dataclass(frozen=True)
class IterationDelta:
    """Aggregate effect of one network iteration entered at one state.

    ``delta`` is the per-PE count increment of the whole iteration (all
    layers, weights applied), ``tiles``/``slots`` the ledger bookkeeping
    it carries, and ``exit_state`` the coordinate handed to the next
    iteration. ``delta_range`` is the delta's ``(min, max)`` element
    value — the uniform-delta fast path of
    :meth:`repro.core.tracker.UsageTracker.add_delta`.
    """

    entry_state: Tuple[int, int]
    delta: np.ndarray
    tiles: int
    slots: int
    exit_state: Tuple[int, int]
    delta_range: Tuple[int, int]


@dataclass(frozen=True)
class CycleTable:
    """Prefix tables of one closed orbit cycle.

    ``prefix[r]`` is the summed delta of the first ``r`` cycle
    iterations (``prefix[0]`` is all-zero, ``prefix[L]`` the whole-cycle
    delta), with matching ``prefix_tiles`` / ``prefix_slots``.
    ``excursion`` is the element-wise maximum over all prefixes — the
    worst intra-cycle overshoot a budget guard must allow for.
    """

    prefix: np.ndarray  # (L + 1, h, w)
    prefix_tiles: np.ndarray  # (L + 1,)
    prefix_slots: np.ndarray  # (L + 1,)

    @property
    def length(self) -> int:
        """The cycle period ``L``."""
        return self.prefix.shape[0] - 1

    @property
    def total(self) -> np.ndarray:
        """The whole-cycle count delta ``C``."""
        return self.prefix[-1]

    @property
    def total_tiles(self) -> int:
        """Tiles recorded by one whole cycle."""
        return int(self.prefix_tiles[-1])

    @property
    def total_slots(self) -> int:
        """Tile slots executed by one whole cycle."""
        return int(self.prefix_slots[-1])

    @property
    def excursion(self) -> np.ndarray:
        """Element-wise max over the prefixes (intra-cycle overshoot)."""
        return self.prefix.max(axis=0)


def build_cycle_table(cycle: Sequence[IterationDelta]) -> CycleTable:
    """Prefix tables for one closed cycle of iteration deltas."""
    if not cycle:
        raise ValueError("a cycle needs at least one iteration")
    shape = cycle[0].delta.shape
    prefix = np.zeros((len(cycle) + 1,) + shape, dtype=np.int64)
    tiles = np.zeros(len(cycle) + 1, dtype=np.int64)
    slots = np.zeros(len(cycle) + 1, dtype=np.int64)
    for index, record in enumerate(cycle, start=1):
        prefix[index] = prefix[index - 1] + record.delta
        tiles[index] = tiles[index - 1] + record.tiles
        slots[index] = slots[index - 1] + record.slots
    return CycleTable(prefix=prefix, prefix_tiles=tiles, prefix_slots=slots)


def fold_cycles(
    table: CycleTable, iterations: int
) -> Tuple[np.ndarray, int, int]:
    """Summed ``(delta, tiles, slots)`` of ``iterations`` cycle passes.

    ``iterations`` whole network iterations starting at the cycle's
    entry state decompose into ``q`` full periods plus a remainder
    prefix; both fold into a single count array.
    """
    whole, remainder = divmod(iterations, table.length)
    delta = whole * table.total + table.prefix[remainder]
    tiles = whole * table.total_tiles + int(table.prefix_tiles[remainder])
    slots = whole * table.total_slots + int(table.prefix_slots[remainder])
    return delta, tiles, slots


def cycle_trace_extrema(
    base_counts: np.ndarray,
    table: CycleTable,
    iterations: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-iteration ``(max, min)`` of counts across ``iterations`` passes.

    Counts after ``m = q * L + r`` cycle iterations past ``base_counts``
    are ``base + q * C + prefix[r]`` — affine in ``q`` — so the extrema
    of a whole residue class come from two reductions over a broadcast
    ``(num_q, h * w)`` matrix instead of one scan per iteration. Output
    index ``m - 1`` holds the extrema after iteration ``m``.
    """
    length = table.length
    cells = base_counts.size
    base = base_counts.reshape(-1)
    total = table.total.reshape(-1)
    maxima = np.empty(iterations, dtype=np.int64)
    minima = np.empty(iterations, dtype=np.int64)
    chunk_rows = max(1, TRACE_CHUNK_ELEMENTS // max(1, cells))
    for residue in range(length):
        # Iterations m with m % L == residue (residue 0 means whole
        # periods, q >= 1); q values are consecutive integers.
        first_m = residue if residue else length
        if first_m > iterations:
            continue
        ms = np.arange(first_m, iterations + 1, length, dtype=np.int64)
        qs = ms // length
        offset = base + table.prefix[residue].reshape(-1)
        for start in range(0, qs.size, chunk_rows):
            q_block = qs[start : start + chunk_rows]
            block = offset[np.newaxis, :] + q_block[:, np.newaxis] * total
            m_block = ms[start : start + chunk_rows] - 1
            maxima[m_block] = block.max(axis=1)
            minima[m_block] = block.min(axis=1)
    return maxima, minima


def safe_cycle_jumps(
    counts: np.ndarray,
    table: CycleTable,
    budgets: np.ndarray,
    alive: np.ndarray,
    max_cycles: int,
) -> int:
    """How many whole cycles can run without any budget crossing.

    A PE dies once its count reaches its budget (``count >= budget``),
    so ``q`` cycles are provably death-free when
    ``counts + q * C + excursion < budget`` on every live PE — the
    excursion term covers the worst intra-cycle overshoot, making the
    bound conservative but never unsafe. The returned ``q`` (possibly
    0) is additionally verified against the exact inequality, so float
    rounding in the division can only shrink the jump, never overshoot
    a death.
    """
    if max_cycles <= 0 or not alive.any():
        return 0
    headroom = budgets - counts - table.excursion
    live_headroom = headroom[alive]
    if np.any(live_headroom <= 0):
        return 0
    total = table.total[alive].astype(float)
    with np.errstate(divide="ignore"):
        per_cell = np.where(
            total > 0, np.floor(live_headroom / np.maximum(total, 1)), np.inf
        )
    jumps = int(min(float(per_cell.min()), float(max_cycles)))
    # Exact re-check: back off until the strict inequality holds.
    while jumps > 0 and np.any(
        counts[alive] + jumps * table.total[alive] + table.excursion[alive]
        >= budgets[alive]
    ):
        jumps -= 1
    return jumps


def delta_range(delta: np.ndarray) -> Tuple[int, int]:
    """The ``(min, max)`` element pair of a delta array."""
    return (int(delta.min()), int(delta.max()))


def find_cycle(
    order: List[Tuple[int, int]], next_state: Tuple[int, int]
) -> Optional[int]:
    """Index in ``order`` where the orbit closes, or ``None``.

    ``order`` is the sequence of iteration entry states visited so far
    and ``next_state`` the state the following iteration would enter;
    the orbit is closed once ``next_state`` was already an entry, and
    everything from its first occurrence onward is one cycle period.
    """
    try:
        return order.index(next_state)
    except ValueError:
        return None
