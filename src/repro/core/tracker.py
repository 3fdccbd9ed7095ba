"""Per-PE usage accounting.

A :class:`UsageTracker` is the wear ledger of one PE array: it holds the
paper's ``A_PE`` counter (number of utilization-space allocations) for
every PE and answers the imbalance queries the evaluation reports —
``D_max`` (max usage difference), ``min(A_PE)``, and ``R_diff``.

The batch-accumulation path exploits the structure of Algorithm 1: within
one layer the tile positions repeat with a short period, so a layer of
thousands of tiles reduces to at most ``w * h`` distinct wrapped
rectangles, each added once with an integer multiplicity.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.arch.array import PEArray
from repro.errors import SimulationError


def grouped_delta(
    array: PEArray,
    uu: np.ndarray,
    vv: np.ndarray,
    multiplicity: np.ndarray,
    x: int,
    y: int,
) -> np.ndarray:
    """Count delta of pre-grouped tile starts, as a fresh ``(h, w)`` array.

    The trusted kernel behind :meth:`UsageTracker.add_grouped` and the
    engine's layer-delta computation: starts must already be distinct,
    in-range ``int64`` arrays (a policy's grouped positions are, by
    construction). Each (possibly wrapped) rectangle splits into at most
    four axis-aligned pieces whose corners receive +/- multiplicity in a
    2-D difference array, and one double prefix sum materializes the
    batch. Mesh arrays still reject wrapped rectangles — that check is
    semantic (the hardware cannot place them), not defensive.
    """
    width = array.width
    height = array.height
    if uu.size == 0:
        return np.zeros(array.shape, dtype=np.int64)
    if not array.is_torus and bool(
        np.any((uu + x > width) | (vv + y > height))
    ):
        raise SimulationError(
            "utilization space crosses the mesh boundary; wrap-around "
            "placement needs a torus array"
        )

    # Row/column segments of the wrapped rectangle: the main piece and
    # (when the space crosses the boundary) the wrapped remainder.
    zeros = np.zeros_like(uu)
    row_segments = (
        (vv, np.minimum(vv + y, height)),
        (zeros, np.maximum(vv + y - height, 0)),
    )
    col_segments = (
        (uu, np.minimum(uu + x, width)),
        (zeros, np.maximum(uu + x - width, 0)),
    )
    diff = np.zeros((height + 1, width + 1), dtype=np.int64)
    for r0, r1 in row_segments:
        for c0, c1 in col_segments:
            valid = (r1 > r0) & (c1 > c0)
            if not np.any(valid):
                continue
            counts = multiplicity[valid]
            rv0, rv1 = r0[valid], r1[valid]
            cv0, cv1 = c0[valid], c1[valid]
            np.add.at(diff, (rv0, cv0), counts)
            np.add.at(diff, (rv0, cv1), -counts)
            np.add.at(diff, (rv1, cv0), -counts)
            np.add.at(diff, (rv1, cv1), counts)
    return diff.cumsum(axis=0).cumsum(axis=1)[:height, :width]


class UsageTracker:
    """Tracks per-PE usage counts on one PE array."""

    def __init__(self, array: PEArray) -> None:
        self._array = array
        self._counts = np.zeros(array.shape, dtype=np.int64)
        self._tiles_seen = 0
        # Cached (max, min) of the counts. A fresh tracker is all-zero,
        # so the cache starts valid; mutators invalidate it (or shift it
        # in place when the applied delta is uniform), and the metric
        # properties recompute it with one max + one min reduction
        # instead of a full scan per metric.
        self._extrema: Optional[Tuple[int, int]] = (0, 0)

    @property
    def array(self) -> PEArray:
        """The tracked PE array."""
        return self._array

    @property
    def counts(self) -> np.ndarray:
        """Read-only view of the ``(h, w)`` usage counters."""
        view = self._counts.view()
        view.setflags(write=False)
        return view

    @property
    def tiles_seen(self) -> int:
        """Total data tiles recorded so far."""
        return self._tiles_seen

    @property
    def total_usage(self) -> int:
        """Sum of all PE usage counts (= sum of tile areas)."""
        return int(self._counts.sum())

    # ------------------------------------------------------------------
    # Accumulation
    # ------------------------------------------------------------------
    def add_space(self, start: Tuple[int, int], x: int, y: int, count: int = 1) -> None:
        """Record ``count`` tiles whose space starts at ``start``.

        On a mesh array a space that would cross the boundary raises
        :class:`~repro.errors.ConfigurationError` (the hardware cannot
        place it), which is exactly the baseline-vs-RoTA distinction.
        """
        if count < 1:
            raise SimulationError(f"count must be positive, got {count}")
        rows, cols = self._array.footprint_indices(start, x, y)
        self._counts[rows, cols] += count
        self._tiles_seen += count
        self._extrema = None

    def add_positions(self, us: np.ndarray, vs: np.ndarray, x: int, y: int) -> None:
        """Record one tile at every ``(us[i], vs[i])`` start, vectorized.

        Uses a 2-D difference array: each (possibly wrapped) rectangle
        splits into at most four axis-aligned pieces whose corners receive
        +/- multiplicity, and one double prefix sum materializes the
        batch. Cost is bounded by the number of *distinct* starts (at most
        ``w * h``) regardless of the tile count, and the result is
        bit-identical to per-tile :meth:`add_space` calls (property-tested).
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        if us.shape != vs.shape or us.ndim != 1:
            raise SimulationError(
                f"position arrays must be matching 1-D: {us.shape} vs {vs.shape}"
            )
        if us.size == 0:
            return
        width = self._array.width
        height = self._array.height
        if not (1 <= x <= width and 1 <= y <= height):
            raise SimulationError(
                f"utilization space {x}x{y} does not fit the {width}x{height} array"
            )
        if np.any((us < 0) | (us >= width) | (vs < 0) | (vs >= height)):
            raise SimulationError("tile start positions outside the array")

        keys = us * height + vs
        per_key = np.bincount(keys, minlength=width * height)
        occupied = np.nonzero(per_key)[0]
        self.add_grouped(
            occupied // height, occupied % height, per_key[occupied], x, y
        )

    def add_grouped(
        self,
        unique_us: np.ndarray,
        unique_vs: np.ndarray,
        multiplicity: np.ndarray,
        x: int,
        y: int,
    ) -> None:
        """Record pre-grouped tiles: ``multiplicity[i]`` tiles at each start.

        This is the fast path the engine uses once a layer's position
        batch has been computed: starts must be distinct (the caller
        groups duplicates) and in-range.
        """
        uu = np.asarray(unique_us, dtype=np.int64)
        vv = np.asarray(unique_vs, dtype=np.int64)
        multiplicity = np.asarray(multiplicity, dtype=np.int64)
        if not (uu.shape == vv.shape == multiplicity.shape) or uu.ndim != 1:
            raise SimulationError("grouped position arrays must be matching 1-D")
        if uu.size == 0:
            return
        width = self._array.width
        height = self._array.height
        if not (1 <= x <= width and 1 <= y <= height):
            raise SimulationError(
                f"utilization space {x}x{y} does not fit the {width}x{height} array"
            )
        if np.any((uu < 0) | (uu >= width) | (vv < 0) | (vv >= height)):
            raise SimulationError("tile start positions outside the array")
        if np.any(multiplicity < 1):
            raise SimulationError("multiplicities must be positive")

        self._counts += grouped_delta(self._array, uu, vv, multiplicity, x, y)
        self._tiles_seen += int(multiplicity.sum())
        self._extrema = None

    def add_delta(
        self,
        delta: np.ndarray,
        tiles: int,
        delta_range: Optional[Tuple[int, int]] = None,
    ) -> None:
        """Add a precomputed usage-count delta (the engine's memo path).

        ``delta`` must be a full ``(h, w)`` non-negative count array —
        typically the snapshot of a scratch tracker that accumulated one
        layer's position batch via :meth:`add_positions`. ``delta_range``
        optionally carries the delta's ``(min, max)`` element values
        (memoized alongside the delta by the engine): when the delta is
        uniform (``min == max``) the cached extrema shift in place and
        the next trace point costs no array scan at all.
        """
        if delta.shape != self._counts.shape:
            raise SimulationError(
                f"delta shape {delta.shape} does not match array "
                f"shape {self._counts.shape}"
            )
        if tiles < 0:
            raise SimulationError(f"tile count must be non-negative: {tiles}")
        self._counts += delta
        self._tiles_seen += tiles
        if (
            self._extrema is not None
            and delta_range is not None
            and delta_range[0] == delta_range[1]
        ):
            shift = int(delta_range[0])
            self._extrema = (self._extrema[0] + shift, self._extrema[1] + shift)
        else:
            self._extrema = None

    # ------------------------------------------------------------------
    # Imbalance metrics
    # ------------------------------------------------------------------
    def extrema(self) -> Tuple[int, int]:
        """Current ``(max, min)`` usage counts, cached between mutations.

        All four imbalance metrics derive from this pair, so recording a
        :class:`~repro.core.engine.Trace` row costs at most one max and
        one min reduction — and zero when the last delta was uniform.
        """
        if self._extrema is None:
            self._extrema = (int(self._counts.max()), int(self._counts.min()))
        return self._extrema

    @property
    def max_usage(self) -> int:
        """Largest per-PE usage count."""
        return self.extrema()[0]

    @property
    def min_usage(self) -> int:
        """Smallest per-PE usage count (the paper's ``min(A_PE)``)."""
        return self.extrema()[1]

    @property
    def max_difference(self) -> int:
        """The paper's ``D_max``: peak-to-peak usage difference."""
        return self.max_usage - self.min_usage

    @property
    def r_diff(self) -> float:
        """The paper's ``R_diff = D_max / min(A_PE)``.

        Infinite while some PE is still untouched (min usage 0) but usage
        is imbalanced; zero for a perfectly level (or untouched) array.
        """
        diff = self.max_difference
        if diff == 0:
            return 0.0
        if self.min_usage == 0:
            return float("inf")
        return diff / self.min_usage

    def usage_coefficients(self) -> np.ndarray:
        """Relative active-time coefficients ``alpha_ij`` (peak = 1).

        The paper's reliability math (Eq. 2) uses relative active
        durations; normalizing by the maximum makes the busiest PE the
        ``alpha = 1`` reference, matching the baseline convention of
        Section V-C.
        """
        peak = self.max_usage
        if peak == 0:
            return np.zeros_like(self._counts, dtype=float)
        return self._counts / float(peak)

    def snapshot(self) -> np.ndarray:
        """An independent copy of the current usage counters."""
        return self._counts.copy()

    def reset(self) -> None:
        """Zero all counters."""
        self._counts.fill(0)
        self._tiles_seen = 0
        self._extrema = (0, 0)

    def merged_with(self, other: "UsageTracker") -> "UsageTracker":
        """A new tracker whose counts are the element-wise sum."""
        if self._array.shape != other._array.shape:
            raise SimulationError(
                f"cannot merge trackers of shapes {self._array.shape} and "
                f"{other._array.shape}"
            )
        merged = UsageTracker(self._array)
        merged._counts = self._counts + other._counts
        merged._tiles_seen = self._tiles_seen + other._tiles_seen
        merged._extrema = None
        return merged
