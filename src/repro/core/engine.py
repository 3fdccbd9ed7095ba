"""The wear-leveling simulation engine.

"We composed a simulator to track the usage count of individual PEs"
(paper Section V) — this is that simulator. The engine drives per-layer
tile streams (from :mod:`repro.dataflow`) through a wear-leveling policy
on an accelerator, updates the per-PE usage ledger, and records the
per-iteration imbalance traces the evaluation figures plot.

The engine is exactly Algorithm 1 of the paper, vectorized: positions
come from the closed-form stride sequence and usage updates are grouped
wrapped-rectangle additions, so 1,000-iteration runs of a full network
finish in milliseconds while remaining equivalent to the naive per-tile
loop (property-tested in ``tests/core/test_engine.py``).
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from itertools import starmap
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.core.analytic import (
    IterationDelta,
    build_cycle_table,
    cycle_trace_extrema,
    delta_range,
    fold_cycles,
    safe_cycle_jumps,
)
from repro.core.policies import WearLevelingPolicy
from repro.core.tracker import UsageTracker, grouped_delta
from repro.dataflow.tiling import TileStream
from repro.errors import ConfigurationError, SimulationError
from repro.runtime.fingerprint import accelerator_fingerprint
from repro.runtime.memo import Memo

if TYPE_CHECKING:  # avoid a load-time core -> faults dependency
    from repro.faults.injection import EnduranceBudgets
    from repro.faults.state import DeathEvent, DegradationStats, FaultState

#: One shared iteration record: the read-only :class:`IterationDelta`
#: plus the ``_batch_memo`` entries its layers touched.
SharedRecord = Tuple[IterationDelta, Tuple[Tuple[tuple, tuple], ...]]

#: Orbit records shared by every engine in the process. One table of
#: ``entry_state -> SharedRecord`` per (policy identity, cycle
#: weighting, accelerator fingerprint, per-layer ``(x, y, Z, weight)``).
_ORBIT_RECORDS = Memo()


@dataclass(frozen=True)
class TracePoint:
    """Imbalance metrics after one network iteration (or one layer).

    ``layer`` is empty for iteration-granular traces and names the layer
    just processed for layer-granular ones.
    """

    iteration: int
    tiles_seen: int
    max_usage: int
    min_usage: int
    max_difference: int
    r_diff: float
    layer: str = ""


class Trace(SequenceABC):
    """A run's imbalance trace, stored as read-only columns.

    One int64 array per recorded quantity (``iteration``,
    ``tiles_seen``, ``max_usage``, ``min_usage``) plus the ``layer``
    names; ``max_difference`` and ``r_diff`` are derived from the
    extrema in one vectorized pass. Indexing and iteration yield
    :class:`TracePoint` rows, slicing yields a shorter ``Trace``, and a
    trace compares equal to another trace or to any sequence of the same
    points.

    ``r_diff`` is ``0`` when usage is level, ``inf`` while some PE is
    unused, and ``max_difference / min_usage`` otherwise; float64
    division of the exact integer extrema rounds exactly as Python's
    ``int / int`` does.
    """

    __slots__ = (
        "iteration",
        "tiles_seen",
        "max_usage",
        "min_usage",
        "max_difference",
        "r_diff",
        "layer",
    )

    def __init__(
        self,
        iteration: Sequence[int] = (),
        tiles_seen: Sequence[int] = (),
        max_usage: Sequence[int] = (),
        min_usage: Sequence[int] = (),
        layer: Optional[Sequence[str]] = None,
    ) -> None:
        """Wrap the columns; ``layer=None`` means iteration-granular."""
        ints = [
            np.array(column, dtype=np.int64)
            for column in (iteration, tiles_seen, max_usage, min_usage)
        ]
        size = ints[0].size
        layer = ("",) * size if layer is None else tuple(layer)
        if any(column.shape != (size,) for column in ints) or len(layer) != size:
            raise SimulationError("trace columns must be 1-D and equally long")
        high, low = ints[2], ints[3]
        difference = high - low
        with np.errstate(divide="ignore", invalid="ignore"):
            r_diff = np.where(difference == 0, 0.0, difference / low)
        for name, value in zip(
            self.__slots__, (*ints, difference, r_diff, layer)
        ):
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return (
            Trace,
            (
                self.iteration,
                self.tiles_seen,
                self.max_usage,
                self.min_usage,
                self.layer,
            ),
        )

    def columns(self) -> Tuple[list, ...]:
        """Plain-Python columns, in :class:`TracePoint` field order."""
        return (
            self.iteration.tolist(),
            self.tiles_seen.tolist(),
            self.max_usage.tolist(),
            self.min_usage.tolist(),
            self.max_difference.tolist(),
            self.r_diff.tolist(),
            list(self.layer),
        )

    def __len__(self) -> int:
        return len(self.layer)

    def __iter__(self) -> Iterator[TracePoint]:
        return starmap(TracePoint, zip(*self.columns()))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Trace(
                self.iteration[index],
                self.tiles_seen[index],
                self.max_usage[index],
                self.min_usage[index],
                self.layer[index],
            )
        return TracePoint(
            int(self.iteration[index]),
            int(self.tiles_seen[index]),
            int(self.max_usage[index]),
            int(self.min_usage[index]),
            int(self.max_difference[index]),
            float(self.r_diff[index]),
            self.layer[index],
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, Trace):
            return self.layer == other.layer and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("iteration", "tiles_seen", "max_usage", "min_usage")
            )
        if isinstance(other, SequenceABC):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Trace({len(self)} points)"


@dataclass(frozen=True)
class RunResult:
    """Outcome of a multi-iteration wear-leveling run."""

    policy_name: str
    accelerator_name: str
    iterations: int
    counts: np.ndarray
    trace: Trace = field(default_factory=Trace)
    snapshots: Optional[Sequence[np.ndarray]] = None
    final_state: Tuple[int, int] = (0, 0)
    #: Wear-out failures observed during the run (empty without faults).
    death_events: Tuple["DeathEvent", ...] = ()
    #: ``(u, v)`` coordinates dead at the end of the run.
    dead_pes: Tuple[Tuple[int, int], ...] = ()
    #: Tile-slot accounting; ``None`` when the engine ran fault-free.
    degradation: Optional["DegradationStats"] = None

    @property
    def max_difference(self) -> int:
        """Final ``D_max``."""
        return int(self.counts.max() - self.counts.min())

    @property
    def min_usage(self) -> int:
        """Final ``min(A_PE)``."""
        return int(self.counts.min())

    @property
    def r_diff(self) -> float:
        """Final ``R_diff``."""
        diff = self.max_difference
        if diff == 0:
            return 0.0
        if self.min_usage == 0:
            return float("inf")
        return diff / self.min_usage

    def max_difference_trace(self) -> np.ndarray:
        """``D_max`` after each iteration (Fig. 6a/6b series, read-only)."""
        return self.trace.max_difference

    def r_diff_trace(self) -> np.ndarray:
        """``R_diff`` after each iteration (Fig. 7 series, read-only)."""
        return self.trace.r_diff


class WearLevelingEngine:
    """Runs tile streams through a policy and tracks PE usage."""

    def __init__(
        self,
        accelerator: Accelerator,
        policy: WearLevelingPolicy,
        cycle_weighted: bool = False,
        fault_state: Optional["FaultState"] = None,
        budgets: Optional["EnduranceBudgets"] = None,
    ) -> None:
        """Create an engine.

        ``cycle_weighted=True`` weights each tile's usage contribution by
        its steady-state cycle count instead of counting allocations —
        the paper's ``A_PE`` is allocation-granular (the default); the
        weighted mode backs the accounting-granularity ablation.

        ``fault_state`` marks permanently dead PEs: placements that would
        overlap one shift along the torus to the next clean start (and
        split into sub-tiles when no full-size start exists). With no
        dead PEs the engine takes exactly the fault-free fast path, so an
        empty fault state is bit-identical to passing ``None``.

        ``budgets`` enables wear-out deaths: after every layer, any PE
        whose usage count crossed its endurance budget dies permanently
        (recorded as a :class:`~repro.faults.state.DeathEvent`). Death
        detection is layer-granular — a PE cannot die mid-layer.
        """
        if policy.requires_torus and not accelerator.is_torus:
            raise ConfigurationError(
                f"policy {policy.name!r} needs torus connectivity, but "
                f"{accelerator.name} has a mesh local network; use "
                f"accelerator.as_torus()"
            )
        if budgets is not None and fault_state is None:
            from repro.faults.state import FaultState as _FaultState

            fault_state = _FaultState.none(accelerator.array)
        if fault_state is not None:
            if fault_state.array != accelerator.array:
                raise ConfigurationError(
                    "fault state tracks a different array than the "
                    "accelerator; build it from accelerator.array"
                )
            if not getattr(policy, "supports_fault_remap", True):
                raise ConfigurationError(
                    f"policy {policy.name!r} places against the live ledger "
                    f"and does not support fault-aware remapping"
                )
        if budgets is not None and budgets.shape != accelerator.array.shape:
            raise ConfigurationError(
                f"endurance budget shape {budgets.shape} does not match "
                f"array shape {accelerator.array.shape}"
            )
        self._accelerator = accelerator
        self._policy = policy
        self._cycle_weighted = cycle_weighted
        self._tracker = UsageTracker(accelerator.array)
        self._state = policy.initial_state()
        self._fault_state = fault_state
        self._budgets = budgets
        self._death_events: List["DeathEvent"] = []
        self._iteration = 0
        self._nominal_tiles = 0
        self._executed_slots = 0
        # Position batches are deterministic in (state, x, y, Z); the RO
        # state cycles with a short period, so long runs hit this memo on
        # almost every layer call.
        self._batch_memo: dict = {}
        # Fault placements and fault-path layer batches are deterministic
        # in (start/state, shape, fault version); both memos are cleared
        # whenever the fault set changes.
        self._placement_memo: dict = {}
        self._fault_batch_memo: dict = {}
        self._roll_rows_cache: Dict[int, np.ndarray] = {}
        self._last_run_mode = "iterative"

    @property
    def accelerator(self) -> Accelerator:
        """The accelerator whose PEs are being tracked."""
        return self._accelerator

    @property
    def policy(self) -> WearLevelingPolicy:
        """The active wear-leveling policy."""
        return self._policy

    @property
    def tracker(self) -> UsageTracker:
        """The live usage ledger."""
        return self._tracker

    @property
    def state(self) -> Tuple[int, int]:
        """The carried ``(u, v)`` coordinate."""
        return self._state

    @property
    def fault_state(self) -> Optional["FaultState"]:
        """The live fault state (``None`` when running fault-free)."""
        return self._fault_state

    @property
    def death_events(self) -> Tuple["DeathEvent", ...]:
        """Wear-out failures detected so far, in death order."""
        return tuple(self._death_events)

    @property
    def last_run_mode(self) -> str:
        """Which path the most recent :meth:`run` actually took.

        ``"analytic"`` when the orbit fold served the request,
        ``"iterative"`` otherwise (including analytic requests that fell
        back). ``"iterative"`` before any run.
        """
        return self._last_run_mode

    @property
    def degradation(self) -> Optional["DegradationStats"]:
        """Tile-slot accounting (``None`` when running fault-free)."""
        if self._fault_state is None:
            return None
        from repro.faults.state import DegradationStats

        return DegradationStats(
            nominal_tiles=self._nominal_tiles,
            executed_slots=self._executed_slots,
        )

    def reset(self) -> None:
        """Zero the ledger and restart from the policy's initial state.

        Death bookkeeping restarts too, but an externally supplied fault
        state keeps its dead PEs — revive them explicitly via
        ``fault_state.revive_all()`` if a fresh array is intended.
        """
        self._tracker.reset()
        self._state = self._policy.initial_state()
        self._death_events = []
        self._iteration = 0
        self._nominal_tiles = 0
        self._executed_slots = 0
        self._placement_memo.clear()
        self._fault_batch_memo.clear()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run_layer(self, stream: TileStream) -> None:
        """Process one layer's tile stream."""
        x, y = self._validate_stream(stream)
        if getattr(self._policy, "needs_feedback", False):
            # Closed-loop policies consult the live ledger; no memoization
            # is possible because the placement depends on the counts.
            self._state = self._policy.place_tiles(
                self._tracker, x, y, stream.num_tiles
            )
            return

        delta, tiles, slots, final, rng = self._layer_delta(
            stream, x, y, self._state
        )
        self._tracker.add_delta(delta, tiles, delta_range=rng)
        self._state = final
        self._nominal_tiles += stream.num_tiles
        self._executed_slots += slots
        if self._budgets is not None:
            self._record_deaths(stream.layer_name)

    def _validate_stream(self, stream: TileStream) -> Tuple[int, int]:
        """Check the stream's space fits the array; return its shape."""
        width = self._accelerator.width
        height = self._accelerator.height
        x, y = stream.space_shape
        if x > width or y > height:
            raise SimulationError(
                f"layer {stream.layer_name!r}: utilization space {x}x{y} "
                f"exceeds the {width}x{height} array"
            )
        return x, y

    def _layer_delta(
        self,
        stream: TileStream,
        x: int,
        y: int,
        state: Tuple[int, int],
    ) -> Tuple[np.ndarray, int, int, Tuple[int, int], Tuple[int, int]]:
        """Memoized ``(delta, tiles, slots, final_state, delta_range)``
        of one layer entered at ``state``.

        Both the iterative and the analytic path route every layer
        through here, so they populate identical memo entries and stay
        bit-identical by construction.
        """
        weight = self._layer_weight(stream)
        if self._fault_state is not None and self._fault_state.any_dead:
            return self._fault_layer_delta(stream, x, y, weight, state)
        key = (state, x, y, stream.num_tiles, weight)
        cached = self._batch_memo.get(key)
        if cached is None:
            cached = self._compute_layer(state, x, y, stream.num_tiles, weight)
            self._batch_memo[key] = cached
        delta, tiles, final, rng = cached
        return delta, tiles, stream.num_tiles, final, rng

    def _layer_weight(self, stream: TileStream) -> int:
        """Usage weight of one tile: 1, or its cycles when cycle-weighted."""
        return max(1, stream.tile_cycles) if self._cycle_weighted else 1

    def _compute_layer(
        self, state: Tuple[int, int], x: int, y: int, num_tiles: int, weight: int
    ) -> Tuple[np.ndarray, int, Tuple[int, int], Tuple[int, int]]:
        """Fault-free layer delta at ``state``, via symmetry when possible.

        Open-loop policies whose walk is translation-symmetric
        (:meth:`~repro.core.policies.WearLevelingPolicy.canonical_entry`)
        compute one real position walk per canonical state; every other
        entry state derives its delta with an ``np.roll`` — on a 1,000
        iteration RWL+RO run this turns ``O(orbit)`` walks per layer
        into ``O(distinct u)``.
        """
        symmetry = self._policy.canonical_entry(state)
        if symmetry is not None:
            canonical, shift = symmetry
            if canonical != state:
                canonical_key = (canonical, x, y, num_tiles, weight)
                base = self._batch_memo.get(canonical_key)
                if base is None:
                    base = self._compute_layer_direct(
                        canonical, x, y, num_tiles, weight
                    )
                    self._batch_memo[canonical_key] = base
                delta, tiles, final, rng = base
                if shift:
                    delta = delta[self._rolled_rows(shift)]
                    final = (
                        final[0],
                        (final[1] + shift) % self._accelerator.height,
                    )
                return (delta, tiles, final, rng)
        return self._compute_layer_direct(state, x, y, num_tiles, weight)

    def _rolled_rows(self, shift: int) -> np.ndarray:
        """Row index that circularly shifts an ``(h, w)`` array by ``shift``.

        Fancy indexing with a cached index array is several times
        cheaper than ``np.roll`` on these small ledgers, and the shift
        runs once per memoized entry state.
        """
        rows = self._roll_rows_cache.get(shift)
        if rows is None:
            height = self._accelerator.height
            rows = (np.arange(height) - shift) % height
            self._roll_rows_cache[shift] = rows
        return rows

    def _compute_layer_direct(
        self, state: Tuple[int, int], x: int, y: int, num_tiles: int, weight: int
    ) -> Tuple[np.ndarray, int, Tuple[int, int], Tuple[int, int]]:
        """Compute one layer's delta from its actual position walk."""
        uu, vv, multiplicity, final = self._policy.layer_grouped(
            x,
            y,
            num_tiles,
            self._accelerator.width,
            self._accelerator.height,
            state,
        )
        delta = grouped_delta(self._accelerator.array, uu, vv, multiplicity, x, y)
        if weight != 1:
            delta *= weight
        return (delta, num_tiles, final, delta_range(delta))

    def _fault_layer_delta(
        self,
        stream: TileStream,
        x: int,
        y: int,
        weight: int,
        state: Tuple[int, int],
    ) -> Tuple[np.ndarray, int, int, Tuple[int, int], Tuple[int, int]]:
        """Fault-aware layer delta: remap placements around dead PEs.

        The policy's nominal stride sequence is unchanged (its state
        machine never sees the faults, just as the hardware controller
        would not); each nominal placement is post-transformed by
        :func:`repro.faults.placement.place_with_faults`, so blocked
        placements shift along the torus and, when necessary, split into
        sub-tiles. Dead PEs receive no work by construction.
        """
        from repro.faults.placement import place_with_faults

        version = self._fault_state.version
        key = (state, x, y, stream.num_tiles, weight, version)
        cached = self._fault_batch_memo.get(key)
        if cached is None:
            uu, vv, multiplicity, final = self._policy.layer_grouped(
                x,
                y,
                stream.num_tiles,
                self._accelerator.width,
                self._accelerator.height,
                state,
            )
            scratch = UsageTracker(self._accelerator.array)
            slots = 0
            for u, v, count in zip(uu, vv, multiplicity):
                piece_key = (int(u), int(v), x, y, version)
                placement = self._placement_memo.get(piece_key)
                if placement is None:
                    placement = place_with_faults(
                        self._fault_state, (int(u), int(v)), x, y
                    )
                    self._placement_memo[piece_key] = placement
                for piece in placement.pieces:
                    scratch.add_space(
                        (piece.u, piece.v),
                        piece.width,
                        piece.height,
                        count=int(count),
                    )
                slots += placement.slots * int(count)
            delta = scratch.snapshot() * weight
            cached = (
                delta,
                scratch.tiles_seen,
                slots,
                final,
                delta_range(delta),
            )
            self._fault_batch_memo[key] = cached
        return cached

    def _record_deaths(self, layer_name: str) -> None:
        """Kill PEs whose usage crossed their endurance budget."""
        from repro.faults.state import DeathEvent

        counts = self._tracker.counts
        alive = ~self._fault_state.dead_mask
        crossed = self._budgets.exceeded(counts) & alive
        if not crossed.any():
            return
        # The fault set changed: every memoized placement is stale.
        self._placement_memo.clear()
        self._fault_batch_memo.clear()
        for v, u in np.argwhere(crossed):
            u, v = int(u), int(v)
            self._fault_state.kill(u, v)
            self._death_events.append(
                DeathEvent(
                    iteration=self._iteration,
                    layer=layer_name,
                    u=u,
                    v=v,
                    usage=int(counts[v, u]),
                )
            )

    def run_network(self, streams: Sequence[TileStream]) -> None:
        """Process every layer of one network iteration, in order."""
        if not streams:
            raise SimulationError("cannot run a network with no tile streams")
        for stream in streams:
            self.run_layer(stream)

    def run_iteration(self, streams: Sequence[TileStream]) -> None:
        """Run one network pass, advancing the iteration counter.

        Drivers that need per-iteration control (e.g. the fault study's
        degradation curve) call this in a loop instead of :meth:`run`;
        death events are stamped with the advanced iteration number.
        """
        self._iteration += 1
        self.run_network(streams)

    def run(
        self,
        streams: Sequence[TileStream],
        iterations: int = 1,
        record_trace: bool = True,
        record_snapshots: bool = False,
        trace_granularity: str = "iteration",
        stop_after_deaths: Optional[int] = None,
        mode: str = "iterative",
    ) -> RunResult:
        """Run ``iterations`` passes of a network and collect results.

        Parameters
        ----------
        streams:
            Per-layer tile streams of one network iteration.
        iterations:
            How many times the whole network executes (the paper's
            "batches"; Fig. 6 uses 1,000).
        record_trace:
            Record imbalance metrics after every iteration.
        record_snapshots:
            Additionally copy the full usage array after every iteration
            (needed by the transient lifetime projection of Fig. 7).
        trace_granularity:
            ``"iteration"`` (default, one trace point per network pass)
            or ``"layer"`` (one per layer — the fine-grained view of a
            Fig. 6-style trace).
        stop_after_deaths:
            Stop early once this many PEs have worn out (requires
            endurance ``budgets``); the returned ``iterations`` then
            reflects the passes actually executed — the
            lifetime-to-N-failures measurement of the fault studies.
        mode:
            ``"iterative"`` (default) walks every iteration; the
            ``"analytic"`` fast path detects the carried-state orbit and
            folds whole periods into batched count additions — bit
            identical results (property-tested) at a fraction of the
            cost. Per-iteration snapshots are served by the fold too
            (read off the cycle prefix table). Requests that the fold
            cannot serve exactly (closed-loop policies, layer-granular
            traces, traced or snapshot-recording runs under endurance
            budgets) fall back to the iterative path automatically;
            :attr:`last_run_mode` reports which path actually ran.
        """
        if iterations < 1:
            raise SimulationError(f"iterations must be >= 1, got {iterations}")
        if trace_granularity not in ("iteration", "layer"):
            raise SimulationError(
                f"trace granularity must be 'iteration' or 'layer', got "
                f"{trace_granularity!r}"
            )
        if mode not in ("iterative", "analytic"):
            raise SimulationError(
                f"mode must be 'iterative' or 'analytic', got {mode!r}"
            )
        if stop_after_deaths is not None:
            if self._budgets is None:
                raise ConfigurationError(
                    "stop_after_deaths needs endurance budgets — without "
                    "them no PE can ever die"
                )
            if stop_after_deaths < 1:
                raise SimulationError(
                    f"stop_after_deaths must be >= 1, got {stop_after_deaths}"
                )
        if not streams:
            raise SimulationError("cannot run a network with no tile streams")
        if mode == "analytic" and self._analytic_supported(
            record_trace, record_snapshots, trace_granularity
        ):
            self._last_run_mode = "analytic"
            if self._budgets is not None:
                return self._run_analytic_budgeted(
                    streams, iterations, stop_after_deaths
                )
            return self._run_analytic(
                streams, iterations, record_trace, record_snapshots
            )
        self._last_run_mode = "iterative"
        return self._run_iterative(
            streams,
            iterations,
            record_trace,
            record_snapshots,
            trace_granularity,
            stop_after_deaths,
        )

    def _run_iterative(
        self,
        streams: Sequence[TileStream],
        iterations: int,
        record_trace: bool,
        record_snapshots: bool,
        trace_granularity: str,
        stop_after_deaths: Optional[int],
    ) -> RunResult:
        """The reference path: one Python pass per iteration."""
        rows: List[Tuple[int, int, int, int]] = []
        layers: Optional[List[str]] = (
            [] if record_trace and trace_granularity == "layer" else None
        )
        snapshots: Optional[List[np.ndarray]] = (
            [] if record_snapshots else None
        )
        executed = 0
        for iteration in range(1, iterations + 1):
            self._iteration = iteration
            if layers is not None:
                for stream in streams:
                    self.run_layer(stream)
                    rows.append(self._trace_row(iteration))
                    layers.append(stream.layer_name)
            else:
                self.run_network(streams)
                if record_trace:
                    rows.append(self._trace_row(iteration))
            if record_snapshots:
                snapshots.append(self._tracker.snapshot())
            executed = iteration
            if (
                stop_after_deaths is not None
                and len(self._death_events) >= stop_after_deaths
            ):
                break
        trace = Trace(*_row_columns(rows), layer=layers) if record_trace else None
        return self._result(executed, trace, snapshots)

    # ------------------------------------------------------------------
    # Analytic fast path
    # ------------------------------------------------------------------
    def _analytic_supported(
        self,
        record_trace: bool,
        record_snapshots: bool,
        trace_granularity: str,
    ) -> bool:
        """Whether the orbit fold can serve this request exactly.

        Closed-loop policies make placement depend on the live ledger
        (no finite state orbit); layer-granular traces need intra-
        iteration arrays the fold never materializes; endurance budgets
        with tracing or snapshots would need exact per-iteration
        metrics across death boundaries — all of these fall back to the
        iterative path. Per-iteration snapshots of budget-free runs are
        served by the fold (tail replay plus cycle prefix table).
        """
        if getattr(self._policy, "needs_feedback", False):
            return False
        if trace_granularity != "iteration":
            return False
        if self._budgets is not None and (record_trace or record_snapshots):
            return False
        return True

    def _shared_records(
        self, shapes: Sequence[Tuple[TileStream, int, int]]
    ) -> Optional[Dict[Tuple[int, int], SharedRecord]]:
        """This process's orbit-record table for ``shapes``, if shareable.

        A record depends only on the policy's configuration, the cycle
        weighting, the accelerator (topology included, via its
        fingerprint), the per-layer ``(x, y, Z, weight)`` shapes and the
        entry state, never on the iteration count or on what the run
        records. Policies without a :attr:`memo_identity` and any run
        with dead PEs bypass the table.
        """
        identity = self._policy.memo_identity
        if identity is None or (
            self._fault_state is not None and self._fault_state.any_dead
        ):
            return None
        key = (
            identity,
            self._cycle_weighted,
            accelerator_fingerprint(self._accelerator),
            tuple(
                (x, y, stream.num_tiles, self._layer_weight(stream))
                for stream, x, y in shapes
            ),
        )
        return _ORBIT_RECORDS.get_or_build(key, dict)

    def _iteration_delta(
        self,
        shapes: Sequence[Tuple[TileStream, int, int]],
        entry: Tuple[int, int],
        records: Optional[Dict[Tuple[int, int], SharedRecord]],
    ) -> IterationDelta:
        """Aggregate one whole network iteration entered at ``entry``.

        ``shapes`` carries the streams with their pre-validated space
        shapes. Runs through the same memoized :meth:`_layer_delta`
        helper as the iterative path, so both paths populate identical
        memo entries. With a shared ``records`` table, a recorded entry
        state is served from it: its ``_batch_memo`` entries are copied
        in, so the engine's memo ends up exactly as a cold walk leaves
        it; a new record is frozen read-only and published there.
        """
        if records is not None:
            shared = records.get(entry)
            if shared is not None:
                record, entries = shared
                self._batch_memo.update(entries)
                return record
        total = np.zeros(self._accelerator.array.shape, dtype=np.int64)
        tiles = 0
        slots = 0
        state = entry
        touched = []
        for stream, x, y in shapes:
            touched.append(
                (state, x, y, stream.num_tiles, self._layer_weight(stream))
            )
            delta, layer_tiles, layer_slots, state, _ = self._layer_delta(
                stream, x, y, state
            )
            total += delta
            tiles += layer_tiles
            slots += layer_slots
        record = IterationDelta(
            entry_state=entry,
            delta=total,
            tiles=tiles,
            slots=slots,
            exit_state=state,
            delta_range=delta_range(total),
        )
        if records is not None:
            total.setflags(write=False)
            records.setdefault(entry, (record, self._memo_entries(touched)))
        return record

    def _memo_entries(
        self, touched: List[tuple]
    ) -> Tuple[Tuple[tuple, tuple], ...]:
        """The ``_batch_memo`` entries that walking ``touched`` leaves.

        Each touched layer key, plus its canonical-entry key: a key is
        computed via its canonical entry (:meth:`_compute_layer`), and a
        canonical entry is its own canonical. The delta arrays are
        frozen, since other engines will share them.
        """
        keys = set(touched)
        for state, *shape in touched:
            symmetry = self._policy.canonical_entry(state)
            if symmetry is not None:
                keys.add((symmetry[0], *shape))
        entries = tuple((key, self._batch_memo[key]) for key in keys)
        for _, (delta, *_) in entries:
            delta.setflags(write=False)
        return entries

    def _run_analytic(
        self,
        streams: Sequence[TileStream],
        iterations: int,
        record_trace: bool,
        record_snapshots: bool,
    ) -> RunResult:
        """Fold the carried-state orbit: tail + whole periods + remainder.

        The carried ``(u, v)`` state walks a deterministic map on a
        finite space, so at most ``w * h`` distinct iteration deltas
        exist. Each distinct entry state is computed once per process
        (later runs of the same orbit reuse its shared records, see
        :meth:`_shared_records`) and applied to the live ledger; once
        the orbit closes, all remaining iterations fold into
        ``q x (cycle delta) + prefix(remainder)`` — two array additions
        — and the remainder's trace columns (when requested) are
        computed whole: extrema from the vectorized affine
        :func:`repro.core.analytic.cycle_trace_extrema`, tiles as
        ``base + (m // L) x T + prefix_tiles[m % L]``. Snapshots of the
        remainder are ``base + (m // L) x C + prefix[m % L]``.
        """
        per_iter_nominal = sum(stream.num_tiles for stream in streams)
        shapes = [
            (stream, *self._validate_stream(stream)) for stream in streams
        ]
        records = self._shared_records(shapes)
        table: Dict[Tuple[int, int], IterationDelta] = {}
        order: List[Tuple[int, int]] = []
        state = self._state
        while state not in table and len(order) < iterations:
            record = self._iteration_delta(shapes, state, records)
            table[state] = record
            order.append(state)
            state = record.exit_state

        rows: List[Tuple[int, int, int, int]] = []
        snapshots: Optional[List[np.ndarray]] = (
            [] if record_snapshots else None
        )
        for index, entry in enumerate(order, start=1):
            record = table[entry]
            self._iteration = index
            self._tracker.add_delta(
                record.delta, record.tiles, delta_range=record.delta_range
            )
            self._state = record.exit_state
            self._nominal_tiles += per_iter_nominal
            self._executed_slots += record.slots
            if record_trace:
                rows.append(self._trace_row(index))
            if snapshots is not None:
                snapshots.append(self._tracker.snapshot())

        executed = len(order)
        columns = _row_columns(rows)
        remaining = iterations - executed
        if remaining > 0:
            start = order.index(state)
            cycle_table = build_cycle_table([table[s] for s in order[start:]])
            if record_trace:
                maxima, minima = cycle_trace_extrema(
                    self._tracker.counts, cycle_table, remaining
                )
                m = np.arange(1, remaining + 1, dtype=np.int64)
                whole, part = np.divmod(m, cycle_table.length)
                tiles = (
                    self._tracker.tiles_seen
                    + whole * cycle_table.total_tiles
                    + cycle_table.prefix_tiles[part]
                )
                columns = np.hstack(
                    (columns, np.stack((executed + m, tiles, maxima, minima)))
                )
            if snapshots is not None:
                base = self._tracker.snapshot()
                for m in range(1, remaining + 1):
                    whole, part = divmod(m, cycle_table.length)
                    snapshots.append(
                        base
                        + whole * cycle_table.total
                        + cycle_table.prefix[part]
                    )
            delta, tiles, slots = fold_cycles(cycle_table, remaining)
            self._tracker.add_delta(delta, tiles)
            self._executed_slots += slots
            self._nominal_tiles += remaining * per_iter_nominal
            self._state = order[start + (remaining % cycle_table.length)]
            executed = iterations
            self._iteration = iterations
        trace = Trace(*columns) if record_trace else None
        return self._result(executed, trace, snapshots)

    def _run_analytic_budgeted(
        self,
        streams: Sequence[TileStream],
        iterations: int,
        stop_after_deaths: Optional[int],
    ) -> RunResult:
        """Orbit folding under endurance budgets (untraced runs only).

        Iterations run one-by-one through the exact layer/death loop
        while the orbit history builds; whenever the entry state repeats
        the suffix since its latest occurrence is one period, and
        :func:`repro.core.analytic.safe_cycle_jumps` bounds how many
        whole periods can be applied at once without crossing any live
        PE's budget (the excursion term covers intra-cycle overshoot).
        Any death bumps the fault version and invalidates the history,
        so death timing, order, and counts stay bit-identical to the
        iterative path.
        """
        per_iter_nominal = sum(stream.num_tiles for stream in streams)
        budgets = self._budgets.budgets
        seen: Dict[Tuple[int, int], int] = {}
        history: List[IterationDelta] = []
        executed = 0
        while executed < iterations:
            if (
                stop_after_deaths is not None
                and len(self._death_events) >= stop_after_deaths
            ):
                break
            entry = self._state
            index = seen.get(entry)
            if index is not None:
                cycle_table = build_cycle_table(history[index:])
                max_cycles = (iterations - executed) // cycle_table.length
                jumps = safe_cycle_jumps(
                    self._tracker.counts,
                    cycle_table,
                    budgets,
                    ~self._fault_state.dead_mask,
                    max_cycles,
                )
                if jumps > 0:
                    self._tracker.add_delta(
                        jumps * cycle_table.total,
                        jumps * cycle_table.total_tiles,
                    )
                    self._executed_slots += jumps * cycle_table.total_slots
                    self._nominal_tiles += (
                        jumps * cycle_table.length * per_iter_nominal
                    )
                    executed += jumps * cycle_table.length
                    self._iteration = executed
                    continue
            executed += 1
            self._iteration = executed
            version_before = self._fault_state.version
            counts_before = self._tracker.snapshot()
            tiles_before = self._tracker.tiles_seen
            slots_before = self._executed_slots
            self.run_network(streams)
            if self._fault_state.version != version_before:
                # A death changed the placement map: every recorded
                # iteration delta is stale.
                seen.clear()
                history.clear()
                continue
            delta = self._tracker.counts - counts_before
            seen[entry] = len(history)
            history.append(
                IterationDelta(
                    entry_state=entry,
                    delta=delta,
                    tiles=self._tracker.tiles_seen - tiles_before,
                    slots=self._executed_slots - slots_before,
                    exit_state=self._state,
                    delta_range=delta_range(delta),
                )
            )
        return self._result(executed, None, None)

    def _trace_row(self, iteration: int) -> Tuple[int, int, int, int]:
        """``(iteration, tiles_seen, max, min)`` of the live ledger."""
        high, low = self._tracker.extrema()
        return (iteration, self._tracker.tiles_seen, high, low)

    def _result(
        self,
        executed: int,
        trace: Optional[Trace],
        snapshots: Optional[List[np.ndarray]],
    ) -> RunResult:
        """Assemble the :class:`RunResult` of a finished run."""
        dead_pes: Tuple[Tuple[int, int], ...] = ()
        if self._fault_state is not None:
            dead_pes = tuple(self._fault_state.dead_coords())
        return RunResult(
            policy_name=self._policy.name,
            accelerator_name=self._accelerator.name,
            iterations=executed,
            counts=self._tracker.snapshot(),
            trace=trace if trace is not None else Trace(),
            snapshots=tuple(snapshots) if snapshots is not None else None,
            final_state=self._state,
            death_events=self.death_events,
            dead_pes=dead_pes,
            degradation=self.degradation,
        )


def _row_columns(rows: List[Tuple[int, int, int, int]]) -> np.ndarray:
    """``(4, n)`` int64 columns of ``_trace_row`` tuples."""
    return np.array(rows, dtype=np.int64).reshape(-1, 4).T


def simulate_policy(
    accelerator: Accelerator,
    streams: Sequence[TileStream],
    policy: WearLevelingPolicy,
    iterations: int = 1,
    record_snapshots: bool = False,
    fault_state: Optional["FaultState"] = None,
    budgets: Optional["EnduranceBudgets"] = None,
    mode: str = "iterative",
) -> RunResult:
    """One-shot convenience wrapper: fresh engine, single run."""
    engine = WearLevelingEngine(
        accelerator, policy, fault_state=fault_state, budgets=budgets
    )
    return engine.run(
        streams,
        iterations=iterations,
        record_snapshots=record_snapshots,
        mode=mode,
    )
