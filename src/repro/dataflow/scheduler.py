"""Layer scheduling: search the mapping space, return a :class:`Schedule`.

The paper feeds its wear-leveling study with per-layer utilization spaces
"obtained from NeuroSpector [15] for energy-optimal execution". This
module reproduces that role as the orchestration layer of a three-part
subsystem:

* :mod:`repro.dataflow.space` — the declarative mapping space (spatial
  skeletons x divisor-lattice temporal factorizations, with legality
  predicates);
* :mod:`repro.dataflow.evaluate` — multi-objective pricing (energy,
  latency, EDP, and the wear profile of the mapping's utilization-space
  walk);
* :mod:`repro.dataflow.search` — greedy / exhaustive / beam engines
  over that space, returning best points and Pareto frontiers.

The :class:`Scheduler` here picks the search mode from
:class:`SchedulerOptions`, caches results (in-process and on disk), and
packages the winning mapping as the :class:`Schedule` artifact the
wear-leveling engine consumes. ``search="greedy"`` reproduces the
pre-refactor scheduler byte-identically (golden-tested).

Spatial factors are restricted to exact divisors of the loop extents by
default — the factorization discipline of NeuroSpector/Timeloop-class
mappers — which is precisely what produces the dimensional mismatch
between utilization spaces and the 14x12 array that motivates the paper
(Fig. 2: 55.8% average PE utilization).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.arch.accelerator import Accelerator
from repro.dataflow.cycles import CycleModel
from repro.dataflow.energy import EnergyBreakdown, EnergyModel
from repro.dataflow.evaluate import (
    OBJECTIVES,
    WEAR_OBJECTIVES,
    MappingEvaluator,
    objective_score,
)
from repro.dataflow.layer import LOOP_DIMS, LayerShape
from repro.dataflow.mapping import Mapping, SpatialAssignment
from repro.dataflow.space import (
    DATAFLOW_PRESETS,
    divisors,
    grow_temporal_greedy,
    iter_spatial_skeletons,
    layer_signature,
)
from repro.errors import MappingError

#: Selectable search modes (see :mod:`repro.dataflow.search`).
SEARCH_MODES = ("greedy", "exhaustive", "beam")

__all__ = [
    "DATAFLOW_PRESETS",
    "OBJECTIVES",
    "SEARCH_MODES",
    "Schedule",
    "Scheduler",
    "SchedulerOptions",
    "clear_schedule_cache",
    "divisors",
    "save_schedule_cache",
]


@dataclass(frozen=True)
class SchedulerOptions:
    """Knobs of the mapping search.

    Parameters
    ----------
    dataflow:
        Name of a preset in :data:`DATAFLOW_PRESETS` selecting which
        dimension pairs may be unrolled spatially.
    objective:
        One of :data:`~repro.dataflow.evaluate.OBJECTIVES`:
        ``"energy"`` (the paper's setup), ``"latency"`` (least-cycle),
        ``"edp"`` (energy-delay product), ``"wear"`` (flattest per-PE
        usage profile), or ``"energy-wear"`` (energy x peak-to-mean
        composite).
    allow_partial_spaces:
        When true, also consider spatial factors that cap at the array
        dimension without dividing the loop extent (edge tiles then run
        with a partially filled utilization space, which the usage model
        conservatively counts as full). Default false, matching
        divisor-based mappers.
    composite_spatial:
        When true, the search also co-maps a *second* loop dimension onto
        each array axis (e.g. ``K x C`` along the columns), as
        Timeloop-class mappers allow. Enlarges the search; off by
        default to match the paper's single-dimension-per-axis spaces.
    temporal_priority:
        Order in which per-PE temporal factors are greedily grown.
    search:
        ``"greedy"`` (the legacy single-point walk, the default),
        ``"exhaustive"`` (every legal divisor-lattice point), or
        ``"beam"`` (full factorization of the ``beam_width`` best
        skeletons).
    beam_width:
        Surviving spatial skeletons in ``search="beam"``.
    """

    dataflow: str = "flexible"
    objective: str = "energy"
    allow_partial_spaces: bool = False
    composite_spatial: bool = False
    temporal_priority: Tuple[str, ...] = ("C", "Q", "P", "K")
    search: str = "greedy"
    beam_width: int = 8

    def __post_init__(self) -> None:
        if self.dataflow not in DATAFLOW_PRESETS:
            raise MappingError(
                f"unknown dataflow preset {self.dataflow!r}; choose from "
                f"{sorted(DATAFLOW_PRESETS)}"
            )
        if self.objective not in OBJECTIVES:
            raise MappingError(
                f"unknown objective {self.objective!r}; choose from {OBJECTIVES}"
            )
        for dim in self.temporal_priority:
            if dim not in LOOP_DIMS:
                raise MappingError(f"unknown dimension {dim!r} in temporal priority")
        if self.search not in SEARCH_MODES:
            raise MappingError(
                f"unknown search mode {self.search!r}; choose from {SEARCH_MODES}"
            )
        if self.beam_width < 1:
            raise MappingError(
                f"beam width must be >= 1, got {self.beam_width}"
            )

    def score(
        self,
        energy_pj: float,
        cycles: int,
        active_pes: int,
        peak_ppm: Optional[float] = None,
    ) -> Tuple:
        """Comparable search score (lower is better) under this objective."""
        return objective_score(
            self.objective, energy_pj, cycles, active_pes, peak_ppm=peak_ppm
        )

    @property
    def spatial_pairs(self) -> Tuple[Tuple[str, str], ...]:
        """The spatial dimension pairs this option set explores."""
        return DATAFLOW_PRESETS[self.dataflow]


@dataclass(frozen=True)
class Schedule:
    """The search-optimal execution plan of one layer.

    This is the artifact the wear-leveling engine consumes: the
    utilization-space shape ``(x, y)`` and the data-tile count ``Z``,
    plus the diagnostics (energy, cycles, utilization) the evaluation
    figures report.
    """

    layer: LayerShape
    mapping: Mapping
    energy: EnergyBreakdown
    cycles: int
    array_width: int
    array_height: int

    @property
    def space_shape(self) -> Tuple[int, int]:
        """Utilization-space shape ``(x, y)``."""
        return self.mapping.space_shape

    @property
    def num_tiles(self) -> int:
        """The paper's ``Z`` for this layer."""
        return self.mapping.num_tiles

    @property
    def utilization(self) -> float:
        """Fraction of the PE array one tile activates: ``x*y / (w*h)``."""
        x, y = self.space_shape
        return (x * y) / (self.array_width * self.array_height)

    def describe(self) -> str:
        """One-line summary of the schedule."""
        x, y = self.space_shape
        return (
            f"{self.layer.name}: space {x}x{y} Z={self.num_tiles} "
            f"util={self.utilization:.1%} energy={self.energy.total_uj:.1f}uJ"
        )


# Module-level schedule cache: mapping search is deterministic, so results
# can be shared across engines, benches, and figure drivers. Keys use the
# layer's dimensional signature (not its name) so that, e.g., the 32
# identical decoder blocks of Llama 2 search the mapping space once.
_CACHE: Dict[Tuple, Schedule] = {}

#: On-disk schedule cache. Searches are deterministic but take ~100 ms per
#: distinct layer shape, so test/bench processes share results through a
#: JSON file. Disable by setting the environment variable
#: ``REPRO_SCHEDULE_CACHE=off``; relocate it with ``REPRO_CACHE_DIR``.
_DISK_CACHE: Optional[Dict[str, dict]] = None
#: Entries this process computed and has not saved yet.
_DISK_CACHE_DIRTY: Dict[str, dict] = {}


def _disk_cache_path():
    import os
    from pathlib import Path

    if os.environ.get("REPRO_SCHEDULE_CACHE", "").lower() == "off":
        return None
    root = os.environ.get("REPRO_CACHE_DIR")
    if root:
        return Path(root) / "schedules.json"
    return Path.home() / ".cache" / "repro" / "schedules.json"


def _load_disk_cache() -> Dict[str, dict]:
    global _DISK_CACHE
    if _DISK_CACHE is None:
        import atexit

        _DISK_CACHE = {}
        atexit.register(save_schedule_cache)
        path = _disk_cache_path()
        if path is not None and path.exists():
            import json

            try:
                _DISK_CACHE = json.loads(path.read_text())
            except (OSError, ValueError):
                _DISK_CACHE = {}
    return _DISK_CACHE


def save_schedule_cache() -> None:
    """Flush newly computed schedules to the on-disk cache (best effort).

    Only the entries computed since the last flush are written, merged
    into whatever is on disk, so concurrent worker processes (a parallel
    Fig. 8 sweep scheduling different networks) accumulate entries
    instead of overwriting each other's. Pool workers call this at the
    end of every task, since they exit without running ``atexit`` hooks.
    """
    if not _DISK_CACHE_DIRTY:
        return
    path = _disk_cache_path()
    if path is None:
        return
    import json

    try:
        merged: Dict[str, dict] = {}
        if path.exists():
            try:
                merged = json.loads(path.read_text())
            except (OSError, ValueError):
                merged = {}
        merged.update(_DISK_CACHE_DIRTY)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Atomic write: a worker killed mid-flush (chaos crash, OOM)
        # must never leave a torn JSON file that silently drops every
        # schedule cached so far.
        from repro.resilience import atomic_write_text

        atomic_write_text(path, json.dumps(merged))
        _DISK_CACHE_DIRTY.clear()
    except OSError:
        pass


def clear_schedule_cache() -> None:
    """Drop all in-memory cached schedules (mainly for tests)."""
    _CACHE.clear()


class Scheduler:
    """Searches the mapping space of layers on one accelerator."""

    def __init__(
        self, accelerator: Accelerator, options: SchedulerOptions = SchedulerOptions()
    ) -> None:
        self._accelerator = accelerator
        self._options = options
        self._energy_model = EnergyModel(accelerator)
        self._cycle_model = CycleModel(accelerator)

    @property
    def accelerator(self) -> Accelerator:
        """The accelerator layers are scheduled onto."""
        return self._accelerator

    @property
    def options(self) -> SchedulerOptions:
        """The active search options."""
        return self._options

    # ------------------------------------------------------------------
    # Candidate generation (delegated to repro.dataflow.space)
    # ------------------------------------------------------------------
    def _candidate_mappings(self, layer: LayerShape) -> Iterable[Mapping]:
        """Yield every buffer-legal greedily grown candidate of a layer.

        One candidate per spatial skeleton, grown with the legacy greedy
        temporal walk — the ``search="greedy"`` candidate set, in the
        exact enumeration order the pre-refactor goldens pin.
        """
        for base in iter_spatial_skeletons(self._accelerator, self._options, layer):
            try:
                yield grow_temporal_greedy(self._accelerator, self._options, base)
            except MappingError:
                continue

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def _signature(self, layer: LayerShape) -> Tuple:
        """Everything but the layer name: identical shapes share schedules."""
        return layer_signature(layer)

    def _cache_key(self, layer: LayerShape) -> Tuple:
        array = self._accelerator.array
        return (
            array.width,
            array.height,
            array.pe,
            self._accelerator.glb,
            self._accelerator.dram,
            self._options,
            self._signature(layer),
        )

    def _retarget(self, schedule: Schedule, layer: LayerShape) -> Schedule:
        """Rebind a cached schedule to a same-shaped layer instance."""
        if schedule.layer == layer:
            return schedule
        from dataclasses import replace

        mapping = Mapping(
            layer=layer,
            spatial_x=schedule.mapping.spatial_x,
            spatial_y=schedule.mapping.spatial_y,
            pe_temporal=dict(schedule.mapping.pe_temporal),
            glb_temporal=dict(schedule.mapping.glb_temporal),
            spatial_x2=schedule.mapping.spatial_x2,
            spatial_y2=schedule.mapping.spatial_y2,
        )
        return replace(schedule, layer=layer, mapping=mapping)

    def _build_schedule(self, layer: LayerShape, mapping: Mapping) -> Schedule:
        return Schedule(
            layer=layer,
            mapping=mapping,
            energy=self._energy_model.evaluate(mapping),
            cycles=self._cycle_model.layer_cycles(mapping),
            array_width=self._accelerator.width,
            array_height=self._accelerator.height,
        )

    def _disk_key(self, layer: LayerShape) -> str:
        # Content-addressed (repro.runtime.fingerprint) rather than
        # repr-based: stable across processes and Python versions, and
        # immune to dataclass repr-format drift.
        from repro.runtime.fingerprint import content_hash

        return content_hash("schedule", self._cache_key(layer))

    def _from_disk(self, layer: LayerShape) -> Optional[Schedule]:
        entry = _load_disk_cache().get(self._disk_key(layer))
        if entry is None:
            return None
        def secondary(key_dim, key_factor):
            if entry.get(key_dim) is None:
                return None
            return SpatialAssignment(entry[key_dim], int(entry[key_factor]))

        try:
            mapping = Mapping(
                layer=layer,
                spatial_x=SpatialAssignment(entry["dim_x"], int(entry["fx"])),
                spatial_y=SpatialAssignment(entry["dim_y"], int(entry["fy"])),
                pe_temporal={d: int(f) for d, f in entry["pe_temporal"].items()},
                glb_temporal={d: int(f) for d, f in entry["glb_temporal"].items()},
                spatial_x2=secondary("dim_x2", "fx2"),
                spatial_y2=secondary("dim_y2", "fy2"),
            )
        except (KeyError, TypeError, MappingError):
            return None
        return self._build_schedule(layer, mapping)

    def _to_disk(self, layer: LayerShape, schedule: Schedule) -> None:
        mapping = schedule.mapping
        key = self._disk_key(layer)
        _load_disk_cache()[key] = _DISK_CACHE_DIRTY[key] = {
            "dim_x": mapping.spatial_x.dim,
            "fx": mapping.spatial_x.factor,
            "dim_y": mapping.spatial_y.dim,
            "fy": mapping.spatial_y.factor,
            "pe_temporal": dict(mapping.pe_temporal),
            "glb_temporal": dict(mapping.glb_temporal),
            "dim_x2": mapping.spatial_x2.dim if mapping.spatial_x2 else None,
            "fx2": mapping.spatial_x2.factor if mapping.spatial_x2 else None,
            "dim_y2": mapping.spatial_y2.dim if mapping.spatial_y2 else None,
            "fy2": mapping.spatial_y2.factor if mapping.spatial_y2 else None,
        }

    def _search_best(self, layer: LayerShape) -> Schedule:
        """Delegate to the search engine (exhaustive / beam modes)."""
        from repro.dataflow.search import search_layer

        result = search_layer(self._accelerator, layer, self._options)
        return self._build_schedule(layer, result.best.mapping)

    def _greedy_best(self, layer: LayerShape) -> Schedule:
        """The legacy greedy walk: one grown candidate per skeleton.

        Byte-identical to the pre-refactor scheduler for the legacy
        objectives; wear objectives additionally price each candidate's
        wear profile (memoized per utilization-space geometry).
        """
        wear_evaluator: Optional[MappingEvaluator] = None
        if self._options.objective in WEAR_OBJECTIVES:
            wear_evaluator = MappingEvaluator(self._accelerator)
        best: Optional[Tuple[Tuple, Schedule]] = None
        for mapping in self._candidate_mappings(layer):
            energy = self._energy_model.evaluate(mapping)
            cycles = self._cycle_model.layer_cycles(mapping)
            x, y = mapping.space_shape
            peak_ppm = (
                wear_evaluator.wear_of(mapping).peak_ppm
                if wear_evaluator is not None
                else None
            )
            score = self._options.score(
                energy.total_pj, cycles, x * y, peak_ppm=peak_ppm
            )
            if best is None or score < best[0]:
                schedule = Schedule(
                    layer=layer,
                    mapping=mapping,
                    energy=energy,
                    cycles=cycles,
                    array_width=self._accelerator.width,
                    array_height=self._accelerator.height,
                )
                best = (score, schedule)
        if best is None:
            raise MappingError(
                f"no legal mapping found for layer {layer.name!r} on "
                f"{self._accelerator.name}"
            )
        return best[1]

    def schedule_layer(self, layer: LayerShape) -> Schedule:
        """Find the search-optimal schedule of one layer.

        Raises :class:`MappingError` if no candidate mapping fits the
        accelerator's buffers.
        """
        key = self._cache_key(layer)
        cached = _CACHE.get(key)
        if cached is not None:
            return self._retarget(cached, layer)

        from_disk = self._from_disk(layer)
        if from_disk is not None:
            _CACHE[key] = from_disk
            return from_disk

        if self._options.search == "greedy":
            schedule = self._greedy_best(layer)
        else:
            schedule = self._search_best(layer)
        _CACHE[key] = schedule
        self._to_disk(layer, schedule)
        return schedule

    def schedule_network(self, layers: Sequence[LayerShape]) -> List[Schedule]:
        """Schedule every layer of a network in order."""
        schedules = [self.schedule_layer(layer) for layer in layers]
        save_schedule_cache()
        return schedules

    def schedule_layer_pareto(
        self, layer: LayerShape, max_points: int = 16
    ) -> List[Schedule]:
        """The energy/latency Pareto frontier of one layer's mappings.

        Returns non-dominated schedules sorted by energy ascending (so
        latency descends along the list), truncated to ``max_points`` by
        thinning interior points. Useful for design-space exploration
        where the single-objective optimum is not the whole story.

        Candidates come from the greedy walk (one per skeleton); the
        energy/wear frontier of the *full* space is
        :func:`repro.dataflow.search.search_layer`'s ``pareto``.

        Not cached: the frontier is an exploration tool, not part of the
        reproduction pipeline.
        """
        if max_points < 1:
            raise MappingError(f"max_points must be >= 1, got {max_points}")
        candidates: List[Schedule] = []
        for mapping in self._candidate_mappings(layer):
            energy = self._energy_model.evaluate(mapping)
            cycles = self._cycle_model.layer_cycles(mapping)
            candidates.append(
                Schedule(
                    layer=layer,
                    mapping=mapping,
                    energy=energy,
                    cycles=cycles,
                    array_width=self._accelerator.width,
                    array_height=self._accelerator.height,
                )
            )
        if not candidates:
            raise MappingError(
                f"no legal mapping found for layer {layer.name!r} on "
                f"{self._accelerator.name}"
            )
        candidates.sort(key=lambda s: (s.energy.total_pj, s.cycles))
        frontier: List[Schedule] = []
        best_cycles = None
        for schedule in candidates:
            if best_cycles is None or schedule.cycles < best_cycles:
                frontier.append(schedule)
                best_cycles = schedule.cycles
        if len(frontier) > max_points:
            # Keep both endpoints, thin the interior evenly.
            step = (len(frontier) - 1) / (max_points - 1)
            indices = sorted({round(i * step) for i in range(max_points)})
            frontier = [frontier[i] for i in indices]
        return frontier
