"""Mappings: how one layer's loop nest is folded onto the accelerator.

A :class:`Mapping` has three levels, mirroring the memory hierarchy:

* **Spatial assignment** — one loop dimension is unrolled across the PE
  array's horizontal axis with factor ``fx`` and another across the
  vertical axis with factor ``fy``. The rectangle ``fx x fy`` is exactly
  the paper's *utilization space*: the set of PEs a data tile activates.
* **PE-temporal factors** — how much of each dimension one PE covers
  sequentially within one array pass, bounded by its local buffers.
* **GLB-temporal factors** — how many array passes one *data tile*
  (the unit fetched from DRAM into the GLB) bundles, bounded by GLB
  capacity.

The paper's ``Z`` — the number of data tiles, i.e. utilization-space
allocations — is the GLB-level trip count ``prod(ceil(size_d /
tile_extent_d))``. One data tile keeps the same utilization space for
all of its array passes (a tile is processed where it was scattered),
which is why ResNet's C5 layer has Z = 32 rather than thousands
(paper Fig. 5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Mapping as TMapping, Optional, Tuple

from repro.dataflow.layer import LOOP_DIMS, WORD_BYTES, LayerKind, LayerShape
from repro.errors import MappingError


@dataclass(frozen=True)
class SpatialAssignment:
    """One loop dimension unrolled across one array axis."""

    dim: str
    factor: int

    def __post_init__(self) -> None:
        if self.dim not in LOOP_DIMS:
            raise MappingError(f"unknown loop dimension {self.dim!r}")
        if self.factor < 1:
            raise MappingError(
                f"spatial factor for {self.dim} must be >= 1, got {self.factor}"
            )


def _validate_factors(factors: TMapping[str, int], label: str) -> None:
    for dim, factor in factors.items():
        if dim not in LOOP_DIMS:
            raise MappingError(f"unknown {label} dimension {dim!r}")
        if factor < 1:
            raise MappingError(
                f"{label} factor for {dim} must be >= 1, got {factor}"
            )


@dataclass(frozen=True)
class Mapping:
    """A complete mapping of one layer onto one accelerator.

    Parameters
    ----------
    layer:
        The layer being mapped.
    spatial_x, spatial_y:
        Spatial unrolling along the array's horizontal / vertical axes.
        They must name *different* loop dimensions.
    pe_temporal:
        Per-PE sequential factors keyed by dimension letter; omitted
        dimensions default to 1.
    glb_temporal:
        Array passes bundled into one data tile, per dimension; omitted
        dimensions default to 1.
    """

    layer: LayerShape
    spatial_x: SpatialAssignment
    spatial_y: SpatialAssignment
    pe_temporal: TMapping[str, int] = field(default_factory=dict)
    glb_temporal: TMapping[str, int] = field(default_factory=dict)
    #: Optional secondary spatial assignments: real mappers co-map two
    #: loop dimensions onto one array axis (e.g. K x C along the
    #: columns). The axis extent is the product of its factors.
    spatial_x2: Optional[SpatialAssignment] = None
    spatial_y2: Optional[SpatialAssignment] = None

    def _spatial_assignments(self) -> Tuple[SpatialAssignment, ...]:
        extras = tuple(
            assignment
            for assignment in (self.spatial_x2, self.spatial_y2)
            if assignment is not None
        )
        return (self.spatial_x, self.spatial_y) + extras

    def __post_init__(self) -> None:
        assignments = self._spatial_assignments()
        dims = [assignment.dim for assignment in assignments]
        if len(set(dims)) != len(dims):
            raise MappingError(
                f"spatial assignments must use distinct dimensions, got {dims}"
            )
        sizes = self.layer.dim_sizes()
        for assignment in assignments:
            if assignment.factor > sizes[assignment.dim]:
                raise MappingError(
                    f"spatial factor {assignment.factor} exceeds extent "
                    f"{sizes[assignment.dim]} of dimension {assignment.dim}"
                )
        _validate_factors(self.pe_temporal, "PE-temporal")
        _validate_factors(self.glb_temporal, "GLB-temporal")
        for dim in LOOP_DIMS:
            if self.tile_extent(dim) > sizes[dim]:
                raise MappingError(
                    f"tile extent of {dim} "
                    f"({self.tile_extent(dim)}) exceeds layer extent {sizes[dim]}"
                )

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    @property
    def space_shape(self) -> Tuple[int, int]:
        """Utilization-space shape ``(x, y)`` in PEs.

        Each axis extent is the product of its (up to two) spatial
        factors.
        """
        x = self.spatial_x.factor
        if self.spatial_x2 is not None:
            x *= self.spatial_x2.factor
        y = self.spatial_y.factor
        if self.spatial_y2 is not None:
            y *= self.spatial_y2.factor
        return (x, y)

    def spatial_factor(self, dim: str) -> int:
        """Spatial unrolling factor of a dimension (1 if not spatial)."""
        # The mapping-space walk calls this millions of times: test the
        # fields directly rather than building the assignment tuple.
        for assignment in (
            self.spatial_x,
            self.spatial_y,
            self.spatial_x2,
            self.spatial_y2,
        ):
            if assignment is not None and dim == assignment.dim:
                return assignment.factor
        return 1

    def pe_temporal_factor(self, dim: str) -> int:
        """Per-PE sequential factor of a dimension (defaults to 1)."""
        return int(self.pe_temporal.get(dim, 1))

    def glb_temporal_factor(self, dim: str) -> int:
        """Array passes per data tile along a dimension (defaults to 1)."""
        return int(self.glb_temporal.get(dim, 1))

    def pass_extent(self, dim: str) -> int:
        """How much of ``dim`` one PE-array pass covers."""
        return self.spatial_factor(dim) * self.pe_temporal_factor(dim)

    def tile_extent(self, dim: str) -> int:
        """How much of ``dim`` one data tile (GLB tile) covers."""
        return (
            self.spatial_factor(dim)
            * self.pe_temporal_factor(dim)
            * self.glb_temporal_factor(dim)
        )

    def pass_extents(self) -> Dict[str, int]:
        """Pass extents for every loop dimension."""
        return {dim: self.pass_extent(dim) for dim in LOOP_DIMS}

    def tile_extents(self) -> Dict[str, int]:
        """Tile extents for every loop dimension."""
        return {dim: self.tile_extent(dim) for dim in LOOP_DIMS}

    def trips(self, dim: str) -> int:
        """GLB-level trip count of a dimension: ``ceil(size / tile)``."""
        return math.ceil(self.layer.dim_sizes()[dim] / self.tile_extent(dim))

    def pass_trips(self, dim: str) -> int:
        """Array-pass trip count of a dimension: ``ceil(size / pass)``."""
        return math.ceil(self.layer.dim_sizes()[dim] / self.pass_extent(dim))

    @property
    def num_tiles(self) -> int:
        """The paper's ``Z``: total data tiles (utilization-space uses)."""
        z = 1
        for dim in LOOP_DIMS:
            z *= self.trips(dim)
        return z

    @property
    def num_passes(self) -> int:
        """Total PE-array passes over the whole layer."""
        passes = 1
        for dim in LOOP_DIMS:
            passes *= self.pass_trips(dim)
        return passes

    @property
    def passes_per_tile(self) -> int:
        """Array passes bundled into one data tile."""
        passes = 1
        for dim in LOOP_DIMS:
            passes *= self.glb_temporal_factor(dim)
        return passes

    @property
    def active_pes(self) -> int:
        """PEs activated by one tile: ``x * y``."""
        x, y = self.space_shape
        return x * y

    # ------------------------------------------------------------------
    # Working sets (shared arithmetic)
    # ------------------------------------------------------------------
    def _input_channels(self, extent_of: TMapping[str, int]) -> int:
        """Channel extent of the input tensor for a working set."""
        if self.layer.kind is LayerKind.DEPTHWISE:
            return extent_of["K"]
        return extent_of["C"]

    def _input_patch_words(self, extent_of: TMapping[str, int]) -> int:
        """Input words needed to produce a given output extent."""
        stride = self.layer.stride
        rows = (extent_of["P"] - 1) * stride + self.layer.R
        cols = (extent_of["Q"] - 1) * stride + self.layer.S
        return self._input_channels(extent_of) * rows * cols

    def _weight_words(self, extent_of: TMapping[str, int]) -> int:
        if self.layer.kind is LayerKind.DEPTHWISE:
            return extent_of["K"] * extent_of["R"] * extent_of["S"]
        return extent_of["K"] * extent_of["C"] * extent_of["R"] * extent_of["S"]

    def _output_words(self, extent_of: TMapping[str, int]) -> int:
        return extent_of["K"] * extent_of["P"] * extent_of["Q"]

    def _macs(self, extent_of: TMapping[str, int]) -> int:
        product = 1
        for dim in LOOP_DIMS:
            product *= extent_of[dim]
        return product

    # ------------------------------------------------------------------
    # Per data tile (GLB granularity — the wear-leveling unit)
    # ------------------------------------------------------------------
    def tile_input_words(self) -> int:
        """Input words fetched from DRAM for one data tile."""
        return self._input_patch_words(self.tile_extents())

    def tile_weight_words(self) -> int:
        """Weight words fetched from DRAM for one data tile."""
        return self._weight_words(self.tile_extents())

    def tile_output_words(self) -> int:
        """Output words produced by one data tile."""
        return self._output_words(self.tile_extents())

    def tile_bytes(self) -> int:
        """GLB-resident bytes of one tile (inputs + weights + outputs)."""
        extents = self.tile_extents()
        words = (
            self._input_patch_words(extents)
            + self._weight_words(extents)
            + self._output_words(extents)
        )
        return words * WORD_BYTES

    def tile_macs(self) -> int:
        """MAC operations performed for one data tile."""
        return self._macs(self.tile_extents())

    # ------------------------------------------------------------------
    # Per array pass (what the global network moves per pass)
    # ------------------------------------------------------------------
    def pass_input_words(self) -> int:
        """Input words scattered to the PEs for one array pass."""
        return self._input_patch_words(self.pass_extents())

    def pass_weight_words(self) -> int:
        """Weight words scattered to the PEs for one array pass."""
        return self._weight_words(self.pass_extents())

    def pass_output_words(self) -> int:
        """Output words gathered from the PEs after one array pass."""
        return self._output_words(self.pass_extents())

    def pass_macs(self) -> int:
        """MAC operations performed during one array pass."""
        return self._macs(self.pass_extents())

    # ------------------------------------------------------------------
    # Per-PE working sets (local-buffer pressure)
    # ------------------------------------------------------------------
    def pe_extents(self) -> Dict[str, int]:
        """Extent of each dimension handled sequentially by one PE."""
        factors = self.pe_temporal
        return {dim: int(factors.get(dim, 1)) for dim in LOOP_DIMS}

    def pe_weight_words(self) -> int:
        """Stationary weight words one PE must hold for a pass."""
        extents = self.pe_extents()
        # A pass always covers the full R and S extents; the per-PE share
        # of the kernel shrinks only if R or S is unrolled spatially.
        eff_r = max(1, self.layer.R // self.spatial_factor("R"))
        eff_s = max(1, self.layer.S // self.spatial_factor("S"))
        if self.layer.kind is LayerKind.DEPTHWISE:
            return extents["K"] * eff_r * eff_s
        return extents["K"] * extents["C"] * eff_r * eff_s

    def pe_input_words(self) -> int:
        """Streaming input window one PE must hold.

        Operands stream through the input buffer one filter-row slice at a
        time (SCALE-Sim/Eyeriss style), so the window is one row of the
        receptive field per resident channel.
        """
        extents = self.pe_extents()
        channels = self._input_channels(extents)
        eff_s = max(1, self.layer.S // self.spatial_factor("S"))
        window_cols = (extents["Q"] - 1) * self.layer.stride + eff_s
        return channels * window_cols

    def pe_output_words(self) -> int:
        """Partial-sum words one PE accumulates during a pass."""
        extents = self.pe_extents()
        return extents["K"] * extents["P"] * extents["Q"]

    def fits_local_buffers(self) -> bool:
        """Whether the per-PE working set fits Eyeriss-style local buffers."""
        from repro.arch.buffers import LocalBufferSet

        return not self.violates_local_buffers(LocalBufferSet())

    def violates_local_buffers(self, buffers) -> bool:
        """Return True if the per-PE working set overflows ``buffers``."""
        return not buffers.fits_tile(
            self.pe_input_words() * WORD_BYTES,
            self.pe_weight_words() * WORD_BYTES,
            self.pe_output_words() * WORD_BYTES,
        )

    def describe(self) -> str:
        """One-line summary of the mapping."""
        x, y = self.space_shape
        pe = {d: f for d, f in sorted(self.pe_temporal.items()) if f > 1}
        glb = {d: f for d, f in sorted(self.glb_temporal.items()) if f > 1}
        return (
            f"{self.layer.name}: space {x}x{y} "
            f"({self.spatial_x.dim}|{self.spatial_y.dim}), Z={self.num_tiles}, "
            f"pe={pe or '{}'}, glb={glb or '{}'}"
        )

    def to_loopnest(self) -> str:
        """Render the mapping as an indented loop nest (Timeloop style).

        Levels from outside in: DRAM-level trips (one per data tile),
        GLB-level passes within a tile, the spatial unrolling across the
        array, and the per-PE sequential loops. Dimensions with a trip
        count of 1 are omitted at each level.
        """
        lines = [f"// {self.layer.name}: Z = {self.num_tiles} data tiles"]
        indent = 0

        def emit(text: str) -> None:
            lines.append("  " * indent + text)

        for dim in LOOP_DIMS:
            trips = self.trips(dim)
            if trips > 1:
                emit(f"for {dim.lower()}_dram in [0:{trips})  // DRAM tiles")
                indent += 1
        for dim in LOOP_DIMS:
            factor = self.glb_temporal_factor(dim)
            if factor > 1:
                emit(f"for {dim.lower()}_glb in [0:{factor})  // array passes")
                indent += 1
        spatial_terms = [
            f"{assignment.dim.lower()}:{assignment.factor}"
            for assignment in self._spatial_assignments()
            if assignment.factor > 1
        ]
        if spatial_terms:
            x, y = self.space_shape
            emit(
                f"parallel-for [{', '.join(spatial_terms)}]  "
                f"// {x}x{y} utilization space"
            )
            indent += 1
        for dim in LOOP_DIMS:
            factor = self.pe_temporal_factor(dim)
            if factor > 1:
                emit(f"for {dim.lower()}_pe in [0:{factor})  // inside one PE")
                indent += 1
        emit("mac()")
        return "\n".join(lines)
