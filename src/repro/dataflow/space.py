"""The declarative mapping space: what the search engines enumerate.

A mapping of one layer onto one accelerator is a point in a finite
space: a *spatial skeleton* (which loop dimension unrolls along each
array axis, with which factor) crossed with a *temporal factorization*
(how the per-dimension quotient left after spatial unrolling splits
between the per-PE level and the GLB level). This module makes that
space first-class:

* :func:`iter_spatial_skeletons` enumerates the spatial skeletons of a
  layer — every dimension pair of the active dataflow preset crossed
  with its legal axis factors, kernel dimensions pre-bound so each
  array pass covers the full receptive field;
* :func:`temporal_splits` is the divisor-lattice generator: every
  ordered pair ``(pe, glb)`` whose product divides the remaining loop
  quotient, so pass and tile extents always divide the loop extent
  (the factorization discipline of NeuroSpector/Timeloop-class
  mappers);
* :class:`MappingSpace` lazily enumerates the full cross product as
  :class:`MappingPoint` objects, applying the two legality predicates
  (per-PE working set fits the local buffers; one tile fits half the
  GLB for double buffering) and pruning dominated branches — both
  working sets are monotone in every temporal factor, so once a factor
  overflows a buffer every larger divisor of the same slot overflows
  too and the whole branch is cut;
* :func:`grow_temporal_greedy` is the legacy greedy temporal growth
  (largest fitting divisor first, in priority order) — one specific
  walk through this space, kept because the pre-refactor scheduler's
  results are golden-pinned.

The enumeration is deliberately lazy (generators all the way down):
search engines decide how much of the space to visit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.dataflow.layer import LOOP_DIMS, LayerKind, LayerShape
from repro.dataflow.mapping import Mapping, SpatialAssignment
from repro.errors import MappingError

#: Named spatial-dimension-pair presets. ``(x_dim, y_dim)`` tuples: the
#: first unrolls along the array's horizontal axis, the second vertically.
DATAFLOW_PRESETS: Dict[str, Tuple[Tuple[str, str], ...]] = {
    # Search every ordered pair of distinct dimensions (NeuroSpector-like).
    "flexible": tuple(
        (dx, dy) for dx, dy in itertools.permutations(LOOP_DIMS, 2)
    ),
    # Output pixels stationary in the array (SCALE-Sim "os").
    "output_stationary": (("Q", "P"), ("P", "Q")),
    # Filters x channels in the array (SCALE-Sim "ws").
    "weight_stationary": (("K", "C"), ("C", "K")),
    # Eyeriss row-stationary flavor: ofmap rows x filter rows.
    "row_stationary": (("P", "R"), ("Q", "R")),
}

#: Dimensions whose temporal quotient the search factorizes freely. The
#: kernel dimensions R and S are excluded: each array pass must cover
#: the full receptive field, so their temporal factors are forced by the
#: spatial skeleton (see :func:`forced_kernel_temporal`).
TEMPORAL_DIMS = ("K", "C", "P", "Q")


def divisors(n: int) -> List[int]:
    """All positive divisors of ``n`` in ascending order."""
    if n < 1:
        raise MappingError(f"divisors() needs a positive integer, got {n}")
    small, large = [], []
    for candidate in range(1, int(math.isqrt(n)) + 1):
        if n % candidate == 0:
            small.append(candidate)
            if candidate != n // candidate:
                large.append(n // candidate)
    return small + large[::-1]


def layer_signature(layer: LayerShape) -> Tuple:
    """Everything but the layer name: identical shapes share searches."""
    return (
        layer.kind.value,
        layer.K,
        layer.C,
        layer.P,
        layer.Q,
        layer.R,
        layer.S,
        layer.stride,
    )


def spatial_factor_candidates(
    extent: int, limit: int, allow_partial: bool
) -> List[int]:
    """Legal spatial factors for a loop extent on an axis of ``limit`` PEs."""
    candidates = [d for d in divisors(extent) if d <= limit]
    if allow_partial:
        cap = min(extent, limit)
        if cap not in candidates:
            candidates.append(cap)
    return candidates


def forced_kernel_temporal(
    layer: LayerShape, dim_x: str, fx: int, dim_y: str, fy: int
) -> Dict[str, int]:
    """Per-PE factors that keep each pass covering the full kernel.

    R and S must stay fully covered by every array pass (the per-PE
    weight working set assumes it), so whatever share of them is not
    unrolled spatially is bound temporally here.
    """
    temporal: Dict[str, int] = {}
    if dim_x != "R" and dim_y != "R" and layer.R > 1:
        temporal["R"] = layer.R
    elif dim_x == "R":
        temporal["R"] = layer.R // fx
    elif dim_y == "R":
        temporal["R"] = layer.R // fy
    if dim_x != "S" and dim_y != "S" and layer.S > 1:
        temporal["S"] = layer.S
    elif dim_x == "S":
        temporal["S"] = layer.S // fx
    elif dim_y == "S":
        temporal["S"] = layer.S // fy
    return {d: f for d, f in temporal.items() if f > 1}


def iter_secondary_assignments(
    accelerator, options, layer: LayerShape,
    dim_x: str, fx: int, dim_y: str, fy: int,
) -> Iterator[Tuple[Optional[SpatialAssignment], Optional[SpatialAssignment]]]:
    """Secondary per-axis spatial options (composite mode).

    Always yields the plain ``(None, None)`` single-dimension case;
    with ``composite_spatial`` enabled, additionally yields co-mapped
    secondaries from the non-kernel dimensions, using the few largest
    divisors that still fit the axis.
    """
    yield (None, None)
    if not options.composite_spatial:
        return
    sizes = layer.dim_sizes()
    used = {dim_x, dim_y}
    candidate_dims = [d for d in ("K", "C", "P", "Q") if d not in used]

    def axis_options(limit: int, base_factor: int):
        choices = []
        for dim in candidate_dims:
            room = limit // base_factor
            factors = [
                f
                for f in divisors(sizes[dim])
                if 1 < f <= room
            ][-2:]  # largest couple of divisors that fit
            choices.extend(SpatialAssignment(dim, f) for f in factors)
        return choices

    x_options = axis_options(accelerator.width, fx)
    y_options = axis_options(accelerator.height, fy)
    for x2 in x_options:
        yield (x2, None)
    for y2 in y_options:
        yield (None, y2)
    for x2 in x_options:
        for y2 in y_options:
            if x2.dim != y2.dim:
                yield (x2, y2)


def iter_spatial_skeletons(
    accelerator, options, layer: LayerShape
) -> Iterator[Mapping]:
    """Every spatial skeleton of a layer, as a base :class:`Mapping`.

    A skeleton binds the spatial assignments plus the forced kernel
    temporal factors and nothing else; both the greedy growth and the
    divisor-lattice enumeration start from these. The iteration order is
    the pre-refactor scheduler's exactly (the greedy path is
    golden-pinned against it).
    """
    sizes = layer.dim_sizes()
    width = accelerator.width
    height = accelerator.height
    seen: set = set()
    for dim_x, dim_y in options.spatial_pairs:
        # R and S must stay fully covered by each tile, so a spatial
        # factor on them must divide exactly even in partial mode.
        fx_candidates = [
            f
            for f in spatial_factor_candidates(
                sizes[dim_x], width, options.allow_partial_spaces
            )
            if dim_x not in ("R", "S") or sizes[dim_x] % f == 0
        ]
        fy_candidates = [
            f
            for f in spatial_factor_candidates(
                sizes[dim_y], height, options.allow_partial_spaces
            )
            if dim_y not in ("R", "S") or sizes[dim_y] % f == 0
        ]
        for fx in fx_candidates:
            for fy in fy_candidates:
                key = (dim_x, fx, dim_y, fy)
                if key in seen:
                    continue
                seen.add(key)
                temporal = forced_kernel_temporal(layer, dim_x, fx, dim_y, fy)
                for x2, y2 in iter_secondary_assignments(
                    accelerator, options, layer, dim_x, fx, dim_y, fy
                ):
                    try:
                        yield Mapping(
                            layer=layer,
                            spatial_x=SpatialAssignment(dim_x, fx),
                            spatial_y=SpatialAssignment(dim_y, fy),
                            pe_temporal=temporal,
                            spatial_x2=x2,
                            spatial_y2=y2,
                        )
                    except MappingError:
                        continue


def grow_temporal_greedy(accelerator, options, base: Mapping) -> Mapping:
    """Greedily grow the temporal levels of a spatial skeleton.

    First the per-PE factors (bounded by the local buffers), then the
    GLB factors (bounded by half the GLB, for double buffering). Both
    levels grow dimensions in the configured priority order, largest
    fitting divisor first — the standard greedy of factorization
    mappers, and the walk whose results the pre-refactor goldens pin.
    """
    layer = base.layer
    buffers = accelerator.array.pe.local_buffers
    glb_limit = accelerator.glb.capacity_bytes // 2  # double buffer
    sizes = layer.dim_sizes()
    pe_temporal = dict(base.pe_temporal)
    glb_temporal = dict(base.glb_temporal)

    def build() -> Mapping:
        return Mapping(
            layer=layer,
            spatial_x=base.spatial_x,
            spatial_y=base.spatial_y,
            pe_temporal=pe_temporal,
            glb_temporal=glb_temporal,
            spatial_x2=base.spatial_x2,
            spatial_y2=base.spatial_y2,
        )

    def fits(mapping: Mapping) -> bool:
        return (
            not mapping.violates_local_buffers(buffers)
            and mapping.tile_bytes() <= glb_limit
        )

    current = build()
    if not fits(current):
        raise MappingError("base mapping does not fit the buffers")

    # Level 1: per-PE factors under the local-buffer budget.
    for dim in options.temporal_priority:
        quotient = sizes[dim] // current.pass_extent(dim)
        if quotient <= 1:
            continue
        base_factor = pe_temporal.get(dim, 1)
        for factor in reversed(divisors(quotient)):
            if factor == 1:
                break
            pe_temporal[dim] = base_factor * factor
            candidate = build()
            if fits(candidate):
                current = candidate
                break
            pe_temporal[dim] = base_factor
    # Level 2: GLB factors (array passes per data tile) under the GLB
    # budget — this is what pushes Z down to the tens-to-hundreds the
    # paper reports per layer.
    for dim in options.temporal_priority:
        quotient = sizes[dim] // current.tile_extent(dim)
        if quotient <= 1:
            continue
        for factor in reversed(divisors(quotient)):
            if factor == 1:
                break
            glb_temporal[dim] = factor
            candidate = build()
            if fits(candidate):
                current = candidate
                break
            glb_temporal.pop(dim, None)
    return current


def factor_ladder(values: List[int], max_rungs: Optional[int]) -> List[int]:
    """Deterministically thin a divisor list to at most ``max_rungs``.

    Keeps the first entry (factor 1) and the last (the maximal divisor)
    and spaces the interior evenly by index, so a thinned ladder still
    spans the whole range of factorization granularities. ``None``
    means no thinning.
    """
    if max_rungs is None or len(values) <= max_rungs:
        return values
    if max_rungs < 1:
        raise MappingError(f"ladder needs at least one rung, got {max_rungs}")
    if max_rungs == 1:
        return values[:1]
    span = len(values) - 1
    indices = sorted(
        {round(i * span / (max_rungs - 1)) for i in range(max_rungs)}
    )
    return [values[i] for i in indices]


def temporal_splits(quotient: int) -> Iterator[Tuple[int, int]]:
    """The divisor lattice of one dimension's temporal quotient.

    Yields every ordered pair ``(pe, glb)`` with ``pe * glb`` dividing
    ``quotient`` — per-PE sequential factor times GLB bundling factor —
    in ascending ``(pe, glb)`` order. The pair ``(1, 1)`` (leave the
    dimension at DRAM-trip granularity) is always first.
    """
    for pe in divisors(quotient):
        for glb in divisors(quotient // pe):
            yield (pe, glb)


@dataclass(frozen=True)
class MappingPoint:
    """One enumerated point of the mapping space."""

    mapping: Mapping

    def key(self) -> Tuple:
        """Canonical identity: equal keys mean the same factorization.

        Factors of 1 are dropped, temporal dicts are sorted — two points
        that differ only in how the defaults were spelled collapse to
        one key. Search engines use this for deduplication and for
        deterministic tie-breaking.
        """
        mapping = self.mapping

        def secondary(assignment):
            if assignment is None:
                return None
            return (assignment.dim, assignment.factor)

        return (
            mapping.spatial_x.dim,
            mapping.spatial_x.factor,
            mapping.spatial_y.dim,
            mapping.spatial_y.factor,
            secondary(mapping.spatial_x2),
            secondary(mapping.spatial_y2),
            tuple(
                sorted(
                    (d, int(f)) for d, f in mapping.pe_temporal.items() if f > 1
                )
            ),
            tuple(
                sorted(
                    (d, int(f)) for d, f in mapping.glb_temporal.items() if f > 1
                )
            ),
        )


@dataclass
class SpaceStats:
    """Counters of one enumeration pass over a mapping space."""

    skeletons: int = 0
    #: Temporal candidates whose legality was actually checked.
    generated: int = 0
    #: Candidates that passed both legality predicates (yielded points).
    yielded: int = 0
    #: Candidates skipped without a check because a smaller factor in the
    #: same slot already overflowed a buffer (monotone dominance cut).
    pruned: int = 0

    def merge(self, other: "SpaceStats") -> None:
        self.skeletons += other.skeletons
        self.generated += other.generated
        self.yielded += other.yielded
        self.pruned += other.pruned


#: Per-dimension (spatial, PE-temporal, GLB-temporal) factors of a skeleton.
_Factors = Tuple[Dict[str, int], Dict[str, int], Dict[str, int]]


def _skeleton_factors(base: Mapping) -> _Factors:
    """A skeleton's factors, read once instead of once per candidate."""
    return (
        {dim: base.spatial_factor(dim) for dim in LOOP_DIMS},
        {dim: base.pe_temporal_factor(dim) for dim in LOOP_DIMS},
        {dim: base.glb_temporal_factor(dim) for dim in LOOP_DIMS},
    )


class MappingSpace:
    """The full legal mapping space of one layer on one accelerator.

    Enumeration is lazy and deterministic: skeletons in preset order,
    temporal factors in ascending divisor-lattice order. Legality is
    enforced at generation time, with branch-level dominance pruning
    (``prune=True``) or plain generate-and-test (``prune=False``, the
    naive baseline the bench compares against).
    """

    def __init__(self, accelerator, layer: LayerShape, options) -> None:
        self._accelerator = accelerator
        self._layer = layer
        self._options = options
        self._buffers = accelerator.array.pe.local_buffers
        self._glb_limit = accelerator.glb.capacity_bytes // 2

    @property
    def layer(self) -> LayerShape:
        """The layer this space maps."""
        return self._layer

    def skeletons(self) -> Iterator[Mapping]:
        """The spatial skeletons of the space."""
        return iter_spatial_skeletons(self._accelerator, self._options, self._layer)

    def points(
        self,
        prune: bool = True,
        stats: Optional[SpaceStats] = None,
        max_rungs: Optional[int] = None,
    ) -> Iterator[MappingPoint]:
        """Lazily enumerate every legal mapping point of the layer.

        ``max_rungs`` thins each temporal slot's divisor list with
        :func:`factor_ladder` (``None`` = the full lattice).
        """
        for skeleton in self.skeletons():
            if stats is not None:
                stats.skeletons += 1
            yield from self.temporal_points(
                skeleton, prune=prune, stats=stats, max_rungs=max_rungs
            )

    # ------------------------------------------------------------------
    # Temporal enumeration (divisor lattice, monotone pruning)
    # ------------------------------------------------------------------
    def temporal_points(
        self,
        base: Mapping,
        prune: bool = True,
        stats: Optional[SpaceStats] = None,
        max_rungs: Optional[int] = None,
    ) -> Iterator[MappingPoint]:
        """Every legal temporal factorization of one spatial skeleton."""
        layer = self._layer
        sizes = layer.dim_sizes()
        quotients = [
            (dim, sizes[dim] // base.pass_extent(dim)) for dim in TEMPORAL_DIMS
        ]
        # Slots in evaluation order: all per-PE factors, then all GLB
        # factors, each dimension in TEMPORAL_DIMS order.
        slots: List[Tuple[str, str]] = [
            (level, dim)
            for level in ("pe", "glb")
            for dim, quotient in quotients
            if quotient > 1
        ]
        quotient_of = dict(quotients)
        pe: Dict[str, int] = {}
        glb: Dict[str, int] = {}
        factors = _skeleton_factors(base)

        def legal() -> bool:
            return (
                self._pe_words_fit(factors, pe)
                and self._tile_bytes(factors, pe, glb) <= self._glb_limit
            )

        def emit() -> MappingPoint:
            pe_temporal = dict(base.pe_temporal)
            for dim, factor in pe.items():
                if factor > 1:
                    pe_temporal[dim] = factor
            glb_temporal = {d: f for d, f in glb.items() if f > 1}
            return MappingPoint(
                Mapping(
                    layer=layer,
                    spatial_x=base.spatial_x,
                    spatial_y=base.spatial_y,
                    pe_temporal=pe_temporal,
                    glb_temporal=glb_temporal,
                    spatial_x2=base.spatial_x2,
                    spatial_y2=base.spatial_y2,
                )
            )

        def recurse(index: int) -> Iterator[MappingPoint]:
            if index == len(slots):
                return
            level, dim = slots[index]
            if level == "pe":
                room = quotient_of[dim]
            else:
                room = quotient_of[dim] // pe.get(dim, 1)
            store = pe if level == "pe" else glb
            options = factor_ladder(divisors(room), max_rungs)
            for position, factor in enumerate(options):
                store[dim] = factor
                if factor > 1:
                    if stats is not None:
                        stats.generated += 1
                    if legal():
                        if stats is not None:
                            stats.yielded += 1
                        yield emit()
                    elif prune:
                        store.pop(dim, None)
                        # Working sets are monotone in every factor, so
                        # every larger divisor of this slot (and its
                        # whole subtree) is illegal too.
                        if stats is not None:
                            stats.pruned += len(options) - position - 1
                        break
                    # Naive mode (prune=False) keeps descending through
                    # the illegal subtree: every deeper candidate gets
                    # checked and rejected individually.
                yield from recurse(index + 1)
                store.pop(dim, None)

        # The all-ones point (the bare skeleton) first.
        if stats is not None:
            stats.generated += 1
        if legal():
            if stats is not None:
                stats.yielded += 1
            yield emit()
            yield from recurse(0)
        elif stats is not None and prune:
            stats.pruned += max(0, self._subtree_size(slots, quotient_of) - 1)

    def _subtree_size(self, slots, quotient_of) -> int:
        """Upper bound of candidates under an illegal skeleton root."""
        total = 1
        for level, dim in slots:
            total *= len(divisors(quotient_of[dim]))
        return total

    # ------------------------------------------------------------------
    # Cheap legality arithmetic (no Mapping construction per candidate)
    # ------------------------------------------------------------------
    def _pe_words_fit(self, factors: _Factors, pe: Dict[str, int]) -> bool:
        from repro.dataflow.layer import WORD_BYTES

        layer = self._layer
        spatial, base_pe, _ = factors
        eff_r = max(1, layer.R // spatial["R"])
        eff_s = max(1, layer.S // spatial["S"])
        k, c = pe.get("K", base_pe["K"]), pe.get("C", base_pe["C"])
        p, q = pe.get("P", base_pe["P"]), pe.get("Q", base_pe["Q"])
        if layer.kind is LayerKind.DEPTHWISE:
            weight_words = k * eff_r * eff_s
            channels = k
        else:
            weight_words = k * c * eff_r * eff_s
            channels = c
        window_cols = (q - 1) * layer.stride + eff_s
        input_words = channels * window_cols
        output_words = k * p * q
        return self._buffers.fits_tile(
            input_words * WORD_BYTES,
            weight_words * WORD_BYTES,
            output_words * WORD_BYTES,
        )

    def _tile_bytes(
        self, factors: _Factors, pe: Dict[str, int], glb: Dict[str, int]
    ) -> int:
        from repro.dataflow.layer import WORD_BYTES

        layer = self._layer
        spatial, base_pe, base_glb = factors
        extents = {
            dim: spatial[dim]
            * pe.get(dim, base_pe[dim])
            * glb.get(dim, base_glb[dim])
            for dim in LOOP_DIMS
        }
        stride = layer.stride
        rows = (extents["P"] - 1) * stride + layer.R
        cols = (extents["Q"] - 1) * stride + layer.S
        if layer.kind is LayerKind.DEPTHWISE:
            channels = extents["K"]
            weight_words = extents["K"] * extents["R"] * extents["S"]
        else:
            channels = extents["C"]
            weight_words = (
                extents["K"] * extents["C"] * extents["R"] * extents["S"]
            )
        input_words = channels * rows * cols
        output_words = extents["K"] * extents["P"] * extents["Q"]
        return (input_words + weight_words + output_words) * WORD_BYTES

    # ------------------------------------------------------------------
    # Size accounting (for the bench's pruned-vs-naive comparison)
    # ------------------------------------------------------------------
    def naive_size(self) -> int:
        """Temporal candidates a generate-and-test sweep would check."""
        total = 0
        for skeleton in self.skeletons():
            sizes = self._layer.dim_sizes()
            per_dim = 1
            for dim in TEMPORAL_DIMS:
                quotient = sizes[dim] // skeleton.pass_extent(dim)
                per_dim *= sum(
                    len(divisors(quotient // pe)) for pe in divisors(quotient)
                )
            total += per_dim
        return total
