"""Permanent-fault state of one PE array.

A :class:`FaultState` marks which PEs of an array have worn out. It is
the one mutable object of the fault subsystem: deaths accumulate as the
engine detects endurance-budget crossings (or as a study injects them
explicitly), and the fault-aware placement logic consults the dead mask
on every layer. Coordinates follow the scheduling convention used
everywhere else: ``(u, v)`` with ``u`` the column and ``v`` the row, so
the mask is indexed ``mask[v, u]`` exactly like a usage-count array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple

import numpy as np

from repro.arch.array import PEArray
from repro.errors import ConfigurationError

Coord = Tuple[int, int]


@dataclass(frozen=True)
class DeathEvent:
    """One PE's permanent wear-out failure, as the engine observed it."""

    iteration: int
    layer: str
    u: int
    v: int
    usage: int

    @property
    def coord(self) -> Coord:
        """The failed PE's ``(u, v)`` coordinate."""
        return (self.u, self.v)


@dataclass(frozen=True)
class DegradationStats:
    """Throughput accounting of a (possibly fault-degraded) run.

    A nominal tile occupies one tile slot; a tile split into ``k``
    sub-tiles occupies ``k`` sequential slots. The ratio of the two is
    the usable-throughput fraction a partially-dead array retains.
    """

    nominal_tiles: int
    executed_slots: int

    @property
    def slowdown(self) -> float:
        """Executed slots per nominal tile (1.0 = no degradation)."""
        if self.nominal_tiles == 0:
            return 1.0
        return self.executed_slots / self.nominal_tiles

    @property
    def usable_throughput(self) -> float:
        """Fraction of fault-free throughput retained (<= 1.0)."""
        if self.executed_slots == 0:
            return 1.0
        return self.nominal_tiles / self.executed_slots


class FaultState:
    """The set of permanently dead PEs on one array."""

    def __init__(self, array: PEArray, dead: Iterable[Coord] = ()) -> None:
        self._array = array
        self._mask = np.zeros(array.shape, dtype=bool)
        # Dead-PE count kept alongside the mask so the fleet's per-event
        # reads (dispatch, admission, service time) never reduce it.
        self._num_dead = 0
        self._version = 0
        for coord in dead:
            self.kill(*coord)

    @classmethod
    def none(cls, array: PEArray) -> "FaultState":
        """A fault-free state (every PE alive)."""
        return cls(array)

    @classmethod
    def from_coords(cls, array: PEArray, coords: Iterable[Coord]) -> "FaultState":
        """A state with the given ``(u, v)`` PEs dead from the start."""
        return cls(array, dead=coords)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def array(self) -> PEArray:
        """The array whose faults are tracked."""
        return self._array

    @property
    def dead_mask(self) -> np.ndarray:
        """Read-only ``(h, w)`` boolean mask of dead PEs."""
        view = self._mask.view()
        view.setflags(write=False)
        return view

    @property
    def num_dead(self) -> int:
        """How many PEs have failed."""
        return self._num_dead

    @property
    def num_alive(self) -> int:
        """How many PEs still work."""
        return self._array.num_pes - self.num_dead

    @property
    def alive_fraction(self) -> float:
        """Fraction of the array that still works."""
        return self.num_alive / self._array.num_pes

    @property
    def any_dead(self) -> bool:
        """Whether at least one PE has failed."""
        return self._num_dead > 0

    @property
    def version(self) -> int:
        """Monotonic change counter (bumps on every kill / revive).

        Placement caches key on ``(shape, version)`` so they invalidate
        exactly when the fault set changes.
        """
        return self._version

    def is_dead(self, u: int, v: int) -> bool:
        """Whether the PE at column ``u``, row ``v`` has failed."""
        self._check(u, v)
        return bool(self._mask[v, u])

    def dead_coords(self) -> List[Coord]:
        """All dead ``(u, v)`` coordinates in deterministic row-major order."""
        rows, cols = np.nonzero(self._mask)
        return [(int(u), int(v)) for v, u in zip(rows, cols)]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def kill(self, u: int, v: int) -> bool:
        """Mark the PE at ``(u, v)`` dead; return whether it was alive."""
        self._check(u, v)
        was_alive = not self._mask[v, u]
        if was_alive:
            self._mask[v, u] = True
            self._num_dead += 1
            self._version += 1
        return was_alive

    def revive_all(self) -> None:
        """Clear every fault (fresh-array state)."""
        if self.any_dead:
            self._version += 1
        self._mask.fill(False)
        self._num_dead = 0

    def copy(self) -> "FaultState":
        """An independent copy of this state."""
        clone = FaultState(self._array)
        clone._mask = self._mask.copy()
        clone._num_dead = self._num_dead
        clone._version = self._version
        return clone

    def _check(self, u: int, v: int) -> None:
        if not (0 <= u < self._array.width and 0 <= v < self._array.height):
            raise ConfigurationError(
                f"PE coordinate ({u}, {v}) outside the "
                f"{self._array.width}x{self._array.height} array"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FaultState({self._array.width}x{self._array.height}, "
            f"dead={self.num_dead})"
        )
