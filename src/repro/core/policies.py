"""The three scheduling policies the paper compares (Section V).

* :class:`BaselinePolicy` — conventional accelerator: every utilization
  space is anchored at the array's origin corner (no wear-leveling, works
  on a plain mesh).
* :class:`RwlPolicy` — rotational wear-leveling (Section IV-C): spaces
  stride around the torus within each layer, but the starting coordinate
  resets to the origin at every layer boundary.
* :class:`RwlRoPolicy` — RWL + residual optimization (Section IV-D): the
  coordinate is carried across layers and network iterations, so per-layer
  residues disperse instead of accumulating.

A policy is a pure strategy object: it turns a layer's tile-stream
geometry ``(x, y, Z)`` plus the carried coordinate state into the list of
tile starting positions and the next state. The engine owns the array and
the usage ledger.
"""

from __future__ import annotations

import abc
from typing import Hashable, Optional, Tuple

import numpy as np

from repro.core.positions import StrideTrigger, grouped_positions, stride_positions
from repro.errors import ConfigurationError

State = Tuple[int, int]

ORIGIN: State = (0, 0)


class WearLevelingPolicy(abc.ABC):
    """Strategy interface: where does each data tile start?"""

    #: Whether the policy needs wrap-around (torus) connectivity.
    requires_torus: bool = True

    #: Feedback policies consult the live usage ledger; the engine routes
    #: them through ``place_tiles(tracker, x, y, num_tiles)`` instead of
    #: the open-loop position protocol (and cannot memoize their runs).
    needs_feedback: bool = False

    #: Open-loop policies emit a nominal position sequence the engine can
    #: post-transform around dead PEs (``repro.faults``); feedback
    #: policies place directly and opt out of fault-aware remapping.
    supports_fault_remap: bool = True

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Short identifier used in reports ("baseline", "rwl", "rwl+ro")."""

    @property
    def memo_identity(self) -> Optional[Hashable]:
        """Hashable identity of the policy's full configuration, or ``None``.

        Policies with equal identities place every layer identically
        from every entry state, so the engine shares their per-iteration
        orbit records across runs in one process. ``None`` (the default)
        means runs of this policy are never memoized across engines.
        Subclasses that add configuration must extend the identity.
        """
        return None

    def initial_state(self) -> State:
        """Coordinate state before the first tile of the first layer."""
        return ORIGIN

    @abc.abstractmethod
    def layer_start_state(self, carried: State) -> State:
        """State at the start of a layer, given the carried coordinate."""

    @abc.abstractmethod
    def layer_positions(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, State]:
        """Tile starting positions for one layer plus the carry-out state."""

    def layer_grouped(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, State]:
        """Grouped positions ``(us, vs, multiplicity, final)`` for one layer.

        Default implementation groups the explicit position list; striding
        policies override it with the ``O(w*h)`` periodic closed form.
        """
        us, vs, final = self.layer_positions(x, y, num_tiles, w, h, state)
        keys = us * h + vs
        per_key = np.bincount(keys, minlength=w * h)
        occupied = np.nonzero(per_key)[0]
        return occupied // h, occupied % h, per_key[occupied], final

    def canonical_entry(self, state: State) -> Optional[Tuple[State, int]]:
        """Translation symmetry of a layer entered at ``state``, if any.

        Returns ``(canonical_state, v_shift)`` meaning: the layer's count
        delta at ``state`` equals the canonical entry's delta circularly
        shifted ``v_shift`` rows down the torus, with the carry-out ``v``
        shifted likewise (and identical tile accounting). ``None`` means
        no symmetry is claimed and every entry state computes its own
        positions. The engine uses this to collapse fault-free memo
        misses: one real position walk per canonical state, ``np.roll``
        for the rest.
        """
        return None


class BaselinePolicy(WearLevelingPolicy):
    """No wear-leveling: every space anchored at the origin corner."""

    requires_torus = False

    @property
    def name(self) -> str:
        return "baseline"

    @property
    def memo_identity(self) -> Optional[Hashable]:
        return (type(self),)

    def layer_start_state(self, carried: State) -> State:
        return ORIGIN

    def layer_positions(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, State]:
        if num_tiles < 0:
            raise ConfigurationError(f"tile count must be non-negative: {num_tiles}")
        us = np.zeros(num_tiles, dtype=np.int64)
        vs = np.zeros(num_tiles, dtype=np.int64)
        return us, vs, ORIGIN

    def layer_grouped(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, State]:
        zero = np.zeros(1, dtype=np.int64)
        count = np.array([num_tiles], dtype=np.int64)
        return zero, zero.copy(), count, ORIGIN

    def canonical_entry(self, state: State) -> Optional[Tuple[State, int]]:
        # Placement ignores the carried state entirely.
        return (ORIGIN, 0)


class _StridingPolicy(WearLevelingPolicy):
    """Shared striding machinery of RWL and RWL+RO."""

    def __init__(self, trigger: StrideTrigger = StrideTrigger.ORIGIN) -> None:
        self._trigger = trigger

    @property
    def trigger(self) -> StrideTrigger:
        """The vertical-stride trigger variant in use."""
        return self._trigger

    @property
    def memo_identity(self) -> Optional[Hashable]:
        return (type(self), self._trigger)

    def layer_positions(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, State]:
        start = self.layer_start_state(state)
        return stride_positions(start, x, y, w, h, num_tiles, trigger=self._trigger)

    def layer_grouped(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, State]:
        start = self.layer_start_state(state)
        return grouped_positions(start, x, y, w, h, num_tiles, trigger=self._trigger)


class RwlPolicy(_StridingPolicy):
    """Rotational wear-leveling, reset at every layer boundary."""

    @property
    def name(self) -> str:
        return "rwl"

    def layer_start_state(self, carried: State) -> State:
        return ORIGIN

    def canonical_entry(self, state: State) -> Optional[Tuple[State, int]]:
        # Every layer restarts its walk at the origin, so the carried
        # state never influences placement: all entries are equivalent.
        return (ORIGIN, 0)


class RwlRoPolicy(_StridingPolicy):
    """Rotational wear-leveling with residual optimization (RWL+RO)."""

    @property
    def name(self) -> str:
        return "rwl+ro"

    def layer_start_state(self, carried: State) -> State:
        return carried

    def canonical_entry(self, state: State) -> Optional[Tuple[State, int]]:
        # The vertical stride trigger depends only on the horizontal
        # coordinate (Algorithm 1 lines 5-8), so a walk entered at
        # (u, v) is the walk entered at (u, 0) with every row shifted
        # v steps around the torus.
        return ((state[0], 0), state[1])


#: Registry of policy constructors keyed by their report names.
_POLICIES = {
    "baseline": lambda trigger: BaselinePolicy(),
    "rwl": RwlPolicy,
    "rwl+ro": RwlRoPolicy,
}


def make_policy(
    name: str, trigger: StrideTrigger = StrideTrigger.ORIGIN
) -> WearLevelingPolicy:
    """Build a policy by name: ``"baseline"``, ``"rwl"``, or ``"rwl+ro"``."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
    return factory(trigger)
