"""Comparison policies beyond the paper's three schemes.

These are not part of RoTA; they answer the natural reviewer questions
"would a trivial rotation do?" and "would random placement do?":

* :class:`DiagonalPolicy` — the simplest possible rotation: every tile
  starts one PE right and one PE up from the previous one, carrying the
  coordinate across layers like RO. Cheap, but the stride is unrelated
  to the space width, so coverage of the array is uneven for wide
  spaces.
* :class:`RandomStartPolicy` — every tile starts at a pseudo-random
  coordinate. Statistically level in expectation, but (a) it needs a
  hardware RNG the RWL controller does not, and (b) its D_max grows like
  a random walk (``sqrt(t)``) rather than staying bounded.

Both need torus connectivity (starts are arbitrary). They register under
``make_policy("diagonal")`` and ``make_policy("random")``.
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

import numpy as np

from repro.core.policies import State, WearLevelingPolicy, _POLICIES
from repro.core.positions import grouped_walk
from repro.errors import ConfigurationError

#: The random policy folds its per-layer draw counter modulo this, which
#: bounds the engine's position-batch memo without visibly correlating
#: draws (8k distinct layer-level seeds).
_RANDOM_COUNTER_PERIOD = 8192


class GreedyMinUsagePolicy(WearLevelingPolicy):
    """Feedback oracle: place every tile on the least-worn PEs.

    Before each tile, inspect the live usage ledger and choose the start
    whose footprint minimizes (projected max usage, total footprint
    usage). This requires per-PE wear counters and a ``w*h``-way search
    per tile — hardware no real controller has — so it serves as an
    *upper-bound comparison*: if open-loop RWL+RO matches this closed-
    loop oracle, feedback hardware buys nothing.

    The engine detects ``needs_feedback`` and routes tile placement
    through :meth:`place_tiles` with tracker access (this disables the
    engine's delta memoization, so runs are slower).
    """

    needs_feedback = True
    supports_fault_remap = False

    @property
    def name(self) -> str:
        return "greedy"

    def layer_start_state(self, carried: State) -> State:
        return carried

    def layer_positions(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, State]:
        raise ConfigurationError(
            "greedy placement is feedback-driven; run it through a "
            "WearLevelingEngine (which calls place_tiles with the ledger)"
        )

    def place_tiles(self, tracker, x: int, y: int, num_tiles: int) -> State:
        """Greedily place ``num_tiles`` tiles using the live ledger.

        For each tile, the per-candidate window max and sum over all
        ``w*h`` wrapped starts are computed with rolled-array reductions
        (``x*y`` shifts of the ledger), then the lexicographically best
        (max, sum, v, u) candidate wins. Ties break toward the origin so
        runs are deterministic.
        """
        array = tracker.array
        if not array.is_torus:
            raise ConfigurationError("greedy placement needs a torus array")
        w, h = array.width, array.height
        if not (1 <= x <= w and 1 <= y <= h):
            raise ConfigurationError(
                f"utilization space {x}x{y} does not fit the {w}x{h} array"
            )
        last = (0, 0)
        for _ in range(num_tiles):
            counts = tracker.counts
            window_max = None
            window_sum = None
            for j in range(y):
                for i in range(x):
                    # shifted[v, u] == counts[(v + j) % h, (u + i) % w]
                    shifted = np.roll(counts, shift=(-j, -i), axis=(0, 1))
                    if window_max is None:
                        window_max = shifted.copy()
                        window_sum = shifted.astype(np.int64).copy()
                    else:
                        np.maximum(window_max, shifted, out=window_max)
                        window_sum += shifted
            # Lexicographic argmin over (max, sum), ties toward (0, 0).
            candidates = window_max == window_max.min()
            masked_sum = np.where(candidates, window_sum, np.iinfo(np.int64).max)
            flat = int(masked_sum.argmin())
            v, u = divmod(flat, w)
            last = (u, v)
            tracker.add_space(last, x, y)
        return last


class DiagonalPolicy(WearLevelingPolicy):
    """Naive +1/+1 rotation with RO-style carry across layers."""

    @property
    def name(self) -> str:
        return "diagonal"

    @property
    def memo_identity(self) -> Optional[Hashable]:
        return (type(self),)

    def layer_start_state(self, carried: State) -> State:
        return carried

    def layer_positions(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, State]:
        if num_tiles < 0:
            raise ConfigurationError(f"tile count must be non-negative: {num_tiles}")
        u0, v0 = state[0] % w, state[1] % h
        steps = np.arange(num_tiles, dtype=np.int64)
        us = (u0 + steps) % w
        vs = (v0 + steps) % h
        final = (int((u0 + num_tiles) % w), int((v0 + num_tiles) % h))
        return us, vs, final

    def layer_grouped(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, State]:
        u0, v0 = state[0] % w, state[1] % h
        return grouped_walk(
            (u0, v0),
            lambda s: ((s[0] + 1) % w, (s[1] + 1) % h),
            w,
            h,
            num_tiles,
        )


class RandomStartPolicy(WearLevelingPolicy):
    """Uniformly random tile starts (deterministic under a seed).

    The coordinate state carries a draw counter rather than a position:
    layer ``k`` of the run draws its positions from
    ``PCG64(seed, counter)``, so runs are reproducible and the engine's
    memoization stays sound (same counter => same batch).
    """

    def __init__(self, seed: int = 2025) -> None:
        if seed < 0:
            raise ConfigurationError(f"seed must be non-negative, got {seed}")
        self._seed = seed

    @property
    def name(self) -> str:
        return "random"

    @property
    def seed(self) -> int:
        """The reproducibility seed."""
        return self._seed

    @property
    def memo_identity(self) -> Optional[Hashable]:
        return (type(self), self._seed)

    def initial_state(self) -> State:
        return (0, 0)

    def layer_start_state(self, carried: State) -> State:
        return carried

    def layer_positions(
        self, x: int, y: int, num_tiles: int, w: int, h: int, state: State
    ) -> Tuple[np.ndarray, np.ndarray, State]:
        if num_tiles < 0:
            raise ConfigurationError(f"tile count must be non-negative: {num_tiles}")
        counter = state[0]
        rng = np.random.default_rng([self._seed, counter])
        us = rng.integers(0, w, size=num_tiles, dtype=np.int64)
        vs = rng.integers(0, h, size=num_tiles, dtype=np.int64)
        final = ((counter + 1) % _RANDOM_COUNTER_PERIOD, 0)
        return us, vs, final


def _register() -> None:
    _POLICIES.setdefault("diagonal", lambda trigger: DiagonalPolicy())
    _POLICIES.setdefault("random", lambda trigger: RandomStartPolicy())
    _POLICIES.setdefault("greedy", lambda trigger: GreedyMinUsagePolicy())


_register()
