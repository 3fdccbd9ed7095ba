"""Per-process memo: one small locked, bounded LRU map.

Several layers keep results that are pure functions of their key for
the life of a process: scheduled network executions, fleet workload
profiles, accuracy calibrations, accelerator fingerprints and the
wear-leveling engine's orbit records. Each is a :class:`Memo`, so they
share one set of rules:

* every read, insert and eviction runs under the memo's own lock, so
  threads never see an entry evicted between lookup and use;
* values are built *outside* the lock (a slow build never blocks other
  keys); when two threads build the same key at once, the first stored
  value wins and both callers return it;
* the entry cap is ``REPRO_EXECUTION_CACHE_SIZE`` (default
  :data:`DEFAULT_CAP`), read at insert time; ``0`` disables storing, so
  every call builds afresh.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

__all__ = ["DEFAULT_CAP", "Memo", "memo_cap"]

#: Default entry cap of every per-process memo. Override with
#: ``REPRO_EXECUTION_CACHE_SIZE`` (0 disables storing).
DEFAULT_CAP = 64

V = TypeVar("V")


def memo_cap() -> int:
    """Resolve the per-memo entry cap from the environment."""
    raw = os.environ.get("REPRO_EXECUTION_CACHE_SIZE", "").strip()
    if not raw:
        return DEFAULT_CAP
    try:
        return max(0, int(raw))
    except ValueError:
        return DEFAULT_CAP


class Memo:
    """A locked, LRU-bounded map from hashable keys to built values."""

    def __init__(self) -> None:
        self._entries: "OrderedDict[Hashable, object]" = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        """Drop every entry."""
        with self._lock:
            self._entries.clear()

    def get_or_build(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value stored under ``key``, building it on a miss.

        ``build`` must not return ``None``, which reads as a miss.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                return value
        value = build()
        cap = memo_cap()
        if cap == 0:
            return value
        with self._lock:
            value = self._entries.setdefault(key, value)
            self._entries.move_to_end(key)
            while len(self._entries) > cap:
                self._entries.popitem(last=False)
        return value
