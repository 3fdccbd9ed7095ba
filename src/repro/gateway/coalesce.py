"""Request coalescing: identical in-flight submissions share one run.

Every run is deterministic by construction — a submission is fully
described by its content key ``content_hash("service-run", schema,
version, spec id, validated params)``, the same key the worker
processes' warm cache stores results under. The warm cache collapses
*sequential* duplicates; the :class:`Coalescer` collapses *concurrent*
ones: while a key is executing, later identical submissions attach to
the primary job instead of dispatching their own execution, and all
attached jobs resolve with the primary's payload the moment it lands.

The coalescer also keeps the poisoned-key ledger: a key whose
executions keep crashing workers is quarantined, and further
submissions for it are rejected outright instead of burning another
worker process (graceful degradation, not collapse).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from repro.resilience import PoisonedTaskError

__all__ = ["Coalescer"]


class Coalescer:
    """Tracks in-flight content keys and the jobs attached to them."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: key -> primary job id
        self._primary: Dict[str, str] = {}
        #: key -> follower job ids (primary excluded)
        self._attached: Dict[str, List[str]] = {}
        #: keys condemned by repeated worker crashes
        self._quarantined: Dict[str, str] = {}

    def check_quarantine(self, key: str) -> None:
        """Raise :class:`PoisonedTaskError` for a condemned key."""
        with self._lock:
            label = self._quarantined.get(key)
        if label is not None:
            raise PoisonedTaskError(label, attempts=0, kind="crash")

    def quarantine(self, key: str, label: str) -> None:
        """Condemn a key: identical submissions are rejected from now on."""
        with self._lock:
            self._quarantined[key] = label

    def quarantined_count(self) -> int:
        """Number of condemned keys."""
        with self._lock:
            return len(self._quarantined)

    def attach(self, key: str, job_id: str) -> Optional[str]:
        """Attach ``job_id`` to an in-flight ``key`` if one exists.

        Returns the primary job id when the submission coalesced, or
        ``None`` when nothing with this key is in flight.
        """
        with self._lock:
            primary = self._primary.get(key)
            if primary is None:
                return None
            self._attached[key].append(job_id)
            return primary

    def open(self, key: str, job_id: str) -> None:
        """Mark ``key`` as executing with ``job_id`` as its primary."""
        with self._lock:
            self._primary[key] = job_id
            self._attached[key] = []

    def resolve(self, key: str) -> List[str]:
        """Close an in-flight key; returns the attached follower ids."""
        with self._lock:
            self._primary.pop(key, None)
            return self._attached.pop(key, [])

    def followers(self, key: str) -> List[str]:
        """The follower ids currently attached to ``key``."""
        with self._lock:
            return list(self._attached.get(key, []))

    def in_flight(self) -> int:
        """Number of keys currently executing."""
        with self._lock:
            return len(self._primary)
