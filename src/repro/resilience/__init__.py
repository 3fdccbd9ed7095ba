"""Fault-tolerant execution primitives shared across the stack.

The paper's premise is graceful degradation under wear; this package
applies the same discipline to the *software* reproducing it. Four
small, stdlib-only building blocks:

* :mod:`repro.resilience.atomic` — one shared write-temp-fsync-rename
  helper, so no snapshot, cache entry, or journal file can be left
  truncated by a crash mid-write;
* :mod:`repro.resilience.integrity` — checksum sidecars for on-disk
  payloads, so torn or bit-rotted entries are *detected* instead of
  exploding in ``pickle.load``;
* :mod:`repro.resilience.journal` — :class:`CheckpointJournal`, the
  checkpoint/resume store :class:`~repro.runtime.parallel.
  ParallelRunner` records completed task results into (and skips on
  resume), making interrupted Monte Carlo sweeps restartable with
  bit-identical output;
* :mod:`repro.resilience.retry` — :class:`RetryPolicy`, seeded
  exponential backoff with deterministic jitter, plus the quarantine
  and timeout error types the runner raises when a task is beyond
  saving;
* :mod:`repro.resilience.breaker` — :class:`CircuitBreaker`, the
  closed → open → half-open load-shedding state machine ``rota gateway``
  puts in front of its execution queue.

Everything here is deterministic under a fixed seed — the chaos suite
(:mod:`repro.chaos`, ``tests/resilience/``) relies on replaying the
exact same fault schedule to prove recovery is bit-identical.
"""

from repro.resilience.atomic import atomic_write_bytes, atomic_write_text
from repro.resilience.breaker import CircuitBreaker, CircuitOpenError
from repro.resilience.integrity import (
    CHECKSUM_SUFFIX,
    checksum_path,
    digest,
    read_checksum,
    write_with_checksum,
)
from repro.resilience.journal import CheckpointJournal, JournalMismatchError
from repro.resilience.retry import (
    PoisonedTaskError,
    RetryPolicy,
    TaskTimeoutError,
    stable_unit,
)

__all__ = [
    "CHECKSUM_SUFFIX",
    "CheckpointJournal",
    "CircuitBreaker",
    "CircuitOpenError",
    "JournalMismatchError",
    "PoisonedTaskError",
    "RetryPolicy",
    "TaskTimeoutError",
    "atomic_write_bytes",
    "atomic_write_text",
    "checksum_path",
    "digest",
    "read_checksum",
    "stable_unit",
    "write_with_checksum",
]
