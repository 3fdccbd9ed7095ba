"""Process-pool fan-out with checkpointing, retries, and a serial fallback.

The experiment layer's hot loops — per-policy runs, the Fig. 8
per-workload sweep, the Fig. 10 per-size sweep, Monte Carlo chunks, and
the ``rota all`` figure drivers — are embarrassingly parallel: tasks
share no state beyond read-only inputs. :class:`ParallelRunner` maps a
module-level function over a list of such tasks, either serially
(``jobs=1``, the default) or on a :class:`concurrent.futures.
ProcessPoolExecutor`, with guarantees the callers rely on:

* **deterministic ordering** — results come back in input order
  regardless of completion order, so parallel tables are bit-identical
  to serial ones;
* **per-task wall-time instrumentation** — every task's duration is
  recorded as a :class:`TaskTiming` for the benchmark trajectory;
* **no nested pools** — worker processes see ``REPRO_JOBS=1``, so a
  parallel Fig. 8 sweep runs its inner per-policy loop serially instead
  of oversubscribing (or deadlocking on daemonic-process limits);
* **crash resilience** — if a worker process dies without raising (OOM
  kill, segfault), the stranded tasks are retried once serially in the
  parent with a warning naming the task that crashed, instead of losing
  the whole sweep to one bad worker.

Three optional resilience features layer on top of ``map``:

* ``checkpoint`` — a :class:`~repro.resilience.journal.
  CheckpointJournal` (or a directory path) that records each completed
  task; a rerun against the same journal skips finished tasks and,
  because Monte Carlo seeding is chunk-invariant, produces output
  bit-identical to an uninterrupted run;
* ``retry`` — a :class:`~repro.resilience.retry.RetryPolicy` replacing
  the all-or-nothing serial fallback: crashed, timed-out, or failing
  tasks are rescheduled onto a fresh pool with seeded exponential
  backoff, and a task that exhausts its attempts is quarantined with
  :class:`~repro.resilience.retry.PoisonedTaskError` instead of
  sinking the sweep;
* ``timeout`` — a per-task wall-clock budget (pool mode only; a serial
  run has no second process to enforce one). An overrunning task gets
  its pool killed and is retried or, without a policy, raises
  :class:`~repro.resilience.retry.TaskTimeoutError`.

Every task execution — worker or parent — passes through
:func:`repro.chaos.maybe_inject`, so a seeded ``REPRO_CHAOS`` spec can
deterministically crash, hang, or fail tasks to prove the machinery
above actually works.

The default job count comes from the ``REPRO_JOBS`` environment
variable (``auto``/``0`` means the machine's CPU count); CLI ``--jobs``
flags override it per invocation.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    TypeVar,
    Union,
)

from repro import chaos
from repro.errors import ConfigurationError
from repro.resilience.journal import CheckpointJournal
from repro.resilience.retry import (
    PoisonedTaskError,
    RetryPolicy,
    TaskTimeoutError,
)
from repro.runtime import observe

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable naming the default worker count.
JOBS_ENV = "REPRO_JOBS"


def default_jobs() -> int:
    """Resolve the default job count from ``REPRO_JOBS`` (serial if unset)."""
    raw = os.environ.get(JOBS_ENV, "").strip().lower()
    if raw in ("", "1"):
        return 1
    if raw in ("0", "auto"):
        return os.cpu_count() or 1
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOBS_ENV} must be a positive integer or 'auto', got {raw!r}"
        ) from None
    if value < 1:
        raise ConfigurationError(
            f"{JOBS_ENV} must be a positive integer or 'auto', got {raw!r}"
        )
    return value


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalize an explicit ``jobs`` argument (``None`` = environment)."""
    if jobs is None:
        return default_jobs()
    if jobs == 0:
        return os.cpu_count() or 1
    if jobs < 0:
        raise ConfigurationError(f"jobs must be >= 0, got {jobs}")
    return jobs


@dataclass(frozen=True)
class TaskTiming:
    """Wall-time record of one task executed by a runner."""

    label: str
    seconds: float
    mode: str  # "serial", "pool", or "serial-retry"
    retried: bool = False  # True when this was not the task's first attempt


def _worker_init() -> None:
    """Pool-worker initializer: force nested runners to run serially."""
    os.environ[JOBS_ENV] = "1"


def _timed_call(
    payload: Tuple[Callable, object, str, int]
) -> Tuple[object, float]:
    """Run one task in a worker and measure its wall time there."""
    fn, item, label, attempt = payload
    chaos.maybe_inject(label, attempt)
    start = time.perf_counter()
    # Pool workers exit via os._exit, which skips the atexit hook that
    # normally flushes the schedule disk cache — flush after each task,
    # failed ones too (merge-on-save makes concurrent flushes safe).
    from repro.dataflow.scheduler import save_schedule_cache

    try:
        result = fn(item)
    finally:
        save_schedule_cache()
    return result, time.perf_counter() - start


class ParallelRunner:
    """Maps a function over tasks, serially or on a process pool.

    Parameters
    ----------
    jobs:
        Worker processes. ``None`` reads ``REPRO_JOBS`` (default 1 =
        serial, no pool at all); ``0`` means the CPU count. With one job
        or one pending task the pool is skipped entirely, so ``jobs=1``
        has zero multiprocessing overhead and needs no picklability.

    Notes
    -----
    For ``jobs > 1`` the mapped function and every task must be
    picklable — in practice: a module-level function applied to plain
    data (the frozen dataclasses this codebase is built from all
    qualify).
    """

    def __init__(self, jobs: Optional[int] = None) -> None:
        self._jobs = resolve_jobs(jobs)
        self._timings: List[TaskTiming] = []
        # Guards the timing list: a runner shared by service worker
        # threads must not tear its records (observe scopes are
        # per-thread and need no lock).
        self._timings_lock = threading.Lock()

    @property
    def jobs(self) -> int:
        """The resolved worker count."""
        return self._jobs

    def _record(self, timing: TaskTiming) -> None:
        """Store one task timing and notify any observation scopes."""
        with self._timings_lock:
            self._timings.append(timing)
        observe.record_task_timing(timing)

    @property
    def timings(self) -> Tuple[TaskTiming, ...]:
        """Per-task wall times of every ``map`` call so far, in order."""
        with self._timings_lock:
            return tuple(self._timings)

    @property
    def total_task_seconds(self) -> float:
        """Sum of all recorded task durations (CPU-side work)."""
        return sum(timing.seconds for timing in self.timings)

    def map(
        self,
        fn: Callable[[T], R],
        tasks: Sequence[T],
        labels: Optional[Sequence[str]] = None,
        checkpoint: Optional[Union[CheckpointJournal, str, Path]] = None,
        retry: Optional[RetryPolicy] = None,
        timeout: Optional[float] = None,
    ) -> List[R]:
        """Apply ``fn`` to every task, returning results in input order.

        ``labels`` (same length as ``tasks``) name the per-task timing
        records; indices are used when omitted. ``checkpoint`` journals
        each completed task and skips tasks already journaled by a
        previous (possibly killed) run. ``retry`` turns worker crashes,
        timeouts, and task exceptions into rescheduled attempts with
        seeded backoff; without it crashes fall back to one serial
        retry pass and exceptions propagate immediately. ``timeout``
        bounds each task's wall-clock time (pool mode only).
        """
        items = list(tasks)
        if labels is None:
            names = [f"task-{index}" for index in range(len(items))]
        else:
            names = [str(label) for label in labels]
            if len(names) != len(items):
                raise ConfigurationError(
                    f"got {len(names)} labels for {len(items)} tasks"
                )
        if timeout is not None and timeout <= 0:
            raise ConfigurationError(f"timeout must be > 0, got {timeout}")

        results: List[Optional[R]] = [None] * len(items)
        done = [False] * len(items)
        journal = self._open_journal(checkpoint, names)
        if journal is not None:
            skipped = 0
            for index, value in journal.completed().items():
                if 0 <= index < len(items) and not done[index]:
                    results[index] = value
                    done[index] = True
                    skipped += 1
            if skipped:
                observe.record_checkpoint_skip(skipped)
        pending = [index for index in range(len(items)) if not done[index]]

        if self._jobs <= 1 or len(pending) <= 1:
            self._run_serial(
                fn, items, names, results, done, pending, retry, journal,
                mode="serial",
            )
        else:
            self._run_pool(
                fn, items, names, results, done, pending, retry, timeout,
                journal,
            )
        return results  # type: ignore[return-value]

    # -- journal ------------------------------------------------------------

    @staticmethod
    def _open_journal(
        checkpoint: Optional[Union[CheckpointJournal, str, Path]],
        names: Sequence[str],
    ) -> Optional[CheckpointJournal]:
        if checkpoint is None:
            return None
        journal = (
            checkpoint
            if isinstance(checkpoint, CheckpointJournal)
            else CheckpointJournal(checkpoint)
        )
        journal.bind(names)
        return journal

    def _complete(
        self,
        index: int,
        value: object,
        seconds: float,
        mode: str,
        retried: bool,
        names: Sequence[str],
        results: List[Optional[R]],
        done: List[bool],
        journal: Optional[CheckpointJournal],
    ) -> None:
        """Store one finished task: result slot, timing, journal entry."""
        results[index] = value  # type: ignore[assignment]
        done[index] = True
        self._record(
            TaskTiming(
                label=names[index], seconds=seconds, mode=mode,
                retried=retried,
            )
        )
        if journal is not None:
            journal.record(index, value)

    # -- serial path --------------------------------------------------------

    def _run_serial(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        names: Sequence[str],
        results: List[Optional[R]],
        done: List[bool],
        pending: Sequence[int],
        retry: Optional[RetryPolicy],
        journal: Optional[CheckpointJournal],
        mode: str,
    ) -> None:
        for index in pending:
            attempt = 1
            while True:
                start = time.perf_counter()
                try:
                    chaos.maybe_inject(names[index], attempt)
                    value = fn(items[index])
                except Exception:
                    if retry is not None and attempt < retry.max_attempts:
                        observe.record_task_retry()
                        delay = retry.delay(names[index], attempt)
                        if delay > 0:
                            time.sleep(delay)
                        attempt += 1
                        continue
                    raise
                self._complete(
                    index, value, time.perf_counter() - start, mode,
                    attempt > 1, names, results, done, journal,
                )
                break

    # -- pool path ----------------------------------------------------------

    @staticmethod
    def _terminate_pool(pool: ProcessPoolExecutor) -> None:
        """Kill a pool whose workers may be hung or already dead."""
        processes = getattr(pool, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except OSError:
                pass
        pool.shutdown(wait=False, cancel_futures=True)

    @staticmethod
    def _fail_attempt(
        index: int,
        names: Sequence[str],
        attempts: Dict[int, int],
        retry: RetryPolicy,
        retry_next: List[int],
        kind: str,
    ) -> None:
        """Burn one attempt: schedule a retry or quarantine the task."""
        if attempts[index] >= retry.max_attempts:
            observe.record_task_quarantine()
            raise PoisonedTaskError(names[index], attempts[index], kind)
        observe.record_task_retry()
        retry_next.append(index)

    def _salvage(
        self,
        rest: Sequence[int],
        futures: Dict[int, object],
        names: Sequence[str],
        attempts: Dict[int, int],
        retry: RetryPolicy,
        retry_next: List[int],
        results: List[Optional[R]],
        done: List[bool],
        journal: Optional[CheckpointJournal],
        kind: str,
    ) -> None:
        """Triage the uncollected futures of a pool that just died.

        Futures that finished before the crash keep their results (with
        full timing attribution); everything else burns an attempt. The
        pool cannot say *which* task killed it — the first raiser in
        collection order may be an innocent in-flight neighbour — so
        refunding "victims" would let a misattributed crasher rerun at
        the same attempt number forever while the blamed innocent soaks
        up attempts until quarantine. Charging every stranded task keeps
        attempt counters monotonic, so a crashing task always advances
        past its chaos gate or exhausts its attempts.
        """
        for index in rest:
            future = futures[index]
            if future.cancelled() or not future.done():  # type: ignore[attr-defined]
                self._fail_attempt(
                    index, names, attempts, retry, retry_next, kind=kind
                )
                continue
            error = future.exception()  # type: ignore[attr-defined]
            if error is None:
                value, seconds = future.result()  # type: ignore[attr-defined]
                self._complete(
                    index, value, seconds, "pool", attempts[index] > 1,
                    names, results, done, journal,
                )
            elif isinstance(error, BrokenProcessPool):
                self._fail_attempt(
                    index, names, attempts, retry, retry_next, kind=kind
                )
            else:
                self._fail_attempt(
                    index, names, attempts, retry, retry_next, kind="error"
                )

    def _legacy_fallback(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        names: Sequence[str],
        results: List[Optional[R]],
        done: List[bool],
        rest: Sequence[int],
        journal: Optional[CheckpointJournal],
    ) -> None:
        """Serial second chance for tasks stranded by a broken pool.

        The no-policy behavior: everything not yet collected reruns
        serially in the parent — once; a second crash here is a real
        error and propagates.
        """
        import warnings

        warnings.warn(
            f"worker process crashed while running task {names[rest[0]]!r}; "
            f"retrying {len(rest)} uncollected task(s) serially",
            RuntimeWarning,
            stacklevel=4,
        )
        for index in rest:
            start = time.perf_counter()
            chaos.maybe_inject(names[index], 2)
            value = fn(items[index])
            self._complete(
                index, value, time.perf_counter() - start, "serial-retry",
                True, names, results, done, journal,
            )

    def _run_pool(
        self,
        fn: Callable[[T], R],
        items: Sequence[T],
        names: Sequence[str],
        results: List[Optional[R]],
        done: List[bool],
        pending: List[int],
        retry: Optional[RetryPolicy],
        timeout: Optional[float],
        journal: Optional[CheckpointJournal],
    ) -> None:
        attempts: Dict[int, int] = {index: 0 for index in pending}
        while pending:
            for index in pending:
                attempts[index] += 1
            workers = min(self._jobs, len(pending))
            pool = ProcessPoolExecutor(
                max_workers=workers, initializer=_worker_init
            )
            futures = {
                index: pool.submit(
                    _timed_call,
                    (fn, items[index], names[index], attempts[index]),
                )
                for index in pending
            }
            order = list(pending)
            retry_next: List[int] = []
            pool_dead = False
            try:
                for position, index in enumerate(order):
                    try:
                        value, seconds = futures[index].result(
                            timeout=timeout
                        )
                    except BrokenProcessPool:
                        # A worker died without raising (OOM kill,
                        # segfault in a C extension, os._exit). Every
                        # in-flight future on this pool fails the same
                        # way and the pool cannot name the killer, so
                        # every stranded task is charged an attempt
                        # (see _salvage).
                        pool_dead = True
                        self._terminate_pool(pool)
                        if retry is None:
                            rest = [
                                j for j in order[position:] if not done[j]
                            ]
                            self._legacy_fallback(
                                fn, items, names, results, done, rest,
                                journal,
                            )
                            return
                        self._fail_attempt(
                            index, names, attempts, retry, retry_next,
                            kind="crash",
                        )
                        self._salvage(
                            order[position + 1:], futures, names, attempts,
                            retry, retry_next, results, done, journal,
                            kind="crash",
                        )
                        break
                    except FuturesTimeoutError:
                        # The task overran its wall-clock budget. The
                        # worker may be hung forever, so the whole pool
                        # is killed and survivors are salvaged.
                        observe.record_task_timeout()
                        pool_dead = True
                        self._terminate_pool(pool)
                        if retry is None:
                            raise TaskTimeoutError(
                                f"task {names[index]!r} exceeded the "
                                f"{timeout:.1f}s per-task timeout"
                            ) from None
                        self._fail_attempt(
                            index, names, attempts, retry, retry_next,
                            kind="timeout",
                        )
                        self._salvage(
                            order[position + 1:], futures, names, attempts,
                            retry, retry_next, results, done, journal,
                            kind="timeout",
                        )
                        break
                    except Exception:
                        # The task itself raised in the worker; the
                        # pool is still healthy.
                        if (
                            retry is not None
                            and attempts[index] < retry.max_attempts
                        ):
                            observe.record_task_retry()
                            retry_next.append(index)
                            continue
                        raise
                    self._complete(
                        index, value, seconds, "pool", attempts[index] > 1,
                        names, results, done, journal,
                    )
            finally:
                if not pool_dead:
                    pool.shutdown(wait=True, cancel_futures=True)
            pending = sorted(retry_next)
            if retry_next and retry is not None:
                delay = max(
                    retry.delay(names[index], attempts[index])
                    for index in retry_next
                )
                if delay > 0:
                    time.sleep(delay)


def run_parallel(
    fn: Callable[[T], R],
    tasks: Sequence[T],
    jobs: Optional[int] = None,
    labels: Optional[Sequence[str]] = None,
    checkpoint: Optional[Union[CheckpointJournal, str, Path]] = None,
    retry: Optional[RetryPolicy] = None,
    timeout: Optional[float] = None,
) -> List[R]:
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    return ParallelRunner(jobs).map(
        fn, tasks, labels=labels, checkpoint=checkpoint, retry=retry,
        timeout=timeout,
    )
