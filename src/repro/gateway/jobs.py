"""The gateway's job layer: coalesced intake over the process pool.

:class:`GatewayJobManager` validates each submission against
:mod:`repro.experiments.registry`, keys it by content, and either
attaches it to an identical in-flight execution or hands it to the
:class:`~repro.gateway.pool.WorkerProcessPool`. The query surface
(``get``/``jobs``/``queue_depth``/``running_count``/``worker_health``/
``events_for``) is what :class:`~repro.gateway.api.GatewayAPI` routes
against. On top of a plain job queue it provides:

* **request coalescing** — a submission whose content key is already
  executing attaches to the in-flight run (one execution, many
  responses) via :class:`~repro.gateway.coalesce.Coalescer`;
* **progress events** — every job keeps a monotonic event journal
  (``queued`` → ``running`` → terminal state) that feeds both the SSE
  stream and the JSON ``/events`` fallback, and listeners can
  subscribe for live delivery;
* **tiered backpressure** — the intake degrades in order: *accept* →
  *coalesce-only* (queue full: unique work is 429'd with a computed
  ``Retry-After``, identical-to-in-flight work still attaches) →
  *shed* (circuit breaker open: 503) → *draining* (shutdown: 503);
* **poisoned-key quarantine** — a key whose executions keep crashing
  workers is condemned; identical submissions fail fast instead of
  burning another worker process.

Thread model: submissions arrive on the asyncio loop (or any thread),
pool events arrive on the supervisor thread; every mutation happens
under one lock, and event listeners are invoked under that lock so a
subscriber observes a consistent, gap-free, monotonic event sequence.
The pool reports events outside its own lock, so taking the pool's lock
while holding the manager's (the intake's capacity check) cannot
deadlock.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ReproError
from repro.experiments.registry import (
    get_spec,
    package_version,
    validate_params,
)
from repro.experiments.result import to_jsonable
from repro.gateway.coalesce import Coalescer
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.pool import PoolEvent, WorkerProcessPool
from repro.resilience import CircuitBreaker
from repro.runtime import CACHE_SCHEMA_VERSION, content_hash

__all__ = [
    "GatewayJobManager",
    "Job",
    "JobState",
    "QueueFullError",
    "ServiceStoppedError",
    "TIERS",
    "UnknownJobError",
]

#: Backpressure tiers, most to least permissive.
TIERS = ("accept", "coalesce-only", "shed", "draining")

Listener = Callable[[Dict[str, Any]], None]


class QueueFullError(ReproError):
    """The execution queue is at capacity; the submission was rejected.

    ``retry_after`` is the backpressure hint (seconds) the API surfaces
    as a ``Retry-After`` header — computed from the current queue depth
    and the observed per-job service rate, not a constant.
    """

    def __init__(self, message: str, retry_after: int = 1) -> None:
        self.retry_after = retry_after
        super().__init__(message)


class ServiceStoppedError(ReproError):
    """The gateway is shutting down and no longer accepts submissions."""


class UnknownJobError(ReproError):
    """No job with the requested id exists."""


class JobState:
    """The job lifecycle: queued → running → done / failed / cancelled / timeout."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"
    TIMEOUT = "timeout"

    #: States a job can never leave.
    TERMINAL = (DONE, FAILED, CANCELLED, TIMEOUT)


@dataclass
class Job:
    """One submitted experiment run (mutated only under the manager lock)."""

    id: str
    spec_id: str
    params: Dict[str, Any]
    created_at: float
    #: Content key of the run (coalescing and warm-cache identity).
    key: str
    state: str = JobState.QUEUED
    cached: bool = False
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    error: Optional[Dict[str, str]] = None
    #: ``"result"`` and ``"manifest"`` as wire JSON, encoded once in the
    #: worker that ran the job (``None`` until it is done).
    payload: Optional[Dict[str, bytes]] = field(default=None, repr=False)
    #: Bumped on every observable mutation; the basis of the detail
    #: endpoint's ``ETag`` (pollers sending ``If-None-Match`` get 304).
    version: int = 1
    #: True when this submission attached to an in-flight execution.
    coalesced: bool = False
    #: The job owning the execution this one attached to (or ``None``).
    primary_id: Optional[str] = None
    #: Monotonic progress journal; seq starts at 1.
    events: List[Dict[str, Any]] = field(default_factory=list, repr=False)
    #: Live event listeners (SSE subscribers).
    listeners: List[Listener] = field(default_factory=list, repr=False)

    @property
    def done(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in JobState.TERMINAL

    @property
    def etag(self) -> str:
        """The strong entity tag of the job's current state."""
        return f'"{self.id}-v{self.version}"'

    def summary(self) -> Dict[str, Any]:
        """JSON-ready status view (no result body — list endpoints)."""
        return {
            "id": self.id,
            "spec_id": self.spec_id,
            "params": to_jsonable(self.params),
            "state": self.state,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "created_at": self.created_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "error": self.error,
            "version": self.version,
        }

    def detail(self) -> Dict[str, Any]:
        """Full view, including result and manifest when done.

        The result and manifest stay encoded:
        :func:`~repro.experiments.result.encode_json` splices them into
        the response body as they are.
        """
        body = self.summary()
        body["result"] = None if self.payload is None else self.payload["result"]
        body["manifest"] = (
            None if self.payload is None else self.payload["manifest"]
        )
        return body


class GatewayJobManager:
    """Coalesced, back-pressured intake over a worker-process pool.

    Parameters
    ----------
    workers:
        Worker processes executing runs (one experiment each at a time).
    queue_depth:
        Maximum number of unique executions accepted but not yet on a
        worker; beyond it unique submissions raise
        :class:`QueueFullError` (identical in-flight ones still attach).
    metrics:
        The gateway-wide counter sink (a fresh one when omitted).
    job_timeout:
        Wall-clock budget per execution, in seconds. An overrunning
        worker is terminated and its jobs flip to
        :attr:`JobState.TIMEOUT` (the API maps it to 504); ``None``
        disables the deadline.
    breaker:
        Optional :class:`~repro.resilience.CircuitBreaker`. Execution
        failures and timeouts feed it; while it is open, unique
        submissions raise :class:`~repro.resilience.CircuitOpenError`
        (the API maps it to 503 + ``Retry-After``).
    task_attempts:
        Dispatches of one task before a worker crash quarantines its key.
    cache_dir / cache_enabled:
        Explicit warm-hit store handed to the worker processes
        (``None`` resolves the environment default per worker).
    start_method:
        ``multiprocessing`` start method of the workers.
    """

    def __init__(
        self,
        workers: int = 4,
        queue_depth: int = 64,
        metrics: Optional[GatewayMetrics] = None,
        job_timeout: Optional[float] = None,
        breaker: Optional[CircuitBreaker] = None,
        task_attempts: int = 2,
        cache_dir: Optional[str] = None,
        cache_enabled: Optional[bool] = None,
        start_method: str = "spawn",
    ) -> None:
        if queue_depth < 1:
            raise ReproError(f"queue depth must be >= 1, got {queue_depth}")
        self.metrics = metrics if metrics is not None else GatewayMetrics()
        self.breaker = breaker
        self._workers = workers
        self._queue_depth = queue_depth
        self._lock = threading.Lock()
        self._jobs: Dict[str, Job] = {}
        self._counter = itertools.count(1)
        self._stop = threading.Event()
        self._coalescer = Coalescer()
        self._pool = WorkerProcessPool(
            workers=workers,
            on_event=self._on_pool_event,
            task_timeout=job_timeout,
            task_attempts=task_attempts,
            cache_dir=cache_dir,
            cache_enabled=cache_enabled,
            start_method=start_method,
            on_restart=self.metrics.record_worker_restart,
        )

    # -- lifecycle ----------------------------------------------------------

    def start(self, ready_timeout: Optional[float] = 60.0) -> None:
        """Spawn and warm the worker pool (blocks until ready)."""
        self._pool.start(ready_timeout=ready_timeout)

    def shutdown(self, timeout: Optional[float] = None) -> None:
        """Graceful drain: stop intake, finish running, cancel queued."""
        self._stop.set()
        self._pool.shutdown(drain_timeout=timeout)

    # -- intake -------------------------------------------------------------

    def submit(
        self, spec_id: str, raw_params: Optional[Dict[str, Any]]
    ) -> Job:
        """Validate, coalesce or enqueue one run; returns the job.

        Raises :class:`~repro.errors.ConfigurationError` for an unknown
        experiment, :class:`~repro.experiments.registry.
        ParamValidationError` for a bad body, :class:`ServiceStoppedError`
        during shutdown (503), :class:`~repro.resilience.CircuitOpenError`
        while the breaker sheds (503), :class:`QueueFullError` when the
        queue is at capacity (429), and :class:`~repro.resilience.
        PoisonedTaskError` for a quarantined content key (422).
        """
        spec = get_spec(spec_id)
        params = validate_params(spec, raw_params if raw_params is not None else {})
        if self._stop.is_set():
            raise ServiceStoppedError("gateway is shutting down")
        key = self._content_key(spec.id, params)
        self._coalescer.check_quarantine(key)
        job = Job(
            id=f"run-{next(self._counter):06d}-{uuid.uuid4().hex[:8]}",
            spec_id=spec.id,
            params=params,
            created_at=time.time(),
            key=key,
        )
        # Attach-or-open is one decision under one lock hold: were the
        # lock released between a missed attach and the open, an
        # identical submission could open the key in between, and this
        # open would then orphan the followers attached to it.
        with self._lock:
            # Tier 1.5: attach to an identical in-flight execution. This
            # stays open through the coalesce-only tier — attaching costs
            # no queue slot and no worker.
            primary_id = self._coalescer.attach(key, job.id)
            if primary_id is None:
                # Unique work: subject to the breaker and the bounded queue.
                if self.breaker is not None:
                    self.breaker.check()
                if self._pool.pending_count() >= self._queue_depth:
                    self.metrics.record_rejected()
                    raise QueueFullError(
                        f"gateway queue is full ({self._queue_depth} "
                        f"pending); identical in-flight submissions still "
                        f"coalesce",
                        retry_after=self.retry_after_seconds(),
                    )
                self._coalescer.open(key, job.id)
            else:
                job.coalesced = True
                job.primary_id = primary_id
            self._jobs[job.id] = job
            self._publish_locked(job, JobState.QUEUED)
            self.metrics.record_submitted()
            if primary_id is not None:
                primary = self._jobs.get(primary_id)
                if primary is not None and primary.state == JobState.RUNNING:
                    job.state = JobState.RUNNING
                    job.started_at = primary.started_at
                    job.version += 1
                    self._publish_locked(job, JobState.RUNNING)
                self.metrics.record_coalesced()
                return job
        # Outside the lock: a draining pool reports the task cancelled
        # through the event callback, which takes the lock itself.
        self._pool.submit(job.id, job.spec_id, job.params, key)
        self.metrics.record_execution()
        return job

    def _content_key(self, spec_id: str, params: Dict[str, Any]) -> str:
        """Content key of one run: the coalescing and warm-cache identity."""
        return content_hash(
            "service-run",
            CACHE_SCHEMA_VERSION,
            package_version(),
            spec_id,
            params,
        )

    # -- queries (GatewayAPI contract) --------------------------------------

    def get(self, job_id: str) -> Job:
        """Look up one job by id."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"unknown job {job_id!r}") from None

    def jobs(self) -> List[Job]:
        """Every known job, oldest first."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda job: job.created_at)

    def queue_depth(self) -> int:
        """Unique executions accepted but not yet on a worker."""
        return self._pool.pending_count()

    def running_count(self) -> int:
        """Executions currently on a worker process."""
        return self._pool.busy_count()

    def worker_health(self) -> List[Dict[str, Any]]:
        """Per-worker liveness (process pool flavor, for ``/healthz``)."""
        return self._pool.worker_health()

    def keys_in_flight(self) -> int:
        """Distinct content keys currently executing."""
        return self._coalescer.in_flight()

    def tier(self) -> str:
        """The current backpressure tier (see :data:`TIERS`)."""
        if self._stop.is_set():
            return "draining"
        if self.breaker is not None and self.breaker.state == (
            CircuitBreaker.OPEN
        ):
            return "shed"
        if self._pool.pending_count() >= self._queue_depth:
            return "coalesce-only"
        return "accept"

    def retry_after_seconds(self) -> int:
        """Backpressure hint for 429 responses (computed, clamped).

        Outstanding executions divided by the pool's observed service
        rate (EMA over ``workers`` lanes), clamped to [1, 60]. Before
        any job has completed there is no rate estimate and the hint
        stays at the 1-second floor.
        """
        ema = self.metrics.estimated_job_seconds()
        if ema is None:
            return 1
        outstanding = self._pool.pending_count() + self._pool.busy_count()
        estimate = math.ceil(outstanding * ema / max(1, self._workers))
        return int(min(60, max(1, estimate)))

    # -- progress events ----------------------------------------------------

    def events_for(self, job_id: str) -> List[Dict[str, Any]]:
        """The job's event journal so far (oldest first)."""
        job = self.get(job_id)
        with self._lock:
            return list(job.events)

    def subscribe(
        self, job_id: str, listener: Listener
    ) -> List[Dict[str, Any]]:
        """Register a live listener; returns the replay of past events.

        The replay and the subscription are atomic: every event is
        delivered exactly once, either in the returned list or to the
        listener, in seq order.
        """
        job = self.get(job_id)
        with self._lock:
            job.listeners.append(listener)
            return list(job.events)

    def unsubscribe(self, job_id: str, listener: Listener) -> None:
        """Drop a live listener (no-op if already gone)."""
        try:
            job = self.get(job_id)
        except UnknownJobError:
            return
        with self._lock:
            try:
                job.listeners.remove(listener)
            except ValueError:
                pass

    def _publish_locked(self, job: Job, state: str) -> None:
        """Append one event to the job's journal and notify listeners."""
        event: Dict[str, Any] = {
            "seq": len(job.events) + 1,
            "job_id": job.id,
            "state": state,
            "coalesced": job.coalesced,
            "cached": job.cached,
            "ts": round(time.time(), 6),
        }
        if job.error is not None:
            event["error"] = dict(job.error)
        job.events.append(event)
        for listener in list(job.listeners):
            try:
                listener(event)
            except Exception:  # noqa: BLE001 - a bad subscriber must not wedge
                pass

    # -- pool event handling (supervisor thread) ----------------------------

    def _family(self, task_id: str) -> List[Job]:
        """The primary job plus every follower attached to its key."""
        primary = self._jobs.get(task_id)
        if primary is None:
            return []
        follower_ids = self._coalescer.followers(primary.key)
        family = [primary]
        for follower_id in follower_ids:
            follower = self._jobs.get(follower_id)
            if follower is not None:
                family.append(follower)
        return family

    def _on_pool_event(self, event: PoolEvent) -> None:
        if event.kind == "started":
            with self._lock:
                for job in self._family(event.task_id):
                    if job.state == JobState.QUEUED:
                        job.state = JobState.RUNNING
                        job.started_at = time.time()
                        job.version += 1
                        self._publish_locked(job, JobState.RUNNING)
            return
        if event.kind == "retry":
            self.metrics.record_task_retry()
            return
        if event.kind == "done":
            self._finish(event)
            return
        if event.kind == "cancelled":
            with self._lock:
                primary = self._jobs.get(event.task_id)
                family = self._family(event.task_id)
                if primary is not None:
                    self._coalescer.resolve(primary.key)
                for job in family:
                    if not job.done:
                        job.state = JobState.CANCELLED
                        job.finished_at = time.time()
                        job.version += 1
                        self._publish_locked(job, JobState.CANCELLED)
                        self.metrics.record_cancelled()
            return
        # failed / crash / timeout all terminate the family.
        timed_out = event.kind == "timeout"
        state = JobState.TIMEOUT if timed_out else JobState.FAILED
        error = {
            "code": event.code or "internal-error",
            "message": event.message or "execution failed",
        }
        with self._lock:
            primary = self._jobs.get(event.task_id)
            family = self._family(event.task_id)
            if primary is not None:
                self._coalescer.resolve(primary.key)
            for job in family:
                if job.done:
                    continue
                job.state = state
                job.error = dict(error)
                job.finished_at = time.time()
                job.version += 1
                self._publish_locked(job, state)
        if event.kind == "crash" and primary is not None:
            # The key kept killing workers: condemn it so identical
            # submissions stop burning processes.
            self._coalescer.quarantine(
                primary.key, f"{primary.spec_id}:{primary.id}"
            )
            self.metrics.record_quarantine()
            self.metrics.record_task_quarantine()
        seconds = self._job_seconds(primary)
        self.metrics.record_job_summary(
            None, seconds, failed=not timed_out, timed_out=timed_out
        )
        if self.breaker is not None:
            self.breaker.record_failure()

    def _finish(self, event: PoolEvent) -> None:
        with self._lock:
            primary = self._jobs.get(event.task_id)
            family = self._family(event.task_id)
            if primary is not None:
                self._coalescer.resolve(primary.key)
                primary.cached = event.cached
            for job in family:
                if job.done:
                    continue
                job.payload = event.payload
                job.state = JobState.DONE
                job.finished_at = time.time()
                job.version += 1
                self._publish_locked(job, JobState.DONE)
        seconds = self._job_seconds(primary)
        self.metrics.record_job_summary(event.observed, seconds)
        if self.breaker is not None:
            self.breaker.record_success()

    @staticmethod
    def _job_seconds(primary: Optional[Job]) -> float:
        if primary is None or primary.started_at is None:
            return 0.0
        finished = primary.finished_at or time.time()
        return max(0.0, finished - primary.started_at)
