"""Live gateway metrics: jobs, cache traffic, coalescing, and requests.

One :class:`GatewayMetrics` instance lives for the lifetime of a
``rota gateway`` process. The job manager folds each pool execution's
flattened counters into it, the HTTP layer counts requests, 304s and
SSE streams, and ``GET /metrics`` serializes a
:meth:`GatewayMetrics.snapshot`. Everything here is plain counters under
one lock — cheap enough to update on every request and every job.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, Optional

__all__ = ["GatewayMetrics"]


class GatewayMetrics:
    """Thread-safe counters for one gateway process."""

    #: EMA smoothing: each new observation contributes 30%.
    EMA_ALPHA = 0.3

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._started_monotonic = time.monotonic()
        self._started_at = time.time()
        # Job lifecycle counters.
        self.jobs_submitted = 0
        self.jobs_completed = 0
        self.jobs_failed = 0
        self.jobs_cancelled = 0
        self.jobs_rejected = 0
        self.jobs_timeout = 0
        self.job_seconds = 0.0
        # Resilience events shipped back by workers, plus pool-level
        # recovery events (worker respawns, crash retries, quarantines).
        self.task_retries = 0
        self.task_timeouts = 0
        self.task_quarantines = 0
        self.cache_corruptions = 0
        self.workers_restarted = 0
        # Result-cache traffic observed inside the workers (includes the
        # warm-hit store and every driver-level get/put).
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_puts = 0
        self.cache_evictions = 0
        # ParallelRunner task timings observed inside the workers.
        self.tasks_run = 0
        self.task_seconds = 0.0
        # HTTP traffic.
        self.requests_total = 0
        self.requests_by_status: Dict[int, int] = {}
        # Submissions that attached to an in-flight identical execution.
        self.jobs_coalesced = 0
        # Tasks actually handed to the worker-process pool.
        self.executions_dispatched = 0
        # Conditional polls answered 304 Not Modified.
        self.requests_not_modified = 0
        # SSE streams opened over the lifetime of the process.
        self.sse_streams = 0
        # Content keys quarantined after repeated worker crashes.
        self.keys_quarantined = 0
        # Exponential moving average of one job's service time, fed by
        # completed jobs only (failures finish fast and would bias the
        # estimate down). Backpressure uses it to compute Retry-After.
        self._ema_job_seconds: Optional[float] = None

    def uptime_seconds(self) -> float:
        """Seconds since the gateway came up (monotonic)."""
        return time.monotonic() - self._started_monotonic

    def record_request(self, status: int) -> None:
        """Count one HTTP response by status code."""
        with self._lock:
            self.requests_total += 1
            self.requests_by_status[status] = (
                self.requests_by_status.get(status, 0) + 1
            )

    def record_submitted(self) -> None:
        """Count one accepted job submission."""
        with self._lock:
            self.jobs_submitted += 1

    def record_rejected(self) -> None:
        """Count one submission bounced by backpressure (429)."""
        with self._lock:
            self.jobs_rejected += 1

    def record_cancelled(self) -> None:
        """Count one queued job cancelled by shutdown."""
        with self._lock:
            self.jobs_cancelled += 1

    def record_worker_restart(self) -> None:
        """Count one dead or overdue worker process replaced."""
        with self._lock:
            self.workers_restarted += 1

    def record_coalesced(self) -> None:
        """Count one submission served by attaching to an in-flight run."""
        with self._lock:
            self.jobs_coalesced += 1

    def record_execution(self) -> None:
        """Count one task dispatched to the worker pool."""
        with self._lock:
            self.executions_dispatched += 1

    def record_not_modified(self) -> None:
        """Count one ETag poll answered with a bodyless 304."""
        with self._lock:
            self.requests_not_modified += 1

    def record_sse_stream(self) -> None:
        """Count one server-sent-events subscription."""
        with self._lock:
            self.sse_streams += 1

    def record_quarantine(self) -> None:
        """Count one content key condemned by repeated worker crashes."""
        with self._lock:
            self.keys_quarantined += 1

    def record_task_retry(self) -> None:
        """Count one task redispatched after a worker crash."""
        with self._lock:
            self.task_retries += 1

    def record_task_quarantine(self) -> None:
        """Count one task condemned after exhausting its attempts."""
        with self._lock:
            self.task_quarantines += 1

    def record_job_summary(
        self,
        observed: Optional[Dict[str, Any]],
        seconds: float,
        failed: bool = False,
        timed_out: bool = False,
    ) -> None:
        """Count one finished execution and fold in its worker counters.

        ``observed`` is the plain counter dict a worker process ships
        back with a completed task (``None`` for failures); only
        completions feed the service-rate EMA.
        """
        with self._lock:
            if timed_out:
                self.jobs_timeout += 1
            elif failed:
                self.jobs_failed += 1
            else:
                self.jobs_completed += 1
                self._ema_job_seconds = (
                    seconds
                    if self._ema_job_seconds is None
                    else (
                        self.EMA_ALPHA * seconds
                        + (1.0 - self.EMA_ALPHA) * self._ema_job_seconds
                    )
                )
            self.job_seconds += seconds
            if observed:
                self.cache_hits += observed.get("cache_hits", 0)
                self.cache_misses += observed.get("cache_misses", 0)
                self.cache_puts += observed.get("cache_puts", 0)
                self.cache_evictions += observed.get("cache_evictions", 0)
                self.cache_corruptions += observed.get("cache_corruptions", 0)
                self.task_retries += observed.get("task_retries", 0)
                self.task_timeouts += observed.get("task_timeouts", 0)
                self.task_quarantines += observed.get("task_quarantines", 0)
                self.tasks_run += observed.get("tasks_run", 0)
                self.task_seconds += observed.get("task_seconds", 0.0)

    def estimated_job_seconds(self) -> Optional[float]:
        """EMA of one completed job's service time (``None`` until one)."""
        with self._lock:
            return self._ema_job_seconds

    def coalesce_ratio(self) -> float:
        """Fraction of accepted submissions served without an execution."""
        with self._lock:
            return self._coalesce_ratio_locked()

    def _coalesce_ratio_locked(self) -> float:
        if not self.jobs_submitted:
            return 0.0
        return self.jobs_coalesced / self.jobs_submitted

    def snapshot(
        self,
        queue_depth: int = 0,
        jobs_running: int = 0,
        breaker: Optional[Dict[str, Any]] = None,
        tier: Optional[str] = None,
        keys_in_flight: int = 0,
        retry_after_hint: int = 1,
    ) -> Dict[str, Any]:
        """One JSON-ready view of every counter (the ``/metrics`` body)."""
        with self._lock:
            return {
                "uptime_seconds": round(self.uptime_seconds(), 3),
                "started_at": self._started_at,
                "queue": {
                    "depth": queue_depth,
                    "running": jobs_running,
                },
                "jobs": {
                    "submitted": self.jobs_submitted,
                    "completed": self.jobs_completed,
                    "failed": self.jobs_failed,
                    "cancelled": self.jobs_cancelled,
                    "rejected": self.jobs_rejected,
                    "timeout": self.jobs_timeout,
                    "seconds": round(self.job_seconds, 6),
                    "ema_seconds": (
                        None
                        if self._ema_job_seconds is None
                        else round(self._ema_job_seconds, 6)
                    ),
                },
                "resilience": {
                    "task_retries": self.task_retries,
                    "task_timeouts": self.task_timeouts,
                    "task_quarantines": self.task_quarantines,
                    "cache_corruptions": self.cache_corruptions,
                    "workers_restarted": self.workers_restarted,
                    "breaker": breaker,
                },
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "puts": self.cache_puts,
                    "evictions": self.cache_evictions,
                },
                "tasks": {
                    "run": self.tasks_run,
                    "seconds": round(self.task_seconds, 6),
                },
                "requests": {
                    "total": self.requests_total,
                    "by_status": {
                        str(status): count
                        for status, count in sorted(
                            self.requests_by_status.items()
                        )
                    },
                },
                "gateway": {
                    "coalesced": self.jobs_coalesced,
                    "coalesce_ratio": round(
                        self._coalesce_ratio_locked(), 6
                    ),
                    "executions_dispatched": self.executions_dispatched,
                    "keys_in_flight": keys_in_flight,
                    "keys_quarantined": self.keys_quarantined,
                    "not_modified": self.requests_not_modified,
                    "sse_streams": self.sse_streams,
                    "backpressure": {
                        "tier": tier,
                        "retry_after_hint": retry_after_hint,
                    },
                },
            }
