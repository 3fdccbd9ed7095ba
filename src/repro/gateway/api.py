"""Transport-independent request handling for the gateway.

:class:`GatewayAPI` maps ``(method, path, body)`` triples onto JSON
responses; the HTTP layer (:mod:`repro.gateway.http`) is a thin shim
around :meth:`GatewayAPI.handle`, which keeps the whole surface unit-
testable without sockets. The experiment surface is generated from
:mod:`repro.experiments.registry` — experiments appear, validate, and
run here the moment they are registered, with no gateway-side edits.
``/healthz`` reports per-worker *process* liveness and the backpressure
tier; ``/metrics`` adds the coalescing/backpressure ``gateway`` section.
The SSE upgrade of ``/v1/runs/<id>/events`` lives in the HTTP layer;
through the plain ``handle()`` contract that route answers with the
JSON event journal.

Error contract (mirrors the CLI's ``ReproError`` → exit-2 convention):
every failure is a structured JSON body ``{"error": {"code", "message",
...}}``, never a traceback. Validation failures carry a per-field
``fields`` mapping; backpressure responds 429; an open circuit breaker
responds 503 with ``Retry-After``; a timed-out run's detail responds
504; a quarantined content key responds 422; unknown experiments,
jobs, and routes respond 404; anything unexpected responds 500 with the
exception type and message only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.errors import ConfigurationError, ReproError
from repro.resilience import CircuitOpenError, PoisonedTaskError
from repro.experiments.registry import (
    ParamValidationError,
    all_specs,
    get_spec,
    package_version,
)
from repro.experiments.result import encode_json, to_jsonable
from repro.gateway.jobs import (
    GatewayJobManager,
    JobState,
    QueueFullError,
    ServiceStoppedError,
    UnknownJobError,
)

__all__ = ["ApiResponse", "GatewayAPI"]


@dataclass(frozen=True)
class ApiResponse:
    """One JSON response: status code, payload, and extra headers."""

    status: int
    payload: Dict[str, Any]
    headers: Tuple[Tuple[str, str], ...] = field(default=())

    def body(self) -> bytes:
        """Sorted compact JSON; a 304 has no body (RFC 9110).

        A finished job's result and manifest are already wire JSON,
        encoded once in the pool worker; they are spliced in unchanged.
        """
        if self.status == 304:
            return b""
        return encode_json(self.payload)


def _error(
    status: int,
    code: str,
    message: str,
    headers: Tuple[Tuple[str, str], ...] = (),
    **extra: Any,
) -> ApiResponse:
    """Build the uniform structured error body."""
    body: Dict[str, Any] = {"code": code, "message": message}
    body.update(extra)
    return ApiResponse(status=status, payload={"error": body}, headers=headers)


class GatewayAPI:
    """Routes gateway requests onto the registry and the job manager."""

    def __init__(self, manager: GatewayJobManager) -> None:
        self._manager = manager

    @property
    def manager(self) -> GatewayJobManager:
        """The job manager this API submits to."""
        return self._manager

    def handle(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        headers: Optional[Mapping[str, str]] = None,
    ) -> ApiResponse:
        """Dispatch one request; never raises (errors become responses).

        ``headers`` (lower-cased names) is optional — transports that
        forward it enable conditional requests (``If-None-Match`` → 304
        on an unchanged job).
        """
        try:
            return self._route(
                method.upper(), path.rstrip("/") or "/", body, headers or {}
            )
        except ParamValidationError as error:
            return _error(
                400,
                "invalid-params",
                f"invalid parameters for experiment {error.spec_id!r}",
                fields=error.errors,
            )
        except QueueFullError as error:
            retry_after = max(1, int(error.retry_after))
            return _error(
                429,
                "queue-full",
                str(error),
                headers=(("Retry-After", str(retry_after)),),
            )
        except CircuitOpenError as error:
            retry_after = max(1, math.ceil(error.retry_after))
            return _error(
                503,
                "circuit-open",
                str(error),
                headers=(("Retry-After", str(retry_after)),),
            )
        except ServiceStoppedError as error:
            return _error(503, "shutting-down", str(error))
        except PoisonedTaskError as error:
            # A quarantined content key: identical submissions keep
            # crashing workers, so they are failed fast, not retried.
            return _error(422, "quarantined", str(error))
        except UnknownJobError as error:
            return _error(404, "unknown-job", str(error))
        except ReproError as error:
            # The HTTP twin of the CLI's one-line-stderr + exit 2.
            return _error(400, "repro-error", str(error))
        except Exception as error:  # noqa: BLE001 - never leak a traceback
            return _error(
                500,
                "internal-error",
                f"{type(error).__name__}: {error}",
            )

    # -- routing ------------------------------------------------------------

    def _route(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]],
        headers: Mapping[str, str],
    ) -> ApiResponse:
        if path == "/healthz":
            return self._healthz(method)
        if path == "/metrics":
            return self._metrics(method)
        if path == "/v1/experiments":
            return self._list_experiments(method)
        if path == "/v1/runs":
            return self._list_runs(method)
        parts = [part for part in path.split("/") if part]
        if len(parts) == 3 and parts[0] == "v1" and parts[1] == "experiments":
            return self._experiment_detail(method, parts[2])
        if (
            len(parts) == 4
            and parts[0] == "v1"
            and parts[1] == "experiments"
            and parts[3] == "runs"
        ):
            return self._submit(method, parts[2], body)
        if len(parts) == 3 and parts[0] == "v1" and parts[1] == "runs":
            return self._run_detail(method, parts[2], headers)
        if (
            len(parts) == 4
            and parts[0] == "v1"
            and parts[1] == "runs"
            and parts[3] == "events"
        ):
            return self._run_events(method, parts[2], headers)
        return _error(404, "not-found", f"no route for {path!r}")

    @staticmethod
    def _require(method: str, allowed: str) -> Optional[ApiResponse]:
        if method != allowed:
            return _error(
                405,
                "method-not-allowed",
                f"expected {allowed}, got {method}",
                headers=(("Allow", allowed),),
            )
        return None

    # -- endpoints ----------------------------------------------------------

    def _healthz(self, method: str) -> ApiResponse:
        rejected = self._require(method, "GET")
        if rejected:
            return rejected
        manager = self._manager
        workers = manager.worker_health()
        return ApiResponse(
            200,
            {
                "status": "ok",
                "version": package_version(),
                "uptime_seconds": round(manager.metrics.uptime_seconds(), 3),
                "workers": workers,
                "workers_alive": sum(1 for row in workers if row["alive"]),
                "tier": manager.tier(),
            },
        )

    def _metrics(self, method: str) -> ApiResponse:
        rejected = self._require(method, "GET")
        if rejected:
            return rejected
        manager = self._manager
        breaker = manager.breaker
        return ApiResponse(
            200,
            manager.metrics.snapshot(
                queue_depth=manager.queue_depth(),
                jobs_running=manager.running_count(),
                breaker=None if breaker is None else breaker.snapshot(),
                tier=manager.tier(),
                keys_in_flight=manager.keys_in_flight(),
                retry_after_hint=manager.retry_after_seconds(),
            ),
        )

    def _list_experiments(self, method: str) -> ApiResponse:
        rejected = self._require(method, "GET")
        if rejected:
            return rejected
        return ApiResponse(
            200,
            {"experiments": [to_jsonable(spec) for spec in all_specs()]},
        )

    def _experiment_detail(self, method: str, spec_id: str) -> ApiResponse:
        rejected = self._require(method, "GET")
        if rejected:
            return rejected
        try:
            spec = get_spec(spec_id)
        except ConfigurationError as error:
            return _error(404, "unknown-experiment", str(error))
        return ApiResponse(200, {"experiment": to_jsonable(spec)})

    def _submit(
        self, method: str, spec_id: str, body: Optional[Dict[str, Any]]
    ) -> ApiResponse:
        rejected = self._require(method, "POST")
        if rejected:
            return rejected
        try:
            get_spec(spec_id)
        except ConfigurationError as error:
            return _error(404, "unknown-experiment", str(error))
        job = self._manager.submit(spec_id, body)
        return ApiResponse(
            202,
            {"job": job.summary(), "status_url": f"/v1/runs/{job.id}"},
            headers=(("Location", f"/v1/runs/{job.id}"),),
        )

    def _list_runs(self, method: str) -> ApiResponse:
        rejected = self._require(method, "GET")
        if rejected:
            return rejected
        return ApiResponse(
            200, {"runs": [job.summary() for job in self._manager.jobs()]}
        )

    def _run_detail(
        self, method: str, job_id: str, headers: Mapping[str, str]
    ) -> ApiResponse:
        rejected = self._require(method, "GET")
        if rejected:
            return rejected
        job = self._manager.get(job_id)
        etag = job.etag
        if headers.get("if-none-match") == etag:
            # The poller already holds this exact job state: cheap 304,
            # no body (transports must not serialize one).
            self._manager.metrics.record_not_modified()
            return ApiResponse(304, {}, headers=(("ETag", etag),))
        # A timed-out job still returns its full detail body, but under
        # 504 so pollers can distinguish it without parsing the state.
        status = 504 if job.state == JobState.TIMEOUT else 200
        return ApiResponse(status, job.detail(), headers=(("ETag", etag),))

    def _run_events(
        self, method: str, job_id: str, headers: Mapping[str, str]
    ) -> ApiResponse:
        """JSON replay of a job's progress events (the SSE fallback).

        The HTTP layer upgrades this route to a live
        ``text/event-stream`` when the client accepts one; otherwise it
        answers with the events recorded so far, honoring
        ``Last-Event-ID`` as the replay cursor.
        """
        rejected = self._require(method, "GET")
        if rejected:
            return rejected
        job = self._manager.get(job_id)
        try:
            cursor = int(headers.get("last-event-id", 0))
        except ValueError:
            cursor = 0
        events = [
            event
            for event in self._manager.events_for(job.id)
            if event["seq"] > cursor
        ]
        return ApiResponse(
            200,
            {"job_id": job.id, "events": events, "terminal": job.done},
        )
