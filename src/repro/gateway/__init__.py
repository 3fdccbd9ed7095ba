"""``repro.gateway`` — the serving front door (``rota gateway``).

An asyncio HTTP front end over a supervised pool of worker *processes*,
with request coalescing on content keys (concurrent identical
submissions share one execution), streaming job progress (SSE plus
ETag conditional polling), tiered backpressure (accept →
coalesce-only → shed → draining), and poisoned-key quarantine. The
HTTP surface is generated from :mod:`repro.experiments.registry`: every
registered experiment is listable, validatable, and runnable, and a
run's payload equals ``rota <exp> --json``. ``rota serve`` is an alias
of ``rota gateway``. See ``docs/architecture.md`` ("Serving") for the
endpoint table and lifecycle semantics.
"""

from repro.gateway.api import ApiResponse, GatewayAPI
from repro.gateway.coalesce import Coalescer
from repro.gateway.http import AsyncHTTPFrontend
from repro.gateway.jobs import (
    TIERS,
    GatewayJobManager,
    Job,
    JobState,
    QueueFullError,
    ServiceStoppedError,
    UnknownJobError,
)
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.pool import PoolEvent, WorkerProcessPool
from repro.gateway.server import GatewayConfig, GatewayService, serve_gateway

__all__ = [
    "ApiResponse",
    "AsyncHTTPFrontend",
    "Coalescer",
    "GatewayAPI",
    "GatewayConfig",
    "GatewayJobManager",
    "GatewayMetrics",
    "GatewayService",
    "Job",
    "JobState",
    "PoolEvent",
    "QueueFullError",
    "ServiceStoppedError",
    "TIERS",
    "UnknownJobError",
    "WorkerProcessPool",
    "serve_gateway",
]
