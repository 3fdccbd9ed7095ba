"""The HTTP daemon behind ``rota serve``.

Stdlib only: a :class:`http.server.ThreadingHTTPServer` whose handler
parses the request line and JSON body, hands both to
:class:`~repro.service.api.ServiceAPI`, and writes the JSON response
back. All routing, validation, and error shaping live in the API layer;
this module adds only transport concerns — per-request socket timeouts,
request counting, and lifecycle:

* :class:`RotaService` ties config + metrics + job manager + HTTP
  server together and knows how to start and drain them;
* :func:`serve` is the CLI entrypoint: it installs SIGTERM/SIGINT
  handlers, blocks until a signal arrives, then shuts down gracefully —
  intake stops, running jobs finish, queued jobs cancel.
"""

from __future__ import annotations

import json
import signal
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ConfigurationError
from repro.resilience import CircuitBreaker
from repro.runtime import ResultCache
from repro.service.api import ApiResponse, ServiceAPI
from repro.service.jobs import JobManager
from repro.service.metrics import ServiceMetrics

__all__ = ["ServiceConfig", "RotaService", "serve"]


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables of one ``rota serve`` process.

    ``request_timeout`` is enforced end-to-end: it is both the
    per-request socket timeout and the wall-clock budget of each
    executing job (an overrunning job flips to ``timeout`` and its
    detail endpoint responds 504). ``breaker_threshold`` consecutive
    job failures open the circuit breaker, which sheds submissions
    with 503 + ``Retry-After`` until a probe succeeds after
    ``breaker_cooldown`` seconds.
    """

    host: str = "127.0.0.1"
    port: int = 8753
    workers: int = 2
    queue_depth: int = 32
    request_timeout: float = 300.0
    breaker_threshold: int = 5
    breaker_cooldown: float = 30.0

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ConfigurationError(
                f"serve workers must be >= 1, got {self.workers}"
            )
        if self.queue_depth < 1:
            raise ConfigurationError(
                f"serve queue depth must be >= 1, got {self.queue_depth}"
            )
        if self.request_timeout <= 0:
            raise ConfigurationError(
                f"serve request timeout must be > 0, got {self.request_timeout}"
            )
        if self.breaker_threshold < 1:
            raise ConfigurationError(
                f"serve breaker threshold must be >= 1, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_cooldown <= 0:
            raise ConfigurationError(
                f"serve breaker cooldown must be > 0, "
                f"got {self.breaker_cooldown}"
            )


class _ServiceHTTPServer(ThreadingHTTPServer):
    """Threading server that carries the API and config for its handlers."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(
        self, address: Tuple[str, int], api: ServiceAPI, config: ServiceConfig
    ) -> None:
        super().__init__(address, _RequestHandler)
        self.api = api
        self.config = config


class _RequestHandler(BaseHTTPRequestHandler):
    """Thin JSON shim over :meth:`ServiceAPI.handle`."""

    server: _ServiceHTTPServer  # narrowed for the attribute accesses below
    server_version = "rota-serve"
    protocol_version = "HTTP/1.1"

    def setup(self) -> None:  # per-request socket timeout
        self.timeout = self.server.config.request_timeout
        super().setup()

    def do_GET(self) -> None:  # noqa: N802 - http.server naming
        self._dispatch(body=None)

    def do_POST(self) -> None:  # noqa: N802 - http.server naming
        try:
            body = self._read_json_body()
        except ValueError as error:
            self._write(
                ApiResponse(
                    400,
                    {"error": {"code": "invalid-json", "message": str(error)}},
                )
            )
            return
        self._dispatch(body=body)

    def _read_json_body(self) -> Optional[Dict[str, Any]]:
        """Parse the JSON request body (``None`` when absent/empty)."""
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0:
            return None
        raw = self.rfile.read(length)
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise ValueError(f"request body is not valid JSON: {error}") from None
        if parsed is not None and not isinstance(parsed, dict):
            raise ValueError(
                f"request body must be a JSON object, "
                f"got {type(parsed).__name__}"
            )
        return parsed

    def _dispatch(self, body: Optional[Dict[str, Any]]) -> None:
        path = urlsplit(self.path).path
        headers = {
            name.lower(): value for name, value in self.headers.items()
        }
        self._write(
            self.server.api.handle(self.command, path, body, headers)
        )

    def _write(self, response: ApiResponse) -> None:
        payload = response.body()
        self.send_response(response.status)
        if payload:
            self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        for name, value in response.headers:
            self.send_header(name, value)
        self.end_headers()
        if payload:
            self.wfile.write(payload)
        self.server.api.manager.metrics.record_request(response.status)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        """Silence the default per-request stderr chatter.

        The service is a daemon; request traffic is visible in
        ``/metrics`` instead of an unstructured access log.
        """


class RotaService:
    """One assembled service: metrics + job manager + API + HTTP server."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        cache: Optional[ResultCache] = None,
    ) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.metrics = ServiceMetrics()
        self.manager = JobManager(
            workers=self.config.workers,
            queue_depth=self.config.queue_depth,
            cache=cache,
            metrics=self.metrics,
            job_timeout=self.config.request_timeout,
            breaker=CircuitBreaker(
                failure_threshold=self.config.breaker_threshold,
                cooldown_seconds=self.config.breaker_cooldown,
            ),
        )
        self.api = ServiceAPI(self.manager)
        self._httpd = _ServiceHTTPServer(
            (self.config.host, self.config.port), self.api, self.config
        )
        self._serve_thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        """The bound host."""
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        """The bound port (useful with ``port=0`` in tests)."""
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        """Base URL of the running server."""
        return f"http://{self.host}:{self.port}"

    def start(self) -> None:
        """Start the workers and serve HTTP on a background thread."""
        self.manager.start()
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self._httpd.serve_forever,
                name="rota-serve-http",
                daemon=True,
            )
            self._serve_thread.start()

    def shutdown(self) -> str:
        """Graceful drain; returns a one-line shutdown summary.

        Order matters: stop accepting HTTP first (no new submissions),
        then drain the job manager — running jobs finish, queued jobs
        cancel.
        """
        if self._serve_thread is not None:
            self._httpd.shutdown()
            self._serve_thread.join()
            self._serve_thread = None
        self._httpd.server_close()
        self.manager.shutdown()
        metrics = self.metrics
        return (
            f"rota service drained: {metrics.jobs_completed} completed, "
            f"{metrics.jobs_failed} failed, {metrics.jobs_cancelled} "
            f"cancelled, {metrics.jobs_rejected} rejected; "
            f"{metrics.requests_total} requests in "
            f"{metrics.uptime_seconds():.1f}s"
        )


def serve(
    config: Optional[ServiceConfig] = None,
    install_signal_handlers: bool = True,
) -> str:
    """Run the service until SIGTERM/SIGINT, then drain and summarize.

    This is what ``rota serve`` calls: it prints one listening line
    (flushed before blocking, so wrappers can wait on it), parks the
    main thread on a shutdown event, and performs the graceful drain
    when a signal arrives.
    """
    service = RotaService(config)
    stop = threading.Event()

    if install_signal_handlers:

        def _request_shutdown(signum: int, frame: Any) -> None:
            stop.set()

        signal.signal(signal.SIGTERM, _request_shutdown)
        signal.signal(signal.SIGINT, _request_shutdown)

    service.start()
    print(
        f"rota service listening on {service.url} "
        f"(workers={service.config.workers}, "
        f"queue={service.config.queue_depth}); SIGTERM drains",
        flush=True,
    )
    stop.wait()
    return service.shutdown()
