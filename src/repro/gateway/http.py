"""The gateway's asyncio HTTP/1.1 front end.

One event loop (run by :class:`~repro.gateway.server.GatewayService` on
a dedicated thread) accepts every connection; request handling is
non-blocking because the expensive work — experiment execution — lives
in the worker processes, and the API layer only touches in-memory job
state under short critical sections. The transport stays deliberately
small:

* ordinary routes parse the request, call :meth:`GatewayAPI.handle`
  (the transport-free contract the unit tests drive), and write one
  JSON document with ``Connection: close``;
* ``GET /v1/runs/<id>/events`` with ``Accept: text/event-stream`` is
  upgraded to a live SSE stream: the journal replay and the
  subscription are atomic (no gaps, no duplicates), events carry
  ``id:``/``event:``/``data:`` lines with monotonic per-job sequence
  numbers, heartbeat comments keep idle connections alive, and the
  stream closes itself after the terminal event;
* a 304 is written with no body and no content type (RFC 9110).

HTTP parsing accepts exactly what the gateway's clients send: a request
line, ``\\r\\n``-separated headers, and an optional ``Content-Length``
JSON body. Anything malformed gets a structured 400, never a stack
trace.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.gateway.api import ApiResponse, GatewayAPI
from repro.gateway.jobs import JobState, UnknownJobError

__all__ = ["AsyncHTTPFrontend"]

#: Max bytes of request head (request line + headers) we accept.
_MAX_HEAD_BYTES = 32 * 1024
#: Max JSON body bytes we accept.
_MAX_BODY_BYTES = 8 * 1024 * 1024
#: Seconds of SSE silence before a comment heartbeat is emitted.
_HEARTBEAT_SECONDS = 15.0


_REASONS = {
    200: "OK",
    202: "Accepted",
    304: "Not Modified",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    422: "Unprocessable Content",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class _BadRequest(Exception):
    """A malformed request; the message becomes the 400 body."""


class AsyncHTTPFrontend:
    """Serves :class:`GatewayAPI` over asyncio, with the SSE upgrade."""

    def __init__(
        self,
        api: GatewayAPI,
        host: str = "127.0.0.1",
        port: int = 8764,
        request_timeout: float = 300.0,
    ) -> None:
        self._api = api
        self._host = host
        self._port = port
        self._request_timeout = request_timeout
        self._server: Optional[asyncio.base_events.Server] = None
        self._address: Optional[Tuple[str, int]] = None

    # -- lifecycle (called from the loop thread) ----------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle_connection, host=self._host, port=self._port
        )
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        return self._address

    async def stop(self) -> None:
        """Stop accepting new connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)`` once started."""
        return self._address

    # -- connection handling ------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await asyncio.wait_for(
                self._handle_request(reader, writer),
                timeout=self._request_timeout,
            )
        except (asyncio.TimeoutError, asyncio.IncompleteReadError):
            pass
        except ConnectionError:
            pass
        except Exception:  # noqa: BLE001 - a bad connection must not leak
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    async def _handle_request(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            method, path, headers, body = await self._read_request(reader)
        except _BadRequest as error:
            await self._write_response(
                writer,
                ApiResponse(
                    400,
                    {"error": {"code": "invalid-request", "message": str(error)}},
                ),
            )
            return
        if self._wants_sse(method, path, headers):
            await self._stream_events(writer, path, headers)
            return
        response = self._api.handle(method, path, body, headers)
        await self._write_response(writer, response)

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str], Optional[Dict[str, Any]]]:
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.LimitOverrunError:
            raise _BadRequest("request head too large") from None
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                raise
            raise _BadRequest("truncated request head") from None
        if len(head) > _MAX_HEAD_BYTES:
            raise _BadRequest("request head too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise _BadRequest(f"malformed request line: {lines[0]!r}")
        method, target = parts[0].upper(), parts[1]
        path = target.split("?", 1)[0]
        headers: Dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, _, value = line.partition(":")
            if not _:
                raise _BadRequest(f"malformed header line: {line!r}")
            headers[name.strip().lower()] = value.strip()
        body = await self._read_body(reader, headers)
        return method, path, headers, body

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Mapping[str, str]
    ) -> Optional[Dict[str, Any]]:
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadRequest("content-length is not an integer") from None
        if length <= 0:
            return None
        if length > _MAX_BODY_BYTES:
            raise _BadRequest(f"request body too large ({length} bytes)")
        raw = await reader.readexactly(length)
        try:
            parsed = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise _BadRequest(
                f"request body is not valid JSON: {error}"
            ) from None
        if parsed is not None and not isinstance(parsed, dict):
            raise _BadRequest(
                f"request body must be a JSON object, "
                f"got {type(parsed).__name__}"
            )
        return parsed

    # -- plain JSON responses -----------------------------------------------

    async def _write_response(
        self, writer: asyncio.StreamWriter, response: ApiResponse
    ) -> None:
        payload = response.body()
        head = [
            f"HTTP/1.1 {response.status} "
            f"{_REASONS.get(response.status, 'Unknown')}"
        ]
        if payload:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(payload)}")
        for name, value in response.headers:
            head.append(f"{name}: {value}")
        head.append("Connection: close")
        writer.write(
            "\r\n".join(head).encode("latin-1") + b"\r\n\r\n" + payload
        )
        await writer.drain()
        self._api.manager.metrics.record_request(response.status)

    # -- SSE ----------------------------------------------------------------

    @staticmethod
    def _wants_sse(
        method: str, path: str, headers: Mapping[str, str]
    ) -> bool:
        if method != "GET":
            return False
        parts = [part for part in path.split("/") if part]
        if len(parts) != 4 or parts[:2] != ["v1", "runs"] or parts[3] != "events":
            return False
        return "text/event-stream" in headers.get("accept", "")

    async def _stream_events(
        self,
        writer: asyncio.StreamWriter,
        path: str,
        headers: Mapping[str, str],
    ) -> None:
        """Upgrade ``/v1/runs/<id>/events`` to a live event stream.

        The journal replay and the live subscription are atomic (the
        manager returns the replay under the same lock that registers
        the listener), so a subscriber sees every event exactly once,
        in sequence order. The stream self-terminates after a terminal
        state, which lets dumb clients simply read to EOF.
        """
        manager = self._api.manager
        job_id = [part for part in path.split("/") if part][2]
        try:
            cursor = int(headers.get("last-event-id", 0))
        except ValueError:
            cursor = 0
        loop = asyncio.get_running_loop()
        pending: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()

        def _listener(event: Dict[str, Any]) -> None:
            # Invoked under the manager lock from whatever thread
            # publishes (intake or pool supervisor): hand off without
            # blocking and without touching loop state directly.
            loop.call_soon_threadsafe(pending.put_nowait, event)

        try:
            replay = manager.subscribe(job_id, _listener)
        except UnknownJobError:
            await self._write_response(
                writer,
                ApiResponse(
                    404,
                    {
                        "error": {
                            "code": "unknown-job",
                            "message": f"unknown job {job_id!r}",
                        }
                    },
                ),
            )
            return
        manager.metrics.record_sse_stream()
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            terminal = False
            # Replay events land on the queue ahead of any live event:
            # the listener enqueues via call_soon_threadsafe, which
            # cannot run until this coroutine next awaits.
            for event in replay:
                if event["seq"] <= cursor:
                    continue
                terminal = await self._write_event(writer, event)
                if terminal:
                    break
            while not terminal:
                try:
                    event = await asyncio.wait_for(
                        pending.get(), timeout=_HEARTBEAT_SECONDS
                    )
                except asyncio.TimeoutError:
                    writer.write(b": heartbeat\r\n\r\n")
                    await writer.drain()
                    continue
                if event["seq"] <= cursor:
                    continue
                terminal = await self._write_event(writer, event)
            manager.metrics.record_request(200)
        finally:
            manager.unsubscribe(job_id, _listener)

    @staticmethod
    async def _write_event(
        writer: asyncio.StreamWriter, event: Dict[str, Any]
    ) -> bool:
        """Emit one SSE frame; returns True when the state is terminal."""
        data = json.dumps(event, sort_keys=True)
        frame = (
            f"id: {event['seq']}\r\n"
            f"event: {event['state']}\r\n"
            f"data: {data}\r\n\r\n"
        )
        writer.write(frame.encode("utf-8"))
        await writer.drain()
        return event["state"] in JobState.TERMINAL
