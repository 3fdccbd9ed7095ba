"""The load client: one process, one asyncio thread, two connections.

The gateway closes every connection after one response, so a
"connection" here is one request/response exchange; a semaphore keeps
at most two open at any moment.

* Closed loop (``studies``): two clients, each submitting its
  next request only once the previous result is in hand. A client waits
  for completion on the run's SSE stream (one connection, pushed
  terminal event) and then fetches the run detail.
* Open loop (``serve-dup``): each request is submitted at its due time
  whatever the backlog, and then polled with ``If-None-Match`` (an
  unchanged run answers a bodyless 304). SSE would pin one connection
  per outstanding request, which two connections cannot sustain. Latency
  counts from the due time, and the client records how late it sent.
  Each request's first poll waits its own fraction of the poll interval
  (a golden-ratio sequence over the schedule). The delay until a
  finished run is seen is then spread evenly over the interval; with
  polls in step, cheap runs would all be seen a whole number of
  intervals after submit and the latency percentiles would jump between
  those steps from run to run.

Every exchange is timed; the run detail's raw bytes go to a verifier
callback as soon as they arrive, after the latency clock has stopped.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, AsyncIterator, Callable, Dict, List, Optional, Sequence, Tuple

from workloads import Request, Workload

TERMINAL = ("done", "failed", "cancelled", "timeout")
POLL_INTERVAL_S = 0.01
GOLDEN = (5 ** 0.5 - 1) / 2
REQUEST_TIMEOUT_S = 60.0


@dataclass
class Outcome:
    """Client-side record of one request."""

    request: Request
    #: perf_counter time the request was due (closed loop: was issued).
    due: float
    sent: float = 0.0
    submit_ms: float = 0.0
    done: Optional[float] = None  # perf_counter time the result was in hand
    status: int = 0
    state: Optional[str] = None
    error: Optional[str] = None
    #: Open loop: delay of the first poll, in poll intervals, in [0, 1).
    poll_phase: float = 0.0
    polls: int = 0
    poll_ms: List[float] = field(default_factory=list)
    sse: int = 0
    #: Filled by the verifier: result digest and job/manifest facts.
    facts: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency_ms(self) -> Optional[float]:
        return None if self.done is None else (self.done - self.due) * 1000.0

    @property
    def late_ms(self) -> float:
        return max(0.0, (self.sent - self.due) * 1000.0)


class Client:
    def __init__(
        self,
        port: int,
        verify: Callable[[Outcome, bytes], None],
        sampler: Optional[Callable[[], None]] = None,
    ) -> None:
        self.port = port
        self._verify = verify
        self._sampler = sampler
        self._slots = asyncio.Semaphore(2)
        #: Results in hand so far (every terminal run detail received).
        self.completed = 0

    async def _exchange(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, Dict[str, str], bytes, float]:
        """One request on a fresh connection; also returns when a
        connection slot was acquired (time spent waiting for one is
        client-side, not the gateway's)."""
        async with self._slots:
            acquired = time.perf_counter()
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection("127.0.0.1", self.port), REQUEST_TIMEOUT_S
            )
            try:
                payload = b"" if body is None else json.dumps(body).encode()
                head = [f"{method} {path} HTTP/1.1", "Host: 127.0.0.1", "Connection: close"]
                for name, value in (headers or {}).items():
                    head.append(f"{name}: {value}")
                if payload:
                    head.append("Content-Type: application/json")
                head.append(f"Content-Length: {len(payload)}")
                writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), REQUEST_TIMEOUT_S)
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
        head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
        lines = head_raw.decode("latin-1").split("\r\n")
        status_line = lines[0].split()
        if len(status_line) < 2 or not status_line[1].isdigit():
            raise ConnectionError(f"malformed response to {method} {path}: {raw[:80]!r}")
        status = int(status_line[1])
        response_headers = {}
        for line in lines[1:]:
            name, _, value = line.partition(":")
            response_headers[name.strip().lower()] = value.strip()
        return status, response_headers, body_raw, acquired

    async def get_json(self, path: str) -> Dict[str, Any]:
        status, _, body, _ = await self._exchange("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} answered {status}")
        return json.loads(body)

    async def _submit(self, outcome: Outcome) -> Optional[str]:
        request = outcome.request
        try:
            status, _, body, outcome.sent = await self._exchange(
                "POST", f"/v1/experiments/{request.spec_id}/runs", request.body()
            )
        except (OSError, asyncio.TimeoutError) as error:
            outcome.error = f"submit transport error: {error!r}"
            return None
        outcome.submit_ms = (time.perf_counter() - outcome.sent) * 1000.0
        outcome.status = status
        if status != 202:
            outcome.error = f"submit answered {status}: {body[:200]!r}"
            return None
        return json.loads(body)["job"]["id"]

    async def _fetch_detail(self, outcome: Outcome, job_id: str, etag: Optional[str]):
        headers = {} if etag is None else {"If-None-Match": etag}
        status, response_headers, body, start = await self._exchange(
            "GET", f"/v1/runs/{job_id}", headers=headers
        )
        outcome.polls += 1
        outcome.poll_ms.append((time.perf_counter() - start) * 1000.0)
        return status, response_headers, body

    def _finish(self, outcome: Outcome, body: bytes) -> None:
        outcome.done = time.perf_counter()
        self.completed += 1
        self._verify(outcome, body)

    async def _wait_sse(self, outcome: Outcome, job_id: str) -> None:
        """Closed loop: wait on the run's event stream, then fetch."""
        try:
            outcome.sse += 1
            status, _, body, _ = await self._exchange(
                "GET",
                f"/v1/runs/{job_id}/events",
                headers={"Accept": "text/event-stream"},
            )
            if status != 200:
                outcome.error = f"event stream answered {status}"
                return
            status, _, body = await self._fetch_detail(outcome, job_id, None)
        except (OSError, asyncio.TimeoutError) as error:
            outcome.error = f"transport error: {error!r}"
            return
        if status not in (200, 504):
            outcome.error = f"run detail answered {status}"
            return
        self._finish(outcome, body)

    async def _wait_poll(self, outcome: Outcome, job_id: str) -> None:
        """Open loop: conditional polling until a terminal state."""
        etag: Optional[str] = None
        deadline = time.perf_counter() + REQUEST_TIMEOUT_S
        await asyncio.sleep(outcome.poll_phase * POLL_INTERVAL_S)
        while time.perf_counter() < deadline:
            try:
                status, headers, body = await self._fetch_detail(outcome, job_id, etag)
            except (OSError, asyncio.TimeoutError) as error:
                outcome.error = f"transport error: {error!r}"
                return
            if status in (200, 504):
                etag = headers.get("etag", etag)
                state = json.loads(body).get("state")
                if state in TERMINAL:
                    self._finish(outcome, body)
                    return
            elif status != 304:
                outcome.error = f"run detail answered {status}"
                return
            await asyncio.sleep(POLL_INTERVAL_S)
        outcome.error = "client timed out waiting for a terminal state"

    async def one(self, outcome: Outcome, sse: bool) -> Outcome:
        job_id = await self._submit(outcome)
        if job_id is not None:
            if sse:
                await self._wait_sse(outcome, job_id)
            else:
                await self._wait_poll(outcome, job_id)
        return outcome

    # -- traffic -------------------------------------------------------------

    @contextlib.asynccontextmanager
    async def _sampling(self) -> AsyncIterator[None]:
        """Call the sampler every 50 ms while the body runs."""
        stop = asyncio.Event()

        async def sample() -> None:
            while not stop.is_set() and self._sampler is not None:
                self._sampler()
                try:
                    await asyncio.wait_for(stop.wait(), 0.05)
                except asyncio.TimeoutError:
                    pass

        task = asyncio.ensure_future(sample())
        try:
            yield
        finally:
            stop.set()
            await task

    async def waves(self, waves: Sequence[Sequence[Request]]) -> List[Outcome]:
        """Warm-up: each wave's requests together, waves one at a time."""
        outcomes: List[Outcome] = []
        async with self._sampling():
            for wave in waves:
                now = time.perf_counter()
                batch = [Outcome(request=r, due=now) for r in wave]
                outcomes += await asyncio.gather(*(self.one(o, sse=True) for o in batch))
        return outcomes

    async def closed_loop(
        self, workload: Workload, seconds: float, clients: int = 2
    ) -> Tuple[List[Outcome], float, float]:
        """Two clients pull the seeded sequence for ``seconds``."""
        sequence = itertools.cycle(workload.requests)
        outcomes: List[Outcome] = []
        start = time.perf_counter()
        end = start + seconds

        async def run_client() -> None:
            while time.perf_counter() < end:
                request = next(sequence)
                outcome = Outcome(request=request, due=time.perf_counter())
                outcomes.append(outcome)
                await self.one(outcome, sse=True)

        async with self._sampling():
            await asyncio.gather(*(run_client() for _ in range(clients)))
        return outcomes, start, end

    async def open_loop(
        self, workload: Workload
    ) -> Tuple[List[Outcome], float, float]:
        """Every request at its due time, regardless of backlog."""
        start = time.perf_counter()
        outcomes = [
            Outcome(request=r, due=start + due, poll_phase=(i * GOLDEN) % 1.0)
            for i, (r, due) in enumerate(zip(workload.requests, workload.due_s))
        ]

        async def fire(outcome: Outcome) -> None:
            delay = outcome.due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            await self.one(outcome, sse=False)

        async with self._sampling():
            await asyncio.gather(*(fire(o) for o in outcomes))
        end = max((o.done or o.sent) for o in outcomes)
        return outcomes, start, end
