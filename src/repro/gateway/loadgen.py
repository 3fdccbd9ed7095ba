"""Seeded open-loop load generation for the serving front door.

The generator reuses the fleet simulator's arrival processes
(:mod:`repro.fleet.traffic`) to offer traffic to a *real* HTTP endpoint
— a running ``rota gateway`` — and measures what the service actually
sustains. Open-loop means arrivals never wait for
completions: a request is fired at its scheduled offset regardless of
backlog, which is the regime where backpressure tiers and coalescing
matter (a closed-loop client self-throttles and hides both).

A scenario draws each request's *class* (experiment + parameters) from
a :class:`~repro.fleet.traffic.WorkloadMix` over a small class set, so
identical submissions naturally arrive concurrently — the duplicated
traffic shape (thundering herds on hot configurations) that request
coalescing converts from N executions into one.

Every request is driven to a terminal state over plain HTTP: submit,
then poll the run detail with ``If-None-Match`` (unchanged states cost
a bodyless 304). The report combines the client's view (sustained RPS,
submit-to-terminal p50/p99, error budget) with the service's own
``/metrics`` deltas (coalesce ratio, executions dispatched) so a bench
gate can assert both sides.

Determinism: the schedule is a pure function of ``(seed, scenario)``;
timings of course are not, which is why the bench records them as
direction-tagged metrics instead of asserting exact values.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.errors import ConfigurationError, ReproError
from repro.fleet.traffic import WorkloadMix, make_traffic

__all__ = [
    "LoadReport",
    "LoadScenario",
    "RequestClass",
    "default_scenario",
    "run_load",
]

#: Terminal job states (mirrors ``JobState.TERMINAL`` without importing
#: the service stack into the client).
_TERMINAL = ("done", "failed", "cancelled", "timeout")


@dataclass(frozen=True)
class RequestClass:
    """One request population: an experiment plus fixed parameters."""

    name: str
    spec_id: str
    params: Dict[str, Any] = field(default_factory=dict)


#: The default duplicated-traffic class set: four ``lifetime`` sweeps of
#: different lengths. Each runs a few hundred milliseconds — long enough
#: that identical arrivals overlap in flight and coalesce, short enough
#: that a bench pass stays in seconds.
DEFAULT_CLASSES = (
    RequestClass("lifetime-30", "lifetime", {"iterations": 30}),
    RequestClass("lifetime-40", "lifetime", {"iterations": 40}),
    RequestClass("lifetime-50", "lifetime", {"iterations": 50}),
    RequestClass("lifetime-60", "lifetime", {"iterations": 60}),
)


@dataclass(frozen=True)
class LoadScenario:
    """One seeded open-loop traffic description."""

    classes: Tuple[RequestClass, ...] = DEFAULT_CLASSES
    num_requests: int = 48
    rate_rps: float = 24.0
    kind: str = "poisson"
    seed: int = 2025
    poll_interval_s: float = 0.05
    request_timeout_s: float = 120.0

    def __post_init__(self) -> None:
        if not self.classes:
            raise ConfigurationError("a load scenario needs request classes")
        names = [cls.name for cls in self.classes]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate class name in {names}")

    def schedule(self) -> Tuple[Tuple[float, RequestClass], ...]:
        """The seeded ``(arrival_s, class)`` sequence, oldest first."""
        by_name = {cls.name: cls for cls in self.classes}
        mix = WorkloadMix.uniform(by_name)
        requests = make_traffic(
            self.kind,
            self.num_requests,
            self.rate_rps,
            mix=mix,
            seed=self.seed,
        )
        return tuple(
            (request.arrival_s, by_name[request.workload])
            for request in requests
        )


def default_scenario(smoke: bool = False) -> LoadScenario:
    """The pinned bench scenario (small in ``--smoke``)."""
    if smoke:
        return LoadScenario(num_requests=20, rate_rps=16.0)
    return LoadScenario(num_requests=48, rate_rps=24.0)


@dataclass(frozen=True)
class LoadReport:
    """What one load run measured, client side and service side."""

    offered: int
    completed: int
    failed: int
    rejected: int
    errors_5xx: int
    submit_statuses: Dict[int, int]
    duration_s: float
    sustained_rps: float
    p50_ms: float
    p99_ms: float
    polls: int
    not_modified: int
    coalesce_ratio: float
    coalesced: int
    executions: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "offered": self.offered,
            "completed": self.completed,
            "failed": self.failed,
            "rejected": self.rejected,
            "errors_5xx": self.errors_5xx,
            "submit_statuses": {
                str(code): count
                for code, count in sorted(self.submit_statuses.items())
            },
            "duration_s": round(self.duration_s, 4),
            "sustained_rps": round(self.sustained_rps, 3),
            "p50_ms": round(self.p50_ms, 2),
            "p99_ms": round(self.p99_ms, 2),
            "polls": self.polls,
            "not_modified": self.not_modified,
            "coalesce_ratio": round(self.coalesce_ratio, 6),
            "coalesced": self.coalesced,
            "executions": self.executions,
        }

    def format(self) -> str:
        """Human-readable one-run summary."""
        statuses = ", ".join(
            f"{code}: {count}"
            for code, count in sorted(self.submit_statuses.items())
        )
        return "\n".join(
            [
                f"load report: {self.completed}/{self.offered} completed "
                f"in {self.duration_s:.2f}s "
                f"({self.sustained_rps:.2f} sustained rps)",
                f"  latency    p50 {self.p50_ms:.1f} ms, "
                f"p99 {self.p99_ms:.1f} ms (submit to terminal)",
                f"  submits    {statuses}",
                f"  outcomes   {self.failed} failed, {self.rejected} "
                f"rejected, {self.errors_5xx} 5xx",
                f"  coalescing {self.coalesced} coalesced / "
                f"{self.executions} executions "
                f"(ratio {self.coalesce_ratio:.2f})",
                f"  polling    {self.polls} polls, "
                f"{self.not_modified} answered 304",
            ]
        )


# ---------------------------------------------------------------------------
# Minimal asyncio HTTP client (connection per request, like the clients
# the gateway targets).
# ---------------------------------------------------------------------------


async def _http(
    host: str,
    port: int,
    method: str,
    path: str,
    body: Optional[Dict[str, Any]] = None,
    headers: Optional[Dict[str, str]] = None,
    timeout: float = 30.0,
) -> Tuple[int, Dict[str, str], Optional[Dict[str, Any]]]:
    reader, writer = await asyncio.wait_for(
        asyncio.open_connection(host, port), timeout
    )
    try:
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = [
            f"{method} {path} HTTP/1.1",
            f"Host: {host}:{port}",
            "Connection: close",
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        if payload:
            head.append("Content-Type: application/json")
        head.append(f"Content-Length: {len(payload)}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except Exception:  # noqa: BLE001 - close races are benign
            pass
    head_raw, _, body_raw = raw.partition(b"\r\n\r\n")
    lines = head_raw.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    response_headers: Dict[str, str] = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        response_headers[name.strip().lower()] = value.strip()
    parsed: Optional[Dict[str, Any]] = None
    if body_raw:
        try:
            parsed = json.loads(body_raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            parsed = None
    return status, response_headers, parsed


@dataclass
class _Outcome:
    """Client-side record of one driven request."""

    submit_status: int
    latency_ms: Optional[float] = None
    terminal_state: Optional[str] = None
    polls: int = 0
    not_modified: int = 0


async def _drive_one(
    host: str,
    port: int,
    arrival_s: float,
    request_class: RequestClass,
    scenario: LoadScenario,
    started: float,
) -> _Outcome:
    """Fire one request at its offset and follow it to a terminal state."""
    delay = arrival_s - (time.perf_counter() - started)
    if delay > 0:
        await asyncio.sleep(delay)
    begin = time.perf_counter()
    try:
        status, _, body = await _http(
            host,
            port,
            "POST",
            f"/v1/experiments/{request_class.spec_id}/runs",
            body=request_class.params,
            timeout=scenario.request_timeout_s,
        )
    except (OSError, asyncio.TimeoutError):
        return _Outcome(submit_status=599)
    if status != 202 or body is None:
        return _Outcome(submit_status=status)
    job_id = body["job"]["id"]
    outcome = _Outcome(submit_status=status)
    etag: Optional[str] = None
    deadline = begin + scenario.request_timeout_s
    while time.perf_counter() < deadline:
        headers = {} if etag is None else {"If-None-Match": etag}
        try:
            poll_status, poll_headers, poll_body = await _http(
                host,
                port,
                "GET",
                f"/v1/runs/{job_id}",
                headers=headers,
                timeout=scenario.request_timeout_s,
            )
        except (OSError, asyncio.TimeoutError):
            break
        outcome.polls += 1
        if poll_status == 304:
            outcome.not_modified += 1
        elif poll_body is not None:
            etag = poll_headers.get("etag", etag)
            state = poll_body.get("state")
            if state in _TERMINAL:
                outcome.terminal_state = state
                outcome.latency_ms = (time.perf_counter() - begin) * 1000.0
                return outcome
        await asyncio.sleep(scenario.poll_interval_s)
    return outcome


def _gateway_counters(metrics: Optional[Dict[str, Any]]) -> Dict[str, int]:
    """Coalescing counters from a ``/metrics`` body (0s where absent)."""
    section = (metrics or {}).get("gateway") or {}
    jobs = (metrics or {}).get("jobs") or {}
    return {
        "coalesced": int(section.get("coalesced", 0)),
        "executions": int(section.get("executions_dispatched", 0)),
        "submitted": int(jobs.get("submitted", 0)),
    }


async def _run_load_async(base_url: str, scenario: LoadScenario) -> LoadReport:
    parts = urlsplit(base_url)
    if parts.hostname is None or parts.port is None:
        raise ConfigurationError(
            f"load base URL needs an explicit host:port, got {base_url!r}"
        )
    host, port = parts.hostname, parts.port
    status, _, before = await _http(host, port, "GET", "/metrics")
    if status != 200:
        raise ReproError(f"target /metrics answered {status}; aborting load")
    counters_before = _gateway_counters(before)
    schedule = scenario.schedule()
    started = time.perf_counter()
    outcomes = await asyncio.gather(
        *(
            _drive_one(host, port, arrival_s, cls, scenario, started)
            for arrival_s, cls in schedule
        )
    )
    duration_s = time.perf_counter() - started
    _, _, after = await _http(host, port, "GET", "/metrics")
    counters_after = _gateway_counters(after)

    latencies = sorted(
        outcome.latency_ms
        for outcome in outcomes
        if outcome.latency_ms is not None
    )
    completed = sum(1 for o in outcomes if o.terminal_state == "done")
    failed = sum(
        1
        for o in outcomes
        if o.terminal_state in ("failed", "timeout", "cancelled")
    )
    rejected = sum(1 for o in outcomes if o.submit_status in (429, 503))
    errors_5xx = sum(
        1
        for o in outcomes
        if 500 <= o.submit_status < 599 and o.submit_status != 503
    )
    statuses: Dict[int, int] = {}
    for o in outcomes:
        statuses[o.submit_status] = statuses.get(o.submit_status, 0) + 1
    coalesced = counters_after["coalesced"] - counters_before["coalesced"]
    executions = counters_after["executions"] - counters_before["executions"]
    submitted = counters_after["submitted"] - counters_before["submitted"]
    return LoadReport(
        offered=len(schedule),
        completed=completed,
        failed=failed,
        rejected=rejected,
        errors_5xx=errors_5xx,
        submit_statuses=statuses,
        duration_s=duration_s,
        sustained_rps=completed / duration_s if duration_s > 0 else 0.0,
        p50_ms=_percentile(latencies, 50.0),
        p99_ms=_percentile(latencies, 99.0),
        polls=sum(o.polls for o in outcomes),
        not_modified=sum(o.not_modified for o in outcomes),
        coalesce_ratio=coalesced / submitted if submitted else 0.0,
        coalesced=coalesced,
        executions=executions,
    )


def _percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(len(sorted_values) * q / 100.0)))
    return sorted_values[rank]


def run_load(base_url: str, scenario: Optional[LoadScenario] = None) -> LoadReport:
    """Offer one scenario to a live service and report what it sustained."""
    return asyncio.run(
        _run_load_async(base_url, scenario or LoadScenario())
    )
