"""Metrics from one measured pass, and the per-layer table.

End-to-end metrics and the gateway-tier layers come from the untraced
pass alone: client timings, the run detail's ``created_at`` /
``started_at`` / ``finished_at`` stamps, the ``RunManifest`` it carries,
and ``/metrics`` deltas. The compute layers come from the traced pass's
merged span totals.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional

from client import Outcome

WORKERS = 2


@dataclass
class Pass:
    """Everything one set-up + timed window produced."""

    setup_s: List[float] = field(default_factory=list)
    warm: List[Outcome] = field(default_factory=list)
    window: List[Outcome] = field(default_factory=list)
    start: float = 0.0
    end: float = 0.0
    closed: bool = True
    metrics_before: Dict[str, Any] = field(default_factory=dict)
    metrics_after: Dict[str, Any] = field(default_factory=dict)
    peak_rss_bytes: int = 0
    cache_dir: Optional[Path] = None
    trace: Optional[Dict[str, Any]] = None
    survivors: List[str] = field(default_factory=list)

    def outcomes(self) -> List[Outcome]:
        return self.warm + self.window

    def verified(self) -> List[Outcome]:
        """Window results verified correct and, in closed loop, returned
        inside the window."""
        return [
            o
            for o in self.window
            if o.error is None
            and o.done is not None
            and (not self.closed or o.done <= self.end)
        ]

    def throughput(self) -> float:
        return len(self.verified()) / (self.end - self.start)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(len(ordered) * q / 100.0))
    return ordered[rank - 1]


def _mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _delta(p: Pass, *path: str) -> float:
    def dig(body: Dict[str, Any]) -> float:
        for part in path:
            body = body.get(part, {}) if isinstance(body, dict) else {}
        return float(body) if isinstance(body, (int, float)) else 0.0

    return dig(p.metrics_after) - dig(p.metrics_before)


#: The window's verified results, in the order they came back, are cut
#: into this many consecutive parts of equal size. The latency
#: percentiles are taken per part and the median over the parts is
#: reported, so a burst of load from a neighbour on a shared host that
#: covers one part does not move them.
PARTS = 3


def _per_part(p: Pass, q: float) -> float:
    """Median over the window's parts of each part's latency percentile."""
    results = sorted(p.verified(), key=lambda o: o.done)
    cuts = [round(len(results) * i / PARTS) for i in range(PARTS + 1)]
    return statistics.median(
        percentile([o.latency_ms for o in results[lo:hi]], q)
        for lo, hi in zip(cuts, cuts[1:])
    )


def end_to_end(p: Pass, limit_ms: float) -> Dict[str, float]:
    good = sum(
        1
        for o in p.window
        if o.error is None and o.done is not None and o.latency_ms <= limit_ms
    )
    return {
        "setup_s": statistics.median(p.setup_s),
        "throughput_rps": p.throughput(),
        "latency_p50_ms": _per_part(p, 50),
        "latency_p90_ms": _per_part(p, 90),
        "goodput_ratio": good / max(1, len(p.window)),
        "peak_rss_mb": p.peak_rss_bytes / 2**20,
    }


def gateway_layers(p: Pass) -> Dict[str, float]:
    window = [o for o in p.window if o.facts]
    primaries = [o for o in window if not o.facts["coalesced"]]
    executed = [o for o in primaries if not o.facts["cached"]]
    waits = [
        (o.facts["started_at"] - o.facts["created_at"]) * 1000.0
        for o in primaries
        if o.facts["started_at"] is not None
    ]
    exec_ms = [
        (o.facts["finished_at"] - o.facts["started_at"]) * 1000.0
        for o in primaries
        if o.facts["started_at"] is not None and o.facts["finished_at"] is not None
    ]
    # Pool transit of the result: from the end of the worker's
    # run_experiment (its manifest's own start + wall time) until the
    # supervisor marks the job done — to_dict, the warm-cache put,
    # pickling and the pool's event queue. The job's started_at is
    # stamped when the supervisor handles the worker's "started" event,
    # which can lag the real start, so it is not used here.
    transit = [
        (o.facts["finished_at"] - o.facts["run_started_at"] - o.facts["wall_seconds"])
        * 1000.0
        for o in executed
        if o.facts["wall_seconds"] is not None and o.facts["run_started_at"] is not None
    ]
    polls = [ms for o in p.window for ms in o.poll_ms]
    hits = _delta(p, "cache", "hits")
    misses = _delta(p, "cache", "misses")
    submitted = _delta(p, "jobs", "submitted")
    resilience = p.metrics_after.get("resilience", {})
    return {
        "gateway.http.submit_ms": _mean([o.submit_ms for o in p.window if o.status]),
        "gateway.http.poll_ms": _mean(polls),
        "gateway.http.polls_per_run": len(polls) / max(1, len(p.verified())),
        "gateway.jobs.queue_wait_ms.p50": percentile(waits, 50),
        "gateway.jobs.queue_wait_ms.p99": percentile(waits, 99),
        "gateway.jobs.coalesce_ratio": _delta(p, "gateway", "coalesced") / max(1.0, submitted),
        "gateway.jobs.rejected": _delta(p, "jobs", "rejected"),
        "gateway.pool.exec_ms": _mean(exec_ms),
        "gateway.pool.transit_ms": _mean(transit),
        "gateway.pool.busy_ratio": sum(exec_ms) / 1000.0 / (WORKERS * (p.end - p.start)),
        "gateway.pool.restarts": float(resilience.get("workers_restarted", 0)),
        "gateway.pool.task_retries": float(resilience.get("task_retries", 0)),
        "experiments.registry.run_ms": _mean(
            [o.facts["run_seconds"] * 1000.0 for o in executed if o.facts["run_seconds"] is not None]
        ),
        "experiments.registry.import_ms": _mean(
            [o.facts["import_seconds"] * 1000.0 for o in executed if o.facts["import_seconds"] is not None]
        ),
        "runtime.cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "loadgen.late_p99_ms": percentile([o.late_ms for o in p.window], 99),
    }


def merge_trace(trace_dir: Path) -> Dict[str, Dict[str, Any]]:
    """Sum the per-process span files of one traced gateway, per phase."""
    phases: Dict[str, Dict[str, Any]] = {
        name: {"root": [0, 0.0], "spans": {}} for name in ("setup", "window")
    }
    for path in sorted(trace_dir.glob("*.json")):
        for name, body in json.loads(path.read_text()).items():
            merged = phases[name]
            merged["root"][0] += body["root"][0]
            merged["root"][1] += body["root"][1]
            for span, values in body["spans"].items():
                total = merged["spans"].setdefault(span, [0, 0.0, 0.0, 0])
                for i, value in enumerate(values):
                    total[i] += value
    return phases


def traced_layers(trace: Dict[str, Dict[str, Any]], overhead_ratio: float) -> Dict[str, float]:
    """Compute-layer metrics: mapping search from set-up, the rest from
    the timed window."""
    setup, window = trace["setup"]["spans"], trace["window"]["spans"]

    def get(name: str, spans: Dict[str, List[float]] = window) -> List[float]:
        return spans.get(name, [0, 0.0, 0.0, 0])

    def per_call_ms(name: str) -> float:
        calls, total = get(name)[0], get(name)[1]
        return total / calls * 1000.0 if calls else 0.0

    def rate(name: str) -> float:
        _, total, _, units = get(name)
        return units / total if total else 0.0

    return {
        "dataflow.scheduler.self_s": get("dataflow.scheduler", setup)[2],
        "dataflow.search.self_s": get("dataflow.search", setup)[2],
        "core.engine.self_s": get("core.engine")[2],
        "core.engine.calls": float(get("core.engine")[0]),
        "core.engine.tiles_per_s": rate("core.engine"),
        "fleet.simulate.self_s": get("fleet.simulate")[2],
        "fleet.dispatch.self_s": get("fleet.dispatch")[2],
        "fleet.dispatch.calls": float(get("fleet.dispatch")[0]),
        "fleet.device.build_profiles_s": get("fleet.device.build_profiles")[1],
        "fleet.sim_requests_per_s": rate("fleet.simulate"),
        "experiments.result.to_dict_ms": per_call_ms("experiments.result.to_dict"),
        "runtime.cache.get_ms": per_call_ms("runtime.cache.get"),
        "runtime.cache.put_ms": per_call_ms("runtime.cache.put"),
        "trace.overhead_ratio": overhead_ratio,
    }


TRACED_LAYERS = (
    "experiments.registry",
    "dataflow.scheduler",
    "dataflow.search",
    "core.engine",
    "fleet.simulate",
    "fleet.dispatch",
    "fleet.device.build_profiles",
    "experiments.result.to_dict",
    "runtime.cache.get",
    "runtime.cache.put",
)


def layer_table(
    name: str, p: Pass, layers: Dict[str, float], trace: Dict[str, Dict[str, Any]]
) -> str:
    """The per-layer report: calls, self time, share, wait, failures."""
    rows = []
    exchanges = sum(1 + o.polls + o.sse for o in p.window)
    http_s = sum(o.submit_ms + sum(o.poll_ms) for o in p.window) / 1000.0
    http_fail = sum(1 for o in p.window if o.error and o.state is None)
    rows.append(("gateway.http", exchanges, f"{http_s:.3f}", "-", "-", str(http_fail)))
    primaries = [o for o in p.window if o.facts and not o.facts["coalesced"]]
    wait_s = sum(
        o.facts["started_at"] - o.facts["created_at"]
        for o in primaries
        if o.facts["started_at"] is not None
    )
    rejected = int(_delta(p, "jobs", "rejected"))
    rows.append(("gateway.jobs", len(p.window), "-", "-", f"{wait_s:.3f}", f"{rejected} rejected"))
    executed = [o for o in primaries if not o.facts["cached"]]
    transit_s = layers["gateway.pool.transit_ms"] * len(executed) / 1000.0
    rows.append(
        (
            "gateway.pool",
            len(primaries),
            f"{transit_s:.3f}",
            "-",
            "-",
            f"{int(layers['gateway.pool.restarts'])}/{int(layers['gateway.pool.task_retries'])}",
        )
    )
    for phase in ("window", "setup"):
        worker_s = trace[phase]["root"][1]
        for layer in TRACED_LAYERS:
            calls, _, self_s, _ = trace[phase]["spans"].get(layer, [0, 0.0, 0.0, 0])
            if phase == "setup" and not calls:
                continue
            share = f"{self_s / worker_s:.1%}" if worker_s else "-"
            label = layer if phase == "window" else f"{layer} (set-up)"
            rows.append((label, calls, f"{self_s:.3f}", share, "-", "-"))
    header = ("layer", "calls", "self s", "share of worker", "wait s", "fail/retry")
    widths = [max(len(str(r[i])) for r in rows + [header]) for i in range(len(header))]
    lines = [
        f"per-layer report — {name}: gateway tiers from the untraced window, "
        f"compute layers from the traced window, then the traced set-up"
    ]
    for row in [header] + rows:
        lines.append("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))
    return "\n".join(lines)
