"""The ``rota bench`` snapshot runner.

Each run executes a pinned benchmark configuration and produces a
:class:`BenchSnapshot`: a named set of :class:`Metric` values with an
improvement direction, plus enough environment context to interpret a
number recorded on another machine. Snapshots serialize to
``BENCH_<n>.json`` files at the repo root; the sequence of committed
files is the project's durable performance trajectory.

Sections
--------
``engine``
    1,000 network iterations of ResNet-50 on the paper's Eyeriss-scale
    array, timed through the iterative walk and through the analytic
    orbit fold (``mode="analytic"``), reported as tiles/second plus the
    fold's speedup factor. Both runs produce bit-identical ledgers (the
    equivalence property suite enforces this); the bench re-asserts it.
``fleet``
    Wall-clock of a :func:`repro.fleet.montecarlo.
    sample_fleet_scenarios` batch (traffic-driven multi-device Monte
    Carlo, wear applied through memoized workload profiles).
``faults``
    Wall-clock of a :func:`repro.faults.montecarlo.
    sample_fault_scenarios` batch (run-until-death engine scenarios on
    sampled endurance-budget fields).
``service``
    Submit-to-result latency through the in-process
    :class:`~repro.gateway.api.GatewayAPI` over a 2-process ``fork``
    :class:`~repro.gateway.jobs.GatewayJobManager` — the HTTP surface
    minus the socket — reported as p50/p99 milliseconds.
``mapping_search``
    Beam-search throughput over one real-size conv layer (candidates
    evaluated per second, wear profiles included) and the wall-clock
    speedup of dominance-pruned divisor-lattice enumeration over
    generate-and-test on a small layer.
``service_load``
    Open-loop duplicated-traffic load (seeded fleet-traffic arrivals
    over real HTTP) against a 4-process ``rota gateway``: sustained
    RPS, p99 latency, and coalesce ratio. The gateway runs with every
    result cache disabled so the run prices executions, not cache
    reads.

Cache hit rate is collected over the fleet section (the profile
memoization path) via :func:`repro.runtime.observe.collect_metrics`.
"""

from __future__ import annotations

import json
import platform
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError

SCHEMA_VERSION = 1

#: ``BENCH_<n>.json`` — the only filename shape the trajectory scans.
_SNAPSHOT_PATTERN = re.compile(r"^BENCH_(\d+)\.json$")


@dataclass(frozen=True)
class Metric:
    """One recorded benchmark number."""

    name: str
    value: float
    unit: str
    #: ``"higher"`` or ``"lower"`` — which way is better. The comparator
    #: uses this to decide what counts as a regression.
    direction: str
    #: Absolute movement below this never counts as a regression, no
    #: matter the relative change — sub-millisecond latency jitter and
    #: sub-second wall-clock noise would otherwise trip the relative
    #: threshold on metrics whose absolute scale is tiny.
    atol: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "value": self.value,
            "unit": self.unit,
            "direction": self.direction,
            "atol": self.atol,
        }


@dataclass(frozen=True)
class BenchConfig:
    """A pinned benchmark configuration (so snapshots stay comparable)."""

    label: str
    engine_iterations: int
    fleet_scenarios: int
    fleet_requests: int
    faults_scenarios: int
    faults_max_iterations: int
    service_submissions: int
    mapping_beam_width: int
    load_requests: int
    load_rate_rps: float
    #: The SLO-routed degraded-service bracket (fields appended so
    #: pinned positional configs above keep their meaning).
    fleet_accuracy_requests: int = 256
    fleet_accuracy_runs: int = 3


#: CI configuration: small Monte Carlo batches, full-scale engine run
#: (the ≥5x analytic speedup claim is only meaningful at paper scale).
SMOKE = BenchConfig(
    label="smoke",
    engine_iterations=1000,
    fleet_scenarios=8,
    fleet_requests=2048,
    faults_scenarios=4,
    faults_max_iterations=300,
    service_submissions=16,
    mapping_beam_width=8,
    load_requests=48,
    load_rate_rps=24.0,
    fleet_accuracy_requests=512,
    fleet_accuracy_runs=3,
)

FULL = BenchConfig(
    label="full",
    engine_iterations=1000,
    fleet_scenarios=8,
    fleet_requests=256,
    faults_scenarios=16,
    faults_max_iterations=1000,
    service_submissions=64,
    mapping_beam_width=8,
    load_requests=64,
    load_rate_rps=32.0,
    fleet_accuracy_requests=512,
    fleet_accuracy_runs=3,
)


@dataclass(frozen=True)
class BenchSnapshot:
    """One complete bench run, ready to serialize."""

    schema: int
    config: str
    created: str
    environment: Dict[str, str]
    metrics: Tuple[Metric, ...]

    def metric(self, name: str) -> Metric:
        """Look up one metric by name."""
        for metric in self.metrics:
            if metric.name == name:
                return metric
        raise ConfigurationError(f"snapshot has no metric {name!r}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema": self.schema,
            "config": self.config,
            "created": self.created,
            "environment": dict(self.environment),
            "metrics": {metric.name: metric.to_dict() for metric in self.metrics},
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "BenchSnapshot":
        metrics = tuple(
            Metric(
                name=name,
                value=float(entry["value"]),
                unit=str(entry["unit"]),
                direction=str(entry["direction"]),
                atol=float(entry.get("atol", 0.0)),
            )
            for name, entry in sorted(payload["metrics"].items())
        )
        return cls(
            schema=int(payload["schema"]),
            config=str(payload["config"]),
            created=str(payload["created"]),
            environment=dict(payload.get("environment", {})),
            metrics=metrics,
        )

    def save(self, path: Path) -> Path:
        from repro.resilience import atomic_write_text

        path = Path(path)
        atomic_write_text(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        return path.resolve()

    def format(self) -> str:
        """Human-readable table of the recorded metrics."""
        width = max(len(metric.name) for metric in self.metrics)
        lines = [f"bench snapshot ({self.config}, {self.created}):"]
        for metric in self.metrics:
            arrow = "↑" if metric.direction == "higher" else "↓"
            lines.append(
                f"  {metric.name:<{width}}  {metric.value:>14,.2f} "
                f"{metric.unit} ({arrow} better)"
            )
        return "\n".join(lines)


# -- snapshot file numbering ---------------------------------------------


def snapshot_paths(root: Path) -> List[Path]:
    """All ``BENCH_<n>.json`` files under ``root``, ordered by number."""
    root = Path(root)
    numbered = []
    for path in root.glob("BENCH_*.json"):
        match = _SNAPSHOT_PATTERN.match(path.name)
        if match:
            numbered.append((int(match.group(1)), path))
    return [path for _, path in sorted(numbered)]


def latest_snapshot_path(root: Path) -> Optional[Path]:
    """The highest-numbered committed snapshot, or ``None``."""
    paths = snapshot_paths(root)
    return paths[-1] if paths else None


def next_snapshot_path(root: Path, number: Optional[int] = None) -> Path:
    """Where the next snapshot should be written under ``root``."""
    if number is None:
        paths = snapshot_paths(root)
        number = (
            int(_SNAPSHOT_PATTERN.match(paths[-1].name).group(1)) + 1
            if paths
            else 1
        )
    return Path(root) / f"BENCH_{number}.json"


def load_snapshot(path: Path) -> BenchSnapshot:
    """Read one snapshot file back."""
    return BenchSnapshot.from_dict(json.loads(Path(path).read_text()))


# -- bench sections -------------------------------------------------------


def _bench_engine(config: BenchConfig) -> List[Metric]:
    """Iterative vs analytic engine throughput at paper scale."""
    from repro.core.engine import WearLevelingEngine
    from repro.core.policies import make_policy
    from repro.experiments.common import paper_accelerator, streams_for

    accelerator = paper_accelerator()
    streams = streams_for("ResNet-50", accelerator)
    tiles_total = sum(stream.num_tiles for stream in streams)
    tiles_total *= config.engine_iterations

    def timed(mode: str):
        # Best of two passes: each engine starts with cold per-instance
        # memos, so repetition only filters out interpreter/OS noise.
        best_s, result = float("inf"), None
        for _ in range(2):
            engine = WearLevelingEngine(accelerator, make_policy("rwl+ro"))
            start = time.perf_counter()
            result = engine.run(
                streams,
                iterations=config.engine_iterations,
                record_trace=False,
                mode=mode,
            )
            best_s = min(best_s, time.perf_counter() - start)
        return best_s, result

    iterative_s, iterative = timed("iterative")
    analytic_s, analytic = timed("analytic")
    if not np.array_equal(iterative.counts, analytic.counts):
        raise ConfigurationError(
            "analytic and iterative engine runs diverged during the bench"
        )
    return [
        Metric(
            "engine_iterative_tiles_per_s",
            tiles_total / iterative_s,
            "tiles/s",
            "higher",
        ),
        Metric(
            "engine_analytic_tiles_per_s",
            tiles_total / analytic_s,
            "tiles/s",
            "higher",
        ),
        Metric(
            "engine_analytic_speedup", iterative_s / analytic_s, "x", "higher"
        ),
    ]


def _bench_fleet(config: BenchConfig) -> List[Metric]:
    """Fleet Monte Carlo wall-clock plus the profile-cache hit rate."""
    from repro.experiments.common import paper_accelerator
    from repro.fleet import device
    from repro.fleet.montecarlo import sample_fleet_scenarios
    from repro.runtime.observe import collect_metrics

    accelerator = paper_accelerator()

    def sample():
        sample_fleet_scenarios(
            accelerator,
            num_requests=config.fleet_requests,
            num_scenarios=config.fleet_scenarios,
            seed=2025,
        )

    # Untimed warmup fills the workload-profile cache so the timed pass
    # measures steady-state dispatch + wear cost, not first-call cache
    # fills — matching the bench suite's ``once`` convention and keeping
    # the number comparable between a developer machine and cold CI.
    # Emptying the per-process profile memo afterwards sends the timed
    # pass's profile lookups to the persistent cache, which is what the
    # hit rate measures (with the memo warm it would see no lookups).
    sample()
    device._PROFILE_MEMO.clear()
    with collect_metrics() as observed:
        start = time.perf_counter()
        sample()
        wall_s = time.perf_counter() - start
    lookups = observed.cache_hits + observed.cache_misses
    hit_rate = observed.cache_hits / lookups if lookups else 0.0
    return [
        Metric("fleet_mc_wall_s", wall_s, "s", "lower", atol=0.25),
        Metric("fleet_cache_hit_rate", hit_rate, "ratio", "higher"),
    ]


def _bench_fleet_accuracy(config: BenchConfig) -> List[Metric]:
    """SLO-routed degraded dispatch cost versus the rotational baseline.

    Times back-to-back fleet scenarios under ``slo_aware`` +
    ``serve-degraded-approx`` against ``rotational`` + ``retire`` on the
    same SLO-tagged traffic and budget seeds. The overhead ratio is the
    per-*completed-request* cost (degraded fleets serve more of the
    offered traffic, so wall-clock alone would overstate the dispatch
    cost).
    """
    from repro.accuracy.slo import SLOClass
    from repro.experiments.common import paper_accelerator
    from repro.experiments.fleet import _calibrated_fleet_budget
    from repro.fleet.device import build_profiles
    from repro.fleet.montecarlo import calibrated_rate
    from repro.fleet.simulate import FleetConfig, simulate_fleet
    from repro.fleet.traffic import WorkloadMix, make_traffic

    accelerator = paper_accelerator()
    mix = WorkloadMix.default_skewed().with_slos(
        (("SqueezeNet", SLOClass.tolerant(0.12)),)
    )
    profiles = build_profiles(mix.names, accelerator)
    budget = _calibrated_fleet_budget(
        profiles, mix, 4, config.fleet_accuracy_requests
    )
    base = FleetConfig(
        num_devices=4,
        policy="rotational",
        mean_budget=budget,
        min_alive_fraction=0.75,
    )
    rate = calibrated_rate(profiles, mix, base)
    requests = make_traffic(
        "bursty", config.fleet_accuracy_requests, rate, mix=mix, seed=2025
    )
    slo = FleetConfig(
        num_devices=4,
        policy="slo_aware",
        mean_budget=budget,
        min_alive_fraction=0.75,
        mode="serve-degraded-approx",
    )

    def timed(fleet_config):
        completed = 0
        start = time.perf_counter()
        for run in range(config.fleet_accuracy_runs):
            result = simulate_fleet(
                profiles,
                requests,
                accelerator=accelerator,
                config=fleet_config,
                seed=run,
            )
            completed += result.completed
        return time.perf_counter() - start, completed

    # Warmup fills the profile cache and the accuracy-calibration memo.
    simulate_fleet(
        profiles, requests, accelerator=accelerator, config=slo, seed=0
    )
    baseline_s, baseline_completed = timed(base)
    slo_s, slo_completed = timed(slo)
    scenarios_per_s = config.fleet_accuracy_runs / slo_s
    overhead = (slo_s / max(1, slo_completed)) / (
        baseline_s / max(1, baseline_completed)
    )
    return [
        Metric(
            "fleet_accuracy_scenarios_per_s",
            scenarios_per_s,
            "1/s",
            "higher",
        ),
        Metric(
            "fleet_accuracy_dispatch_overhead",
            overhead,
            "x",
            "lower",
            atol=0.75,
        ),
    ]


def _bench_faults(config: BenchConfig) -> List[Metric]:
    """Run-until-death fault Monte Carlo wall-clock."""
    from repro.experiments.common import paper_accelerator, streams_for
    from repro.faults.montecarlo import sample_fault_scenarios

    accelerator = paper_accelerator()
    streams = streams_for("SqueezeNet", accelerator)
    start = time.perf_counter()
    sample_fault_scenarios(
        accelerator,
        streams,
        num_scenarios=config.faults_scenarios,
        max_iterations=config.faults_max_iterations,
        seed=2025,
    )
    return [
        Metric(
            "faults_mc_wall_s",
            time.perf_counter() - start,
            "s",
            "lower",
            atol=1.0,
        )
    ]


def _bench_service(config: BenchConfig) -> List[Metric]:
    """Submit-to-result latency through the in-process gateway API."""
    from repro.gateway.api import GatewayAPI
    from repro.gateway.jobs import GatewayJobManager

    def submit_and_wait(api):
        start = time.perf_counter()
        submitted = api.handle("POST", "/v1/experiments/unfold/runs", {})
        if submitted.status != 202:
            raise ConfigurationError(
                f"bench job submission failed: {submitted.payload}"
            )
        job_id = submitted.payload["job"]["id"]
        while True:
            detail = api.handle("GET", f"/v1/runs/{job_id}", None)
            if detail.payload["state"] in ("done", "failed", "cancelled"):
                break
            time.sleep(0.002)
        if detail.payload["state"] != "done":
            raise ConfigurationError(
                f"bench job failed: {detail.payload.get('error')}"
            )
        return (time.perf_counter() - start) * 1000.0

    manager = GatewayJobManager(workers=2, start_method="fork")
    manager.start()
    api = GatewayAPI(manager)
    latencies_ms = []
    try:
        # One untimed warmup run pays the experiment's cold cost; the
        # timed submissions then measure the service round-trip itself
        # (queue, dispatch, warm-cache execution, status polling).
        submit_and_wait(api)
        for _ in range(config.service_submissions):
            latencies_ms.append(submit_and_wait(api))
    finally:
        manager.shutdown(timeout=10.0)
    return [
        Metric(
            "service_submit_p50_ms",
            float(np.percentile(latencies_ms, 50)),
            "ms",
            "lower",
            atol=5.0,
        ),
        Metric(
            "service_submit_p99_ms",
            float(np.percentile(latencies_ms, 99)),
            "ms",
            "lower",
            atol=10.0,
        ),
    ]


def _bench_mapping_search(config: BenchConfig) -> List[Metric]:
    """Beam-search throughput and the enumeration-pruning payoff.

    Throughput prices a real-size conv layer through the beam engine
    (spatial ranking + thinned temporal enumeration + wear profiles)
    and reports candidates evaluated per second. The pruning metric
    walks one small layer's divisor lattice twice — dominance cuts on
    vs generate-and-test — and reports the wall-clock ratio.
    """
    from repro.dataflow.layer import LayerShape
    from repro.dataflow.scheduler import SchedulerOptions
    from repro.dataflow.search import search_layer
    from repro.dataflow.space import MappingSpace, SpaceStats
    from repro.experiments.common import paper_accelerator

    accelerator = paper_accelerator()
    layer = LayerShape.conv("bench", 64, 32, (28, 28), (3, 3))
    options = SchedulerOptions(
        objective="energy-wear",
        search="beam",
        beam_width=config.mapping_beam_width,
    )
    # Best of two: the second pass reuses warmed wear-profile memos the
    # way a network-level search would.
    best_s, result = float("inf"), None
    for _ in range(2):
        start = time.perf_counter()
        result = search_layer(accelerator, layer, options)
        best_s = min(best_s, time.perf_counter() - start)
    mappings_per_s = result.stats.evaluated / best_s

    # Channel-heavy enough that per-PE buffer legality cuts real
    # subtrees; small enough that the naive walk stays sub-second.
    small = LayerShape.conv("bench-small", 128, 128, (7, 7), (3, 3))
    small_options = SchedulerOptions(dataflow="output_stationary")
    space = MappingSpace(accelerator, small, small_options)

    def enumerate_all(prune: bool) -> float:
        stats = SpaceStats()
        start = time.perf_counter()
        for _ in space.points(prune=prune, stats=stats):
            pass
        return time.perf_counter() - start

    pruned_s = min(enumerate_all(prune=True) for _ in range(2))
    naive_s = min(enumerate_all(prune=False) for _ in range(2))
    return [
        Metric(
            "mapping_search_mappings_per_s",
            mappings_per_s,
            "mappings/s",
            "higher",
        ),
        Metric(
            "mapping_search_prune_speedup",
            naive_s / pruned_s,
            "x",
            "higher",
            # Both passes are short; interpreter noise must not read as
            # a pruning regression.
            atol=0.5,
        ),
    ]


def _bench_service_load(config: BenchConfig) -> List[Metric]:
    """The gateway under duplicated open-loop load.

    A seeded scenario (fleet-traffic arrivals over a small class set,
    so identical submissions overlap in flight) is offered to a
    4-process gateway with its warm cache disabled *and* with
    ``REPRO_RESULT_CACHE=off`` in the executing processes — the
    experiments' internal memoization would otherwise collapse every
    repeat execution to a cache read and the run would price nothing.
    """
    import os
    import tempfile

    from repro.gateway.loadgen import LoadScenario, run_load
    from repro.gateway.server import GatewayConfig, GatewayService

    scenario = LoadScenario(
        num_requests=config.load_requests, rate_rps=config.load_rate_rps
    )
    cache_env_before = os.environ.get("REPRO_RESULT_CACHE")
    os.environ["REPRO_RESULT_CACHE"] = "off"
    try:
        gateway = GatewayService(
            GatewayConfig(
                port=0,
                workers=4,
                queue_depth=max(256, config.load_requests),
                start_method="fork",
                cache_dir=tempfile.mkdtemp(prefix="rota-bench-gw-"),
                cache_enabled=False,
            )
        )
        gateway.start()
        try:
            report = run_load(gateway.url, scenario)
        finally:
            gateway.shutdown()
    finally:
        if cache_env_before is None:
            os.environ.pop("REPRO_RESULT_CACHE", None)
        else:
            os.environ["REPRO_RESULT_CACHE"] = cache_env_before

    if report.errors_5xx:
        raise ConfigurationError(
            f"load bench saw {report.errors_5xx} 5xx responses"
        )
    return [
        Metric(
            "service_load_gateway_rps",
            report.sustained_rps,
            "req/s",
            "higher",
            # Sustained RPS is wall-clock-bound: a loaded CI box slows
            # every execution, not the gateway's mechanics.
            atol=6.0,
        ),
        Metric(
            "service_load_gateway_p99_ms",
            report.p99_ms,
            "ms",
            "lower",
            atol=1000.0,
        ),
        Metric(
            "service_load_coalesce_ratio",
            report.coalesce_ratio,
            "ratio",
            "higher",
            # The ratio depends on in-flight overlap, which timing
            # jitter shifts by a request or two per run.
            atol=0.1,
        ),
    ]


_SECTIONS = (
    _bench_engine,
    _bench_fleet,
    _bench_fleet_accuracy,
    _bench_faults,
    _bench_service,
    _bench_mapping_search,
    _bench_service_load,
)


def run_bench(smoke: bool = False) -> BenchSnapshot:
    """Execute every bench section and assemble the snapshot."""
    config = SMOKE if smoke else FULL
    metrics: List[Metric] = []
    for section in _SECTIONS:
        metrics.extend(section(config))
    created = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    environment = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }
    return BenchSnapshot(
        schema=SCHEMA_VERSION,
        config=config.label,
        created=created,
        environment=environment,
        metrics=tuple(metrics),
    )
