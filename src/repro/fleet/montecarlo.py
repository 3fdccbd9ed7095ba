"""Seeded Monte Carlo over fleet traffic/wear-out scenarios.

Each scenario draws fresh traffic and fresh per-device endurance-budget
fields, runs the fleet event loop under one dispatch policy, and keeps a
compact outcome record. Seeding mirrors :mod:`repro.faults.montecarlo`:
one :class:`numpy.random.SeedSequence` child is spawned per scenario *up
front*, and each child spawns exactly two grandchildren — traffic first,
budgets second — so the sampled scenario set depends only on
``(seed, num_scenarios)``, never on ``chunk_size``, ``jobs``, or how
chunks land on worker processes. Serial and parallel runs are
bit-identical.

Workload profiles are built **once in the caller's process** and shipped
to workers as plain data; workers never touch the scheduler, so a fleet
sweep fans out with no per-worker warm-up beyond unpickling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.fleet.device import WorkloadProfile, build_profiles
from repro.fleet.simulate import FleetConfig, FleetResult, simulate_fleet
from repro.fleet.traffic import WorkloadMix, make_traffic
from repro.resilience import CheckpointJournal
from repro.runtime import (
    ParallelRunner,
    accelerator_fingerprint,
    content_hash,
    seed_sequence,
)

Seed = Union[int, np.random.SeedSequence]

#: Fleet scenarios are mid-weight (an event loop over a few hundred
#: requests), between the heavy engine runs of ``faults.montecarlo``
#: (chunks of 8) and the trivial draws of ``reliability.montecarlo``.
DEFAULT_CHUNK_SIZE = 4


@dataclass(frozen=True)
class FleetOutcome:
    """Compact record of one sampled fleet scenario."""

    mttf_series_s: float
    mttf_parallel_s: float
    completed: int
    rejected: int
    dropped: int
    throughput_rps: float
    latency_p99_s: float
    wear_imbalance: float
    devices_alive_at_end: int
    pe_deaths: int
    #: Accuracy-layer fields, appended with defaults so outcome records
    #: journaled before PR 10 still unpickle.
    delivered_loss_p99: float = 0.0
    slo_violations: int = 0
    time_to_first_retirement_s: float = 0.0

    @classmethod
    def from_result(cls, result: FleetResult) -> "FleetOutcome":
        """Distill a full :class:`FleetResult` into the sweep record."""
        return cls(
            mttf_series_s=result.mttf_series_s,
            mttf_parallel_s=result.mttf_parallel_s,
            completed=result.completed,
            rejected=result.rejected,
            dropped=result.dropped,
            throughput_rps=result.throughput_rps,
            latency_p99_s=result.latency_p99_s,
            wear_imbalance=result.wear_imbalance,
            devices_alive_at_end=result.devices_alive_at_end,
            pe_deaths=len(result.pe_deaths),
            delivered_loss_p99=result.delivered_loss_p99,
            slo_violations=result.slo_violations,
            time_to_first_retirement_s=result.time_to_first_retirement_s,
        )


@dataclass(frozen=True)
class FleetScenarioSamples:
    """Aggregate of many sampled fleet scenarios for one dispatch policy."""

    policy: str
    num_devices: int
    traffic_kind: str
    outcomes: Tuple[FleetOutcome, ...]

    @property
    def num_scenarios(self) -> int:
        """How many scenarios were sampled."""
        return len(self.outcomes)

    @property
    def mean_mttf_series_s(self) -> float:
        """Mean first-device-failure MTTF across scenarios."""
        return float(np.mean([o.mttf_series_s for o in self.outcomes]))

    @property
    def mean_wear_imbalance(self) -> float:
        """Mean max-over-mean device wear across scenarios."""
        return float(np.mean([o.wear_imbalance for o in self.outcomes]))

    @property
    def mean_rejected(self) -> float:
        """Mean rejected-request count across scenarios."""
        return float(np.mean([o.rejected for o in self.outcomes]))

    @property
    def mean_time_to_first_retirement_s(self) -> float:
        """Mean time until the first device retired across scenarios."""
        return float(
            np.mean([o.time_to_first_retirement_s for o in self.outcomes])
        )

    @property
    def worst_delivered_loss_p99(self) -> float:
        """Largest per-scenario p99 delivered loss (the SLO-bound check)."""
        return float(max(o.delivered_loss_p99 for o in self.outcomes))


def _scenario_chunk(spec: Tuple) -> Tuple[FleetOutcome, ...]:
    """Run one chunk of scenarios (module-level so pools can pickle it)."""
    (
        profiles,
        accelerator,
        config,
        traffic_kind,
        num_requests,
        rate_rps,
        mix,
        scenario_seeds,
    ) = spec
    outcomes = []
    for scenario_seed in scenario_seeds:
        traffic_seed, budget_seed = scenario_seed.spawn(2)
        requests = make_traffic(
            traffic_kind, num_requests, rate_rps, mix=mix, seed=traffic_seed
        )
        result = simulate_fleet(
            profiles,
            requests,
            accelerator=accelerator,
            config=config,
            seed=budget_seed,
        )
        outcomes.append(FleetOutcome.from_result(result))
    return tuple(outcomes)


def sample_fleet_scenarios(
    accelerator: Accelerator,
    config: FleetConfig = FleetConfig(),
    traffic_kind: str = "bursty",
    num_requests: int = 256,
    rate_rps: Optional[float] = None,
    mix: Optional[WorkloadMix] = None,
    profiles: Optional[Dict[str, WorkloadProfile]] = None,
    num_scenarios: int = 16,
    seed: Seed = 2025,
    jobs: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    checkpoint: Optional[str] = None,
) -> FleetScenarioSamples:
    """Monte Carlo fleet statistics for one dispatch policy.

    ``rate_rps=None`` calibrates the arrival rate so the fleet runs at
    ~70% utilization: ``0.7 * num_devices / mean_service_seconds`` over
    the (mix-weighted) workload profiles. ``jobs`` fans scenario chunks
    over a :class:`~repro.runtime.parallel.ParallelRunner` (``None``
    reads ``REPRO_JOBS``; serial by default); results are bit-identical
    for any ``jobs`` and ``chunk_size``. ``checkpoint`` names a journal
    directory: completed chunks are recorded there and a rerun of the
    same configuration (enforced by a content-hash run key) skips them,
    still bit-identical because scenario seeds are spawned up front.
    """
    if num_scenarios < 1:
        raise ConfigurationError(
            f"num_scenarios must be positive, got {num_scenarios}"
        )
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")
    mix = mix or WorkloadMix.default_skewed()
    if profiles is None:
        profiles = build_profiles(mix.names, accelerator)
    if rate_rps is None:
        rate_rps = calibrated_rate(profiles, mix, config)
    sequence = seed_sequence(seed)
    scenario_seeds = sequence.spawn(num_scenarios)
    chunks = [
        scenario_seeds[start : start + chunk_size]
        for start in range(0, num_scenarios, chunk_size)
    ]
    journal = None
    if checkpoint is not None:
        journal = CheckpointJournal(
            checkpoint,
            run_key=content_hash(
                "fleet-scenarios",
                accelerator_fingerprint(accelerator),
                config,
                traffic_kind,
                num_requests,
                float(rate_rps),
                mix,
                num_scenarios,
                chunk_size,
                sequence,
            ),
        )
    runner = ParallelRunner(jobs)
    chunk_outcomes = runner.map(
        _scenario_chunk,
        [
            (
                profiles,
                accelerator,
                config,
                traffic_kind,
                num_requests,
                rate_rps,
                mix,
                chunk,
            )
            for chunk in chunks
        ],
        labels=[f"chunk-{index}" for index in range(len(chunks))],
        checkpoint=journal,
    )
    outcomes = tuple(outcome for chunk in chunk_outcomes for outcome in chunk)
    return FleetScenarioSamples(
        policy=config.policy,
        num_devices=config.num_devices,
        traffic_kind=traffic_kind,
        outcomes=outcomes,
    )


def calibrated_rate(
    profiles: Dict[str, WorkloadProfile],
    mix: WorkloadMix,
    config: FleetConfig,
    utilization: float = 0.7,
) -> float:
    """Arrival rate putting a healthy fleet at the given utilization.

    Uses the mix-weighted mean service time, so the default scenario is
    busy enough for queueing to matter but stable enough that the
    policies face the same effective traffic.
    """
    if not 0.0 < utilization:
        raise ConfigurationError(
            f"utilization must be positive, got {utilization}"
        )
    clock_hz = config.clock_mhz * 1e6
    probabilities = mix.probabilities
    mean_service = sum(
        probability * profiles[name].cycles / clock_hz
        for name, probability in zip(mix.names, probabilities)
    )
    if mean_service <= 0:
        raise ConfigurationError("profiles yield a zero mean service time")
    return utilization * config.num_devices / mean_service
