"""Traffic-driven multi-accelerator fleet simulator.

The paper levels wear *inside* one PE array; this package lifts the same
ideas one level up. N accelerators serve a seeded stream of inference
requests (:mod:`~repro.fleet.traffic`), a pluggable dispatch policy
decides which device takes each request
(:mod:`~repro.fleet.dispatch` — including ``rotational``, the RWL stride
applied to device indices with RO-style residue carried across epochs),
and each device accumulates real per-PE wear from the engine's own
usage counters (:mod:`~repro.fleet.device`). The event loop
(:mod:`~repro.fleet.simulate`) composes per-device Weibull lifetimes
into fleet MTTF, and :mod:`~repro.fleet.montecarlo` fans seeded scenario
sweeps over the parallel runtime with chunk-invariant results.
"""

from repro.fleet.device import (
    DEVICE_MODES,
    FleetDevice,
    PEDeath,
    PROFILE_POLICY,
    WorkloadProfile,
    build_profile,
    build_profiles,
)
from repro.fleet.dispatch import (
    DISPATCH_POLICY_NAMES,
    DispatchPolicy,
    LeastOutstandingDispatch,
    LeastWearDispatch,
    RotationalDispatch,
    RoundRobinDispatch,
    SLO_DISPATCH_POLICY_NAMES,
    SLOAwareDispatch,
    SLORotationalDispatch,
    make_dispatch_policy,
)
from repro.fleet.montecarlo import (
    FleetOutcome,
    FleetScenarioSamples,
    calibrated_rate,
    sample_fleet_scenarios,
)
from repro.fleet.simulate import (
    DeviceStats,
    FleetConfig,
    FleetResult,
    fleet_mttf_parallel,
    fleet_mttf_series,
    simulate_fleet,
)
from repro.fleet.traffic import (
    DEFAULT_SKEWED_MIX,
    Request,
    TRAFFIC_KINDS,
    Traffic,
    WorkloadMix,
    bursty_requests,
    make_traffic,
    poisson_requests,
    replay_requests,
)

__all__ = [
    "DEFAULT_SKEWED_MIX",
    "DEVICE_MODES",
    "DISPATCH_POLICY_NAMES",
    "DeviceStats",
    "DispatchPolicy",
    "FleetConfig",
    "FleetDevice",
    "FleetOutcome",
    "FleetResult",
    "FleetScenarioSamples",
    "LeastOutstandingDispatch",
    "LeastWearDispatch",
    "PEDeath",
    "PROFILE_POLICY",
    "Request",
    "RotationalDispatch",
    "RoundRobinDispatch",
    "SLO_DISPATCH_POLICY_NAMES",
    "SLOAwareDispatch",
    "SLORotationalDispatch",
    "TRAFFIC_KINDS",
    "Traffic",
    "WorkloadMix",
    "WorkloadProfile",
    "build_profile",
    "build_profiles",
    "bursty_requests",
    "calibrated_rate",
    "fleet_mttf_parallel",
    "fleet_mttf_series",
    "make_dispatch_policy",
    "make_traffic",
    "poisson_requests",
    "replay_requests",
    "sample_fleet_scenarios",
    "simulate_fleet",
]
