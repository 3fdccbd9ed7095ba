"""The fleet event loop and its lifetime/latency metrics.

:func:`simulate_fleet` drives a finite request sequence through ``N``
devices under one dispatch policy: a discrete-event simulation whose
only event kinds are request arrivals (known up front, in time order)
and service completions (a heap). Everything downstream of the traffic
and budget seeds is deterministic — ties break on event order and
device id — so a scenario is a pure function of its inputs and can be
fanned out over processes without changing a single bit of the result.

Fleet lifetime uses the series/parallel Weibull composition built on
:mod:`repro.reliability.weibull`:

* within a device, PEs form a *series* system (Eq. 2 of the paper): the
  device's stress norm is ``(sum rate**beta)**(1/beta)`` over its
  per-PE wear rates, giving a closed-form device MTTF;
* across devices, :func:`fleet_mttf_series` treats the fleet as series
  (first device failure ends the fleet — the conservative SLA view),
  which stays closed-form because a series system of Weibulls with a
  shared shape is again Weibull;
* :func:`fleet_mttf_parallel` treats it as parallel (the fleet serves
  until *every* device has died — the sustainable-reuse view of
  arXiv:2412.16208), which has no closed form and is integrated
  numerically from the survival function.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accuracy.model import (
    ACCURACY_MODEL_NAMES,
    WorkloadAccuracyProfile,
    make_accuracy_model,
)
from repro.arch.accelerator import Accelerator
from repro.errors import ConfigurationError
from repro.faults.injection import sample_endurance_budgets
from repro.fleet.device import DEVICE_MODES, FleetDevice, PEDeath, WorkloadProfile
from repro.fleet.dispatch import make_dispatch_policy
from repro.fleet.traffic import Request, Traffic
from repro.reliability.weibull import JEDEC_BETA, WeibullModel
from repro.runtime import seed_sequence

Seed = Union[int, np.random.SeedSequence]


@dataclass(frozen=True)
class FleetConfig:
    """Static configuration of one fleet scenario."""

    num_devices: int = 4
    policy: str = "rotational"
    queue_limit: int = 64
    clock_mhz: float = 200.0
    #: Mean per-PE endurance budget. ``None`` disables wear-out deaths
    #: during the simulation; lifetime is then *projected* from the
    #: final wear rates against :attr:`reference_budget`.
    mean_budget: Optional[float] = None
    #: Budget used for MTTF projection when ``mean_budget`` is None.
    reference_budget: float = 1e8
    beta: float = JEDEC_BETA
    #: A device retires once fewer than this fraction of PEs survive.
    min_alive_fraction: float = 0.5
    #: What devices do past ``min_alive_fraction``: ``retire`` (the
    #: default) or ``serve-degraded-approx`` (keep serving at
    #: model-predicted accuracy loss).
    mode: str = "retire"
    #: Accuracy model *name* used by degraded devices (``None`` picks
    #: the default); a name rather than an instance so the config stays
    #: hashable for checkpoints and caches.
    accuracy_model: Optional[str] = None

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ConfigurationError(
                f"num_devices must be positive, got {self.num_devices}"
            )
        if self.mean_budget is not None and self.mean_budget <= 0:
            raise ConfigurationError(
                f"mean_budget must be positive, got {self.mean_budget}"
            )
        if self.reference_budget <= 0:
            raise ConfigurationError(
                f"reference_budget must be positive, got {self.reference_budget}"
            )
        if self.mode not in DEVICE_MODES:
            raise ConfigurationError(
                f"unknown device mode {self.mode!r}; known: {DEVICE_MODES}"
            )
        if (
            self.accuracy_model is not None
            and self.accuracy_model not in ACCURACY_MODEL_NAMES
        ):
            raise ConfigurationError(
                f"unknown accuracy model {self.accuracy_model!r}; "
                f"known: {ACCURACY_MODEL_NAMES}"
            )

    @property
    def projection_budget(self) -> float:
        """The budget the MTTF projection is calibrated against."""
        return self.mean_budget if self.mean_budget is not None else self.reference_budget


@dataclass(frozen=True)
class DeviceStats:
    """End-of-run summary of one device."""

    device_id: int
    served: int
    total_usage: int
    peak_usage: int
    dispatched_wear: float
    dead_pes: int
    alive_fraction: float
    death_time_s: Optional[float]
    counts: np.ndarray
    #: Boolean per-PE dead mask at end of run (``None`` in old pickles).
    dead_mask: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FleetResult:
    """Everything one fleet scenario produced."""

    policy: str
    num_devices: int
    num_requests: int
    completed: int
    rejected: int
    dropped: int
    duration_s: float
    throughput_rps: float
    latency_mean_s: float
    latency_p50_s: float
    latency_p99_s: float
    mttf_series_s: float
    mttf_parallel_s: float
    device_stats: Tuple[DeviceStats, ...]
    #: ``(time_s, devices_alive)`` steps, starting at ``(0.0, N)``.
    availability: Tuple[Tuple[float, int], ...]
    pe_deaths: Tuple[PEDeath, ...]
    #: Device mode the scenario ran under (appended fields default for
    #: results pickled before the accuracy layer existed).
    mode: str = "retire"
    #: Mean and p99 of per-request *delivered* accuracy loss (fixed at
    #: admission — see :meth:`FleetDevice.admit`).
    delivered_loss_mean: float = 0.0
    delivered_loss_p99: float = 0.0
    #: Completed requests whose delivered loss exceeded their SLO.
    slo_violations: int = 0
    #: When the first device left service (the fleet's
    #: time-to-retirement); equals ``duration_s`` when no device retired.
    time_to_first_retirement_s: float = 0.0
    #: Whether no device retired (``time_to_first_retirement_s`` is then
    #: a censored lower bound, not an observed retirement).
    retirement_censored: bool = True

    @property
    def device_totals(self) -> Tuple[int, ...]:
        """Total usage per device."""
        return tuple(stats.total_usage for stats in self.device_stats)

    @property
    def wear_imbalance(self) -> float:
        """Max over mean of per-device total usage (1.0 = perfectly level)."""
        totals = np.array(self.device_totals, dtype=float)
        mean = totals.mean()
        if mean <= 0:
            return 1.0
        return float(totals.max() / mean)

    @property
    def devices_alive_at_end(self) -> int:
        """Devices still in service when the simulation ended."""
        return sum(1 for stats in self.device_stats if stats.death_time_s is None)

    @property
    def availability_fraction(self) -> float:
        """Time-averaged fraction of the fleet in service."""
        if self.duration_s <= 0:
            return 1.0
        steps = list(self.availability) + [(self.duration_s, 0)]
        weighted = 0.0
        for (start, alive), (end, _) in zip(steps, steps[1:]):
            weighted += alive * max(0.0, end - start)
        return weighted / (self.num_devices * self.duration_s)


def _budget_scale(mean_budget: float, beta: float) -> float:
    """Weibull scale (in allocations) of budgets with the given mean."""
    return mean_budget / math.gamma(1.0 + 1.0 / beta)


def fleet_mttf_series(
    rate_vectors: Sequence[np.ndarray],
    mean_budget: float,
    beta: float = JEDEC_BETA,
) -> float:
    """MTTF until the *first* device failure (series composition).

    ``rate_vectors`` hold each device's per-PE wear rates (allocations
    per second). A series system of Weibull components with a shared
    shape is again Weibull, so the closed form of Eq. 3 applies to the
    concatenation of every device's rates.
    """
    if not rate_vectors:
        raise ConfigurationError("need at least one device rate vector")
    rates = np.concatenate([np.asarray(r, dtype=float).ravel() for r in rate_vectors])
    model = WeibullModel(beta=beta, eta=_budget_scale(mean_budget, beta))
    return model.array_mttf(rates)


def fleet_mttf_parallel(
    rate_vectors: Sequence[np.ndarray],
    mean_budget: float,
    beta: float = JEDEC_BETA,
    samples: int = 4096,
) -> float:
    """MTTF until the *last* device failure (parallel composition).

    The fleet survives while at least one device does:
    ``R_fleet(t) = 1 - prod_d (1 - R_d(t))`` with each device's
    ``R_d`` the series-Weibull of its PE rates. No closed form exists,
    so the mean is the numerically integrated survival function.
    Infinite when any device accrues no wear at all.
    """
    if not rate_vectors:
        raise ConfigurationError("need at least one device rate vector")
    eta = _budget_scale(mean_budget, beta)
    model = WeibullModel(beta=beta, eta=eta)
    norms = [model.stress_norm(np.asarray(r, dtype=float).ravel()) for r in rate_vectors]
    if any(norm == 0.0 for norm in norms):
        return float("inf")
    # The slowest-wearing device dominates; integrate well past its
    # characteristic life (survival at 3 eta/norm is ~exp(-3**beta)).
    horizon = 3.0 * eta / min(norms)
    times = np.linspace(0.0, horizon, samples)
    doomed = np.ones_like(times)
    for norm in norms:
        doomed *= 1.0 - np.exp(-((times * norm / eta) ** beta))
    survival = 1.0 - doomed
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    return float(trapezoid(survival, times))


def _percentiles(values: np.ndarray, *qs: float) -> List[float]:
    """The ``qs`` percentiles of ``values`` in one call (zeros when empty)."""
    if values.size == 0:
        return [0.0] * len(qs)
    return np.percentile(values, qs).tolist()


def simulate_fleet(
    profiles: Mapping[str, WorkloadProfile],
    requests: Sequence[Request],
    accelerator: Optional[Accelerator] = None,
    config: FleetConfig = FleetConfig(),
    seed: Seed = 2025,
    accuracy_profiles: Optional[
        Mapping[str, WorkloadAccuracyProfile]
    ] = None,
) -> FleetResult:
    """Run one traffic scenario through the fleet under one policy.

    ``requests`` is a :class:`~repro.fleet.traffic.Traffic` (any other
    sequence of requests is read into one) whose arrival times must not
    decrease. ``seed`` feeds *only* the per-device endurance-budget
    sampling (one :class:`~numpy.random.SeedSequence` child per device,
    spawned up front); the traffic is already materialized in
    ``requests``. With ``config.mean_budget=None`` no budgets are drawn
    and the run is failure-free. ``accuracy_profiles`` optionally pins
    the per-workload accuracy calibration degraded devices consult
    (defaults to the global calibration in :mod:`repro.accuracy.model`).
    """
    traffic = (
        requests if isinstance(requests, Traffic) else Traffic.from_requests(requests)
    )
    if not len(traffic):
        raise ConfigurationError("a fleet scenario needs at least one request")
    if accelerator is None:
        from repro.experiments.common import paper_accelerator

        accelerator = paper_accelerator()
    arrivals = traffic.arrival_s
    backwards = np.flatnonzero(arrivals[1:] < arrivals[:-1])
    if backwards.size:
        index = int(backwards[0]) + 1
        raise ConfigurationError(
            f"request {index} arrives at {arrivals[index]} s, before request "
            f"{index - 1} at {arrivals[index - 1]} s; arrival times must not "
            "decrease"
        )
    workloads = traffic.workload
    unknown = set(workloads).difference(profiles)
    if unknown:
        index = next(i for i, name in enumerate(workloads) if name in unknown)
        raise ConfigurationError(
            f"request {index} asks for {workloads[index]!r} "
            f"but no profile was built for it; have: {sorted(profiles)}"
        )

    sequence = seed_sequence(seed)
    budgets = [None] * config.num_devices
    if config.mean_budget is not None:
        children = sequence.spawn(config.num_devices)
        budgets = [
            sample_endurance_budgets(
                accelerator.array, config.mean_budget,
                beta=config.beta, seed=child,
            )
            for child in children
        ]
    accuracy_model = None
    if config.mode == "serve-degraded-approx":
        accuracy_model = make_accuracy_model(config.accuracy_model or "pruning")
    devices = [
        FleetDevice(
            device_id=index,
            accelerator=accelerator,
            budgets=budgets[index],
            queue_limit=config.queue_limit,
            clock_mhz=config.clock_mhz,
            min_alive_fraction=config.min_alive_fraction,
            mode=config.mode,
            accuracy_model=accuracy_model,
            accuracy_profiles=accuracy_profiles,
        )
        for index in range(config.num_devices)
    ]
    policy = make_dispatch_policy(config.policy, config.num_devices)
    select = policy.select
    admits = [device.admit for device in devices]
    finishes = [device.finish for device in devices]
    # Each workload's profile with its wear footprint, looked up once
    # per arrival.
    costs = {
        name: (profile, profile.wear_units) for name, profile in profiles.items()
    }

    # The traffic columns as Python lists: the loop reads them per event.
    arrival_s = arrivals.tolist()
    max_losses = [slo.max_loss for slo in traffic.slo]
    # Completion heap: (time, sequence number, device id). The sequence
    # number makes simultaneous completions pop in start order.
    completions: List[Tuple[float, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop
    tick = 0
    # Per completion: when, which request, at what delivered loss.
    finish_times: List[float] = []
    finished_requests: List[int] = []
    delivered_losses: List[float] = []
    pe_deaths: List[PEDeath] = []
    availability: List[Tuple[float, int]] = [(0.0, config.num_devices)]
    rejected = 0
    now = 0.0
    end = len(arrival_s)
    # One pass over the arrivals plus a final one at +inf that drains
    # the completions left once the last request has arrived. Each
    # completion is one ``finish`` call and each admission one
    # ``admit`` call; both return the completion time of a request that
    # starts service, if any.
    for index, arrival in enumerate(arrival_s + [math.inf]):
        while completions and completions[0][0] <= arrival:
            now, _, device_id = heappop(completions)
            finished, loss, finish_s, deaths = finishes[device_id](now)
            finish_times.append(now)
            finished_requests.append(finished)
            delivered_losses.append(loss)
            if finish_s is not None:
                tick += 1
                heappush(completions, (finish_s, tick, device_id))
            if deaths:
                pe_deaths.extend(deaths)
                # Only budget deaths change the fault set here, so only
                # a completion that killed PEs can retire its device.
                if devices[device_id].death_time_s is not None:
                    alive = sum(1 for d in devices if d.alive)
                    availability.append((now, alive))
        if index == end:
            break
        workload = workloads[index]
        profile, wear_units = costs[workload]
        chosen = select(devices, wear_units, workload, max_losses[index])
        if chosen is None:
            rejected += 1
            continue
        finish_s = admits[chosen](index, workload, profile, arrival)
        if finish_s is not None:
            tick += 1
            heappush(completions, (finish_s, tick, chosen))

    # Completions pop in time order and arrivals do not decrease, so the
    # last event is the later of the last completion and the last arrival.
    duration = max(0.0, now, arrival_s[-1])
    completed = len(finish_times)
    dropped = sum(device.dropped for device in devices)
    # Float64 subtraction and addition round exactly as Python floats do.
    finished_array = np.array(finished_requests, dtype=np.int64)
    latency_array = np.array(finish_times, dtype=float) - arrivals[finished_array]
    loss_array = np.array(delivered_losses, dtype=float)
    slo_violations = int(
        np.count_nonzero(
            loss_array > np.array(max_losses)[finished_array] + 1e-12
        )
    )
    latency_p50, latency_p99 = _percentiles(latency_array, 50.0, 99.0)
    (loss_p99,) = _percentiles(loss_array, 99.0)
    death_times = [
        device.death_time_s
        for device in devices
        if device.death_time_s is not None
    ]
    retirement_censored = not death_times
    time_to_first_retirement = (
        duration if retirement_censored else min(death_times)
    )
    rate_vectors = [
        device.ledger.astype(float) / duration if duration > 0 else device.ledger * 0.0
        for device in devices
    ]
    projection_budget = config.projection_budget
    stats = tuple(
        DeviceStats(
            device_id=device.device_id,
            served=device.served,
            total_usage=device.total_usage,
            peak_usage=device.peak_usage,
            dispatched_wear=device.dispatched_wear,
            dead_pes=device.faults.num_dead,
            alive_fraction=device.alive_fraction,
            death_time_s=device.death_time_s,
            counts=device.ledger.copy(),
            dead_mask=device.faults.dead_mask.copy(),
        )
        for device in devices
    )
    return FleetResult(
        policy=config.policy,
        num_devices=config.num_devices,
        num_requests=len(traffic),
        completed=completed,
        rejected=rejected,
        dropped=dropped,
        duration_s=duration,
        throughput_rps=completed / duration if duration > 0 else 0.0,
        latency_mean_s=float(latency_array.mean()) if latency_array.size else 0.0,
        latency_p50_s=latency_p50,
        latency_p99_s=latency_p99,
        mttf_series_s=fleet_mttf_series(rate_vectors, projection_budget, config.beta),
        mttf_parallel_s=fleet_mttf_parallel(rate_vectors, projection_budget, config.beta),
        device_stats=stats,
        availability=tuple(availability),
        pe_deaths=tuple(pe_deaths),
        mode=config.mode,
        delivered_loss_mean=float(loss_array.mean()) if loss_array.size else 0.0,
        delivered_loss_p99=loss_p99,
        slo_violations=slo_violations,
        time_to_first_retirement_s=time_to_first_retirement,
        retirement_censored=retirement_censored,
    )
