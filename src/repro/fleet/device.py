"""Per-device state of the fleet simulator.

A :class:`FleetDevice` wraps exactly the state the single-array stack
already models, at request granularity:

* the engine's per-PE usage ledger — each served request adds its
  workload's :class:`WorkloadProfile` counts (one engine iteration's
  worth of wear) to the same ``(h, w)`` array the
  :class:`~repro.core.tracker.UsageTracker` keeps;
* :class:`~repro.faults.state.FaultState` — PEs die when the ledger
  crosses per-PE Weibull endurance budgets
  (:func:`repro.faults.injection.sample_endurance_budgets`), and the
  device retires once too few PEs survive;
* a bounded FIFO queue with service times from the cycle model
  (:meth:`NetworkExecution.total_cycles <repro.dataflow.simulator.
  NetworkExecution.total_cycles>`), slowed down as PEs die.

Profiles are computed once per workload by actually scheduling the
network and running the wear-leveling engine for one iteration, so fleet
wear is grounded in the same per-PE counts every paper figure uses —
not a synthetic abstraction of them.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.accuracy.model import (
    AccuracyModel,
    WorkloadAccuracyProfile,
    accuracy_profile_for,
    make_accuracy_model,
)
from repro.arch.accelerator import Accelerator
from repro.core.engine import WearLevelingEngine
from repro.core.policies import StrideTrigger, make_policy
from repro.errors import ConfigurationError, SimulationError
from repro.faults.injection import EnduranceBudgets
from repro.faults.state import FaultState
from repro.runtime.memo import Memo

#: Intra-device wear-leveling policy assumed when profiling workloads:
#: fleet devices are RoTA accelerators, so each runs RWL+RO internally.
PROFILE_POLICY = "rwl+ro"

#: ``remaining`` of a dead PE: far above any ledger a run can reach
#: (ledgers stay below 2**53), so a dead PE never reads as crossed and
#: never sets the headroom.
_DEAD_REMAINING = 2**62

#: What a device does once its alive fraction falls under
#: ``min_alive_fraction``: ``retire`` leaves service (the PR-5
#: behavior); ``serve-degraded-approx`` keeps serving at model-predicted
#: accuracy loss — the dead PEs' work is approximated away rather than
#: recomputed, so service time stops paying the slowdown too.
DEVICE_MODES = ("retire", "serve-degraded-approx")


@dataclass(frozen=True)
class WorkloadProfile:
    """One workload's per-request footprint on one accelerator.

    ``counts`` is the per-PE usage increment of a single inference (one
    engine iteration under the device's intra-array wear-leveling
    policy); ``cycles`` its service latency from the cycle model.
    ``counts`` is a read-only private copy: profiles are memoized and
    shared across simulations, so none of them may mutate it.

    Two plain attributes are derived from ``counts`` once, because the
    event loop reads them on every request: ``wear_units``, the total
    usage increment of one request (its wear footprint), and
    ``peak_count``, the largest single-PE increment of one request (the
    most any one cell moves per request, which the device's lazy wear
    application budgets against).
    """

    workload: str
    counts: np.ndarray
    cycles: int

    def __post_init__(self) -> None:
        array = np.array(self.counts, dtype=np.int64)
        if array.ndim != 2:
            raise ConfigurationError(
                f"profile counts must be 2-D, got shape {array.shape}"
            )
        if self.cycles < 1:
            raise ConfigurationError(
                f"profile cycles must be positive, got {self.cycles}"
            )
        array.setflags(write=False)
        object.__setattr__(self, "counts", array)
        self._derive()

    def __setstate__(self, state) -> None:
        # Unpickling (result cache, pool workers) skips __post_init__
        # and yields a writable array; re-freeze it. Profiles pickled
        # before the derived attributes existed get them here.
        self.__dict__.update(state)
        self.counts.setflags(write=False)
        self._derive()

    def _derive(self) -> None:
        object.__setattr__(self, "wear_units", float(self.counts.sum()))
        object.__setattr__(self, "peak_count", int(self.counts.max()))


#: Per-process profile memo keyed by :func:`_profile_key`: a fleet
#: study asks for the same few workloads on every request, and a
#: result-cache miss (or the cache being off) would otherwise re-run one
#: engine iteration per workload.
_PROFILE_MEMO = Memo()


def _profile_key(
    workload: str,
    accelerator: Accelerator,
    policy_name: str,
    options=None,
) -> str:
    """Content key of one workload profile for the persistent cache.

    Deliberately computable *without* scheduling the network: a hit must
    skip the dataflow scheduler entirely (that is the expensive part
    every fleet Monte Carlo worker process used to repeat). The
    scheduler is deterministic in (network, accelerator, options), so
    the canonical network name plus the full accelerator fingerprint
    and the scheduler options pin the streams exactly; the schema
    version is bumped whenever engine or scheduler semantics change.
    ``options=None`` (the scheduler defaults) keys identically to an
    explicit default ``SchedulerOptions()``.
    """
    from repro.dataflow.scheduler import SchedulerOptions
    from repro.runtime import (
        CACHE_SCHEMA_VERSION,
        accelerator_fingerprint,
        content_hash,
    )
    from repro.workloads.registry import get_network

    return content_hash(
        "workload_profile",
        CACHE_SCHEMA_VERSION,
        get_network(workload).name,
        accelerator_fingerprint(accelerator),
        policy_name,
        SchedulerOptions() if options is None else options,
    )


def build_profile(
    workload: str,
    accelerator: Optional[Accelerator] = None,
    policy_name: str = PROFILE_POLICY,
    options=None,
) -> WorkloadProfile:
    """Profile one workload: schedule it, run one engine iteration.

    ``options`` (a :class:`~repro.dataflow.scheduler.SchedulerOptions`,
    default the scheduler's defaults) selects how the workload is
    mapped — a wear-aware fleet profiles its devices with
    ``search="beam", objective="energy-wear"`` and gets different
    per-PE counts than the greedy energy-optimal mapping.

    Memoized three times over: a per-process memo (bounded by the
    execution-cache cap) returns a profile this process already built;
    the persistent :class:`~repro.runtime.cache.ResultCache`
    (content-keyed on workload + accelerator + policy + options) lets
    separate processes — fleet Monte Carlo workers in particular — skip
    both the scheduler and the engine; and the shared per-process
    execution cache (:func:`repro.experiments.common.execution_for`)
    de-duplicates scheduling within a process on a cache miss.
    """
    from repro.experiments.common import paper_accelerator

    accelerator = accelerator or paper_accelerator()
    key = _profile_key(workload, accelerator, policy_name, options)
    return _PROFILE_MEMO.get_or_build(
        key,
        lambda: _load_or_build_profile(
            key, workload, accelerator, policy_name, options
        ),
    )


def _load_or_build_profile(
    key: str,
    workload: str,
    accelerator: Accelerator,
    policy_name: str,
    options,
) -> WorkloadProfile:
    """A profile from the persistent result cache, built on a miss."""
    from repro.experiments.common import execution_for
    from repro.runtime import result_cache

    store = result_cache()
    hit = store.get(key)
    if isinstance(hit, WorkloadProfile):
        return hit
    execution = execution_for(workload, accelerator, options)
    policy = make_policy(policy_name, StrideTrigger.ORIGIN)
    target = (
        accelerator.as_torus() if policy.requires_torus else accelerator.as_mesh()
    )
    engine = WearLevelingEngine(target, policy)
    result = engine.run(
        execution.streams(), iterations=1, record_trace=False, mode="analytic"
    )
    profile = WorkloadProfile(
        workload=execution.network_name,
        counts=result.counts.astype(np.int64),
        cycles=int(execution.total_cycles),
    )
    store.put(key, profile)
    return profile


def build_profiles(
    workloads: Sequence[str],
    accelerator: Optional[Accelerator] = None,
    policy_name: str = PROFILE_POLICY,
    options=None,
) -> Dict[str, WorkloadProfile]:
    """Profiles for several workloads.

    Keyed by both the name as requested and the canonical network name,
    so requests tagged with either form (``"Sqz"`` or ``"SqueezeNet"``)
    resolve to the same profile. ``options`` selects the mapping the
    devices run, exactly as in :func:`build_profile`.
    """
    profiles: Dict[str, WorkloadProfile] = {}
    for workload in workloads:
        profile = build_profile(workload, accelerator, policy_name, options)
        profiles[workload] = profile
        profiles[profile.workload] = profile
    return profiles


@dataclass(frozen=True)
class PEDeath:
    """One PE wearing out on one device, at simulated time ``time_s``."""

    device_id: int
    time_s: float
    u: int
    v: int


class FleetDevice:
    """One accelerator in the fleet: queue, wear ledger, fault state."""

    def __init__(
        self,
        device_id: int,
        accelerator: Accelerator,
        budgets: Optional[EnduranceBudgets] = None,
        queue_limit: int = 64,
        clock_mhz: float = 200.0,
        min_alive_fraction: float = 0.5,
        mode: str = "retire",
        accuracy_model: Optional[AccuracyModel] = None,
        accuracy_profiles: Optional[
            Mapping[str, WorkloadAccuracyProfile]
        ] = None,
    ) -> None:
        if queue_limit < 1:
            raise ConfigurationError(
                f"queue_limit must be positive, got {queue_limit}"
            )
        if clock_mhz <= 0:
            raise ConfigurationError(
                f"clock_mhz must be positive, got {clock_mhz}"
            )
        if not 0.0 < min_alive_fraction <= 1.0:
            raise ConfigurationError(
                f"min_alive_fraction must be in (0, 1], got {min_alive_fraction}"
            )
        if mode not in DEVICE_MODES:
            raise ConfigurationError(
                f"unknown device mode {mode!r}; known: {DEVICE_MODES}"
            )
        array = accelerator.array
        if budgets is not None and budgets.shape != array.shape:
            raise ConfigurationError(
                f"budget shape {budgets.shape} does not match the "
                f"{array.width}x{array.height} array"
            )
        self.device_id = device_id
        self._array = array
        self._budgets = budgets
        self._queue_limit = queue_limit
        self._clock_hz = clock_mhz * 1e6
        self._min_alive_fraction = min_alive_fraction
        self.mode = mode
        self._retire_mode = mode == "retire"
        if mode == "serve-degraded-approx" and accuracy_model is None:
            accuracy_model = make_accuracy_model("pruning")
        self._accuracy_model = accuracy_model
        self._accuracy_profiles = accuracy_profiles
        # Per-event reads are memoized on what they depend on. Fault
        # versions: every kill or revive bumps ``faults.version``, so
        # ``predicted_loss`` per workload, the service-time factor and
        # the retirement test cannot go stale (retirement also resets
        # the service factor, which depends on being alive). ``served``:
        # the ledger only changes when a request completes, so
        # ``peak_wear`` is keyed on the completion count.
        self._loss_version = -1
        self._loss_memo: Dict[str, float] = {}
        self._service_version = -1
        self._service_factor = 1.0
        self._retire_version = -1
        self._peak_wear_served = -1
        self._peak_wear = 0.0
        self._ledger = np.zeros(array.shape, dtype=np.int64)
        self._faults = FaultState.none(array)
        # Integer budget check: ``_remaining`` is ``ceil(budget) -
        # ledger`` per PE (int64), with dead PEs at ``_DEAD_REMAINING``.
        # For an integer ledger below 2**53, ``ledger >= budget`` exactly
        # when ``ceil(budget) - ledger <= 0``, so a PE crosses its budget
        # exactly when its ``remaining`` drops to zero or below, and
        # ``remaining.min()`` is the device's headroom. ``None`` without
        # budgets. ``_remaining_version`` is the fault version it was
        # last brought in line with.
        self._ceil_budgets: Optional[np.ndarray] = None
        self._remaining: Optional[np.ndarray] = None
        self._remaining_version = self._faults.version
        self._headroom = 0
        if budgets is not None:
            self._ceil_budgets = np.minimum(
                np.ceil(budgets.budgets), _DEAD_REMAINING
            ).astype(np.int64)
            self._remaining = self._ceil_budgets.copy()
            self._headroom = int(self._remaining.min())
        # Lazy wear application: completed requests park their profile
        # here (keyed by profile identity, with a repeat count) until a
        # ledger read or a possible budget crossing forces the batch to
        # materialize. ``_headroom`` is ``min(_remaining)`` as of the
        # last eager completion and ``_pending_peak`` upper-bounds any
        # single cell's wear since then. While ``_pending_peak`` stays
        # strictly below ``_headroom`` no PE can cross its budget, so
        # death timing is exactly the per-request check's.
        self._pending: Dict[int, List] = {}
        self._pending_peak = 0
        # Queue entries are ``(request index, profile, loss)``, the loss
        # being the accuracy loss the request was admitted at: the
        # fault-aware mapping is planned at admission, so the loss a
        # request is *delivered* at is the device's predicted loss when
        # dispatch placed it — not whatever the array looks like once it
        # reaches the head of the queue.
        self._queue: Deque[Tuple[int, WorkloadProfile, float]] = deque()
        self._in_service: Optional[Tuple[int, WorkloadProfile, float]] = None
        self.served = 0
        self.dispatched_wear = 0.0
        self.death_time_s: Optional[float] = None
        #: Queued requests handed back unserved when the device retired.
        self.dropped = 0
        #: Alive with queue headroom. A plain attribute, kept current
        #: where either input changes (``admit``, ``finish`` and
        #: retirement): dispatch reads it for every device on every
        #: arrival.
        self.can_accept = True

    # ------------------------------------------------------------------
    # Dispatch-facing views
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the device is still in service (not retired)."""
        return self.death_time_s is None

    @property
    def degraded(self) -> bool:
        """Serving past ``min_alive_fraction`` in degraded-approx mode.

        Always ``False`` in ``retire`` mode and while the device is
        healthy, so a fault-free degraded-mode device is
        indistinguishable from a normal one.
        """
        return (
            self.mode == "serve-degraded-approx"
            and self.alive
            and self._faults.alive_fraction < self._min_alive_fraction
        )

    @property
    def outstanding(self) -> int:
        """Requests queued plus in service."""
        return len(self._queue) + (1 if self._in_service else 0)

    @property
    def queue_length(self) -> int:
        """Requests waiting (not counting the one in service)."""
        return len(self._queue)

    @property
    def peak_wear(self) -> float:
        """The hottest PE's wear; budget-normalized when budgets exist."""
        if self._peak_wear_served != self.served:
            self._flush_pending()
            if self._budgets is None:
                self._peak_wear = float(self._ledger.max())
            else:
                self._peak_wear = float(
                    (self._ledger / self._budgets.budgets).max()
                )
            self._peak_wear_served = self.served
        return self._peak_wear

    # ------------------------------------------------------------------
    # Wear state
    # ------------------------------------------------------------------
    @property
    def ledger(self) -> np.ndarray:
        """Read-only per-PE usage counts accumulated so far."""
        self._flush_pending()
        view = self._ledger.view()
        view.setflags(write=False)
        return view

    @property
    def faults(self) -> FaultState:
        """The device's permanent-fault state."""
        return self._faults

    @property
    def total_usage(self) -> int:
        """Sum of the usage ledger."""
        self._flush_pending()
        return int(self._ledger.sum())

    @property
    def peak_usage(self) -> int:
        """The hottest PE's raw usage count."""
        self._flush_pending()
        return int(self._ledger.max())

    @property
    def alive_fraction(self) -> float:
        """Fraction of this device's PEs still working."""
        return self._faults.alive_fraction

    @property
    def slowdown(self) -> float:
        """Service-time multiplier from dead PEs (1.0 = healthy).

        First-order degradation model: compute throughput scales with
        surviving PEs, so a device that lost a quarter of its array
        serves a third slower — consistent with the tile-slot accounting
        of :class:`~repro.faults.state.DegradationStats` without paying
        a placement search per request.
        """
        alive = self._faults.num_alive
        if alive <= 0:
            return float("inf")
        return self._array.num_pes / alive

    def _refresh_service_factor(self) -> None:
        """Re-derive the service-time factor after a fault change.

        A request's service time is ``cycles / clock_hz * factor``. A
        degraded-approx device serves at the healthy rate: the dead
        PEs' work is approximated away (that is where the accuracy loss
        comes from), not redistributed over the survivors.
        """
        self._service_version = self._faults.version
        # ``x * 1.0 == x`` exactly, so the degraded factor keeps the
        # healthy-rate time bit-identical to ``cycles / clock_hz``.
        self._service_factor = 1.0 if self.degraded else self.slowdown

    def predicted_loss(self, workload: str) -> float:
        """Model-predicted accuracy loss of serving ``workload`` now.

        Zero on a healthy device (or any device in ``retire`` mode,
        which never serves degraded), infinite on a retired one —
        SLO-aware dispatch compares this directly against a request's
        ``max_loss`` budget.
        """
        if self.death_time_s is not None:
            return float("inf")
        if self._retire_mode:
            return 0.0
        if self._loss_version != self._faults.version:
            self._loss_version = self._faults.version
            self._loss_memo.clear()
        loss = self._loss_memo.get(workload)
        if loss is None:
            loss = self._loss_memo[workload] = self._degraded_loss(workload)
        return loss

    def _degraded_loss(self, workload: str) -> float:
        """The uncached :meth:`predicted_loss` of a device in service."""
        if not self.degraded:
            return 0.0
        if self._accuracy_profiles is not None:
            profile = self._accuracy_profiles.get(workload)
            if profile is None:
                profile = accuracy_profile_for(workload)
        else:
            profile = accuracy_profile_for(workload)
        dead_fraction = 1.0 - self._faults.alive_fraction
        return self._accuracy_model.loss(dead_fraction, profile)

    # ------------------------------------------------------------------
    # Queue mechanics (driven by the event loop: one call per event)
    # ------------------------------------------------------------------
    def admit(
        self, index: int, workload: str, profile: WorkloadProfile, now: float
    ) -> Optional[float]:
        """Admit request ``index`` at ``now``; its completion time if it starts.

        Returns ``None`` when the request queues behind the one in
        service. The request's delivered accuracy loss is fixed here, at
        admission — the predicted loss of the device as dispatch saw it.
        """
        if not self.can_accept:
            raise SimulationError(
                f"device {self.device_id} cannot accept request {index}"
            )
        # An accepting device is alive, and an alive retire-mode device
        # serves loss-free.
        loss = 0.0 if self._retire_mode else self.predicted_loss(workload)
        self.dispatched_wear += profile.wear_units
        if self._in_service is not None:
            self._queue.append((index, profile, loss))
            self.can_accept = len(self._queue) < self._queue_limit
            return None
        self._in_service = (index, profile, loss)
        if self._service_version != self._faults.version:
            self._refresh_service_factor()
        return now + profile.cycles / self._clock_hz * self._service_factor

    def finish(
        self, now: float
    ) -> Tuple[int, float, Optional[float], Tuple[PEDeath, ...]]:
        """Finish the in-service request at ``now`` and start the next one.

        Applies the finished request's wear, kills the PEs it pushes
        past their budgets, retires the device when too few PEs survive
        (handing its queue back as :attr:`dropped`), and starts the
        head-of-queue request. Returns the finished request's index,
        the accuracy loss it was delivered at, the completion time of
        the request started now (``None`` when none starts) and the PE
        deaths, in row-major order.

        Wear application is lazily batched: while the worst-case
        deferred increment provably cannot reach any live PE's budget,
        the array update and budget check are skipped entirely (they
        run, exactly, once a crossing becomes possible — so deaths
        happen at the same request, time, and coordinates as with eager
        application).
        """
        entry = self._in_service
        if entry is None:
            raise SimulationError(f"device {self.device_id} is idle")
        index, profile, loss = entry
        self.served += 1
        deaths: Tuple[PEDeath, ...] = ()
        faults = self._faults
        version = faults.version
        if self._remaining is not None and (
            self._pending_peak + profile.peak_count >= self._headroom
            or self._remaining_version != version
        ):
            deaths = self._spend(profile, now)
            version = faults.version
        else:
            pending = self._pending.get(id(profile))
            if pending is None:
                self._pending[id(profile)] = [profile, 1]
            else:
                pending[1] += 1
            self._pending_peak += profile.peak_count
        # Retirement depends only on the fault set (the mode and the
        # threshold are fixed), so it is re-tested only after a change.
        if self._retire_version != version:
            self._retire_version = version
            self._retire_if_spent(now)
        queue = self._queue
        if not queue:
            self._in_service = None
            return index, loss, None, deaths
        head = self._in_service = queue.popleft()
        self.can_accept = len(queue) < self._queue_limit
        if self._service_version != version:
            self._refresh_service_factor()
        finish_s = now + head[1].cycles / self._clock_hz * self._service_factor
        return index, loss, finish_s, deaths

    def _flush_pending(self) -> None:
        """Materialize deferred request wear into the ledger.

        ``_remaining`` takes the same wear, so it stays ``ceil(budget) -
        ledger``; the headroom bound stays valid, because
        ``_pending_peak`` still bounds every cell's wear since the
        headroom was taken.
        """
        if not self._pending:
            return
        remaining = self._remaining
        for profile, count in self._pending.values():
            wear = profile.counts if count == 1 else profile.counts * count
            self._ledger += wear
            if remaining is not None:
                remaining -= wear
        self._pending.clear()

    def _spend(self, profile: WorkloadProfile, now: float) -> Tuple[PEDeath, ...]:
        """Apply one request's wear eagerly and kill the PEs it exhausts.

        Runs when the request might cross a budget. ``_remaining`` is
        rebuilt from the ledger if the fault set changed since it was
        last brought in line (a PE killed or revived by someone else).
        Leaves ``_headroom`` exact and ``_pending_peak`` at zero.
        """
        self._flush_pending()
        counts = profile.counts
        self._ledger += counts
        remaining = self._remaining
        faults = self._faults
        if self._remaining_version == faults.version:
            remaining -= counts
        else:
            np.subtract(self._ceil_budgets, self._ledger, out=remaining)
            remaining[faults.dead_mask] = _DEAD_REMAINING
        headroom = int(remaining.min())
        deaths: Tuple[PEDeath, ...] = ()
        if headroom <= 0:
            rows, cols = np.nonzero(remaining <= 0)
            deaths = tuple(
                PEDeath(device_id=self.device_id, time_s=now, u=u, v=v)
                for v, u in zip(rows.tolist(), cols.tolist())
            )
            for death in deaths:
                faults.kill(death.u, death.v)
            remaining[rows, cols] = _DEAD_REMAINING
            headroom = int(remaining.min())
        self._remaining_version = faults.version
        self._headroom = headroom
        self._pending_peak = 0
        return deaths

    def _retire_if_spent(self, now: float) -> None:
        """Leave service if too few PEs survive, dropping the queue."""
        faults = self._faults
        if self._retire_mode:
            retired = self.alive and faults.alive_fraction < self._min_alive_fraction
        else:
            retired = self.alive and faults.num_alive == 0
        if retired:
            self.death_time_s = now
            self.can_accept = False
            self._service_version = -1
            self.dropped += len(self._queue)
            self._queue.clear()

    @property
    def in_service(self) -> Optional[int]:
        """Index of the request currently being served, if any."""
        return self._in_service[0] if self._in_service else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else f"dead@{self.death_time_s:.3f}s"
        return (
            f"FleetDevice({self.device_id}, {state}, served={self.served}, "
            f"outstanding={self.outstanding})"
        )
