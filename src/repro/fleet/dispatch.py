"""Pluggable dispatch policies: which device serves the next request?

The fleet-level mirror of :mod:`repro.core.policies`. A dispatch policy
is a pure strategy object consulted once per arriving request with the
live device roster; it returns the chosen device id (or ``None`` when no
device can accept). All tie-breaks are deterministic, so a simulation is
a pure function of its inputs regardless of worker fan-out.

* ``round_robin`` — carried pointer over device ids; levels request
  *counts*, which under a skewed workload mix is not the same thing as
  leveling *wear*.
* ``least_outstanding`` — classic load balancing on queue depth; good
  for latency, wear-blind.
* ``least_wear`` — greedy on the hottest PE of each device's usage
  ledger (the fleet analogue of a feedback policy): picks whichever
  device currently has the lowest peak wear. Levels wear well but
  ignores queueing entirely.
* ``rotational`` — the paper's RWL+RO idea lifted to device indices.
  Treat the fleet as a 1-D torus of ``N`` devices: the rotation pointer
  is the stride anchor and advances past every dispatched device, and a
  per-device dispatched-wear ledger carries the *residue* — the wear
  imbalance a finished epoch leaves behind — across epochs, exactly the
  way RO carries the coordinate across layers. Each request goes to the
  least-loaded candidate in rotation order from the pointer, so under a
  uniform workload the policy degenerates to round-robin (zero residue,
  pure stride) and under a skewed mix the residue steers heavy requests
  away from already-stressed devices.

Two SLO-aware policies route on the request's accuracy contract
(:class:`~repro.accuracy.slo.SLOClass`) against each device's
model-predicted loss:

* ``slo_aware`` — tolerant traffic deliberately seeks out the *most*
  degraded device still inside the request's loss budget (sacrificial
  absorption: worn silicon soaks up the tolerant load, preserving
  healthy devices for exact traffic); exact traffic load-balances over
  loss-free devices. Rejects only when no device meets the SLO.
* ``slo_rotational`` — the rotational residue ledger restricted to
  SLO-eligible candidates: wear-leveled rotation *within* the set of
  devices the request's contract allows.
"""

from __future__ import annotations

import abc
from typing import List, Optional, Protocol, Sequence

from repro.errors import ConfigurationError

#: Policy names in comparison order (the fleet-policies table rows).
DISPATCH_POLICY_NAMES = (
    "round_robin",
    "least_outstanding",
    "least_wear",
    "rotational",
)

#: SLO-routing policies (the fleet-accuracy bracket adds these).
SLO_DISPATCH_POLICY_NAMES = ("slo_aware", "slo_rotational")

#: Tolerance when comparing a device's predicted loss to a request's
#: budget, so a device whose loss *equals* the budget stays eligible.
_LOSS_EPSILON = 1e-12


class DeviceView(Protocol):
    """What a dispatch policy may observe about one device.

    ``can_accept`` (alive with queue headroom) may be a plain attribute
    or a property: :class:`~repro.fleet.device.FleetDevice` keeps it as
    an attribute, current after every state change, because every
    policy reads it for every device on every arrival.
    """

    device_id: int
    can_accept: bool

    @property
    def outstanding(self) -> int:
        """Requests queued plus in service."""
        ...

    @property
    def peak_wear(self) -> float:
        """The hottest PE's wear (budget-normalized when budgets exist)."""
        ...

    def predicted_loss(self, workload: str) -> float:
        """Model-predicted accuracy loss of serving ``workload`` now."""
        ...


class DispatchPolicy(abc.ABC):
    """Strategy interface: pick the device for one request."""

    def __init__(self, num_devices: int) -> None:
        if num_devices < 1:
            raise ConfigurationError(
                f"a fleet needs at least one device, got {num_devices}"
            )
        self._num_devices = num_devices
        # Device ids twice over: ``_ring[p:p + n]`` is rotation order
        # from pointer ``p``, walked without a modulo per offset.
        self._ring = list(range(num_devices)) * 2

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Identifier used in reports and the CLI."""

    @abc.abstractmethod
    def select(
        self,
        devices: Sequence[DeviceView],
        wear_cost: float,
        workload: Optional[str] = None,
        max_loss: Optional[float] = None,
    ) -> Optional[int]:
        """Device id for a request of ``wear_cost`` wear units, or ``None``.

        ``devices`` is the full roster indexed by device id; only
        devices with ``can_accept`` may be chosen. ``wear_cost`` is the
        request's total per-PE usage increment (its wear footprint) —
        count-based policies ignore it. ``workload`` and ``max_loss``
        describe the request's accuracy contract; wear- and count-based
        policies ignore them, SLO-aware policies route on them
        (``max_loss=None`` means exact).
        """


class RoundRobinDispatch(DispatchPolicy):
    """Carried pointer over device ids, skipping dead or full devices."""

    def __init__(self, num_devices: int) -> None:
        super().__init__(num_devices)
        self._pointer = 0

    @property
    def name(self) -> str:
        return "round_robin"

    def select(
        self,
        devices: Sequence[DeviceView],
        wear_cost: float,
        workload: Optional[str] = None,
        max_loss: Optional[float] = None,
    ) -> Optional[int]:
        pointer = self._pointer
        for device_id in self._ring[pointer:pointer + self._num_devices]:
            if devices[device_id].can_accept:
                self._pointer = (device_id + 1) % self._num_devices
                return device_id
        return None


class LeastOutstandingDispatch(DispatchPolicy):
    """Fewest queued-plus-running requests; ties break on device id."""

    @property
    def name(self) -> str:
        return "least_outstanding"

    def select(
        self,
        devices: Sequence[DeviceView],
        wear_cost: float,
        workload: Optional[str] = None,
        max_loss: Optional[float] = None,
    ) -> Optional[int]:
        best: Optional[int] = None
        for device in devices:
            if not device.can_accept:
                continue
            if best is None or device.outstanding < devices[best].outstanding:
                best = device.device_id
        return best


class LeastWearDispatch(DispatchPolicy):
    """Lowest peak-PE wear; ties break on the lowest device id.

    Wear updates only when requests *complete*, so between completions
    this policy keeps piling onto the same coldest device — the latency
    cost of wear-greedy dispatch the fleet-policies table makes visible.
    """

    @property
    def name(self) -> str:
        return "least_wear"

    def select(
        self,
        devices: Sequence[DeviceView],
        wear_cost: float,
        workload: Optional[str] = None,
        max_loss: Optional[float] = None,
    ) -> Optional[int]:
        # Each device's wear is read exactly once and the minimum is
        # taken over explicit (peak_wear, device_id) keys: the winner is
        # a pure function of the roster, never of how many times a
        # lazily-materialized wear property was re-read mid-comparison.
        best: Optional[int] = None
        best_wear = 0.0
        for device in devices:
            if not device.can_accept:
                continue
            wear = device.peak_wear
            if (
                best is None
                or wear < best_wear
                or (wear == best_wear and device.device_id < best)
            ):
                best = device.device_id
                best_wear = wear
        return best


class RotationalDispatch(DispatchPolicy):
    """RWL stride over device indices with residue carried across epochs.

    Maintains a dispatched-wear ledger (wear units routed to each
    device, counted at dispatch time) and a rotation pointer. The chosen
    device is the candidate with the minimum dispatched wear; among
    equally-loaded candidates, the one first in rotation order from the
    pointer wins, and the pointer then advances past it. The ledger is
    never reset, so the fractional imbalance one traffic epoch leaves
    behind — the fleet's residue — keeps steering later epochs, exactly
    the role RO's carried coordinate plays inside one array.
    """

    def __init__(self, num_devices: int) -> None:
        super().__init__(num_devices)
        self._pointer = 0
        self._dispatched: List[float] = [0.0] * num_devices

    @property
    def name(self) -> str:
        return "rotational"

    @property
    def dispatched_wear(self) -> Sequence[float]:
        """Wear units routed to each device so far (for introspection)."""
        return tuple(self._dispatched)

    def select(
        self,
        devices: Sequence[DeviceView],
        wear_cost: float,
        workload: Optional[str] = None,
        max_loss: Optional[float] = None,
    ) -> Optional[int]:
        chosen: Optional[int] = None
        chosen_load = 0.0
        pointer = self._pointer
        for device_id in self._ring[pointer:pointer + self._num_devices]:
            if not devices[device_id].can_accept:
                continue
            load = self._dispatched[device_id]
            if chosen is None or load < chosen_load:
                chosen = device_id
                chosen_load = load
        if chosen is None:
            return None
        self._dispatched[chosen] += float(wear_cost)
        self._pointer = (chosen + 1) % self._num_devices
        return chosen


def _loss_budget(max_loss: Optional[float]) -> float:
    """A request's loss budget; ``None`` means exact (zero tolerance)."""
    return 0.0 if max_loss is None else float(max_loss)


class SLOAwareDispatch(DispatchPolicy):
    """Route on the accuracy contract: worn absorbs tolerant traffic.

    Eligible devices are those accepting requests whose predicted loss
    for the workload fits the budget. A tolerant request goes to the
    eligible device with the *highest* (loss, peak wear) — sacrificial
    absorption, spending silicon that is already degraded — while an
    exact request load-balances on queue depth over loss-free devices.
    Ties always break on the lowest device id. Returns ``None`` only
    when no device meets the SLO.
    """

    @property
    def name(self) -> str:
        return "slo_aware"

    def select(
        self,
        devices: Sequence[DeviceView],
        wear_cost: float,
        workload: Optional[str] = None,
        max_loss: Optional[float] = None,
    ) -> Optional[int]:
        budget = _loss_budget(max_loss)
        eligible: List = []
        for device in devices:
            if not device.can_accept:
                continue
            loss = device.predicted_loss(workload) if workload else 0.0
            if loss <= budget + _LOSS_EPSILON:
                eligible.append((device, loss))
        if not eligible:
            return None
        if budget > 0.0:
            best = max(
                eligible,
                key=lambda pair: (
                    pair[1],
                    pair[0].peak_wear,
                    -pair[0].device_id,
                ),
            )
            return best[0].device_id
        best = min(
            eligible,
            key=lambda pair: (pair[0].outstanding, pair[0].device_id),
        )
        return best[0].device_id


class SLORotationalDispatch(DispatchPolicy):
    """Rotational residue dispatch restricted to SLO-eligible devices.

    Identical ledger and pointer mechanics to
    :class:`RotationalDispatch`, but a device only counts as a candidate
    when its predicted loss for the request's workload fits the budget —
    wear-leveled rotation within the contract-allowed set.
    """

    def __init__(self, num_devices: int) -> None:
        super().__init__(num_devices)
        self._pointer = 0
        self._dispatched: List[float] = [0.0] * num_devices

    @property
    def name(self) -> str:
        return "slo_rotational"

    @property
    def dispatched_wear(self) -> Sequence[float]:
        """Wear units routed to each device so far (for introspection)."""
        return tuple(self._dispatched)

    def select(
        self,
        devices: Sequence[DeviceView],
        wear_cost: float,
        workload: Optional[str] = None,
        max_loss: Optional[float] = None,
    ) -> Optional[int]:
        budget = _loss_budget(max_loss)
        chosen: Optional[int] = None
        chosen_load = 0.0
        pointer = self._pointer
        for device_id in self._ring[pointer:pointer + self._num_devices]:
            device = devices[device_id]
            if not device.can_accept:
                continue
            loss = device.predicted_loss(workload) if workload else 0.0
            if loss > budget + _LOSS_EPSILON:
                continue
            load = self._dispatched[device_id]
            if chosen is None or load < chosen_load:
                chosen = device_id
                chosen_load = load
        if chosen is None:
            return None
        self._dispatched[chosen] += float(wear_cost)
        self._pointer = (chosen + 1) % self._num_devices
        return chosen


_POLICIES = {
    "round_robin": RoundRobinDispatch,
    "least_outstanding": LeastOutstandingDispatch,
    "least_wear": LeastWearDispatch,
    "rotational": RotationalDispatch,
    "slo_aware": SLOAwareDispatch,
    "slo_rotational": SLORotationalDispatch,
}


def make_dispatch_policy(name: str, num_devices: int) -> DispatchPolicy:
    """Construct a dispatch policy by name."""
    try:
        factory = _POLICIES[name]
    except KeyError:
        known = DISPATCH_POLICY_NAMES + SLO_DISPATCH_POLICY_NAMES
        raise ConfigurationError(
            f"unknown dispatch policy {name!r}; known: {known}"
        ) from None
    return factory(num_devices)
