"""Estimated-accuracy-loss curves for inference on partially-dead arrays.

An :class:`AccuracyModel` maps ``(dead_fraction, workload profile)`` to
the estimated top-1 accuracy loss of serving that workload on a device
with that fraction of its PEs dead, *assuming the fault-aware mapping
that avoids them*. The curves are closed-form and deterministic — pure
arithmetic over plain floats — so fleet Monte Carlo runs that consult
them stay bit-identical across processes and chunkings.

Calibration is per workload, from the same layer tables every paper
figure uses (:mod:`repro.workloads`): depth compounds error through the
network, and arithmetic intensity (MACs per weight byte) proxies how
much inherent redundancy remapping or approximation can exploit. The
constants are shape parameters fit to the qualitative behavior the
cited papers report, not a claim of reproducing their absolute numbers:

* :class:`PruningAccuracyModel` (arXiv:2412.16208) — fault-aware
  remapping absorbs a *slack* band of dead PEs at zero loss (dropping a
  few percent of compute prunes redundant weights), then loss grows
  exponentially toward a cap as the dead fraction eats into
  load-bearing capacity;
* :class:`ApproximationAccuracyModel` (Hamun, arXiv:2502.01502) — the
  worn cells' work is *approximated* rather than avoided, so any dead
  fraction costs some accuracy, but the slope is gentler and there is
  no slack band.

New degradation styles register through :func:`register_accuracy_model`
and become selectable everywhere a model name flows (device mode,
``rota fleet-accuracy --model``).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterable

from repro.errors import ConfigurationError
from repro.runtime.memo import Memo

#: Registered model names, in citation order.
ACCURACY_MODEL_NAMES = ("pruning", "approximation")

#: Depth normalization: a 64-layer network doubles the base sensitivity.
_DEPTH_SCALE = math.log1p(64.0)


@dataclass(frozen=True)
class WorkloadAccuracyProfile:
    """One workload's calibrated sensitivity to dead PEs.

    ``depth_factor`` (>= 1) compounds loss with network depth;
    ``redundancy`` is the arithmetic intensity (MACs per weight byte)
    the mapping can trade against dead cells; ``slack`` is the dead
    fraction a fault-aware remapping absorbs at zero loss.
    """

    workload: str
    depth_factor: float
    redundancy: float
    slack: float

    def __post_init__(self) -> None:
        if self.depth_factor < 1.0:
            raise ConfigurationError(
                f"depth_factor must be >= 1, got {self.depth_factor}"
            )
        if self.redundancy <= 0.0:
            raise ConfigurationError(
                f"redundancy must be positive, got {self.redundancy}"
            )
        if not 0.0 <= self.slack < 1.0:
            raise ConfigurationError(
                f"slack must be in [0, 1), got {self.slack}"
            )


#: Fallback for workloads outside the registry (toy test profiles):
#: mid-depth, mid-redundancy, a small remapping slack.
GENERIC_ACCURACY_PROFILE = WorkloadAccuracyProfile(
    workload="generic", depth_factor=1.5, redundancy=100.0, slack=0.05
)


class AccuracyModel(abc.ABC):
    """Estimated accuracy loss as a function of the dead-PE fraction.

    Implementations must be pure (no internal state mutated by
    :meth:`loss`), monotone non-decreasing in ``dead_fraction``, and
    return ``0.0`` at ``dead_fraction == 0`` — the degraded-mode
    equivalence property (a fault-free degraded device is bit-identical
    to a normal one) rests on that zero.
    """

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """Identifier used in configs, reports, and the CLI."""

    @abc.abstractmethod
    def loss(
        self, dead_fraction: float, profile: WorkloadAccuracyProfile
    ) -> float:
        """Estimated accuracy loss (fraction in ``[0, 1)``)."""

    def _check_fraction(self, dead_fraction: float) -> float:
        if not 0.0 <= dead_fraction <= 1.0:
            raise ConfigurationError(
                f"dead_fraction must be in [0, 1], got {dead_fraction}"
            )
        return float(dead_fraction)


class PruningAccuracyModel(AccuracyModel):
    """Fault-aware remapping/pruning degradation (arXiv:2412.16208).

    Dead PEs inside the workload's ``slack`` band are remapped around
    for free; past it, the pruned capacity starts cutting load-bearing
    weights and loss rises exponentially toward ``cap``, faster for
    deeper networks (error compounds layer over layer).
    """

    def __init__(self, cap: float = 0.6, steepness: float = 0.75) -> None:
        if not 0.0 < cap <= 1.0:
            raise ConfigurationError(f"cap must be in (0, 1], got {cap}")
        if steepness <= 0.0:
            raise ConfigurationError(
                f"steepness must be positive, got {steepness}"
            )
        self._cap = cap
        self._steepness = steepness

    @property
    def name(self) -> str:
        return "pruning"

    def loss(
        self, dead_fraction: float, profile: WorkloadAccuracyProfile
    ) -> float:
        fraction = self._check_fraction(dead_fraction)
        effective = max(0.0, fraction - profile.slack)
        if effective == 0.0:
            return 0.0
        rate = self._steepness * profile.depth_factor
        return self._cap * (1.0 - math.exp(-rate * effective))


class ApproximationAccuracyModel(AccuracyModel):
    """Hamun-style approximate-execution degradation (arXiv:2502.01502).

    Worn cells keep "computing" approximately instead of being avoided,
    so there is no free slack band — any dead fraction costs accuracy —
    but the curve is gentler and redundancy (arithmetic intensity)
    damps it: workloads that reuse each weight many times average the
    approximation error away.
    """

    def __init__(self, cap: float = 0.4, steepness: float = 0.5) -> None:
        if not 0.0 < cap <= 1.0:
            raise ConfigurationError(f"cap must be in (0, 1], got {cap}")
        if steepness <= 0.0:
            raise ConfigurationError(
                f"steepness must be positive, got {steepness}"
            )
        self._cap = cap
        self._steepness = steepness

    @property
    def name(self) -> str:
        return "approximation"

    def loss(
        self, dead_fraction: float, profile: WorkloadAccuracyProfile
    ) -> float:
        fraction = self._check_fraction(dead_fraction)
        if fraction == 0.0:
            return 0.0
        damping = 1.0 + math.log1p(profile.redundancy) / 10.0
        rate = self._steepness * profile.depth_factor / damping
        return self._cap * (1.0 - math.exp(-rate * fraction))


_MODELS: Dict[str, Callable[[], AccuracyModel]] = {
    "pruning": PruningAccuracyModel,
    "approximation": ApproximationAccuracyModel,
}


def register_accuracy_model(
    name: str, factory: Callable[[], AccuracyModel]
) -> None:
    """Add a new degradation style to the registry (names are unique)."""
    if name in _MODELS:
        raise ConfigurationError(f"duplicate accuracy model {name!r}")
    _MODELS[name] = factory


def make_accuracy_model(name: str) -> AccuracyModel:
    """Construct an accuracy model by name."""
    try:
        factory = _MODELS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown accuracy model {name!r}; known: {tuple(_MODELS)}"
        ) from None
    return factory()


# -- per-workload calibration ---------------------------------------------

#: Calibrated profiles by requested workload name.
_PROFILE_MEMO = Memo()


def calibrate_profile(workload: str) -> WorkloadAccuracyProfile:
    """Calibrate one workload's sensitivity from its layer table.

    Depth comes from the MAC-bearing layer count; redundancy is the
    network's arithmetic intensity (total MACs per weight byte); the
    remapping slack grows logarithmically with redundancy and is capped
    at 15% of the array. Raises
    :class:`~repro.errors.WorkloadError` for names outside the
    workload registry — callers that must not fail use
    :func:`accuracy_profile_for`.
    """
    from repro.workloads.registry import get_network

    network = get_network(workload)
    depth_factor = 1.0 + math.log1p(network.num_layers) / _DEPTH_SCALE
    redundancy = network.total_macs / max(1, network.total_weight_bytes)
    slack = min(0.15, 0.02 * math.log1p(redundancy))
    return WorkloadAccuracyProfile(
        workload=network.name,
        depth_factor=depth_factor,
        redundancy=redundancy,
        slack=slack,
    )


def accuracy_profile_for(workload: str) -> WorkloadAccuracyProfile:
    """Calibrated profile, falling back to the generic one.

    Memoized per workload name: calibration is cheap but sits on the
    fleet event loop's dispatch path (behind each device's per-fault-
    version loss memo, so the memo's lock is not paid per event).
    """
    return _PROFILE_MEMO.get_or_build(
        workload, lambda: _calibrated_or_generic(workload)
    )


def _calibrated_or_generic(workload: str) -> WorkloadAccuracyProfile:
    """:func:`calibrate_profile`, or the generic profile for unknown names."""
    from repro.errors import WorkloadError

    try:
        return calibrate_profile(workload)
    except WorkloadError:
        return GENERIC_ACCURACY_PROFILE


def calibrate_profiles(
    workloads: Iterable[str],
) -> Dict[str, WorkloadAccuracyProfile]:
    """Calibrated profiles for several workloads, keyed like requests.

    Keyed by both the requested spelling and the canonical network
    name, mirroring :func:`repro.fleet.device.build_profiles`.
    """
    profiles: Dict[str, WorkloadAccuracyProfile] = {}
    for workload in workloads:
        profile = calibrate_profile(workload)
        profiles[workload] = profile
        profiles[profile.workload] = profile
    return profiles
