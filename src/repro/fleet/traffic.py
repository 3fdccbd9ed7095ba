"""Seeded arrival-process generators for the fleet simulator.

A fleet scenario is a finite sequence of requests — arrival times plus
the workload each request asks for (a name resolving through
:mod:`repro.workloads.registry`) and the accuracy SLO it carries. The
generators return it as one read-only columnar :class:`Traffic`, which
indexes and iterates as :class:`Request` rows. Three generators cover
the traffic shapes the fleet studies need:

* :func:`poisson_requests` — memoryless arrivals, i.i.d. workload
  draws: the benign baseline every queueing model assumes;
* :func:`bursty_requests` — an MMPP-flavored on/off process whose
  bursts each carry a *single* workload. This is the adversarial shape
  for dispatch: a burst of heavy requests lands while the pointer of a
  naive rotation sits on one device, so per-device wear aliases with
  the workload pattern exactly like the paper's dimensional-mismatch
  residue aliases with the array width;
* :func:`replay_requests` — verbatim trace replay for recorded or
  hand-crafted scenarios.

Determinism follows the repo-wide convention: every generator draws
from a :class:`numpy.random.SeedSequence`, so a scenario is a pure
function of ``(seed, num_requests, parameters)`` — never of how the
simulation is later chunked over worker processes.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, replace
from itertools import count, starmap
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.accuracy.slo import EXACT_SLO, SLOClass
from repro.errors import ConfigurationError
from repro.runtime import seed_sequence

Seed = Union[int, np.random.SeedSequence]

#: Generator kinds :func:`make_traffic` accepts (trace replay is API-only).
TRAFFIC_KINDS = ("poisson", "bursty")

#: The default skewed mix: mostly light inferences with a heavy tail.
#: SqueezeNet and ResNet-50 differ by an order of magnitude in per-request
#: work, so dispatch policies that level request *counts* (round-robin)
#: still accumulate unlevel *wear*.
DEFAULT_SKEWED_MIX = (("SqueezeNet", 0.7), ("ResNet-50", 0.3))


@dataclass(frozen=True)
class Request:
    """One inference request offered to the fleet.

    ``slo`` is the accuracy contract the request arrives with; the
    default is exact (loss-free serving), so traffic built before the
    accuracy layer existed behaves unchanged.
    """

    index: int
    arrival_s: float
    workload: str
    slo: SLOClass = EXACT_SLO


class Traffic(SequenceABC):
    """A request stream stored as read-only columns.

    ``arrival_s`` is a read-only float64 array; ``workload`` and ``slo``
    are tuples with one entry per request. A request's position is its
    index. Indexing and iteration yield :class:`Request` rows, slicing
    yields a tuple of them (indices kept, as slicing a tuple of requests
    does), and a stream compares equal to another stream or to any
    sequence of the same requests. The event loop reads the columns
    directly and never builds the rows.
    """

    __slots__ = ("arrival_s", "workload", "slo")

    def __init__(
        self,
        arrival_s: Sequence[float],
        workload: Sequence[str],
        slo: Optional[Sequence[SLOClass]] = None,
    ) -> None:
        """Wrap the columns; ``slo=None`` makes every request exact."""
        arrivals = np.array(arrival_s, dtype=float)
        workload = tuple(workload)
        slo = (EXACT_SLO,) * len(workload) if slo is None else tuple(slo)
        if arrivals.shape != (len(workload),) or len(slo) != len(workload):
            raise ConfigurationError("traffic columns must be 1-D and equally long")
        arrivals.setflags(write=False)
        for name, value in zip(self.__slots__, (arrivals, workload, slo)):
            object.__setattr__(self, name, value)

    @classmethod
    def from_requests(cls, requests: Iterable[Request]) -> "Traffic":
        """The columns of a sequence of requests (their indices dropped)."""
        requests = tuple(requests)
        return cls(
            [request.arrival_s for request in requests],
            [request.workload for request in requests],
            [request.slo for request in requests],
        )

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only")

    def __reduce__(self):
        return (Traffic, (self.arrival_s, self.workload, self.slo))

    def __len__(self) -> int:
        return len(self.workload)

    def __iter__(self) -> Iterator[Request]:
        return starmap(
            Request, zip(count(), self.arrival_s.tolist(), self.workload, self.slo)
        )

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self)[index]
        index = range(len(self))[index]
        return Request(
            index, float(self.arrival_s[index]), self.workload[index], self.slo[index]
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, Traffic):
            return (
                self.workload == other.workload
                and self.slo == other.slo
                and np.array_equal(self.arrival_s, other.arrival_s)
            )
        if isinstance(other, SequenceABC):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Traffic({len(self)} requests)"


@dataclass(frozen=True)
class WorkloadMix:
    """A categorical distribution over workload names.

    ``slos`` optionally attaches an accuracy SLO class to some of the
    entries (by workload name); entries without one are exact. The
    generators stamp each request with its workload's class, so an
    arrival stream carries its accuracy tolerance into dispatch.
    """

    entries: Tuple[Tuple[str, float], ...]
    slos: Tuple[Tuple[str, SLOClass], ...] = ()

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError("a workload mix needs at least one entry")
        for name, weight in self.entries:
            if not isinstance(name, str) or not name:
                raise ConfigurationError(f"bad workload name {name!r} in mix")
            if weight <= 0:
                raise ConfigurationError(
                    f"workload {name!r} needs a positive weight, got {weight}"
                )
        names = [name for name, _ in self.entries]
        if len(names) != len(set(names)):
            raise ConfigurationError(f"duplicate workload in mix: {names}")
        slo_names = [name for name, _ in self.slos]
        if len(slo_names) != len(set(slo_names)):
            raise ConfigurationError(f"duplicate SLO entry: {slo_names}")
        for name, slo in self.slos:
            if name not in names:
                raise ConfigurationError(
                    f"SLO for {name!r} names no mix entry; have: {names}"
                )
            if not isinstance(slo, SLOClass):
                raise ConfigurationError(
                    f"SLO for {name!r} must be an SLOClass, got {type(slo).__name__}"
                )

    @property
    def names(self) -> Tuple[str, ...]:
        """Workload names in declaration order."""
        return tuple(name for name, _ in self.entries)

    def slo_for(self, name: str) -> SLOClass:
        """The SLO class attached to ``name`` (exact when unlisted)."""
        for entry_name, slo in self.slos:
            if entry_name == name:
                return slo
        return EXACT_SLO

    def with_slos(
        self, slos: Iterable[Tuple[str, SLOClass]]
    ) -> "WorkloadMix":
        """This mix with the given SLO attachments (replacing any)."""
        return replace(self, slos=tuple(slos))

    @property
    def probabilities(self) -> np.ndarray:
        """Normalized draw probabilities, aligned with :attr:`names`."""
        weights = np.array([weight for _, weight in self.entries], dtype=float)
        return weights / weights.sum()

    @classmethod
    def uniform(cls, names: Iterable[str]) -> "WorkloadMix":
        """Equal-weight mix over the given workload names."""
        return cls(tuple((name, 1.0) for name in names))

    @classmethod
    def default_skewed(cls) -> "WorkloadMix":
        """The default light/heavy mix of the fleet studies."""
        return cls(DEFAULT_SKEWED_MIX)


def _mix_traffic(arrivals: np.ndarray, picks: np.ndarray, mix: WorkloadMix) -> Traffic:
    """A stream whose request ``i`` asks for mix entry ``picks[i]``."""
    names = mix.names
    slos = tuple(mix.slo_for(name) for name in names)
    picks = picks.tolist()
    return Traffic(
        arrivals,
        tuple(map(names.__getitem__, picks)),
        tuple(map(slos.__getitem__, picks)),
    )


def _check_shape(num_requests: int, rate_rps: float) -> None:
    if num_requests < 1:
        raise ConfigurationError(
            f"num_requests must be positive, got {num_requests}"
        )
    if rate_rps <= 0:
        raise ConfigurationError(f"rate_rps must be positive, got {rate_rps}")


def poisson_requests(
    num_requests: int,
    rate_rps: float,
    mix: WorkloadMix,
    seed: Seed = 2025,
) -> Traffic:
    """Poisson arrivals at ``rate_rps`` with i.i.d. workload draws."""
    _check_shape(num_requests, rate_rps)
    rng = np.random.default_rng(seed_sequence(seed))
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    arrivals = np.cumsum(gaps)
    picks = rng.choice(len(mix.entries), size=num_requests, p=mix.probabilities)
    return _mix_traffic(arrivals, picks, mix)


def bursty_requests(
    num_requests: int,
    rate_rps: float,
    mix: WorkloadMix,
    seed: Seed = 2025,
    burst_mean: float = 8.0,
    burstiness: float = 4.0,
) -> Traffic:
    """Bursty (MMPP-style) arrivals; each burst carries one workload.

    Burst lengths are geometric with mean ``burst_mean``; within a burst
    requests arrive ``burstiness`` times faster than the long-run rate,
    and idle gaps between bursts are stretched so the long-run offered
    rate still averages roughly ``rate_rps``. Because a whole burst asks
    for the same workload, request cost is *correlated in time* — the
    stress pattern that separates wear-aware dispatch from round-robin.

    Each burst draws its idle gap, its length, its workload and then its
    intra-burst gaps in one ``rng.exponential(size=...)`` call, which
    yields the same values in the same stream order as one scalar draw
    per gap; the final burst draws only the gaps of the requests that
    fit. The clock is one ``np.cumsum`` over every gap in arrival order,
    which adds them one after another exactly as a running sum does.
    """
    _check_shape(num_requests, rate_rps)
    if burst_mean < 1:
        raise ConfigurationError(f"burst_mean must be >= 1, got {burst_mean}")
    if burstiness < 1:
        raise ConfigurationError(f"burstiness must be >= 1, got {burstiness}")
    rng = np.random.default_rng(seed_sequence(seed))
    # Each burst's workload is ``rng.choice(len(names), p=probabilities)``
    # done by hand: numpy draws one ``rng.random()`` and searches this
    # normalized CDF, so the stream is the same, minus re-validating
    # ``p`` and rebuilding the CDF on every burst.
    cdf = mix.probabilities.cumsum()
    cdf /= cdf[-1]
    intra_gap_mean = 1.0 / (rate_rps * burstiness)
    # Idle time so one burst cycle still averages burst_mean / rate_rps.
    idle_mean = max(
        burst_mean / rate_rps - (burst_mean - 1.0) * intra_gap_mean,
        1.0 / rate_rps,
    )
    gaps: List[float] = []
    picks: List[int] = []
    while len(picks) < num_requests:
        gaps.append(rng.exponential(idle_mean))
        length = 1 + int(rng.geometric(1.0 / burst_mean))
        pick = int(cdf.searchsorted(rng.random(), side="right"))
        length = min(length, num_requests - len(picks))
        picks.extend([pick] * length)
        if length > 1:
            gaps.extend(rng.exponential(intra_gap_mean, size=length - 1).tolist())
    return _mix_traffic(np.cumsum(gaps), np.array(picks), mix)


def replay_requests(trace: Sequence[Tuple[float, str]]) -> Traffic:
    """Wrap a recorded ``(arrival_s, workload)`` trace as requests.

    Arrival times must be non-negative and non-decreasing — the event
    loop relies on arrival order being time order.
    """
    if not trace:
        raise ConfigurationError("a replay trace needs at least one request")
    arrivals: List[float] = []
    workloads: List[str] = []
    previous = 0.0
    for index, (arrival, workload) in enumerate(trace):
        arrival = float(arrival)
        if arrival < 0 or arrival < previous:
            raise ConfigurationError(
                f"trace arrival {index} at {arrival} is not non-decreasing"
            )
        if not workload:
            raise ConfigurationError(f"trace entry {index} has no workload")
        arrivals.append(arrival)
        workloads.append(workload)
        previous = arrival
    return Traffic(arrivals, workloads)


def make_traffic(
    kind: str,
    num_requests: int,
    rate_rps: float,
    mix: Optional[WorkloadMix] = None,
    seed: Seed = 2025,
) -> Traffic:
    """Build one named arrival process (the CLI-facing constructor)."""
    mix = mix or WorkloadMix.default_skewed()
    if kind == "poisson":
        return poisson_requests(num_requests, rate_rps, mix, seed=seed)
    if kind == "bursty":
        return bursty_requests(num_requests, rate_rps, mix, seed=seed)
    raise ConfigurationError(
        f"unknown traffic kind {kind!r}; known: {TRAFFIC_KINDS}"
    )
