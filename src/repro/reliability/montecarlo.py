"""Monte Carlo validation of the series-system lifetime model.

Eq. 3 gives the array MTTF in closed form under the Weibull wear model.
This module estimates the same quantity by sampling: each PE ``i`` with
relative activity ``alpha_i`` draws a stress-to-failure ``S_i ~
Weibull(eta, beta)`` and fails at wall-clock time ``S_i / alpha_i``; the
array fails at the first PE failure. Sampling many arrays yields an
empirical MTTF whose agreement with Eq. 3 validates the closed form the
paper's Figs. 7-10 rest on — and gives distributional quantities the
closed form cannot (lifetime percentiles, failure-location histograms).

Two sampling modes coexist:

* **legacy generator mode** (``rng=...``): one process, one generator,
  every draw in a single block — byte-compatible with the historical
  behavior the pinned tests rely on;
* **seeded chunk mode** (``seed=...``): draws are split into fixed-size
  chunks, each seeded from its own :meth:`numpy.random.SeedSequence.
  spawn` child. The sample set depends only on ``(seed, chunk_size,
  num_samples)`` — never on how chunks are distributed over workers —
  so serial and parallel runs are bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError
from repro.reliability.weibull import WeibullModel
from repro.runtime import ParallelRunner, seed_sequence


@dataclass(frozen=True)
class LifetimeSamples:
    """Result of a Monte Carlo lifetime estimation."""

    lifetimes: np.ndarray
    failure_indices: np.ndarray
    analytic_mttf: float

    @property
    def num_samples(self) -> int:
        """Number of simulated arrays."""
        return int(self.lifetimes.size)

    @property
    def empirical_mttf(self) -> float:
        """Mean simulated time to first PE failure."""
        return float(self.lifetimes.mean())

    @property
    def mttf_standard_error(self) -> float:
        """Standard error of the empirical MTTF."""
        return float(self.lifetimes.std(ddof=1) / np.sqrt(self.num_samples))

    @property
    def relative_error(self) -> float:
        """``|empirical - analytic| / analytic``."""
        if not np.isfinite(self.analytic_mttf) or self.analytic_mttf == 0:
            raise ConfigurationError("analytic MTTF is not finite")
        return abs(self.empirical_mttf - self.analytic_mttf) / self.analytic_mttf

    def percentile(self, q: float) -> float:
        """Lifetime percentile (e.g. ``q=1`` for the B1 early-failure life)."""
        if not 0 <= q <= 100:
            raise ConfigurationError(f"percentile must be in [0, 100], got {q}")
        return float(np.percentile(self.lifetimes, q))

    def failure_histogram(self, num_pes: int) -> np.ndarray:
        """How often each PE was the array's first failure."""
        if num_pes < 1:
            raise ConfigurationError(f"num_pes must be positive, got {num_pes}")
        if self.failure_indices.size and self.failure_indices.max() >= num_pes:
            raise ConfigurationError("failure index out of range for num_pes")
        return np.bincount(self.failure_indices, minlength=num_pes)

    def agrees_with_analytic(self, sigma: float = 4.0) -> bool:
        """Whether the closed form lies within ``sigma`` standard errors."""
        return (
            abs(self.empirical_mttf - self.analytic_mttf)
            <= sigma * self.mttf_standard_error
        )


#: Chunk granularity of seeded sampling. Part of the determinism
#: contract: the drawn sample set depends on ``(seed, chunk_size,
#: num_samples)`` and nothing else.
DEFAULT_CHUNK_SIZE = 4096


def _order_statistic_lifetimes(
    stress: np.ndarray, active_alphas: np.ndarray, spares: int
) -> Tuple[np.ndarray, np.ndarray]:
    """First-failure (or ``spares+1``-th) times and their PE columns."""
    times = stress / active_alphas
    order = np.argpartition(times, spares, axis=1)[:, : spares + 1]
    ordered_times = np.take_along_axis(times, order, axis=1)
    which = ordered_times.argmax(axis=1)  # the (spares+1)-th failure
    rows = np.arange(times.shape[0])
    return ordered_times[rows, which], order[rows, which]


def _sample_chunk(spec: Tuple) -> Tuple[np.ndarray, np.ndarray]:
    """Draw one seeded chunk (module-level so the pool can pickle it)."""
    child_seed, count, active_alphas, eta, beta, spares = spec
    chunk_rng = np.random.default_rng(child_seed)
    stress = eta * chunk_rng.weibull(beta, size=(count, active_alphas.size))
    return _order_statistic_lifetimes(stress, active_alphas, spares)


def sample_array_lifetimes(
    alphas,
    model: WeibullModel = WeibullModel(),
    num_samples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
    spares: int = 0,
    seed: Optional[Union[int, np.random.SeedSequence]] = None,
    jobs: Optional[int] = None,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> LifetimeSamples:
    """Monte Carlo estimate of the array MTTF for given PE activities.

    Parameters
    ----------
    alphas:
        Relative activity coefficients (any non-negative array); idle PEs
        (``alpha == 0``) never fail.
    model:
        The Weibull wear model (shape/scale).
    num_samples:
        Simulated arrays. 10k gives a ~1% standard error for beta = 3.4.
    rng:
        Numpy generator for the legacy single-block mode (default:
        seeded with 2025). Mutually exclusive with ``seed``.
    spares:
        Redundancy study: the array survives its first ``spares`` PE
        failures (spare PEs absorb them), so its lifetime is the
        ``spares + 1``-th failure time. ``0`` is the paper's series
        system; the ``analytic_mttf`` field then matches Eq. 3, while for
        ``spares > 0`` it still reports the series-system closed form as
        the no-redundancy reference.
    seed:
        An integer or :class:`numpy.random.SeedSequence` selecting the
        reproducible chunked mode: draws split into ``chunk_size``-sized
        chunks, each seeded from a spawned child, so results are
        bit-identical for any ``jobs`` value.
    jobs:
        Worker processes for the chunked mode (``None`` reads
        ``REPRO_JOBS``; serial by default). Requires ``seed``.
    chunk_size:
        Samples per chunk in the chunked mode. Changing it changes the
        drawn sample set (but never the distribution).
    """
    activities = np.asarray(alphas, dtype=float).ravel()
    if activities.size == 0:
        raise ConfigurationError("need at least one PE activity")
    if np.any(activities < 0):
        raise ConfigurationError("activities must be non-negative")
    if num_samples < 1:
        raise ConfigurationError(f"num_samples must be positive, got {num_samples}")
    if not np.any(activities > 0):
        raise ConfigurationError("at least one PE must be active")
    if spares < 0:
        raise ConfigurationError(f"spares must be non-negative, got {spares}")
    if seed is not None and rng is not None:
        raise ConfigurationError("pass either rng (legacy) or seed (chunked), not both")
    if seed is None and jobs is not None and jobs != 1:
        raise ConfigurationError(
            "parallel sampling needs an explicit seed for reproducible chunking"
        )
    if chunk_size < 1:
        raise ConfigurationError(f"chunk_size must be positive, got {chunk_size}")

    active = activities > 0
    active_alphas = activities[active]
    active_index = np.nonzero(active)[0]
    if spares >= active_alphas.size:
        raise ConfigurationError(
            f"{spares} spares cannot exceed the {active_alphas.size} active PEs"
        )

    if seed is not None:
        counts = [
            min(chunk_size, num_samples - start)
            for start in range(0, num_samples, chunk_size)
        ]
        children = seed_sequence(seed).spawn(len(counts))
        runner = ParallelRunner(jobs)
        chunks = runner.map(
            _sample_chunk,
            [
                (child, count, active_alphas, model.eta, model.beta, spares)
                for child, count in zip(children, counts)
            ],
            labels=[f"chunk-{index}" for index in range(len(counts))],
        )
        lifetimes = np.concatenate([chunk[0] for chunk in chunks])
        fatal = np.concatenate([chunk[1] for chunk in chunks])
    else:
        # Legacy mode: one generator, every draw in a single block.
        # Stress-to-failure draws: S ~ Weibull(eta, beta); wall-clock
        # failure of PE i at S / alpha_i.
        rng = rng or np.random.default_rng(2025)
        stress = model.eta * rng.weibull(
            model.beta, size=(num_samples, active_alphas.size)
        )
        lifetimes, fatal = _order_statistic_lifetimes(stress, active_alphas, spares)
    failure_indices = active_index[fatal]

    return LifetimeSamples(
        lifetimes=lifetimes,
        failure_indices=failure_indices,
        analytic_mttf=model.array_mttf(activities),
    )


def empirical_improvement(
    baseline_counts,
    wear_leveled_counts,
    model: WeibullModel = WeibullModel(),
    num_samples: int = 10_000,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """Monte Carlo analogue of Eq. 4: ratio of empirical MTTFs.

    Uses common random numbers across the two schemes to shrink the
    variance of the ratio estimate.
    """
    seed_rng = rng or np.random.default_rng(2025)
    seed = int(seed_rng.integers(0, 2**31 - 1))
    leveled = sample_array_lifetimes(
        wear_leveled_counts,
        model=model,
        num_samples=num_samples,
        rng=np.random.default_rng(seed),
    )
    base = sample_array_lifetimes(
        baseline_counts,
        model=model,
        num_samples=num_samples,
        rng=np.random.default_rng(seed),
    )
    return leveled.empirical_mttf / base.empirical_mttf
