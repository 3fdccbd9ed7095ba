"""A seeded entry point depends on its seed's identity, not its history.

``SeedSequence.spawn()`` advances the sequence's child counter, so an
entry point that spawns from the caller's object would answer a second
call with the same object differently. Every public seeded entry point
rebuilds the sequence from ``(entropy, spawn_key)`` instead: two calls
with one ``SeedSequence`` object give equal results, and both equal a
call with a fresh sequence.
"""

import numpy as np
import pytest

from repro.experiments.result import to_jsonable
from repro.faults.montecarlo import sample_fault_scenarios
from repro.fleet.device import WorkloadProfile
from repro.fleet.montecarlo import sample_fleet_scenarios
from repro.fleet.simulate import FleetConfig, simulate_fleet
from repro.fleet.traffic import WorkloadMix, bursty_requests, poisson_requests
from repro.reliability.montecarlo import sample_array_lifetimes
from tests.conftest import make_stream

MIX = WorkloadMix((("light", 0.7), ("heavy", 0.3)))


def _profiles(accelerator):
    shape = accelerator.array.shape
    return {
        "light": WorkloadProfile(
            "light", np.full(shape, 1, dtype=np.int64), cycles=10_000
        ),
        "heavy": WorkloadProfile(
            "heavy", np.full(shape, 8, dtype=np.int64), cycles=80_000
        ),
    }


def _simulate_fleet(accelerator, seed):
    requests = bursty_requests(30, 50.0, MIX, seed=5)
    config = FleetConfig(num_devices=2, mean_budget=300.0)
    return simulate_fleet(
        _profiles(accelerator), requests, accelerator, config, seed=seed
    )


def _fault_scenarios(accelerator, seed):
    return sample_fault_scenarios(
        accelerator,
        [make_stream("conv1", x=3, y=2, z=5)],
        policy_name="rwl",
        num_scenarios=4,
        mean_budget=60.0,
        deaths=1,
        max_iterations=40,
        seed=seed,
        jobs=1,
    ).outcomes


def _fleet_scenarios(accelerator, seed):
    return sample_fleet_scenarios(
        accelerator,
        config=FleetConfig(num_devices=2, mean_budget=300.0),
        num_requests=30,
        mix=MIX,
        profiles=_profiles(accelerator),
        num_scenarios=3,
        seed=seed,
        jobs=1,
    )


def _array_lifetimes(accelerator, seed):
    samples = sample_array_lifetimes(
        [1.0, 2.0, 0.5], num_samples=200, seed=seed, chunk_size=50, jobs=1
    )
    return samples.lifetimes, samples.failure_indices


ENTRY_POINTS = {
    "simulate_fleet": _simulate_fleet,
    "sample_fault_scenarios": _fault_scenarios,
    "sample_fleet_scenarios": _fleet_scenarios,
    "sample_array_lifetimes": _array_lifetimes,
    "poisson_requests": lambda _, seed: list(poisson_requests(20, 5.0, MIX, seed)),
    "bursty_requests": lambda _, seed: list(bursty_requests(20, 5.0, MIX, seed)),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_one_seed_sequence_twice_gives_equal_results(small_torus, name):
    call = ENTRY_POINTS[name]
    shared = np.random.SeedSequence(11)
    first = to_jsonable(call(small_torus, shared))
    second = to_jsonable(call(small_torus, shared))
    assert first == second
    assert first == to_jsonable(call(small_torus, np.random.SeedSequence(11)))
