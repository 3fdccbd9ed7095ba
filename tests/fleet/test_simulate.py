"""Tests for the fleet event loop and lifetime composition."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.fleet.device import WorkloadProfile
from repro.fleet.dispatch import DISPATCH_POLICY_NAMES
from repro.fleet.simulate import (
    FleetConfig,
    fleet_mttf_parallel,
    fleet_mttf_series,
    simulate_fleet,
)
from repro.fleet.traffic import (
    Request,
    WorkloadMix,
    bursty_requests,
    replay_requests,
)
from repro.runtime import content_hash


def toy_profiles(accelerator, light_wear=1, heavy_wear=8):
    shape = accelerator.array.shape
    return {
        "light": WorkloadProfile(
            "light", np.full(shape, light_wear, dtype=np.int64), cycles=10_000
        ),
        "heavy": WorkloadProfile(
            "heavy", np.full(shape, heavy_wear, dtype=np.int64), cycles=80_000
        ),
    }


MIX = WorkloadMix((("light", 0.7), ("heavy", 0.3)))


def run(accelerator, num_requests=120, rate_rps=1000.0, seed=7, **config_kwargs):
    profiles = toy_profiles(accelerator)
    requests = bursty_requests(num_requests, rate_rps, MIX, seed=seed)
    config = FleetConfig(**config_kwargs)
    return simulate_fleet(
        profiles, requests, accelerator=accelerator, config=config, seed=seed
    )


class TestConservation:
    @pytest.mark.parametrize("policy", DISPATCH_POLICY_NAMES)
    def test_every_request_is_accounted_for(self, small_torus, policy):
        result = run(small_torus, policy=policy)
        assert result.completed + result.rejected + result.dropped == 120
        assert result.rejected == result.dropped == 0
        assert sum(stats.served for stats in result.device_stats) == 120

    def test_wear_matches_served_profiles(self, small_torus):
        result = run(small_torus)
        per_request = {"light": 1, "heavy": 8}
        num_pes = small_torus.array.num_pes
        total = sum(result.device_totals)
        requests = bursty_requests(120, 1000.0, MIX, seed=7)
        expected = sum(per_request[r.workload] for r in requests) * num_pes
        assert total == expected


class TestDeterminism:
    def test_same_seed_same_result(self, small_torus):
        a = run(small_torus, seed=11)
        b = run(small_torus, seed=11)
        assert a.device_totals == b.device_totals
        assert a.latency_p99_s == b.latency_p99_s
        assert a.mttf_series_s == b.mttf_series_s

    def test_different_traffic_differs(self, small_torus):
        assert run(small_torus, seed=11).device_totals != run(
            small_torus, seed=12
        ).device_totals


class TestBoundedQueues:
    def test_overload_rejects_requests(self, small_torus):
        # One device, queue of 1, all arrivals at t=0: only the request
        # in service plus one queued can be admitted.
        profiles = toy_profiles(small_torus)
        requests = replay_requests([(0.0, "heavy")] * 10)
        config = FleetConfig(num_devices=1, queue_limit=1, policy="round_robin")
        result = simulate_fleet(
            profiles, requests, accelerator=small_torus, config=config
        )
        assert result.completed == 2
        assert result.rejected == 8
        assert result.completed + result.rejected == result.num_requests


class TestLifetimeComposition:
    def test_parallel_is_at_least_series(self, small_torus):
        result = run(small_torus)
        assert result.mttf_parallel_s >= result.mttf_series_s > 0

    def test_uniform_fleet_closed_form(self):
        # Four identical devices with flat unit rates: the series MTTF
        # follows Eq. 3 on the concatenated rate vector exactly.
        rates = [np.ones((4, 5)) for _ in range(4)]
        from math import gamma

        beta = 3.4
        mean_budget = 1e6
        eta = mean_budget / gamma(1 + 1 / beta)
        norm = (4 * 20) ** (1 / beta)  # 80 unit-rate PEs
        expected = eta / norm * gamma(1 + 1 / beta)
        assert fleet_mttf_series(rates, mean_budget, beta) == pytest.approx(expected)

    def test_parallel_infinite_when_a_device_is_idle(self):
        rates = [np.ones((2, 2)), np.zeros((2, 2))]
        assert fleet_mttf_parallel(rates, 1e6) == float("inf")
        assert fleet_mttf_series(rates, 1e6) > 0

    def test_rejects_empty_rate_vectors(self):
        with pytest.raises(ConfigurationError):
            fleet_mttf_series([], 1e6)
        with pytest.raises(ConfigurationError):
            fleet_mttf_parallel([], 1e6)


class TestWearOut:
    def test_small_budget_kills_pes_and_steps_availability(self, small_torus):
        result = run(small_torus, num_requests=200, mean_budget=80.0)
        assert len(result.pe_deaths) > 0
        assert result.devices_alive_at_end < result.num_devices
        times = [t for t, _ in result.availability]
        alive = [n for _, n in result.availability]
        assert times == sorted(times)
        assert alive[0] == result.num_devices
        assert alive == sorted(alive, reverse=True)
        assert 0.0 < result.availability_fraction <= 1.0
        assert result.dropped + result.completed + result.rejected == 200

    def test_failure_free_without_budget(self, small_torus):
        result = run(small_torus, num_requests=200)
        assert result.pe_deaths == ()
        assert result.devices_alive_at_end == result.num_devices
        assert result.availability == ((0.0, result.num_devices),)


class TestValidation:
    def test_empty_requests_rejected(self, small_torus):
        with pytest.raises(ConfigurationError):
            simulate_fleet(toy_profiles(small_torus), [], accelerator=small_torus)

    def test_missing_profile_rejected(self, small_torus):
        requests = replay_requests([(0.0, "unknown")])
        with pytest.raises(ConfigurationError):
            simulate_fleet(
                toy_profiles(small_torus), requests, accelerator=small_torus
            )

    def test_missing_profile_names_the_first_request(self, small_torus):
        requests = replay_requests(
            [(0.0, "light"), (1.0, "heavy"), (2.0, "unknown"), (3.0, "unknown")]
        )
        with pytest.raises(ConfigurationError, match="request 2 asks for 'unknown'"):
            simulate_fleet(
                toy_profiles(small_torus), requests, accelerator=small_torus
            )

    def test_decreasing_arrivals_rejected(self, small_torus):
        """Out-of-order arrivals are an error naming the first request
        that arrives early, not a silently wrong schedule."""
        requests = [
            Request(index=index, arrival_s=arrival, workload="light")
            for index, arrival in enumerate((5.0, 1.0, 0.5))
        ]
        config = FleetConfig(num_devices=1)
        with pytest.raises(
            ConfigurationError, match=r"request 1 arrives at 1.0 s, before request 0"
        ):
            simulate_fleet(
                toy_profiles(small_torus), requests, small_torus, config
            )
        # Equal arrival times are in order.
        ties = [
            Request(index=index, arrival_s=1.0, workload="light")
            for index in range(3)
        ]
        result = simulate_fleet(toy_profiles(small_torus), ties, small_torus, config)
        assert result.completed == 3

    def test_request_tuples_run_like_traffic(self, small_torus):
        """Any sequence of requests is read into the columnar form."""
        traffic = bursty_requests(80, 1000.0, MIX, seed=3)
        profiles = toy_profiles(small_torus)
        config = FleetConfig(mean_budget=80.0)
        columnar = simulate_fleet(profiles, traffic, small_torus, config, seed=3)
        rows = simulate_fleet(profiles, tuple(traffic), small_torus, config, seed=3)
        assert content_hash(rows) == content_hash(columnar)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(num_devices=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(mean_budget=-1.0)
