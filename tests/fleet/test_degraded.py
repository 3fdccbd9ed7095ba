"""Degraded-approx serving: equivalence, loss accounting, retirement.

The load-bearing invariant is *degraded-mode equivalence*: with zero
faults, a ``serve-degraded-approx`` device (and a whole fleet of them)
is bit-identical to ``retire``-mode serving — same latencies, same wear
ledgers, zero delivered loss. The mode only changes behavior once PEs
actually die past ``min_alive_fraction``.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.accuracy import SLOClass
from repro.faults.injection import EnduranceBudgets
from repro.fleet.device import FleetDevice, WorkloadProfile
from repro.fleet.simulate import FleetConfig, simulate_fleet
from repro.fleet.traffic import WorkloadMix, poisson_requests
from repro.runtime import content_hash


def profile_for(accelerator, wear=1, cycles=1000, name="toy"):
    counts = np.full(accelerator.array.shape, wear, dtype=np.int64)
    return WorkloadProfile(workload=name, counts=counts, cycles=cycles)


def drain(device, num_requests, profile):
    """Serve ``num_requests`` back to back; returns (time, loss) pairs."""
    served = []
    clock = 0.0
    for index in range(num_requests):
        clock = device.admit(index, "toy", profile, now=clock)
        _, loss, _, _ = device.finish(clock)
        served.append((clock, loss))
    return served


class TestZeroFaultEquivalence:
    """Satellite acceptance: fault-free degraded == fault-free normal."""

    @pytest.mark.parametrize("seed", [0, 7, 2025])
    def test_fleet_results_are_bit_identical_across_seeds(
        self, small_torus, seed
    ):
        profiles = {"toy": profile_for(small_torus)}
        requests = poisson_requests(
            num_requests=50,
            rate_rps=200.0,
            mix=WorkloadMix.uniform(["toy"]),
            seed=seed,
        )
        base = FleetConfig(num_devices=3, policy="rotational")
        normal = simulate_fleet(
            profiles, requests, small_torus, base, seed=seed
        )
        degraded = simulate_fleet(
            profiles,
            requests,
            small_torus,
            replace(base, mode="serve-degraded-approx"),
            seed=seed,
        )
        assert degraded.delivered_loss_mean == 0.0
        assert degraded.delivered_loss_p99 == 0.0
        assert degraded.slo_violations == 0
        # Everything but the mode label is bit-identical: latencies,
        # throughput, per-device ledgers, MTTF projections.
        assert content_hash(replace(degraded, mode="retire")) == (
            content_hash(normal)
        )

    def test_single_device_latency_and_ledger_match(self, small_torus):
        profile = profile_for(small_torus, wear=2, cycles=50_000)
        normal = FleetDevice(0, small_torus)
        degraded = FleetDevice(0, small_torus, mode="serve-degraded-approx")
        served = drain(degraded, 10, profile)
        assert drain(normal, 10, profile) == served
        assert np.array_equal(normal.ledger, degraded.ledger)
        assert {loss for _, loss in served} == {0.0}
        assert not degraded.degraded

    def test_healthy_degraded_device_predicts_zero_loss(self, small_torus):
        device = FleetDevice(0, small_torus, mode="serve-degraded-approx")
        assert device.predicted_loss("toy") == 0.0


class TestDegradedRegime:
    def kill(self, device, count, start=0):
        width = device.faults.dead_mask.shape[1]
        for linear in range(start, start + count):
            device.faults.kill(u=linear % width, v=linear // width)

    def test_degraded_past_the_alive_floor(self, small_torus):
        device = FleetDevice(
            0, small_torus, mode="serve-degraded-approx",
            min_alive_fraction=0.5,
        )
        self.kill(device, 11)  # 9 of 20 alive -> under the 0.5 floor
        assert device.degraded
        assert device.predicted_loss("toy") > 0.0

    def test_degraded_service_skips_the_slowdown(self, small_torus):
        """The dead PEs' work is approximated away, not redistributed."""
        profile = profile_for(small_torus, cycles=100_000)
        device = FleetDevice(
            0, small_torus, mode="serve-degraded-approx",
            min_alive_fraction=0.5,
        )
        healthy_time = device.admit(0, "toy", profile, now=0.0)
        device.finish(healthy_time)
        self.kill(device, 11)
        assert device.slowdown > 1.0
        assert device.admit(1, "toy", profile, now=0.0) == healthy_time

    def test_retire_mode_never_reports_degraded(self, small_torus):
        device = FleetDevice(0, small_torus, min_alive_fraction=0.5)
        self.kill(device, 11)
        assert not device.degraded
        assert device.predicted_loss("toy") == 0.0

    def test_delivered_loss_is_fixed_at_admission(self, small_torus):
        """PEs dying while a request queues cannot raise its loss."""
        device = FleetDevice(
            0, small_torus, mode="serve-degraded-approx",
            min_alive_fraction=0.5,
        )
        self.kill(device, 11)
        admitted = device.predicted_loss("toy")
        device.admit(0, "toy", profile_for(small_torus), now=0.0)
        self.kill(device, 5, start=11)  # more deaths after admission
        assert device.predicted_loss("toy") > admitted
        _, loss, _, _ = device.finish(1.0)
        assert loss == admitted

    def test_retires_only_when_every_pe_is_dead(self, small_torus):
        device = FleetDevice(
            0, small_torus, mode="serve-degraded-approx",
            min_alive_fraction=0.5,
        )
        profile = profile_for(small_torus)
        self.kill(device, 19)  # one survivor: still serving
        device.admit(0, "toy", profile, now=0.0)
        device.finish(1.0)
        assert device.alive
        self.kill(device, 1, start=19)  # the last PE dies
        device.admit(1, "toy", profile, now=1.0)
        device.finish(2.0)
        assert not device.alive

    def test_dead_device_predicts_infinite_loss(self, small_torus):
        budgets = EnduranceBudgets.uniform(small_torus.array, 1.0)
        device = FleetDevice(
            0, small_torus, budgets=budgets, mode="serve-degraded-approx",
        )
        device.admit(0, "toy", profile_for(small_torus), now=0.0)
        device.finish(1.0)
        assert not device.alive
        assert device.predicted_loss("toy") == float("inf")

    def test_losses_flow_into_the_fleet_result(self, small_torus):
        """Tight budgets push degraded devices under the floor and the
        per-request losses show up in the scenario summary."""
        profiles = {"toy": profile_for(small_torus)}
        mix = WorkloadMix.uniform(["toy"]).with_slos(
            [("toy", SLOClass.tolerant(0.3))]
        )
        requests = poisson_requests(
            num_requests=200, rate_rps=500.0, mix=mix, seed=11
        )
        config = FleetConfig(
            num_devices=2,
            policy="slo_aware",
            mode="serve-degraded-approx",
            mean_budget=60.0,
            min_alive_fraction=0.75,
        )
        result = simulate_fleet(profiles, requests, small_torus, config, seed=11)
        assert result.mode == "serve-degraded-approx"
        assert result.delivered_loss_p99 > 0.0
        assert result.delivered_loss_p99 >= result.delivered_loss_mean
        assert result.slo_violations == 0  # loss fixed at admission
