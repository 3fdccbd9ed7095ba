"""Tests for per-device fleet state: queue, wear ledger, fault state."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.engine import WearLevelingEngine
from repro.dataflow.scheduler import SchedulerOptions
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.common import paper_accelerator
from repro.faults.injection import EnduranceBudgets
from repro.fleet import device as device_module
from repro.fleet.device import FleetDevice, WorkloadProfile, build_profile
from repro.runtime import Memo


def profile_for(accelerator, wear=1, cycles=1000, name="toy"):
    counts = np.full(accelerator.array.shape, wear, dtype=np.int64)
    return WorkloadProfile(workload=name, counts=counts, cycles=cycles)


class TestWorkloadProfile:
    def test_wear_units_is_total_increment(self, small_torus):
        profile = profile_for(small_torus, wear=2)
        assert profile.wear_units == 2 * small_torus.array.num_pes
        assert profile.peak_count == 2

    def test_unpickling_derives_what_old_pickles_lack(self, small_torus):
        """Profiles pickled before ``wear_units``/``peak_count`` were
        plain attributes still get them when loaded."""
        profile = profile_for(small_torus, wear=3)
        state = {
            name: value
            for name, value in profile.__dict__.items()
            if name not in ("wear_units", "peak_count")
        }
        clone = WorkloadProfile.__new__(WorkloadProfile)
        clone.__setstate__(state)
        assert clone.wear_units == profile.wear_units
        assert clone.peak_count == 3

    def test_rejects_bad_shapes(self):
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", np.zeros(4), cycles=10)
        with pytest.raises(ConfigurationError):
            WorkloadProfile("x", np.zeros((2, 2)), cycles=0)


    def test_counts_are_a_read_only_copy(self, small_torus):
        counts = np.ones(small_torus.array.shape, dtype=np.int64)
        profile = WorkloadProfile("x", counts, cycles=10)
        counts[0, 0] = 7  # the caller's array stays theirs
        assert profile.counts[0, 0] == 1
        with pytest.raises(ValueError):
            profile.counts[0, 0] = 2
        clone = pickle.loads(pickle.dumps(profile))
        with pytest.raises(ValueError):
            clone.counts[0, 0] = 2


class TestProfileMemo:
    """``build_profile`` memoizes per process, even with the cache off."""

    @pytest.fixture(autouse=True)
    def fresh_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        monkeypatch.setattr(device_module, "_PROFILE_MEMO", Memo())

    @staticmethod
    def forbid_rebuilds(monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("profile was rebuilt")

        monkeypatch.setattr(WearLevelingEngine, "run", boom)
        monkeypatch.setattr("repro.experiments.common.execution_for", boom)

    def test_second_call_skips_the_engine(self, monkeypatch):
        first = build_profile("Sqz")
        self.forbid_rebuilds(monkeypatch)
        second = build_profile("SqueezeNet")
        assert np.array_equal(second.counts, first.counts)
        assert second.cycles == first.cycles

    def test_other_accelerator_or_options_miss(self, monkeypatch):
        build_profile("Sqz")
        self.forbid_rebuilds(monkeypatch)
        with pytest.raises(AssertionError, match="rebuilt"):
            build_profile("Sqz", paper_accelerator(torus=False))
        with pytest.raises(AssertionError, match="rebuilt"):
            build_profile("Sqz", options=SchedulerOptions(objective="latency"))

    def test_cap_zero_disables_the_memo(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "0")
        build_profile("Sqz")
        self.forbid_rebuilds(monkeypatch)
        with pytest.raises(AssertionError, match="rebuilt"):
            build_profile("Sqz")

    def test_concurrent_callers_share_a_bounded_memo(self, monkeypatch):
        """More threads than cores thrash a 2-entry memo over 3 keys."""
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "2")

        def fake_build(key, workload, *args):
            return WorkloadProfile(workload, np.ones((2, 2)), cycles=1)

        # Cheap keys and builds, so the threads spend their time in the
        # memo's get / insert / evict steps.
        monkeypatch.setattr(device_module, "_profile_key", lambda workload, *_: workload)
        monkeypatch.setattr(device_module, "_load_or_build_profile", fake_build)
        workloads = ("SqueezeNet", "ResNet-50", "ViT")
        errors = []

        def hammer(offset):
            try:
                for step in range(10000):
                    name = workloads[(step + offset) % len(workloads)]
                    assert build_profile(name).workload == name
            except Exception as error:  # noqa: BLE001 - surfaced below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(offset,)) for offset in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(device_module._PROFILE_MEMO) <= 2


class TestConstruction:
    def test_validates_parameters(self, small_torus):
        with pytest.raises(ConfigurationError):
            FleetDevice(0, small_torus, queue_limit=0)
        with pytest.raises(ConfigurationError):
            FleetDevice(0, small_torus, clock_mhz=0.0)
        with pytest.raises(ConfigurationError):
            FleetDevice(0, small_torus, min_alive_fraction=0.0)

    def test_rejects_budget_shape_mismatch(self, small_torus):
        bad = EnduranceBudgets(np.ones((2, 2)))
        with pytest.raises(ConfigurationError):
            FleetDevice(0, small_torus, budgets=bad)


class TestQueueMechanics:
    def test_enqueue_starts_service_when_idle(self, small_torus):
        device = FleetDevice(0, small_torus, clock_mhz=100.0)
        profile = profile_for(small_torus, cycles=1_000_000)
        assert device.admit(0, "toy", profile, now=1.0) == pytest.approx(1.01)
        assert device.admit(1, "toy", profile, now=1.0) is None
        assert device.outstanding == 2
        assert device.queue_length == 1
        assert device.in_service == 0

    def test_dispatched_wear_counts_at_enqueue(self, small_torus):
        device = FleetDevice(0, small_torus)
        profile = profile_for(small_torus, wear=3)
        device.admit(0, "toy", profile, now=0.0)
        assert device.dispatched_wear == profile.wear_units
        assert device.total_usage == 0  # wear lands at completion

    def test_queue_limit_bounds_acceptance(self, small_torus):
        device = FleetDevice(0, small_torus, queue_limit=2)
        profile = profile_for(small_torus)
        for index in range(3):  # one in service + two queued
            device.admit(index, "toy", profile, now=0.0)
        assert not device.can_accept
        with pytest.raises(SimulationError):
            device.admit(3, "toy", profile, now=0.0)

    def test_finish_frees_a_queue_slot(self, small_torus):
        device = FleetDevice(0, small_torus, queue_limit=1)
        profile = profile_for(small_torus)
        device.admit(0, "toy", profile, now=0.0)
        device.admit(1, "toy", profile, now=0.0)
        assert not device.can_accept
        device.finish(1.0)  # request 1 moves from the queue into service
        assert device.can_accept
        assert device.in_service == 1 and device.queue_length == 0

    def test_complete_applies_wear_and_serves_next(self, small_torus):
        device = FleetDevice(0, small_torus, clock_mhz=100.0)
        profile = profile_for(small_torus, wear=2, cycles=1_000_000)
        device.admit(0, "toy", profile, now=0.0)
        device.admit(1, "toy", profile, now=0.0)
        finished, loss, finish_s, deaths = device.finish(1.0)
        assert (finished, loss, deaths) == (0, 0.0, ())
        assert finish_s == pytest.approx(1.01)  # request 1 started at 1.0
        assert device.served == 1
        assert (device.ledger == 2).all()
        assert device.in_service == 1
        assert device.finish(finish_s)[:3] == (1, 0.0, None)  # queue empty
        assert device.in_service is None

    def test_complete_when_idle_rejected(self, small_torus):
        with pytest.raises(SimulationError):
            FleetDevice(0, small_torus).finish(0.0)

    def test_ledger_view_is_read_only(self, small_torus):
        device = FleetDevice(0, small_torus)
        with pytest.raises(ValueError):
            device.ledger[0, 0] = 1


class TestWearOutAndRetirement:
    def test_budget_crossings_kill_pes(self, small_torus):
        budgets = np.full(small_torus.array.shape, 100.0)
        budgets[0, 0] = 1.0  # (v=0, u=0) dies on the first request
        device = FleetDevice(
            0, small_torus, budgets=EnduranceBudgets(budgets),
            min_alive_fraction=0.1,
        )
        device.admit(0, "toy", profile_for(small_torus), now=0.0)
        _, _, _, deaths = device.finish(2.5)
        assert [(d.u, d.v, d.time_s) for d in deaths] == [(0, 0, 2.5)]
        assert device.alive and device.dropped == 0
        assert device.alive_fraction < 1.0

    def test_fractional_budget_dies_at_its_ceiling(self, small_torus):
        """A budget of 2.5 is crossed by the third unit of wear, not the
        second: the integer check compares against ``ceil(budget)``."""
        budgets = np.full(small_torus.array.shape, 100.0)
        budgets[1, 2] = 2.5
        device = FleetDevice(
            0, small_torus, budgets=EnduranceBudgets(budgets),
            min_alive_fraction=0.1,
        )
        profile = profile_for(small_torus)
        deaths = []
        for index in range(4):
            device.admit(index, "toy", profile, now=float(index))
            deaths.append(device.finish(index + 0.5)[3])
        assert [len(d) for d in deaths] == [0, 0, 1, 0]
        assert (deaths[2][0].u, deaths[2][0].v) == (2, 1)

    def test_retirement_drops_queue(self, small_torus):
        # Every PE's budget crosses at once -> the device retires and
        # hands back its queued (never-served) requests.
        budgets = EnduranceBudgets.uniform(small_torus.array, 1.0)
        device = FleetDevice(0, small_torus, budgets=budgets)
        profile = profile_for(small_torus)
        device.admit(0, "toy", profile, now=0.0)
        device.admit(1, "toy", profile, now=0.0)
        _, _, finish_s, deaths = device.finish(3.0)
        assert len(deaths) == small_torus.array.num_pes
        assert finish_s is None  # nothing starts on a retired device
        assert device.dropped == 1
        assert device.queue_length == 0
        assert not device.alive
        assert device.death_time_s == 3.0
        assert not device.can_accept

    def test_peak_wear_normalizes_against_budgets(self, small_torus):
        budgets = EnduranceBudgets.uniform(small_torus.array, 10.0)
        device = FleetDevice(0, small_torus, budgets=budgets,
                             min_alive_fraction=0.1)
        device.admit(0, "toy", profile_for(small_torus, wear=2), now=0.0)
        device.finish(1.0)
        assert device.peak_wear == pytest.approx(0.2)
        bare = FleetDevice(1, small_torus)
        bare.admit(0, "toy", profile_for(small_torus, wear=2), now=0.0)
        bare.finish(1.0)
        assert bare.peak_wear == 2.0


class TestServiceModel:
    def test_service_seconds_from_cycle_model(self, small_torus):
        device = FleetDevice(0, small_torus, clock_mhz=100.0)
        profile = profile_for(small_torus, cycles=1_000_000)
        assert device.admit(0, "toy", profile, now=2.0) == pytest.approx(2.01)

    def test_dead_pes_slow_the_device(self, small_torus):
        budgets = np.full(small_torus.array.shape, 1e9)
        budgets[0, 0] = 1.0
        device = FleetDevice(
            0, small_torus, budgets=EnduranceBudgets(budgets),
            min_alive_fraction=0.1,
        )
        assert device.slowdown == 1.0
        profile = profile_for(small_torus, cycles=1000)
        device.admit(0, "toy", profile, now=0.0)
        device.admit(1, "toy", profile, now=0.0)
        _, _, finish_s, _ = device.finish(1.0)
        num_pes = small_torus.array.num_pes
        assert device.slowdown == pytest.approx(num_pes / (num_pes - 1))
        # The request started after the death runs at the slower rate.
        assert finish_s - 1.0 == pytest.approx(1000 / 200e6 * device.slowdown)


class TestPredictedLoss:
    def test_changes_once_a_kill_crosses_the_alive_floor(self, small_torus):
        """The memoized loss follows the fault version: a request whose
        wear kills PEs past ``min_alive_fraction`` moves the prediction."""
        budgets = np.full(small_torus.array.shape, 1e9)
        budgets.flat[:11] = 1.0  # 11 of 20 PEs die on the first request
        device = FleetDevice(
            0, small_torus, budgets=EnduranceBudgets(budgets),
            mode="serve-degraded-approx", min_alive_fraction=0.5,
        )
        assert device.predicted_loss("toy") == 0.0
        device.admit(0, "toy", profile_for(small_torus), now=0.0)
        _, _, _, deaths = device.finish(1.0)
        assert len(deaths) == 11
        assert device.degraded
        assert device.predicted_loss("toy") > 0.0
        # Further deaths past the floor raise it again.
        worse = device.predicted_loss("toy")
        device.faults.kill(4, 3)
        assert device.predicted_loss("toy") > worse
