"""Tests for the scheduler's in-memory and on-disk caches."""

import json
import time

import pytest

from repro.arch.presets import eyeriss_v1
from repro.dataflow import scheduler as scheduler_module
from repro.dataflow.layer import LayerShape
from repro.dataflow.scheduler import (
    Scheduler,
    clear_schedule_cache,
    save_schedule_cache,
)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    """Route the disk cache into a temp dir and reset module state."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv("REPRO_SCHEDULE_CACHE", raising=False)
    original_disk = scheduler_module._DISK_CACHE
    original_dirty = scheduler_module._DISK_CACHE_DIRTY
    scheduler_module._DISK_CACHE = None
    scheduler_module._DISK_CACHE_DIRTY = {}
    clear_schedule_cache()
    yield tmp_path
    scheduler_module._DISK_CACHE = original_disk
    scheduler_module._DISK_CACHE_DIRTY = original_dirty
    clear_schedule_cache()


def small_layer(name="cache_probe"):
    return LayerShape.conv(name, 8, 4, (6, 6), (3, 3))


class TestDiskCache:
    def test_save_writes_file(self, isolated_cache):
        scheduler = Scheduler(eyeriss_v1())
        scheduler.schedule_layer(small_layer())
        save_schedule_cache()
        cache_file = isolated_cache / "schedules.json"
        assert cache_file.exists()
        entries = json.loads(cache_file.read_text())
        assert len(entries) == 1

    def test_reload_round_trips_schedule(self, isolated_cache):
        scheduler = Scheduler(eyeriss_v1())
        original = scheduler.schedule_layer(small_layer())
        save_schedule_cache()
        # Fresh module state: force a reload from disk.
        scheduler_module._DISK_CACHE = None
        clear_schedule_cache()
        reloaded = Scheduler(eyeriss_v1()).schedule_layer(small_layer())
        assert reloaded.mapping.spatial_x == original.mapping.spatial_x
        assert reloaded.mapping.spatial_y == original.mapping.spatial_y
        assert reloaded.energy.total_pj == pytest.approx(original.energy.total_pj)

    def test_corrupt_cache_file_ignored(self, isolated_cache):
        cache_file = isolated_cache / "schedules.json"
        cache_file.write_text("{not json")
        schedule = Scheduler(eyeriss_v1()).schedule_layer(small_layer())
        assert schedule.num_tiles >= 1  # search ran despite the corruption

    def test_malformed_entry_falls_back_to_search(self, isolated_cache):
        scheduler = Scheduler(eyeriss_v1())
        layer = small_layer()
        scheduler.schedule_layer(layer)
        save_schedule_cache()
        cache_file = isolated_cache / "schedules.json"
        entries = json.loads(cache_file.read_text())
        for key in entries:
            entries[key] = {"dim_x": "K"}  # missing fields
        cache_file.write_text(json.dumps(entries))
        scheduler_module._DISK_CACHE = None
        clear_schedule_cache()
        schedule = Scheduler(eyeriss_v1()).schedule_layer(layer)
        assert schedule.num_tiles >= 1

    def test_cache_disabled_by_env(self, isolated_cache, monkeypatch):
        monkeypatch.setenv("REPRO_SCHEDULE_CACHE", "off")
        scheduler = Scheduler(eyeriss_v1())
        scheduler.schedule_layer(small_layer())
        save_schedule_cache()
        assert not (isolated_cache / "schedules.json").exists()


def _schedule(layer):
    """Pool task: search one layer (module-level, so it pickles)."""
    return Scheduler(eyeriss_v1()).schedule_layer(layer).num_tiles


class TestPoolWorkersSaveSearches:
    """Pool workers exit through ``os._exit``, which skips the ``atexit``
    flush, so each task saves the schedules it searched."""

    def test_parallel_runner_worker(self, isolated_cache):
        from repro.runtime import ParallelRunner

        layers = [small_layer(), LayerShape.conv("wider", 16, 8, (6, 6), (3, 3))]
        ParallelRunner(jobs=2).map(_schedule, layers)
        entries = json.loads((isolated_cache / "schedules.json").read_text())
        assert len(entries) == 2

    def test_fork_gateway_worker(self, isolated_cache, monkeypatch):
        from repro.experiments import common
        from repro.gateway import GatewayJobManager
        from repro.runtime import Memo

        # A forked worker inherits this process's memos: start it with no
        # network execution planned, so the run has to search.
        monkeypatch.setattr(common, "_EXECUTIONS", Memo())
        manager = GatewayJobManager(
            workers=1,
            cache_dir=str(isolated_cache / "results"),
            cache_enabled=False,
            start_method="fork",
        )
        manager.start()
        try:
            job = manager.submit("walkthrough", {"network": "AlexNet"})
            deadline = time.monotonic() + 120
            while not job.done and time.monotonic() < deadline:
                time.sleep(0.02)
            assert job.state == "done", job.error
        finally:
            manager.shutdown()
        entries = json.loads((isolated_cache / "schedules.json").read_text())
        assert len(entries) == 8  # AlexNet's distinct layer shapes


class TestInMemoryCache:
    def test_clear_schedule_cache(self, isolated_cache):
        scheduler = Scheduler(eyeriss_v1())
        a = scheduler.schedule_layer(small_layer())
        clear_schedule_cache()
        b = scheduler.schedule_layer(small_layer())
        assert a == b  # deterministic search, equal after re-search

    def test_different_accelerators_do_not_collide(self, isolated_cache):
        from repro.arch.presets import scaled_array

        layer = small_layer()
        big = Scheduler(scaled_array(28, 24)).schedule_layer(layer)
        small = Scheduler(scaled_array(4, 4)).schedule_layer(layer)
        x_big, y_big = big.space_shape
        x_small, y_small = small.space_shape
        assert x_small <= 4 and y_small <= 4
        assert (x_big, y_big) != (x_small, y_small)
