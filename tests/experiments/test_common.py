"""Tests for the shared experiment plumbing."""

import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.experiments import common as common_module
from repro.experiments.common import (
    execution_for,
    paper_accelerator,
    run_policies,
    streams_for,
)
from repro.runtime import ResultCache


class TestPaperAccelerator:
    def test_dimensions(self):
        acc = paper_accelerator()
        assert (acc.width, acc.height) == (14, 12)
        assert acc.is_torus

    def test_mesh_variant(self):
        assert not paper_accelerator(torus=False).is_torus


class TestExecutionCache:
    def test_repeated_calls_share_object(self):
        first = execution_for("SqueezeNet")
        second = execution_for("SqueezeNet")
        assert first is second

    def test_streams_match_execution(self):
        streams = streams_for("SqueezeNet")
        execution = execution_for("SqueezeNet")
        assert len(streams) == len(execution.layers)

    def test_same_dimensions_different_config_do_not_collide(self):
        """Regression: the cache used to key on (name, width, height,
        options) only, aliasing accelerators that differ in anything
        but array dimensions."""
        from dataclasses import replace

        from repro.arch.buffers import GlobalBuffer

        base = paper_accelerator()
        shrunk_glb = replace(
            base,
            name=base.name,  # same name, same dimensions: worst case
            glb=GlobalBuffer(
                replace(
                    base.glb.buffer,
                    capacity_bytes=base.glb.capacity_bytes // 4,
                )
            ),
        )
        assert (base.width, base.height) == (shrunk_glb.width, shrunk_glb.height)
        normal = execution_for("SqueezeNet", base)
        constrained = execution_for("SqueezeNet", shrunk_glb)
        assert normal is not constrained
        # A quarter of the GLB changes the energy-optimal schedules.
        assert constrained.total_tiles != normal.total_tiles

    def test_concurrent_callers_share_a_bounded_cache(self, monkeypatch):
        """More threads than cores thrash a 2-entry cache over 3 keys;
        no lookup may lose its entry to a concurrent eviction."""
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "2")

        class StubSimulator:
            def __init__(self, accelerator, options):
                pass

            def execute_network(self, layers, name):
                return SimpleNamespace(network_name=name)

        # A cheap stub, so the threads spend their time in the cache's
        # get / insert / evict steps; a private accelerator keeps the
        # stub entries away from every other test's keys.
        monkeypatch.setattr(common_module, "DataflowSimulator", StubSimulator)
        accelerator = replace(paper_accelerator(), name="execution-stress")
        networks = ("SqueezeNet", "ResNet-50", "ViT")
        errors = []

        def hammer(offset):
            try:
                for step in range(10000):
                    name = networks[(step + offset) % len(networks)]
                    assert execution_for(name, accelerator).network_name == name
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


class TestRunPolicies:
    def test_all_three_policies(self):
        streams = streams_for("SqueezeNet")
        results = run_policies(streams, iterations=2)
        assert set(results) == {"baseline", "rwl", "rwl+ro"}

    def test_equal_total_work(self):
        """The Eq. 4 precondition."""
        streams = streams_for("SqueezeNet")
        results = run_policies(streams, iterations=2, record_trace=False)
        totals = {name: int(res.counts.sum()) for name, res in results.items()}
        assert len(set(totals.values())) == 1

    def test_baseline_runs_on_mesh(self):
        streams = streams_for("SqueezeNet")
        results = run_policies(streams, policies=("baseline",), iterations=1)
        assert "mesh" in results["baseline"].accelerator_name

    def test_striding_runs_on_torus(self):
        streams = streams_for("SqueezeNet")
        results = run_policies(streams, policies=("rwl+ro",), iterations=1)
        assert "torus" in results["rwl+ro"].accelerator_name

    def test_explicit_jobs_accepted(self):
        import numpy as np

        streams = streams_for("SqueezeNet")
        serial = run_policies(streams, iterations=2, record_trace=False, jobs=1)
        parallel = run_policies(streams, iterations=2, record_trace=False, jobs=2)
        for name in serial:
            assert np.array_equal(serial[name].counts, parallel[name].counts)

    def test_disabled_store_builds_no_key(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("run key was built")

        monkeypatch.setattr(common_module, "run_policy_key", boom)
        streams = streams_for("SqueezeNet")
        cache = ResultCache(enabled=False)
        results = run_policies(streams, iterations=1, cache=cache)
        assert set(results) == {"baseline", "rwl", "rwl+ro"}

    def test_enabled_store_keys_every_policy(self, monkeypatch, tmp_path):
        keys = []
        real = common_module.run_policy_key

        def spy(*args):
            keys.append(real(*args))
            return keys[-1]

        monkeypatch.setattr(common_module, "run_policy_key", spy)
        streams = streams_for("SqueezeNet")
        cache = ResultCache(tmp_path, enabled=True)
        run_policies(streams, iterations=1, cache=cache)
        assert len(set(keys)) == 3
        assert cache.stats().entries == 3
