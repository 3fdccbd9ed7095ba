"""Tests for content hashing and the persistent result cache."""

from dataclasses import replace

import numpy as np
import pytest

from repro.arch.buffers import Buffer, GlobalBuffer
from repro.arch.presets import eyeriss_v1
from repro.arch.topology import Topology
from repro.core.policies import StrideTrigger
from repro.dataflow.scheduler import SchedulerOptions
from repro.errors import ConfigurationError
from repro.runtime.cache import ResultCache
from repro.runtime.fingerprint import accelerator_fingerprint, content_hash


class TestContentHash:
    def test_deterministic(self):
        assert content_hash("a", 1, 2.5) == content_hash("a", 1, 2.5)

    def test_order_sensitive(self):
        assert content_hash(1, 2) != content_hash(2, 1)

    def test_type_sensitive(self):
        assert content_hash(1) != content_hash("1")
        assert content_hash(1) != content_hash(1.0)

    def test_dict_key_order_irrelevant(self):
        assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})

    def test_dataclasses_and_enums(self):
        a = content_hash(SchedulerOptions(), StrideTrigger.ORIGIN)
        b = content_hash(SchedulerOptions(), StrideTrigger.WRAP)
        c = content_hash(SchedulerOptions(objective="latency"), StrideTrigger.ORIGIN)
        assert len({a, b, c}) == 3

    def test_ndarray_content(self):
        x = np.arange(6)
        assert content_hash(x) == content_hash(np.arange(6))
        assert content_hash(x) != content_hash(x.astype(np.int32))
        assert content_hash(x) != content_hash(x.reshape(2, 3))

    def test_unknown_objects_rejected(self):
        with pytest.raises(ConfigurationError):
            content_hash(object())


class TestAcceleratorFingerprint:
    def test_full_config_participates(self):
        """Regression for the old (name, width, height) execution-cache
        key: same array dimensions, different GLB, different key."""
        base = eyeriss_v1(torus=True)
        bigger_glb = type(base)(
            name=base.name,
            array=base.array,
            glb=GlobalBuffer(
                Buffer(
                    name="glb",
                    capacity_bytes=base.glb.capacity_bytes * 2,
                    read_energy_pj=base.glb.buffer.read_energy_pj,
                    write_energy_pj=base.glb.buffer.write_energy_pj,
                )
            ),
            noc=base.noc,
            dram=base.dram,
            clock_mhz=base.clock_mhz,
        )
        assert (base.width, base.height) == (bigger_glb.width, bigger_glb.height)
        assert accelerator_fingerprint(base) != accelerator_fingerprint(bigger_glb)

    def test_topology_participates(self):
        rota = eyeriss_v1(torus=True)
        assert accelerator_fingerprint(rota) != accelerator_fingerprint(
            rota.as_mesh()
        )

    def test_stable_across_calls(self):
        assert accelerator_fingerprint(eyeriss_v1()) == accelerator_fingerprint(
            eyeriss_v1()
        )

    def test_equal_instances_share_one_fingerprint(self, monkeypatch):
        """Each distinct value is serialized once per process; an equal
        but distinct instance reuses its fingerprint."""
        first = replace(eyeriss_v1(), name="fingerprint-probe")
        second = replace(eyeriss_v1(), name="fingerprint-probe")
        assert first is not second and first == second
        expected = accelerator_fingerprint(first)

        def boom(accelerator):
            raise AssertionError("fingerprint was recomputed")

        monkeypatch.setattr("repro.arch.serialize.accelerator_to_dict", boom)
        assert accelerator_fingerprint(second) == expected

    def test_every_hardware_block_participates(self):
        base = eyeriss_v1(torus=True)
        noc = base.noc
        variants = [
            replace(base, glb=GlobalBuffer(replace(base.glb.buffer, capacity_bytes=1024))),
            replace(
                base,
                noc=replace(
                    noc,
                    global_net=replace(
                        noc.global_net,
                        bandwidth_bytes_per_cycle=noc.global_net.bandwidth_bytes_per_cycle + 1,
                    ),
                ),
            ),
            replace(
                base,
                noc=replace(
                    noc,
                    local_net=replace(
                        noc.local_net, energy_per_hop_pj=noc.local_net.energy_per_hop_pj * 2
                    ),
                ),
            ),
            replace(
                base,
                dram=replace(
                    base.dram, bandwidth_bytes_per_cycle=base.dram.bandwidth_bytes_per_cycle + 1
                ),
            ),
            replace(base, clock_mhz=base.clock_mhz + 1),
            replace(base, array=base.array.with_topology(Topology.MESH)),
        ]
        fingerprints = {accelerator_fingerprint(base)}
        fingerprints.update(accelerator_fingerprint(variant) for variant in variants)
        assert len(fingerprints) == 1 + len(variants)


class TestResultCache:
    def test_roundtrip_numpy_payload(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        payload = {"counts": np.arange(12).reshape(3, 4), "label": "x"}
        cache.put("k1", payload)
        loaded = cache.get("k1")
        assert np.array_equal(loaded["counts"], payload["counts"])
        assert loaded["label"] == "x"
        assert "k1" in cache

    def test_miss_returns_none(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        assert cache.get("absent") is None
        assert "absent" not in cache

    def test_disabled_cache_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=False)
        cache.put("k", 42)
        assert cache.get("k") is None
        assert cache.stats().entries == 0

    def test_env_switch(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        assert not ResultCache(tmp_path).enabled
        monkeypatch.delenv("REPRO_RESULT_CACHE")
        assert ResultCache(tmp_path).enabled

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.put("k", [1, 2, 3])
        (tmp_path / "k.pkl").write_bytes(b"not a pickle")
        assert cache.get("k") is None

    def test_clear_and_stats(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        for index in range(3):
            cache.put(f"k{index}", index)
        stats = cache.stats()
        assert stats.entries == 3
        assert stats.total_bytes > 0
        assert "3 entries" in stats.format()
        assert cache.clear() == 3
        assert cache.stats().entries == 0

    def test_respects_cache_dir_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_RESULT_CACHE", raising=False)
        cache = ResultCache()
        assert str(cache.directory) == str(tmp_path / "results")


class TestCachePrune:
    def _put_sized(self, cache, key, size, mtime):
        import os

        cache.put(key, b"x" * size)
        path = cache.directory / f"{key}.pkl"
        os.utime(path, (mtime, mtime))
        return path

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        old = self._put_sized(cache, "old", 4096, 1_000)
        mid = self._put_sized(cache, "mid", 4096, 2_000)
        new = self._put_sized(cache, "new", 4096, 3_000)
        total = cache.stats().total_bytes
        per_entry = total // 3
        removed = cache.prune(total - per_entry)
        assert removed == 1
        assert not old.exists()
        assert mid.exists() and new.exists()

    def test_prune_noop_when_under_limit(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        cache.put("k", list(range(10)))
        assert cache.prune(cache.stats().total_bytes) == 0
        assert cache.get("k") == list(range(10))

    def test_prune_zero_clears_everything(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        for index in range(3):
            cache.put(f"k{index}", index)
        assert cache.prune(0) == 3
        assert cache.stats().entries == 0

    def test_prune_negative_rejected(self, tmp_path):
        cache = ResultCache(tmp_path, enabled=True)
        with pytest.raises(ConfigurationError):
            cache.prune(-1)

    def test_prune_missing_directory(self, tmp_path):
        cache = ResultCache(tmp_path / "nowhere", enabled=True)
        assert cache.prune(0) == 0

    def test_put_honors_max_bytes(self, tmp_path):
        # A bound that fits one ~4 KiB entry but not two: the second
        # put must evict the older entry, keeping the newest.
        cache = ResultCache(tmp_path, enabled=True, max_bytes=5000)
        self._put_sized(cache, "old", 4096, 1_000)
        cache.put("new", b"y" * 4096)
        assert cache.stats().entries == 1
        assert not (tmp_path / "old.pkl").exists()
        assert (tmp_path / "new.pkl").exists()

    def test_max_bytes_env_parsing(self, monkeypatch):
        from repro.runtime.cache import max_bytes_env

        monkeypatch.delenv("REPRO_CACHE_MAX_BYTES", raising=False)
        assert max_bytes_env() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "1048576")
        assert max_bytes_env() == 1048576
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "garbage")
        assert max_bytes_env() is None
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "0")
        assert max_bytes_env() is None

    def test_env_bound_applies_to_default_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_BYTES", "3000")
        cache = ResultCache(tmp_path, enabled=True)
        self._put_sized(cache, "a", 2048, 1_000)
        cache.put("b", b"z" * 2048)
        assert cache.stats().entries == 1
        assert (tmp_path / "b.pkl").exists()
