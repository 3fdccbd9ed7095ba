"""Tests for the per-process memo primitive."""

import threading

from repro.runtime.memo import DEFAULT_CAP, Memo, memo_cap


class TestCap:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTION_CACHE_SIZE", raising=False)
        assert memo_cap() == DEFAULT_CAP

    def test_env_override_and_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "3")
        assert memo_cap() == 3
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "-4")
        assert memo_cap() == 0
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "lots")
        assert memo_cap() == DEFAULT_CAP


class TestMemo:
    def test_builds_once_per_key(self):
        memo = Memo()
        calls = []

        def build():
            calls.append(1)
            return object()

        first = memo.get_or_build("k", build)
        assert memo.get_or_build("k", build) is first
        assert len(calls) == 1

    def test_least_recently_used_entry_is_evicted(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "2")
        memo = Memo()
        a = memo.get_or_build("a", object)
        memo.get_or_build("b", object)
        assert memo.get_or_build("a", object) is a  # "b" is now oldest
        memo.get_or_build("c", object)
        assert len(memo) == 2
        assert memo.get_or_build("a", object) is a
        calls = []
        memo.get_or_build("b", lambda: calls.append(1) or object())
        assert calls == [1]

    def test_cap_zero_stores_nothing(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTION_CACHE_SIZE", "0")
        memo = Memo()
        assert memo.get_or_build("k", object) is not memo.get_or_build("k", object)
        assert len(memo) == 0

    def test_clear(self):
        memo = Memo()
        memo.get_or_build("k", object)
        memo.clear()
        assert len(memo) == 0

    def test_racing_calls_return_the_first_stored_value(self):
        """Builds run outside the lock; racing calls for one key all
        return the single value that was stored."""
        memo = Memo()
        barrier = threading.Barrier(4)
        seen = []

        def build():
            barrier.wait(timeout=10)
            return object()

        def call():
            seen.append(memo.get_or_build("k", build))

        threads = [threading.Thread(target=call) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(seen) == 4
        assert all(value is seen[0] for value in seen)
