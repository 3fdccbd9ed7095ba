"""Gateway hardening on ``fork`` workers: job timeouts (504) and the
circuit breaker. Fork workers inherit a monkeypatch made before the
manager starts, which is how these tests make executions slow or fail."""

import os
import time

import pytest

from repro.gateway import GatewayAPI, GatewayJobManager, JobState
from repro.resilience import CircuitBreaker, CircuitOpenError


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _wait_done(job, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not job.done:
        if time.monotonic() > deadline:
            raise AssertionError(f"job stuck in state {job.state!r}")
        time.sleep(0.01)


def _patch_run(monkeypatch, replacement):
    """Swap the run entrypoint the (not yet forked) workers will call."""
    import repro.experiments.registry as registry

    monkeypatch.setattr(registry, "run_experiment", replacement)


@pytest.fixture
def manager_factory(tmp_path):
    managers = []

    def build(**kwargs):
        kwargs.setdefault("workers", 1)
        manager = GatewayJobManager(
            cache_dir=str(tmp_path / "cache"),
            cache_enabled=False,
            start_method="fork",
            **kwargs,
        )
        manager.start()
        managers.append(manager)
        return manager

    yield build
    for manager in managers:
        manager.shutdown(timeout=5.0)


class TestJobTimeout:
    def test_overrunning_job_flips_to_timeout(
        self, manager_factory, monkeypatch
    ):
        def slow_run(spec_id, **params):
            time.sleep(5.0)

        _patch_run(monkeypatch, slow_run)
        manager = manager_factory(job_timeout=0.2)
        job = manager.submit("unfold", {})
        _wait_done(job)
        assert job.state == JobState.TIMEOUT
        assert job.error["code"] == "timeout"
        assert manager.metrics.jobs_timeout == 1
        assert manager.metrics.jobs_failed == 0

    def test_timeout_job_detail_is_504(self, manager_factory, monkeypatch):
        _patch_run(monkeypatch, lambda *a, **k: time.sleep(5.0))
        manager = manager_factory(job_timeout=0.2)
        job = manager.submit("unfold", {})
        _wait_done(job)
        response = GatewayAPI(manager).handle("GET", f"/v1/runs/{job.id}", None)
        assert response.status == 504
        assert response.payload["state"] == "timeout"

    def test_fast_job_unaffected_by_deadline(self, manager_factory):
        manager = manager_factory(job_timeout=60.0)
        job = manager.submit("unfold", {})
        _wait_done(job)
        assert job.state == JobState.DONE

    def test_invalid_timeout_rejected(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            GatewayJobManager(job_timeout=0.0)


class TestCircuitBreakerIntegration:
    def _failing(self, monkeypatch, while_exists=None):
        """Make executions raise; with ``while_exists``, only as long as
        that file exists (a forked worker cannot see a later undo)."""
        import repro.experiments.registry as registry

        real_run = registry.run_experiment

        def fail(spec_id, **params):
            if while_exists is None or os.path.exists(while_exists):
                raise RuntimeError("worker blew up")
            return real_run(spec_id, **params)

        _patch_run(monkeypatch, fail)

    def test_consecutive_failures_open_and_shed(
        self, manager_factory, monkeypatch
    ):
        self._failing(monkeypatch)
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_seconds=30.0, clock=clock
        )
        manager = manager_factory(breaker=breaker)
        for _ in range(2):
            _wait_done(manager.submit("unfold", {}))
        assert breaker.state == "open"
        with pytest.raises(CircuitOpenError):
            manager.submit("unfold", {})

    def test_api_maps_open_circuit_to_503_with_retry_after(
        self, manager_factory, monkeypatch
    ):
        self._failing(monkeypatch)
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        manager = manager_factory(breaker=breaker)
        _wait_done(manager.submit("unfold", {}))
        response = GatewayAPI(manager).handle(
            "POST", "/v1/experiments/unfold/runs", {}
        )
        assert response.status == 503
        assert response.payload["error"]["code"] == "circuit-open"
        headers = dict(response.headers)
        assert int(headers["Retry-After"]) >= 1

    def test_successful_probe_closes_the_circuit(
        self, manager_factory, monkeypatch, tmp_path
    ):
        broken = tmp_path / "broken"
        broken.touch()
        self._failing(monkeypatch, while_exists=str(broken))
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_seconds=30.0, clock=clock
        )
        manager = manager_factory(breaker=breaker)
        _wait_done(manager.submit("unfold", {}))
        assert breaker.state == "open"
        clock.now += 30.0
        broken.unlink()  # the worker recovers
        probe = manager.submit("unfold", {})  # the half-open probe
        _wait_done(probe)
        assert probe.state == JobState.DONE
        assert breaker.state == "closed"

    def test_metrics_expose_breaker_state(self, manager_factory):
        breaker = CircuitBreaker(failure_threshold=5, cooldown_seconds=30.0)
        manager = manager_factory(breaker=breaker)
        response = GatewayAPI(manager).handle("GET", "/metrics", None)
        resilience = response.payload["resilience"]
        assert resilience["breaker"]["state"] == "closed"
        assert resilience["workers_restarted"] == 0
        assert response.payload["jobs"]["timeout"] == 0
