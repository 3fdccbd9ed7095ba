"""Unit tests for the gateway's pure pieces: coalescer, metrics EMA,
computed Retry-After, backpressure tiers, and config validation."""

import pytest

from repro.errors import ConfigurationError
from repro.gateway import (
    Coalescer,
    GatewayAPI,
    GatewayConfig,
    GatewayJobManager,
    GatewayMetrics,
    QueueFullError,
)
from repro.resilience import PoisonedTaskError


class TestCoalescer:
    def test_attach_only_while_key_is_open(self):
        coalescer = Coalescer()
        assert coalescer.attach("k1", "follower-0") is None
        coalescer.open("k1", "primary")
        assert coalescer.attach("k1", "follower-1") == "primary"
        assert coalescer.attach("k1", "follower-2") == "primary"
        assert coalescer.followers("k1") == ["follower-1", "follower-2"]
        assert coalescer.in_flight() == 1
        coalescer.resolve("k1")
        assert coalescer.attach("k1", "follower-3") is None
        assert coalescer.in_flight() == 0

    def test_resolve_clears_followers(self):
        coalescer = Coalescer()
        coalescer.open("k", "p")
        coalescer.attach("k", "f")
        coalescer.resolve("k")
        assert coalescer.followers("k") == []

    def test_quarantined_key_raises_poisoned(self):
        coalescer = Coalescer()
        coalescer.quarantine("bad-key", "lifetime:run-42")
        assert coalescer.quarantined_count() == 1
        with pytest.raises(PoisonedTaskError):
            coalescer.check_quarantine("bad-key")
        # Other keys stay unaffected.
        coalescer.check_quarantine("good-key")

    def test_quarantined_key_rejects_attach_and_open(self):
        coalescer = Coalescer()
        coalescer.open("k", "p")
        coalescer.quarantine("k", "label")
        with pytest.raises(PoisonedTaskError):
            coalescer.check_quarantine("k")


class TestServiceRateEstimator:
    def test_no_estimate_before_first_completion(self):
        metrics = GatewayMetrics()
        assert metrics.estimated_job_seconds() is None

    def test_ema_tracks_completions_only(self):
        metrics = GatewayMetrics()
        metrics.record_job_summary(None, 2.0)
        assert metrics.estimated_job_seconds() == pytest.approx(2.0)
        # Failures and timeouts must not drag the service-rate estimate.
        metrics.record_job_summary(None, 50.0, failed=True)
        metrics.record_job_summary(None, 50.0, timed_out=True)
        assert metrics.estimated_job_seconds() == pytest.approx(2.0)
        metrics.record_job_summary(None, 4.0)
        # EMA with alpha 0.3: 0.3 * 4 + 0.7 * 2 = 2.6
        assert metrics.estimated_job_seconds() == pytest.approx(2.6)

    def test_gateway_job_summary_feeds_the_same_ema(self):
        metrics = GatewayMetrics()
        metrics.record_job_summary({"cache_hits": 1}, 3.0)
        assert metrics.estimated_job_seconds() == pytest.approx(3.0)
        assert metrics.cache_hits == 1


class TestComputedRetryAfter:
    def make_manager(self, workers=2):
        # Never started: submissions stay pending in the pool.
        return GatewayJobManager(workers=workers, queue_depth=4)

    def test_floor_of_one_without_an_estimate(self):
        manager = self.make_manager()
        assert manager.retry_after_seconds() == 1

    def test_scales_with_outstanding_over_workers(self):
        manager = self.make_manager(workers=2)
        manager.metrics.record_job_summary(None, 3.0)
        # No outstanding work: ceil(0 * 3 / 2) clamps up to the floor.
        assert manager.retry_after_seconds() == 1

    def test_clamped_to_sixty_seconds(self):
        manager = self.make_manager(workers=1)
        manager.metrics.record_job_summary(None, 1000.0)
        manager.submit("unfold", {})  # one outstanding execution
        assert manager.retry_after_seconds() == 60

    def test_queue_full_error_carries_the_hint(self):
        error = QueueFullError("full", retry_after=7)
        assert error.retry_after == 7

    def test_429_surfaces_the_computed_hint(self):
        class FullManager:
            metrics = GatewayMetrics()
            breaker = None

            def submit(self, spec_id, params):
                raise QueueFullError("full", retry_after=42)

        api = GatewayAPI(FullManager())
        response = api.handle(
            "POST", "/v1/experiments/unfold/runs", {"x": 4, "y": 4}
        )
        assert response.status == 429
        assert dict(response.headers)["Retry-After"] == "42"

    def test_quarantined_submission_is_422(self):
        class QuarantinedManager:
            metrics = GatewayMetrics()
            breaker = None

            def submit(self, spec_id, params):
                raise PoisonedTaskError("lifetime:run-1", 2, kind="crash")

        api = GatewayAPI(QuarantinedManager())
        response = api.handle(
            "POST", "/v1/experiments/unfold/runs", {"x": 4, "y": 4}
        )
        assert response.status == 422
        assert response.payload["error"]["code"] == "quarantined"


class TestGatewayConfig:
    def test_defaults_are_valid(self):
        config = GatewayConfig()
        assert config.workers == 4
        assert config.start_method == "spawn"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"workers": 0},
            {"queue_depth": 0},
            {"request_timeout": 0.0},
            {"breaker_threshold": 0},
            {"breaker_cooldown": 0.0},
            {"task_attempts": 0},
            {"start_method": "threads"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigurationError):
            GatewayConfig(**kwargs)


class TestGatewayMetricsSnapshot:
    def test_snapshot_keeps_service_shape_and_adds_gateway(self):
        metrics = GatewayMetrics()
        metrics.record_submitted()
        metrics.record_coalesced()
        metrics.record_execution()
        metrics.record_not_modified()
        metrics.record_sse_stream()
        body = metrics.snapshot(tier="accept", retry_after_hint=3)
        # The job, request and cache sections sit beside the gateway one.
        assert "jobs" in body and "requests" in body and "cache" in body
        section = body["gateway"]
        assert section["coalesced"] == 1
        assert section["executions_dispatched"] == 1
        assert section["coalesce_ratio"] == pytest.approx(1.0)
        assert section["not_modified"] == 1
        assert section["sse_streams"] == 1
        assert section["backpressure"] == {
            "tier": "accept",
            "retry_after_hint": 3,
        }

    def test_coalesce_ratio_handles_zero_submissions(self):
        assert GatewayMetrics().coalesce_ratio() == 0.0
