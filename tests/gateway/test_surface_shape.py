"""Pins the key shapes of the serving surface that clients and perfbench read.

A fork-started gateway serves one ``unfold`` run; the test then records
the nested key tree of ``/metrics``, the key set of ``/healthz`` (and
of one worker row), the keys of a job's ``summary()`` and ``detail()``
and of one events entry. Values are not pinned (they are timings and
counters); the payload bytes are pinned by
``test_gateway_http.py::TestParity::test_run_payload_matches_cli_json``.
"""

import json
import time
import urllib.request

import pytest

from repro.gateway import GatewayConfig, GatewayService

#: ``None`` marks a leaf; ``requests.by_status`` is keyed by the status
#: codes seen so far, so only its presence is pinned.
METRICS_TREE = {
    "cache": {"evictions": None, "hits": None, "misses": None, "puts": None},
    "gateway": {
        "backpressure": {"retry_after_hint": None, "tier": None},
        "coalesce_ratio": None,
        "coalesced": None,
        "executions_dispatched": None,
        "keys_in_flight": None,
        "keys_quarantined": None,
        "not_modified": None,
        "sse_streams": None,
    },
    "jobs": {
        "cancelled": None,
        "completed": None,
        "ema_seconds": None,
        "failed": None,
        "rejected": None,
        "seconds": None,
        "submitted": None,
        "timeout": None,
    },
    "queue": {"depth": None, "running": None},
    "requests": {"by_status": None, "total": None},
    "resilience": {
        "breaker": {
            "consecutive_failures": None,
            "cooldown_seconds": None,
            "failure_threshold": None,
            "opens": None,
            "state": None,
        },
        "cache_corruptions": None,
        "task_quarantines": None,
        "task_retries": None,
        "task_timeouts": None,
        "workers_restarted": None,
    },
    "started_at": None,
    "tasks": {"run": None, "seconds": None},
    "uptime_seconds": None,
}

HEALTHZ_KEYS = {
    "status",
    "tier",
    "uptime_seconds",
    "version",
    "workers",
    "workers_alive",
}

WORKER_ROW_KEYS = {
    "alive",
    "busy",
    "current_job",
    "id",
    "jobs_completed",
    "kind",
    "pid",
    "ready",
    "restarts",
}

SUMMARY_KEYS = {
    "cached",
    "coalesced",
    "created_at",
    "error",
    "finished_at",
    "id",
    "params",
    "spec_id",
    "started_at",
    "state",
    "version",
}

DETAIL_KEYS = SUMMARY_KEYS | {"manifest", "result"}

EVENTS_BODY_KEYS = {"events", "job_id", "terminal"}

EVENT_KEYS = {"cached", "coalesced", "job_id", "seq", "state", "ts"}


def key_tree(value):
    """The nested key structure of a JSON object, leaves as ``None``."""
    if isinstance(value, dict):
        return {key: key_tree(item) for key, item in value.items()}
    return None


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    """A gateway that has run one job to ``done``, plus that job's id."""
    svc = GatewayService(
        GatewayConfig(
            port=0,
            workers=1,
            start_method="fork",
            cache_dir=str(tmp_path_factory.mktemp("shape-cache")),
        )
    )
    svc.start()
    req = urllib.request.Request(
        svc.url + "/v1/experiments/unfold/runs",
        data=json.dumps({"x": 4, "y": 4}).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req, timeout=30) as response:
        submitted = json.loads(response.read())
    job_id = submitted["job"]["id"]
    deadline = time.monotonic() + 60
    while get(svc, f"/v1/runs/{job_id}")["state"] != "done":
        assert time.monotonic() < deadline, "pin job stuck"
        time.sleep(0.05)
    yield svc, submitted, job_id
    svc.shutdown()


def get(svc, path):
    with urllib.request.urlopen(svc.url + path, timeout=30) as response:
        return json.loads(response.read())


class TestSurfaceShape:
    def test_metrics_key_tree(self, served):
        svc, _, _ = served
        tree = key_tree(get(svc, "/metrics"))
        tree["requests"]["by_status"] = None
        assert tree == METRICS_TREE

    def test_healthz_keys(self, served):
        svc, _, _ = served
        body = get(svc, "/healthz")
        assert set(body) == HEALTHZ_KEYS
        assert [set(row) for row in body["workers"]] == [WORKER_ROW_KEYS]

    def test_job_summary_and_detail_keys(self, served):
        svc, submitted, job_id = served
        assert set(submitted["job"]) == SUMMARY_KEYS
        assert set(get(svc, "/v1/runs")["runs"][0]) == SUMMARY_KEYS
        assert set(get(svc, f"/v1/runs/{job_id}")) == DETAIL_KEYS

    def test_events_entry_keys(self, served):
        svc, _, job_id = served
        body = get(svc, f"/v1/runs/{job_id}/events")
        assert set(body) == EVENTS_BODY_KEYS
        assert [event["state"] for event in body["events"]] == [
            "queued",
            "running",
            "done",
        ]
        for event in body["events"]:
            assert set(event) == EVENT_KEYS
