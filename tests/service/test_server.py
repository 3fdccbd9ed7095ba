"""End-to-end HTTP tests: a real gateway (``fork`` workers) on a random
port.

Includes the parity check: for four registered experiments, the payload
served by ``GET /v1/runs/<id>`` equals the ``rota <exp> --json`` output
(same ``to_dict()`` dictionary), and a repeated POST with identical
params is served as a cache hit visible in ``/metrics``.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.experiments.registry import run_experiment
from repro.gateway import GatewayConfig, GatewayService

#: (spec id, params, direct runner kwargs) for the parity sweep — cheap
#: experiments spanning no-param, int-param, and str-param schemas.
PARITY_CASES = [
    ("table2", {}, {}),
    ("unfold", {"x": 5, "y": 4}, {"x": 5, "y": 4}),
    ("walkthrough", {"network": "SqueezeNet"}, {"network": "SqueezeNet"}),
    ("fleet-accuracy", {"requests": 40}, {"num_requests": 40}),
]


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    cache_dir = tmp_path_factory.mktemp("service-cache")
    svc = GatewayService(
        GatewayConfig(
            port=0,
            workers=2,
            queue_depth=16,
            start_method="fork",
            cache_dir=str(cache_dir),
        )
    )
    svc.start()
    yield svc
    svc.shutdown()


def request(service, method, path, body=None):
    """One HTTP round-trip; returns (status, parsed JSON payload)."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    req = urllib.request.Request(
        service.url + path,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(req, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def submit_and_wait(service, spec_id, params, timeout=120.0):
    status, payload = request(
        service, "POST", f"/v1/experiments/{spec_id}/runs", params
    )
    assert status == 202, payload
    job_id = payload["job"]["id"]
    deadline = time.monotonic() + timeout
    while True:
        status, body = request(service, "GET", f"/v1/runs/{job_id}")
        assert status == 200, body
        if body["state"] in ("done", "failed", "cancelled"):
            return body
        assert time.monotonic() < deadline, f"job {job_id} stuck"
        time.sleep(0.05)


class TestHttpSurface:
    def test_healthz(self, service):
        status, payload = request(service, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"

    def test_experiments_listing(self, service):
        status, payload = request(service, "GET", "/v1/experiments")
        assert status == 200
        ids = {entry["id"] for entry in payload["experiments"]}
        assert {"table2", "unfold", "lifetime", "faults"} <= ids

    def test_invalid_json_body_is_structured_400(self, service):
        req = urllib.request.Request(
            service.url + "/v1/experiments/unfold/runs",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(req, timeout=30)
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["error"]["code"] == "invalid-request"
        assert "not valid JSON" in payload["error"]["message"]

    def test_validation_error_over_http(self, service):
        status, payload = request(
            service, "POST", "/v1/experiments/unfold/runs", {"x": "wide"}
        )
        assert status == 400
        assert payload["error"]["code"] == "invalid-params"
        assert "x" in payload["error"]["fields"]

    def test_unknown_route_over_http(self, service):
        status, payload = request(service, "GET", "/totally/unknown")
        assert status == 404
        assert payload["error"]["code"] == "not-found"


class TestParity:
    @pytest.mark.parametrize(
        "spec_id,params,kwargs",
        PARITY_CASES,
        ids=[case[0] for case in PARITY_CASES],
    )
    def test_run_payload_matches_cli_json(self, service, spec_id, params, kwargs):
        body = submit_and_wait(service, spec_id, params)
        assert body["state"] == "done", body["error"]
        direct = run_experiment(spec_id, **kwargs).result.to_dict()
        # Same dictionary `rota <exp> --json` prints; manifest timing
        # fields are allowed to differ and live under body["manifest"].
        assert body["result"] == json.loads(json.dumps(direct))
        assert body["manifest"]["spec_id"] == spec_id

    def test_repeat_post_is_cache_hit_in_metrics(self, service):
        params = {"x": 7, "y": 3}
        first = submit_and_wait(service, "unfold", params)
        assert first["state"] == "done"
        _, before = request(service, "GET", "/metrics")
        second = submit_and_wait(service, "unfold", params)
        assert second["state"] == "done"
        assert second["cached"] is True
        assert second["result"] == first["result"]
        _, after = request(service, "GET", "/metrics")
        assert after["cache"]["hits"] > before["cache"]["hits"]

    def test_metrics_track_jobs_and_requests(self, service):
        _, payload = request(service, "GET", "/metrics")
        assert payload["jobs"]["completed"] >= 1
        assert payload["requests"]["total"] >= 1
        assert payload["uptime_seconds"] > 0


class TestShutdown:
    def test_drain_summary_and_queued_cancellation(self, tmp_path):
        svc = GatewayService(
            GatewayConfig(
                port=0,
                workers=1,
                queue_depth=8,
                start_method="fork",
                cache_dir=str(tmp_path),
            )
        )
        svc.start()
        done = submit_and_wait(svc, "unfold", {"x": 3, "y": 3})
        assert done["state"] == "done"
        summary = svc.shutdown()
        assert "drained" in summary
        assert "1 completed" in summary

    def test_server_stops_accepting_after_shutdown(self, tmp_path):
        svc = GatewayService(
            GatewayConfig(
                port=0,
                workers=1,
                queue_depth=8,
                start_method="fork",
                cache_dir=str(tmp_path),
            )
        )
        svc.start()
        url = svc.url
        svc.shutdown()
        with pytest.raises(urllib.error.URLError):
            urllib.request.urlopen(url + "/healthz", timeout=2)
